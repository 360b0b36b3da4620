"""Compiled replay executor: run a captured graph with zero planning.

:class:`ReplayExecutor` binds an :class:`~repro.ir.graph.IRGraph` to
one live cluster and compiles it exactly once — pre-qualifying (and
optionally slot-renaming) buffer declarations, pre-splitting region
paths, and freezing every modeled duration — and then :meth:`run` is a
walk over flat step tuples: per replayed op it
resolves the dependency floor and waited-on uids from the completion
times and uids of earlier steps, and hands them to the cluster's own
commit for that record shape (:mod:`repro.machine.cluster`), which
applies the start rule, appends the ledger record, runs the captured
NumPy closure (execute mode) and advances the streams — the same code
an interpreted run goes through.  Replay adds only the captured comm
telemetry and ``comm_log`` entries.  No pipeline object, plan,
operator bundle, comm plan, roofline evaluation, or region context
manager is constructed per run — that is the entire point.

Because the timing arithmetic is shared and all durations were
recorded fault-free, a replay beginning from the same stream state as
an interpreted run produces bit-identical ledger records (modulo the
requested buffer renaming / region prefix), which the bit-identity test
matrix asserts via :meth:`Ledger.fingerprint`.

Replay refuses fault-injecting clusters (captured durations cannot
reflect new faults) and machines whose spec fingerprint differs from
the capture machine (durations would silently misprice).
"""

from __future__ import annotations

import functools

from repro.ir.graph import (
    OP_ACTION,
    OP_BARRIER,
    OP_COLL,
    OP_COLL1,
    OP_HOST,
    OP_LAUNCH,
    OP_LOG,
    OP_P2P,
    OP_P2P_SELF,
)
from repro.machine.cluster import VirtualCluster
from repro.machine.spec import spec_fingerprint
from repro.util.validation import ParameterError


#: compiled step codes
_COMMIT, _COLL1, _BARRIER, _ACTION, _LOG = range(5)


class ReplayError(ParameterError):
    """The graph cannot be replayed on this cluster."""


def _compile(graph, rename, region_strip) -> list:
    """The graph as flat replay steps, independent of any cluster.

    Record ops become ``(_COMMIT, deps, commit, region remainder,
    commit args, p2p telemetry intent or None)``, where ``commit`` is
    the :class:`~repro.machine.cluster.VirtualCluster` commit for the
    node's record shape; the other opcodes carry their own fields.
    """
    old, new = rename if rename is not None else ("", "")
    G = graph.meta["G"]

    # graphs repeat a few buffer names and regions over many nodes
    @functools.cache
    def ren(name):
        return new + name[len(old):] if old and name.startswith(old) else name

    def q(g, names):
        return tuple([(g, ren(b)) for b in names])

    @functools.cache
    def rgn(region):
        return "/".join(region.split("/")[region_strip:]) if region else ""

    steps = []
    for n in graph.nodes:
        op, g = n.op, n.device
        intent = None
        if op == OP_LAUNCH:
            commit, args = VirtualCluster._commit_launch, (
                g, n.stream, n.kind, n.name, n.duration, n.flops, n.mops,
                q(g, n.reads), q(g, n.writes))
        elif op == OP_HOST:
            commit, args = VirtualCluster._commit_host, (
                g, n.name, q(g, n.reads), q(g, n.writes))
        elif op == OP_P2P_SELF:
            commit, args = VirtualCluster._commit_self_send, (
                g, n.name, q(g, n.reads), q(g, n.writes))
        elif op == OP_P2P:
            commit, args = VirtualCluster._commit_p2p, (
                g, n.peer, n.name, n.duration, n.comm_bytes, q(g, n.reads),
                q(n.peer, n.writes))
            intent = n.tel + (n.comm_bytes,)
        elif op == OP_COLL:
            commit, args = VirtualCluster._commit_collective, (
                n.name, n.duration, n.comm_bytes,
                [q(d, n.reads) for d in range(G)],
                [q(d, n.writes) for d in range(G)])
        elif op == OP_COLL1:
            steps.append((_COLL1, n.deps, n.fn))
            continue
        elif op == OP_BARRIER:
            steps.append((_BARRIER, ()))
            continue
        elif op == OP_ACTION:
            steps.append((_ACTION, (), n.fn))
            continue
        elif op == OP_LOG:
            p = n.payload
            steps.append((_LOG, (), dict(p["entry"]), p.get("bulk_ref", -1),
                          p.get("bulk_bytes", 0.0)))
            continue
        else:  # pragma: no cover - graph.validate() rejects these
            raise ReplayError(f"unknown IR opcode {op!r}")
        steps.append((_COMMIT, n.deps, commit, rgn(n.region), args + (n.fn,),
                      intent))
    return steps


class ReplayExecutor:
    """One graph compiled against one cluster (see module docstring).

    Parameters
    ----------
    graph:
        A captured (and normally certified) :class:`IRGraph`.
    cluster:
        The live cluster to replay onto.  Must be fault-free and match
        the capture spec fingerprint.
    rename:
        Optional ``(old_prefix, new_prefix)`` rewriting every captured
        buffer name that starts with ``old_prefix`` — how the serve
        layer re-homes a graph captured under ``serve.b<bid>`` into a
        reusable slot namespace.
    region_strip:
        Number of leading region-path components to drop at compile
        time; :meth:`run`'s ``region_prefix`` is prepended to the
        remainder, so replays can stamp truthful per-batch regions.
    """

    def __init__(self, graph, cluster, rename: tuple | None = None,
                 region_strip: int = 0):
        if cluster.faults is not None:
            raise ReplayError(
                "cannot replay on a fault-injecting cluster: captured "
                "durations are fault-free")
        if cluster.G != graph.meta["G"]:
            raise ReplayError(
                f"graph captured on G={graph.meta['G']}, "
                f"cluster has G={cluster.G}")
        fp = spec_fingerprint(cluster.spec)
        if fp != graph.meta["spec_fingerprint"]:
            raise ReplayError(
                "graph captured on a different machine spec; modeled "
                "durations would not transfer")
        self.graph = graph
        self.cluster = cluster
        self._tel_memo: tuple | None = None
        self._steps = _compile(graph, rename, region_strip)
        self._n = len(self._steps)

    # -- telemetry mirrors (same series/labels as repro.comm.api) ------

    def _series(self, tel, cls, link):
        memo = self._tel_memo
        if memo is None or memo[0] is not tel:
            memo = (tel, {})
            self._tel_memo = memo
        handles = memo[1]
        pair = handles.get((cls, link))
        if pair is None:
            pair = (tel.counter("comm.bytes", {"link_class": cls}),
                    tel.histogram("comm.measured_vs_model", {"link": link}))
            handles[(cls, link)] = pair
        return pair

    def _bulk_counter(self, tel):
        memo = self._tel_memo
        if memo is None or memo[0] is not tel:
            memo = (tel, {})
            self._tel_memo = memo
        c = memo[1].get("bulk")
        if c is None:
            c = tel.counter("comm.bytes", {"link_class": "bulk"})
            memo[1]["bulk"] = c
        return c

    # -- replay --------------------------------------------------------

    def run(self, release: float = 0.0, region_prefix: str = "") -> float:
        """Replay once; returns the latest record end time (the finish).

        ``release`` substitutes the external release dependency;
        ``region_prefix`` (e.g. ``"serve/b7"``) is prepended to each
        record's compile-stripped region remainder.
        """
        cl = self.cluster
        tel = cl.telemetry
        ends = [0.0] * self._n
        uids: list = [None] * self._n
        finish = 0.0
        pfx = region_prefix
        for i, step in enumerate(self._steps):
            code = step[0]
            floor = 0.0
            w = []
            for idx, sub, in_w in step[1]:
                t = release if idx < 0 else ends[idx]
                if t > floor:
                    floor = t
                if in_w:
                    u = uids[idx]
                    w.append(u if sub < 0 else u[sub])
            if code == _COMMIT:
                _, _, commit, rem, args, intent = step
                start, end, ref = commit(cl, floor, tuple(w),
                                         pfx + rem if pfx else rem, *args)
                ends[i] = end
                uids[i] = ref
                if end > finish:
                    finish = end
                if intent is not None and tel is not None:
                    cls, link, predicted, nbytes = intent
                    counter, ratio = self._series(tel, cls, link)
                    counter.inc(nbytes, t=end)
                    if predicted > 0.0 and end > start:
                        ratio.observe((end - start) / predicted, t=end)
            elif code == _COLL1:  # G=1 degenerate collective
                ends[i] = cl._collective1(floor, step[2])
            elif code == _BARRIER:
                ends[i] = cl._commit_barrier()
            elif code == _ACTION:  # host-side data action
                fn = step[2]
                if fn is not None and cl.execute:
                    fn(cl)
            else:  # comm_log entry (+ bulk byte counter)
                (_, _, entry, bulk_ref, bulk_bytes) = step
                cl.comm_log.append(dict(entry))
                if bulk_ref >= 0 and tel is not None:
                    self._bulk_counter(tel).inc(bulk_bytes,
                                                t=ends[bulk_ref])
        return finish


def scratch_replay(graph, spec):
    """Timing-only replay onto a fresh cluster; returns that cluster.

    The normalized single-run ledger this produces (clocks from zero,
    uids from zero) is what :meth:`IRGraph.certify` hazard-checks, and
    what tests fingerprint against an interpreted run.
    """
    cl = VirtualCluster(spec, execute=False)
    ReplayExecutor(graph, cl).run()
    return cl
