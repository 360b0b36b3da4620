"""Capture layer: record one interpreted pipeline run into an IRGraph.

:func:`capture` attaches a recorder to a live
:class:`~repro.machine.cluster.VirtualCluster` while ``run(cluster)``
runs and detaches it afterwards, even when ``run`` raises.  The run is
a plain interpreted run — same ledger, events, data and telemetry —
and every cluster primitive (``launch``/``host_op``/``sendrecv``/
``alltoall``/``allgather``/``barrier``/``host_action``, plus the comm
layer's ``log_comm``) reports what it just committed to the recorder,
which appends one :class:`~repro.ir.graph.IRNode` with its dependency
edges resolved from the event objects the pipeline passed.

Dependency resolution policy (events carry a ledger uid when real):

- ``ev is release_event`` — the external release dependency, index -1.
- ``ev.op >= 0`` — a uid from this capture maps to its producing node
  (and a ``sub`` device index when the producer is a collective);
  a uid from *outside* the capture is a :class:`CaptureError` (the
  graph would silently lose the edge on replay).
- synthetic ``op == -1`` events a captured primitive itself returned
  (G=1 degenerate collectives, barriers) resolve by identity.
- ``time == 0.0`` synthetics (``Event.zero()``) are dropped — a clock
  can never be behind t=0.
- any other synthetic aliases to the node whose completion time equals
  ``ev.time`` (G=1 halo/done fallbacks built by the comm layer); no
  match is a :class:`CaptureError`.

Capture refuses fault-injecting clusters: recorded durations embed any
fault stretching, so a replayed graph would launder a transient fault
into every future run.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.comm.api import _pair_info
from repro.ir.graph import (
    IRGraph,
    IRNode,
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
from repro.machine.spec import spec_fingerprint
from repro.machine.stream import Event
from repro.util.validation import ParameterError


class CaptureError(ParameterError):
    """A pipeline issued something the IR cannot faithfully replay."""


class _Recorder:
    """Builds the graph from what the cluster's primitives report.

    Each method is named after the primitive that calls it and takes
    the committed op's uid (a per-device list for a collective) and
    completion time, plus the :class:`IRNode` fields.
    """

    def __init__(self, cluster, release_event: Event | None):
        self._cl = cluster
        self._nodes: list[IRNode] = []
        self._uid2ref: dict[int, tuple[int, int]] = {}
        self._synth: dict[int, int] = {}
        self._end2idx: dict[float, int] = {}
        self._release = release_event

    def _deps(self, after: Sequence[Event]) -> tuple:
        out = []
        for ev in after:
            if ev is None:
                continue
            if ev is self._release:
                out.append((-1, -1, False))
                continue
            if ev.op >= 0:
                ref = self._uid2ref.get(ev.op)
                if ref is None:
                    raise CaptureError(
                        f"dependency on op uid={ev.op} issued outside this "
                        "capture; capture must cover the whole pipeline run")
                out.append((ref[0], ref[1], True))
                continue
            idx = self._synth.get(id(ev))
            if idx is not None:
                out.append((idx, -1, False))
                continue
            if ev.time == 0.0:
                continue
            idx = self._end2idx.get(ev.time)
            if idx is None:
                raise CaptureError(
                    f"unresolvable synthetic dependency {ev.label!r} at "
                    f"t={ev.time!r}: no captured node completes then")
            out.append((idx, -1, False))
        return tuple(out)

    def _add(self, op: str, after, ref, end: float, **fields) -> None:
        idx = len(self._nodes)
        self._nodes.append(IRNode(op=op, deps=self._deps(after), **fields))
        if isinstance(ref, list):
            for g, uid in enumerate(ref):
                self._uid2ref[uid] = (idx, g)
        else:
            self._uid2ref[ref] = (idx, -1)
        self._end2idx[end] = idx

    def launch(self, after, uid, end, **fields) -> None:
        self._add(OP_LAUNCH, after, uid, end, **fields)

    def host_op(self, uid, end, **fields) -> None:
        self._add(OP_HOST, (), uid, end, kind="host", stream="compute",
                  **fields)

    def self_send(self, after, uid, end, **fields) -> None:
        self._add(OP_P2P_SELF, after, uid, end, kind="comm",
                  peer=fields["device"], **fields)

    def p2p(self, after, uid, end, bandwidth, latency, **fields) -> None:
        """Also records the per-message telemetry intent, so replay
        emits the series :mod:`repro.comm.api` emitted."""
        src, dst = fields["device"], fields["peer"]
        cls, pair_lat, pair_bw, link = _pair_info(self._cl, src, dst)
        predicted = ((latency if latency is not None else pair_lat)
                     + fields["comm_bytes"] / (bandwidth if bandwidth is not None
                                               else pair_bw))
        self._add(OP_P2P, after, uid, end, kind="comm",
                  tel=(cls, link, predicted), **fields)

    def collective(self, after, uids, end, **fields) -> None:
        self._add(OP_COLL, after, uids, end, kind="comm", **fields)

    def collective1(self, after, ev: Event, **fields) -> None:
        self._synth[id(ev)] = len(self._nodes)
        self._nodes.append(IRNode(op=OP_COLL1, device=0,
                                  deps=self._deps(after), **fields))

    def barrier(self, ev: Event) -> None:
        idx = len(self._nodes)
        self._nodes.append(IRNode(op=OP_BARRIER, name="barrier"))
        self._synth[id(ev)] = idx
        self._end2idx[ev.time] = idx

    def host_action(self, fn: Callable | None) -> None:
        self._nodes.append(IRNode(op=OP_ACTION, name="host_action", fn=fn))

    def log(self, entry: dict) -> None:
        payload = {"entry": dict(entry)}
        if (entry.get("algorithm") == "bulk"
                and entry.get("kind") in ("alltoall", "allgather")
                and self._cl.G > 1):
            # comm.api emits the flat-model byte counter right after this
            # log entry, stamped at the final collective's completion
            for j in range(len(self._nodes) - 1, -1, -1):
                if self._nodes[j].op == OP_COLL:
                    payload["bulk_ref"] = j
                    payload["bulk_bytes"] = entry["payload"] * self._cl.G
                    break
        self._nodes.append(IRNode(op=OP_LOG, name=entry.get("name", "log"),
                                  payload=payload))


def capture(run: Callable, cluster, *, release_event: Event | None = None,
            pipeline: str = "", key=None, buffer_prefix: str = ""):
    """Capture one pipeline run: ``run(cluster)`` with a recorder attached.

    Returns ``(graph, result)`` where ``result`` is whatever ``run``
    returned — the capture run is a fully valid interpreted run (same
    ledger, same data, same telemetry), so its output is usable
    directly.  ``release_event`` marks an external dependency event to
    parameterize per replay; ``buffer_prefix`` documents the namespace
    captured buffer names live under (for slot renaming at replay).
    The recorder is detached when ``run`` returns or raises.
    """
    if cluster.faults is not None:
        raise CaptureError(
            "cannot capture on a fault-injecting cluster: recorded "
            "durations would bake transient faults into every replay")
    if cluster._recorder is not None:
        raise CaptureError("a capture is already recording on this cluster")
    rec = _Recorder(cluster, release_event)
    cluster._recorder = rec
    try:
        result = run(cluster)
    finally:
        cluster._recorder = None
    graph = IRGraph(rec._nodes, {
        "pipeline": pipeline,
        "key": key,
        "G": cluster.G,
        "spec_fingerprint": spec_fingerprint(cluster.spec),
        "buffer_prefix": buffer_prefix,
        "executed": bool(cluster.execute),
    })
    graph.validate()
    return graph, result
