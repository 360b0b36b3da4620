"""The virtual cluster execution engine.

:class:`VirtualCluster` is what every distributed algorithm in the
library runs on.  It provides:

- ``launch`` — enqueue a compute kernel on a device stream; simulated
  duration comes from the roofline (Eq. 3) + launch latency, and the
  optional ``fn`` performs the *real* NumPy computation on the device's
  memory dict.
- ``sendrecv`` — point-to-point transfer occupying both endpoints' comm
  streams (halo exchanges).
- ``alltoall`` / ``allgather`` — the legacy flat ("bulk") collectives
  costed with the topology's effective bandwidth; ``alltoall`` supports
  chunking so transposes can pipeline against local compute, as cuFFTXT
  does.  Pipelines issue collectives through :mod:`repro.comm`, which
  either delegates here (``algorithm="bulk"``) or decomposes them into
  explicit per-round ``sendrecv`` message plans.
- events/streams — explicit dependencies, so overlap is expressed the
  same way the paper's CUDA implementation expresses it.

Orchestration is sequential Python: the coordinator issues ops in a
valid serialization order, ``fn`` closures run immediately (so data is
always ready), and the event algebra reconstructs what the *parallel*
timeline would have been.

All timing arithmetic lives here, once.  :meth:`VirtualCluster.start_time`
is the start rule (the latest of the occupied streams' clocks and the
dependency floor), and one private commit per record shape — launch,
host op, self-send, p2p, bulk collective — applies it, stretches the
duration through the fault hook, appends the
:class:`~repro.machine.ledger.OpRecord`, runs ``fn`` and advances the
clocks.  The public primitives feed the commits from their ``after``
events; :class:`repro.ir.executor.ReplayExecutor` feeds the same commits
from a captured graph, and :mod:`repro.comm` dates its fault-outcome
queries with the start rule.  While :func:`repro.ir.capture.capture`
runs, each primitive also reports what it committed to the attached
recorder.

Every op additionally declares its buffer read/write sets (``reads`` /
``writes``, device-local buffer names; sendrecv reads on the source and
writes on the destination) and records which events it waited on.  The
declarations cost nothing at simulation time but let
:mod:`repro.analysis.hazards` prove the reconstructed parallel timeline
race-free — or pinpoint the missing dependency when it is not.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, Sequence

from repro.machine.device import Device
from repro.machine.ledger import Ledger, OpRecord
from repro.machine.roofline import op_time
from repro.machine.spec import ClusterSpec
from repro.machine.stream import Event, Stream
from repro.machine.trace import ExecutionTrace
from repro.util.validation import ParameterError


class VirtualCluster:
    """G simulated devices wired by an interconnect graph.

    Parameters
    ----------
    spec:
        The node description (devices + topology).
    execute:
        True runs real NumPy compute alongside the timing simulation;
        False records timing only (shape-determined), enabling sweeps at
        sizes where Python-side numerics would be prohibitive.
    faults:
        Optional :class:`~repro.faults.FaultInjector`.  When installed,
        stragglers/degraded links stretch recorded op durations and
        :mod:`repro.comm` consults it for per-attempt outcomes (retrying
        under ``retry``).  With no injector — or an injector that never
        fires — every duration is bit-identical to the fault-free path.
    retry:
        Optional :class:`~repro.comm.retry.RetryPolicy` governing the
        comm layer's timeout/backoff/budget.  Defaults to
        ``DEFAULT_RETRY`` whenever ``faults`` is installed.
    telemetry:
        Optional :class:`~repro.obs.telemetry.MetricsRegistry`.  When
        installed, the comm layer emits ``comm.bytes`` /
        ``comm.retry`` / ``comm.measured_vs_model`` series (stamped
        with simulated time).  None (the default) keeps the bare
        cluster's hot path free of any instrumentation.
    """

    def __init__(self, spec: ClusterSpec, execute: bool = True,
                 faults=None, retry=None, telemetry=None):
        self.spec = spec
        self.execute = execute
        if faults is not None and faults.spec.num_devices != spec.num_devices:
            raise ParameterError(
                f"fault injector built for {faults.spec.num_devices} devices, "
                f"cluster has {spec.num_devices}"
            )
        if retry is not None and faults is None:
            raise ParameterError("retry policy given without a fault injector")
        self.faults = faults
        if faults is not None and retry is None:
            from repro.comm.retry import DEFAULT_RETRY

            retry = DEFAULT_RETRY
        self.retry = retry
        #: live metrics registry, or None (serve installs one)
        self.telemetry = telemetry
        self.devices = [
            Device(g, spec.device, execute=execute) for g in range(spec.num_devices)
        ]
        self.ledger = Ledger()
        self._a2a_bw = spec.alltoall_bandwidth() if spec.num_devices > 1 else None
        self._comm_lat = spec.comm_latency()
        #: each device's full-duplex comm engines (tx, rx)
        self._tx = [d.stream("comm.tx") for d in self.devices]
        self._rx = [d.stream("comm.rx") for d in self.devices]
        self._comm_streams = self._tx + self._rx
        #: the capture hook (:mod:`repro.ir.capture`) while one is active
        self._recorder = None
        self._regions: list[str] = []
        #: one entry per repro.comm collective call (algorithm, payload,
        #: predicted time) — joined against the ledger by obs.metrics
        self.comm_log: list[dict] = []

    # -- basic accessors ----------------------------------------------

    @property
    def G(self) -> int:
        return self.spec.num_devices

    def dev(self, g: int) -> Device:
        return self.devices[g]

    def wall_time(self) -> float:
        """Latest clock across all streams of all devices."""
        return max(d.max_clock() for d in self.devices)

    def reset_time(self) -> None:
        """Zero all stream clocks and clear the ledger (memory persists).

        An installed fault injector is reset too (reseeded, online
        transient events dropped), so run → reset → run replays
        bit-identically.
        """
        for d in self.devices:
            d.reset_time()
        self.ledger = Ledger()
        if self.faults is not None:
            self.faults.reset()

    def trace(self) -> ExecutionTrace:
        return ExecutionTrace(self.ledger, self.spec)

    def sanitize(self) -> None:
        """Run the hazard sanitizer over the ledger; raise on any finding.

        Strict mode for tests and ``--sanitize`` CLI runs: raises
        :class:`~repro.analysis.hazards.HazardError` if the recorded
        schedule has data hazards or structural defects.
        """
        from repro.analysis.hazards import find_hazards

        find_hazards(self.ledger).raise_if_any()

    # -- region annotation --------------------------------------------

    @property
    def region_path(self) -> str:
        """The '/'-joined path of the active region scopes ('' if none)."""
        return "/".join(self._regions)

    @contextmanager
    def region(self, name: str) -> Iterator["VirtualCluster"]:
        """Scope ops under a pipeline-stage region (nestable).

        Every op issued inside the ``with`` block is stamped with the
        full region path, e.g.::

            with cl.region("fmmfft"):
                with cl.region("fmm"):
                    cl.launch(...)        # region == "fmmfft/fmm"

        Regions are telemetry only — they never affect timing, events,
        or the hazard analysis.  The metrics engine in :mod:`repro.obs`
        rolls ledger records up by this path.
        """
        if not name or "/" in name:
            raise ParameterError(
                f"region name must be a non-empty path segment, got {name!r}"
            )
        self._regions.append(name)
        try:
            yield self
        finally:
            self._regions.pop()

    # -- the engine: one start rule, one commit per record shape --------

    @staticmethod
    def start_time(streams: Iterable[Stream], floor: float = 0.0) -> float:
        """The start rule: the latest of the streams' clocks and ``floor``.

        An op starts once every stream it occupies is free and every
        dependency has completed; ``floor`` is the latest dependency
        completion time.  Side-effect free, so :mod:`repro.comm` uses it
        to date fault-outcome queries before issuing.
        """
        for st in streams:
            if st.clock > floor:
                floor = st.clock
        return floor

    @staticmethod
    def _after(after: Sequence[Event]) -> tuple[float, tuple]:
        """Dependency floor and waited-on uids of an ``after`` list.

        ``None`` entries are rejected: a silently skipped dependency is
        exactly the class of bug the hazard sanitizer exists to catch.
        """
        floor = 0.0
        waits = []
        for ev in after:
            if ev is None:
                raise ValueError(
                    "None event in dependency list; filter absent "
                    "dependencies at the call site instead of passing None")
            if ev.time > floor:
                floor = ev.time
            if ev.op >= 0:
                waits.append(ev.op)
        return floor, tuple(waits)

    @staticmethod
    def _qualify(g: int, keys: Sequence[str]) -> tuple:
        """Tag device-local buffer names with their device id."""
        return tuple((g, k) for k in keys)

    # Each commit takes the dependency floor, the waited-on uids and the
    # region path first, then the op's own fields (device ids, not
    # streams, so a compiled replay program is cluster-independent).  It
    # applies the start rule and the fault duration hook, appends the
    # record(s), runs ``fn`` and advances the streams; it returns
    # ``(start, end, uid)``, with the per-device uid list for a
    # collective.  The public primitives feed the commits from their
    # ``after`` events, :class:`repro.ir.executor.ReplayExecutor` from a
    # captured graph.  Records are built positionally, in OpRecord field
    # order: keyword binding costs a fifth of a record on this path.

    def _commit_launch(self, floor, waits, region, g, stream, kind, name,
                       dur, flops, mops, reads, writes, fn):
        st = self.devices[g].stream(stream)
        start = self.start_time((st,), floor)
        if self.faults is not None:
            dur *= self.faults.compute_scale(g, start)
        uid = self.ledger.append(OpRecord(
            g, stream, kind, name, start, dur, flops, mops, 0.0, -1, -1,
            reads, writes, waits, region))
        if fn is not None and self.execute:
            fn(self)
        end = start + dur
        st.clock = end
        return start, end, uid

    def _commit_host(self, floor, waits, region, g, name, reads, writes, fn):
        start = self.start_time((self.devices[g].stream("compute"),), floor)
        uid = self.ledger.append(OpRecord(
            g, "compute", "host", name, start, 0.0, 0.0, 0.0, 0.0, -1, -1,
            reads, writes, waits, region))
        if fn is not None and self.execute:
            fn(self)
        return start, start, uid

    def _commit_self_send(self, floor, waits, region, g, name, reads, writes,
                          fn):
        tx, rx = self._tx[g], self._rx[g]
        start = self.start_time((tx, rx), floor)
        uid = self.ledger.append(OpRecord(
            g, "comm", "comm", name, start, 0.0, 0.0, 0.0, 0.0, g, -1,
            reads, writes, waits, region))
        if fn is not None and self.execute:
            fn(self)
        tx.clock = rx.clock = start
        return start, start, uid

    def _commit_p2p(self, floor, waits, region, src, dst, name, dur, nbytes,
                    reads, writes, fn):
        tx, rx = self._tx[src], self._rx[dst]
        start = self.start_time((tx, rx), floor)
        if self.faults is not None:
            dur *= self.faults.comm_scale(src, dst, start)
        uid = self.ledger.append(OpRecord(
            src, "comm", "comm", name, start, dur, 0.0, 0.0, nbytes, dst, -1,
            reads, writes, waits, region))
        if fn is not None and self.execute:
            fn(self)
        end = start + dur
        tx.clock = rx.clock = end
        return start, end, uid

    def _commit_collective(self, floor, waits, region, name, dur, nbytes,
                           reads, writes, fn, scaled=True):
        streams = self._comm_streams
        start = self.start_time(streams, floor)
        if scaled and self.faults is not None:
            dur *= self.faults.collective_scale(start)
        append = self.ledger.append
        uids = [append(OpRecord(
            g, "comm", "comm", name, start, dur, 0.0, 0.0, nbytes, -1, -1,
            reads[g], writes[g], waits, region)) for g in range(self.G)]
        if fn is not None and self.execute:
            fn(self)
        end = start + dur
        for st in streams:
            st.clock = end
        return start, end, uids

    def _collective1(self, floor, fn) -> float:
        """A G=1 collective: runs ``fn``, appends nothing, moves no clock;
        returns its completion time."""
        if fn is not None and self.execute:
            fn(self)
        return self.start_time(self._tx, floor)

    def _commit_barrier(self) -> float:
        """Advance every stream of every device to the global latest clock."""
        t = self.wall_time()
        for d in self.devices:
            for st in d.streams.values():
                st.advance_to(t)
        return t

    # -- compute -------------------------------------------------------

    def launch(
        self,
        g: int,
        name: str,
        kind: str,
        flops: float,
        mops: float,
        dtype,
        stream: str = "compute",
        after: Sequence[Event] = (),
        fn: Callable[["VirtualCluster"], None] | None = None,
        reads: Sequence[str] = (),
        writes: Sequence[str] = (),
    ) -> Event:
        """Enqueue one kernel on device ``g``.

        Returns the completion :class:`Event`.  ``fn(cluster)`` runs
        immediately when executing; its cost is *not* measured — the
        simulated duration is the roofline time plus launch latency.
        ``reads``/``writes`` declare the device-local buffers the kernel
        touches, for the hazard sanitizer.
        """
        spec = self.devices[g].spec
        floor, waits = self._after(after)
        dur = spec.launch_latency + op_time(spec, flops, mops, dtype, kind=kind)
        region = self.region_path
        _, end, uid = self._commit_launch(
            floor, waits, region, g, stream, kind, name, dur, flops, mops,
            self._qualify(g, reads), self._qualify(g, writes), fn)
        if self._recorder is not None:
            self._recorder.launch(
                after, uid, end, name=name, kind=kind, device=g,
                stream=stream, duration=dur, flops=flops, mops=mops,
                reads=tuple(reads), writes=tuple(writes), region=region,
                fn=fn)
        return Event(end, f"{stream}@dev{g}", op=uid)

    def host_action(
        self, fn: Callable[["VirtualCluster"], None] | None
    ) -> None:
        """Run a host-side data action with no ledger or timing footprint.

        For execute-mode data movement that is *not* an operation the
        schedule models (e.g. the FMM's halo stash, which mirrors data
        the comm layer is separately charged for).  Unlike
        :meth:`host_op` nothing is appended to the ledger, so existing
        ledgers and fingerprints are unchanged.  Routing such actions
        through this hook (instead of bare ``if cl.execute:`` blocks)
        is what lets the :mod:`repro.ir` capture layer see them and
        re-run them on replay.
        """
        if self._recorder is not None:
            self._recorder.host_action(fn)
        if fn is not None and self.execute:
            fn(self)

    def host_op(
        self,
        g: int,
        name: str,
        fn: Callable[["VirtualCluster"], None] | None = None,
        reads: Sequence[str] = (),
        writes: Sequence[str] = (),
    ) -> Event:
        """Zero-cost bookkeeping op (plan setup, pointer swaps)."""
        region = self.region_path
        start, _, uid = self._commit_host(
            0.0, (), region, g, name, self._qualify(g, reads),
            self._qualify(g, writes), fn)
        if self._recorder is not None:
            self._recorder.host_op(
                uid, start, name=name, device=g, reads=tuple(reads),
                writes=tuple(writes), region=region, fn=fn)
        return Event(start, name, op=uid)

    # -- point-to-point communication -----------------------------------

    def sendrecv(
        self,
        src: int,
        dst: int,
        nbytes: float,
        name: str,
        after: Sequence[Event] = (),
        fn: Callable[["VirtualCluster"], None] | None = None,
        reads: Sequence[str] = (),
        writes: Sequence[str] = (),
        bandwidth: float | None = None,
        latency: float | None = None,
    ) -> Event:
        """P2P transfer src -> dst on both comm streams.

        ``reads`` are buffers on the source device, ``writes`` buffers on
        the destination.  ``bandwidth``/``latency`` override the spec's
        pair values — :mod:`repro.comm` uses them to charge per-message
        link contention and per-link latency; left at ``None`` the
        transfer is costed exactly as before (worst-case link latency +
        full pair bandwidth).  ``comm_bytes`` records the full message
        size once, on the source device.

        A self-send (``src == dst``, including every G=1 transfer) is a
        local copy: it costs nothing and moves no interconnect bytes, but
        still appends a zero-duration ledger record carrying its
        read/write declares so the hazard sanitizer and G=1 traces see
        it (``fn`` still runs, so G=1 degenerates correctly).
        """
        floor, waits = self._after(after)
        region = self.region_path
        rec = self._recorder
        if src == dst or self.G == 1:
            _, end, uid = self._commit_self_send(
                floor, waits, region, src, name, self._qualify(src, reads),
                self._qualify(src, writes), fn)
            if rec is not None:
                rec.self_send(after, uid, end, name=name, device=src,
                              reads=tuple(reads), writes=tuple(writes),
                              region=region, fn=fn)
            return Event(end, f"comm.rx@dev{src}", op=uid)
        # Links are full duplex: the sender's tx engine and the receiver's
        # rx engine are occupied, so a ring shift (every device one send +
        # one receive) proceeds fully in parallel, as on real NVLink.
        link_lat = self._comm_lat if latency is None else latency
        bw = self.spec.pair_bandwidth(src, dst) if bandwidth is None else bandwidth
        dur = link_lat + nbytes / bw
        _, end, uid = self._commit_p2p(
            floor, waits, region, src, dst, name, dur, nbytes,
            self._qualify(src, reads), self._qualify(dst, writes), fn)
        if rec is not None:
            rec.p2p(after, uid, end, bandwidth, latency, name=name,
                    device=src, peer=dst, duration=dur, comm_bytes=nbytes,
                    reads=tuple(reads), writes=tuple(writes), region=region,
                    fn=fn)
        return Event(end, f"comm.rx@dev{dst}", op=uid)

    # -- collectives -----------------------------------------------------

    def _collective(
        self,
        name: str,
        bytes_per_device: float,
        after: Sequence[Event],
        fn: Callable[["VirtualCluster"], None] | None,
        reads: Sequence[str] = (),
        writes: Sequence[str] = (),
        duration: float | None = None,
    ) -> list[Event]:
        """Shared costing for alltoall/allgather (the ``bulk`` model).

        All devices' comm streams synchronize at the start (it is a
        collective), proceed at the topology's effective all-to-all
        bandwidth, and finish together.  ``reads``/``writes`` are
        device-local names applied per participating device.

        Byte accounting convention: each of the G records carries
        ``comm_bytes = bytes_per_device`` — the payload *that device*
        injects — so the ledger total for a collective is
        ``G * bytes_per_device``, symmetric with p2p ``sendrecv`` where
        the single record carries the full message the source injects.
        Summing ``comm_bytes`` over any record set therefore always
        yields "bytes injected by those devices", never double-counted.

        Pipelines should not call this directly: :mod:`repro.comm`
        wraps it (``algorithm="bulk"``) alongside the per-round message
        plans, and the ``raw-comm`` lint rule enforces that boundary.

        ``duration`` overrides the modelled cost — the retry layer uses
        it to charge a timed-out failed attempt (the retry timeout, not
        the transfer time) while keeping collective coherence: all G
        records share one name/start/duration.
        """
        floor, waits = self._after(after)
        if self.G == 1:
            ev = Event(self._collective1(floor, fn), name)
            if self._recorder is not None:
                self._recorder.collective1(after, ev, name=name, fn=fn)
            return [ev]
        # A collective saturates both directions on every device.  The
        # G-1 per-peer messages ride distinct links concurrently, so one
        # message latency is paid per collective call, not per peer —
        # plus the host-side synchronization cost of coordinating it.
        if duration is None:
            lat = self._comm_lat + self.spec.collective_overhead
            dur = lat + bytes_per_device / self._a2a_bw
        else:
            dur = duration
        region = self.region_path
        _, end, uids = self._commit_collective(
            floor, waits, region, name, dur, bytes_per_device,
            [self._qualify(g, reads) for g in range(self.G)],
            [self._qualify(g, writes) for g in range(self.G)],
            fn, duration is None)
        if self._recorder is not None:
            self._recorder.collective(
                after, uids, end, name=name, duration=dur,
                comm_bytes=bytes_per_device, reads=tuple(reads),
                writes=tuple(writes), region=region, fn=fn)
        return [Event(end, f"comm.rx@dev{g}", op=u) for g, u in enumerate(uids)]

    def alltoall(
        self,
        bytes_sent_per_device: float,
        name: str,
        after: Sequence[Event] = (),
        fn: Callable[["VirtualCluster"], None] | None = None,
        reads: Sequence[str] = (),
        writes: Sequence[str] = (),
    ) -> list[Event]:
        """Personalized all-to-all: each device sends ``bytes_sent_per_device``
        total, split evenly over the other G-1 devices.

        Returns one completion event per device.
        """
        return self._collective(name, bytes_sent_per_device, after, fn,
                                reads=reads, writes=writes)

    def allgather(
        self,
        bytes_per_device: float,
        name: str,
        after: Sequence[Event] = (),
        fn: Callable[["VirtualCluster"], None] | None = None,
        reads: Sequence[str] = (),
        writes: Sequence[str] = (),
    ) -> list[Event]:
        """Allgather: each device contributes ``bytes_per_device`` and ends
        with everyone's contribution.  Receive-side volume dominates:
        ``(G-1) * bytes_per_device`` per device at all-to-all bandwidth.
        """
        return self._collective(
            name, (self.G - 1) * bytes_per_device, after, fn,
            reads=reads, writes=writes,
        )

    def barrier(self) -> Event:
        """Synchronize every stream on every device to the global max."""
        ev = Event(self._commit_barrier(), "barrier")
        if self._recorder is not None:
            self._recorder.barrier(ev)
        return ev

    # -- comm log --------------------------------------------------------

    def log_comm(self, entry: dict) -> None:
        """Append one :mod:`repro.comm` call entry to ``comm_log``."""
        self.comm_log.append(entry)
        if self._recorder is not None:
            self._recorder.log(entry)

    def __repr__(self) -> str:  # pragma: no cover
        mode = "execute" if self.execute else "timing-only"
        return f"VirtualCluster({self.spec.name}, G={self.G}, {mode})"
