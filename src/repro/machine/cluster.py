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

import numpy as np

from repro.machine.device import Device
from repro.machine.ledger import Ledger, OpRecord
from repro.machine.roofline import op_time
from repro.machine.spec import ClusterSpec
from repro.machine.stream import Event
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

    # -- dependency bookkeeping ---------------------------------------

    @staticmethod
    def _qualify(g: int, keys: Sequence[str]) -> tuple:
        """Tag device-local buffer names with their device id."""
        return tuple((g, k) for k in keys)

    @staticmethod
    def _wait_uids(after: Sequence[Event]) -> tuple:
        """Uids of the producing ops behind a dependency list."""
        return tuple(ev.op for ev in after if ev is not None and ev.op >= 0)

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
        dev = self.devices[g]
        st = dev.stream(stream)
        start = st.ready_after(*after)
        dur = dev.spec.launch_latency + op_time(dev.spec, flops, mops, dtype, kind=kind)
        if self.faults is not None:
            s = self.faults.compute_scale(g, start)
            if s != 1.0:
                dur *= s
        uid = self.ledger.append(
            OpRecord(
                device=g, stream=stream, kind=kind, name=name,
                start=start, duration=dur, flops=flops, mops=mops,
                reads=self._qualify(g, reads),
                writes=self._qualify(g, writes),
                waits=self._wait_uids(after),
                region=self.region_path,
            )
        )
        if fn is not None and self.execute:
            fn(self)
        return st.advance_to(start + dur, op=uid)

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
        dev = self.devices[g]
        st = dev.stream("compute")
        uid = self.ledger.append(
            OpRecord(device=g, stream="compute", kind="host", name=name,
                     start=st.clock, duration=0.0,
                     reads=self._qualify(g, reads),
                     writes=self._qualify(g, writes),
                     region=self.region_path)
        )
        if fn is not None and self.execute:
            fn(self)
        return Event(st.clock, name, op=uid)

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
        if src == dst or self.G == 1:
            if fn is not None and self.execute:
                fn(self)
            s_st = self.devices[src].stream("comm.tx")
            d_st = self.devices[src].stream("comm.rx")
            start = max(s_st.ready_after(*after), d_st.ready_after())
            uid = self.ledger.append(
                OpRecord(device=src, stream="comm", kind="comm", name=name,
                         start=start, duration=0.0, comm_bytes=0.0, peer=src,
                         reads=self._qualify(src, reads),
                         writes=self._qualify(src, writes),
                         waits=self._wait_uids(after),
                         region=self.region_path)
            )
            s_st.advance_to(start, op=uid)
            return d_st.advance_to(start, op=uid)
        # Links are full duplex: the sender's tx engine and the receiver's
        # rx engine are occupied, so a ring shift (every device one send +
        # one receive) proceeds fully in parallel, as on real NVLink.
        s_st = self.devices[src].stream("comm.tx")
        d_st = self.devices[dst].stream("comm.rx")
        start = max(s_st.ready_after(*after), d_st.ready_after(*after))
        link_lat = self.spec.comm_latency() if latency is None else latency
        bw = self.spec.pair_bandwidth(src, dst) if bandwidth is None else bandwidth
        dur = link_lat + nbytes / bw
        if self.faults is not None:
            s = self.faults.comm_scale(src, dst, start)
            if s != 1.0:
                dur *= s
        uid = self.ledger.append(
            OpRecord(device=src, stream="comm", kind="comm", name=name,
                     start=start, duration=dur, comm_bytes=nbytes, peer=dst,
                     reads=self._qualify(src, reads),
                     writes=self._qualify(dst, writes),
                     waits=self._wait_uids(after),
                     region=self.region_path)
        )
        if fn is not None and self.execute:
            fn(self)
        s_st.advance_to(start + dur, op=uid)
        return d_st.advance_to(start + dur, op=uid)

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
        if self.G == 1:
            if fn is not None and self.execute:
                fn(self)
            st = self.devices[0].stream("comm.tx")
            return [Event(st.ready_after(*after), name)]
        # A collective saturates both directions on every device.
        tx = [d.stream("comm.tx") for d in self.devices]
        rx = [d.stream("comm.rx") for d in self.devices]
        start = max(st.ready_after(*after) for st in tx + rx)
        # The G-1 per-peer messages ride distinct links concurrently, so
        # one message latency is paid per collective call, not per peer —
        # plus the host-side synchronization cost of coordinating it.
        lat = self.spec.comm_latency() + self.spec.collective_overhead
        if duration is not None:
            dur = duration
        else:
            dur = lat + bytes_per_device / self._a2a_bw
            if self.faults is not None:
                s = self.faults.collective_scale(start)
                if s != 1.0:
                    dur *= s
        waits = self._wait_uids(after)
        uids = [
            self.ledger.append(
                OpRecord(device=g, stream="comm", kind="comm", name=name,
                         start=start, duration=dur, comm_bytes=bytes_per_device,
                         reads=self._qualify(g, reads),
                         writes=self._qualify(g, writes),
                         waits=waits,
                         region=self.region_path)
            )
            for g in range(self.G)
        ]
        if fn is not None and self.execute:
            fn(self)
        out = []
        for g in range(self.G):
            tx[g].advance_to(start + dur, op=uids[g])
            out.append(rx[g].advance_to(start + dur, op=uids[g]))
        return out

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
        t = self.wall_time()
        for d in self.devices:
            for st in d.streams.values():
                st.advance_to(t)
        return Event(t, "barrier")

    def __repr__(self) -> str:  # pragma: no cover
        mode = "execute" if self.execute else "timing-only"
        return f"VirtualCluster({self.spec.name}, G={self.G}, {mode})"
