"""Host-time spans around the public entry points of each ``repro`` layer.

Nothing under ``src/`` is edited: :class:`Tracer` installs wrappers from
this file onto the layers' classes and module functions, and removes
them again, so the untraced path runs the original code.

Each span records its name, start, end, parent span and op id.  A
layer's self time is its span duration minus the time its child spans
cover; the tracer folds that into per-name totals as each span closes,
so only the spans of ops selected for recording are kept in memory.

Numerics callbacks (the ``fn`` argument of the virtual cluster's
``launch``/``sendrecv``/collectives/``host_op``/``host_action``) get a
span of their own, named from ``cluster.region_path`` at the call, so
the machine engine's self time excludes the numerics it runs and the
distributed FMM's per-stage time comes without touching its code.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

#: region segment under ``fmm`` -> FMM stage name
FMM_STAGE_OF_REGION = {
    "S2M": "S2M", "S2T": "S2T", "upward": "M2M", "m2l": "M2L",
    "base": "M2L", "downward": "L2L", "L2T": "L2T",
}

#: BatchedFMM stage method -> FMM stage name
FMM_STAGE_OF_METHOD = {
    "s2m": "S2M", "s2t": "S2T", "m2m": "M2M", "m2l_level": "M2L",
    "m2l_base": "M2L", "reduce": "M2L", "l2l": "L2L", "l2t": "L2T",
}


def numerics_span(region_path: str) -> str:
    """Span name for a numerics callback issued under ``region_path``."""
    segs = region_path.split("/")
    if "fmm" in segs:
        i = segs.index("fmm")
        stage = segs[i + 1] if i + 1 < len(segs) else ""
        return "fmm." + FMM_STAGE_OF_REGION.get(stage, "driver")
    if "fft2d" in segs:
        return "dfft.fft2d"
    return "core.driver"


class Tracer:
    """Span stack, per-name self-time totals and optional span records."""

    def __init__(self) -> None:
        self._stack: list[list] = []     # [name, start, child_time, span_id]
        self._next_id = 1
        self._patches: list[tuple] = []  # (owner, attr, original, wrapper)
        self.op_id = 0
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: spans of the ops being recorded: (id, name, start, end, parent, op)
        self.spans: list[tuple] | None = None
        #: clusters constructed while installed (exact per-op counts)
        self.clusters: list = []

    # -- spans ----------------------------------------------------------

    def reset(self) -> None:
        """Drop totals and collected clusters (between ops)."""
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.clusters = []

    def call(self, name: str, f, /, *args, **kwargs):
        """Run ``f`` inside a span called ``name``."""
        stack = self._stack
        parent = stack[-1][3] if stack else 0
        frame = [name, perf_counter(), 0.0, self._next_id]
        self._next_id += 1
        stack.append(frame)
        try:
            return f(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            dur = end - frame[1]
            self.self_s[name] += dur - frame[2]
            self.calls[name] += 1
            if stack:
                stack[-1][2] += dur
            if self.spans is not None:
                self.spans.append((frame[3], name, frame[1], end, parent,
                                   self.op_id))

    def _wrap(self, f, name: str):
        tracer = self

        @functools.wraps(f)
        def traced(*args, **kwargs):
            return tracer.call(name, f, *args, **kwargs)

        return traced

    def _wrap_fn_arg(self, f, name: str):
        """Wrap a cluster method: a span around the call, and a numerics
        span around its ``fn`` callback named from the region path."""
        tracer = self
        params = list(inspect.signature(f).parameters)
        pos = params.index("fn")

        @functools.wraps(f)
        def traced(cl, *args, **kwargs):
            if len(args) >= pos:       # fn passed positionally (index - self)
                fn = args[pos - 1]
                if fn is not None:
                    args = list(args)
                    args[pos - 1] = tracer._numerics(cl, fn)
            elif kwargs.get("fn") is not None:
                kwargs["fn"] = tracer._numerics(cl, kwargs["fn"])
            return tracer.call(name, f, cl, *args, **kwargs)

        return traced

    def _numerics(self, cl, fn):
        span = numerics_span(cl.region_path)
        return lambda c: self.call(span, fn, c)

    # -- installing wrappers ----------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr], wrapper))

    def _patch_function(self, module, attr: str, name: str) -> None:
        """Wrap a module function everywhere ``repro`` bound it by name."""
        f = getattr(module, attr)
        w = self._wrap(f, name)
        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] != "repro" or mod is None:
                continue
            for a, v in list(vars(mod).items()):
                if v is f:
                    self._patch(mod, a, w)

    def _patch_method(self, cls, attr: str, name: str) -> None:
        orig = cls.__dict__[attr]
        if isinstance(orig, classmethod):
            self._patch(cls, attr, classmethod(self._wrap(orig.__func__, name)))
        else:
            self._patch(cls, attr, self._wrap(orig, name))

    def prepare(self) -> None:
        """Build the wrapper table (imports every traced layer)."""
        # modules by full name: a package may export a function that
        # shadows its submodule (``repro.ir.capture``)
        (plancheck, comm_api, plans, tuning, core_api, kernels, single,
         ir_capture, routing, topology, search) = (
            importlib.import_module(f"repro.{m}") for m in (
                "analysis.plancheck", "comm.api", "comm.plans", "comm.tuning",
                "core.api", "core.kernels", "core.single", "ir.capture",
                "machine.routing", "machine.topology", "model.search"))
        from repro.core.distributed import FmmFftDistributed
        from repro.core.plan import FmmFftPlan
        from repro.dfft.fft2d import Distributed2DFFT
        from repro.fftcore.plan import LocalFFTPlan
        from repro.fmm.batched import BatchedFMM
        from repro.fmm.distributed import DistributedFMM
        from repro.ir.executor import ReplayExecutor
        from repro.ir.graph import IRGraph
        from repro.machine.cluster import VirtualCluster
        from repro.machine.spec import ClusterSpec
        from repro.serve.cache import PlanCache
        from repro.serve.scheduler import ServeScheduler

        # fftcore
        for m in ("forward", "inverse"):
            self._patch_method(LocalFFTPlan, m, "fftcore.fft")
        # fmm: single-device stage methods and both drivers
        for m, stage in FMM_STAGE_OF_METHOD.items():
            self._patch_method(BatchedFMM, m, f"fmm.{stage}")
        self._patch_method(BatchedFMM, "apply", "fmm.driver")
        self._patch_method(DistributedFMM, "run", "fmm.driver")
        # dfft / core
        self._patch_method(Distributed2DFFT, "run", "dfft.fft2d")
        self._patch_method(FmmFftDistributed, "run", "core.driver")
        self._patch_method(FmmFftDistributed, "_post_callback", "core.post")
        self._patch_function(kernels, "post_process", "core.post")
        self._patch_function(core_api, "fmmfft", "core.driver")
        self._patch_function(single, "fmmfft_single", "core.driver")
        # machine: the engine (numerics callbacks split off) and topology
        for m in ("launch", "sendrecv", "alltoall", "allgather", "host_op",
                  "host_action"):
            self._patch(VirtualCluster, m,
                        self._wrap_fn_arg(VirtualCluster.__dict__[m],
                                          "machine.engine"))
        self._patch_method(VirtualCluster, "barrier", "machine.engine")
        init = VirtualCluster.__dict__["__init__"]
        tracer = self

        @functools.wraps(init)
        def cluster_init(cl, *args, **kwargs):
            tracer.clusters.append(cl)
            return tracer.call("machine.engine", init, cl, *args, **kwargs)

        self._patch(VirtualCluster, "__init__", cluster_init)
        for m in ("link", "pair_bandwidth", "alltoall_bandwidth",
                  "comm_latency"):
            self._patch_method(ClusterSpec, m, "machine.topology")
        for mod in (topology, routing):
            for a, v in list(vars(mod).items()):
                if (inspect.isfunction(v) and not a.startswith("_")
                        and v.__module__ == mod.__name__):
                    self._patch_function(mod, a, "machine.topology")
        # comm
        for a in ("alltoall", "allgather", "grouped_alltoall",
                  "halo_exchange", "sendrecv"):
            self._patch_function(comm_api, a, "comm.issue")
        self._patch_function(plans, "build_plan", "comm.plan_build")
        self._patch_function(plancheck, "certify_plan", "comm.certify")
        self._patch_function(tuning, "choose_algorithm", "comm.choose")
        # model
        for a, name in (("simulate_fmmfft", "model.simulate"),
                        ("simulate_fft1d", "model.simulate_baseline")):
            self._patch_function(search, a, name)
        self._patch_function(search, "find_fastest", "model.search")
        self._patch_method(FmmFftPlan, "create", "model.plan_create")
        # ir
        self._patch_function(ir_capture, "capture", "ir.capture")
        self._patch_method(IRGraph, "certify", "ir.certify")
        self._patch_method(ReplayExecutor, "run", "ir.replay")
        # serve
        self._patch_method(ServeScheduler, "run", "serve.sched")
        self._patch_method(PlanCache, "resolve", "serve.wisdom_lookup")

    def install(self) -> None:
        if not self._patches:
            self.prepare()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig, _ in reversed(self._patches):
            setattr(owner, attr, orig)
