"""The four benchmark workloads.

Every workload has the same shape:

- ``setup()`` builds what every op shares (plan, operators, wisdom) and
  runs the first, cold op;
- ``make_input(i)`` derives op ``i``'s input from the run's seed
  (outside the timed window);
- ``run(inp)`` is the timed op and returns what it produced;
- ``units(inp)`` is how many ops ``run`` completes (one transform, one
  search, or every request of a served trace);
- ``check(inp, out)`` returns ``(failed_units, rel_err)`` for one op;
- ``finish(out)`` takes the first timed op's output and returns the
  simulated-clock end-to-end metrics, extra relative errors, and the
  problems found by the once-per-workload invariant checks;
- ``exact(out, clusters)`` returns the exact per-op counts and the
  simulated-clock per-layer table.

Importing this module imports ``repro``, so the set-up clock starts
before the import.
"""

from __future__ import annotations

import math
from pathlib import Path
from statistics import median

import numpy as np

from repro.core import fmmfft
from repro.core.api import default_params
from repro.core.distributed import FmmFftDistributed
from repro.core.plan import FmmFftPlan
from repro.dfft.fft1d import Distributed1DFFT
from repro.fftcore.oracle import reference_fft
from repro.machine.cluster import VirtualCluster
from repro.machine.spec import p100_nvlink_node, preset
from repro.model.error import predicted_error
from repro.model.search import find_fastest, simulate_fft1d, simulate_fmmfft
from repro.serve import (
    AdmissionQueue,
    Batcher,
    PlanCache,
    ServeScheduler,
    Wisdom,
    summarize,
    synthetic_workload,
)
from repro.util.validation import ParameterError

from checks import comm_counts, invariants, rel_l2, sim_table

SYSTEM = "8xP100"
DTYPE = "complex128"
#: exact per-trace serve counts (zero on the workloads that do not serve)
SERVE_COUNTS = ("serve.batches", "serve.mean_batch", "serve.queue_depth_max",
                "serve.plan_hit_rate", "serve.graph_hit_rate",
                "serve.deadline_miss_frac", "ir.replay_frac")


def nearest_rank(xs, q: float) -> float:
    """Nearest-rank ``q``-quantile (0 < q <= 1) of a non-empty sample."""
    s = sorted(xs)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def tail(xs) -> tuple[float, float, int]:
    """The value at the highest percentile with at least ten samples
    beyond it: ``(value, percentile, sample count)``.  Fewer than eleven
    samples have no such percentile; the maximum is returned then."""
    s = sorted(xs)
    n = len(s)
    if n < 11:
        return s[-1], 100.0, n
    i = n - 11
    return s[i], 100.0 * i / (n - 1), n


def _seed(seed: int, *path: int) -> int:
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def _signal(seed: int, i: int, n: int) -> np.ndarray:
    rng = np.random.default_rng([seed, i])
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _s2t_flops(plan: FmmFftPlan) -> float:
    """Section-5 S2T flop count of one transform (all devices)."""
    return 6.0 * 2 * plan.ML * plan.ML * (plan.M // plan.ML) * (plan.P - 1)


class Workload:
    unit = "op"
    #: S2T flops one op computes on the host (0: no numerics run)
    s2t_flops = 0.0
    #: speed probe the timed host seconds are scaled by (``probe.KINDS``)
    probe = "stream"
    #: ops each worker process times at least, so the pooled tail
    #: percentile always has ten samples beyond it
    min_ops = 4

    def __init__(self, seed: int):
        self.seed = seed

    def units(self, inp) -> int:
        return 1

    def exact(self, out, clusters) -> dict:
        counts = {"machine.records": sum(len(c.ledger) for c in clusters)}
        counts.update(comm_counts(clusters))
        counts.update(self.sim_clock(out))
        counts.update({k: 0 for k in SERVE_COUNTS})
        return counts


class TransformDist(Workload):
    """One caller, closed loop: a fresh execute-mode 8xP100 cluster and
    the distributed FMM-FFT of a new input per op, N = 2^20."""

    name = "transform_dist"
    N = 1 << 20

    def setup(self):
        self.spec = preset(SYSTEM)
        self.plan = FmmFftPlan.create(N=self.N, G=self.spec.num_devices,
                                      dtype=DTYPE,
                                      **default_params(self.N, 8))
        self.s2t_flops = _s2t_flops(self.plan)
        self.run(self.make_input(0))

    def make_input(self, i):
        return _signal(self.seed, i, self.N)

    def run(self, x):
        cl = VirtualCluster(self.spec, execute=True)
        y = FmmFftDistributed(self.plan, cl, comm_algorithm="auto").run(x)
        return cl, y

    def check(self, x, out):
        err = rel_l2(out[1], reference_fft(x))
        return int(not err <= predicted_error(self.plan.Q, DTYPE)), err

    def finish(self, out):
        cl = out[0]
        sim = cl.wall_time()
        base = VirtualCluster(self.spec, execute=False)
        Distributed1DFFT(self.N, base, dtype=DTYPE,
                         comm_algorithm="auto").run()
        return dict(sim_p50_s=sim, sim_tail_s=sim, sim_max_rate_rps=1 / sim,
                    sim_speedup=base.wall_time() / sim), [], invariants(cl)

    def sim_clock(self, out):
        return sim_table(out[0])


class TransformSingle(Workload):
    """One caller, closed loop: the public single-device
    ``repro.core.fmmfft(x)`` on a new input per op, N = 2^20."""

    name = "transform_single"
    N = 1 << 20

    def setup(self):
        self.params = default_params(self.N, 1)
        self.run(self.make_input(0))
        self.s2t_flops = _s2t_flops(FmmFftPlan.create(
            N=self.N, G=1, dtype=DTYPE, build_operators=False, **self.params))

    def make_input(self, i):
        return _signal(self.seed, i, self.N)

    def run(self, x):
        return fmmfft(x)

    def check(self, x, y):
        err = rel_l2(y, reference_fft(x))
        return int(not err <= predicted_error(self.params["Q"], DTYPE)), err

    def _simulate(self):
        """The same plan on one simulated P100 (timing only)."""
        spec = p100_nvlink_node(1)
        plan = FmmFftPlan.create(N=self.N, G=1, dtype=DTYPE,
                                 build_operators=False, **self.params)
        cl = VirtualCluster(spec, execute=False)
        FmmFftDistributed(plan, cl, comm_algorithm="auto").run()
        return cl

    def finish(self, out):
        cl = self._simulate()
        sim = cl.wall_time()
        speedup = simulate_fft1d(self.N, cl.spec, DTYPE) / sim
        return dict(sim_p50_s=sim, sim_tail_s=sim, sim_max_rate_rps=1 / sim,
                    sim_speedup=speedup), [], invariants(cl)

    def sim_clock(self, out):
        return sim_table(self._simulate())


class ParamSearch(Workload):
    """One caller, closed loop: ``find_fastest(2^24, 8xP100)`` per op,
    126 timing-only candidate simulations and no numerics."""

    name = "param_search"
    N = 1 << 24
    probe = "interp"

    def setup(self):
        self.spec = preset(SYSTEM)
        self.first = self.run(None)

    def make_input(self, i):
        return None

    def run(self, _):
        return find_fastest(self.N, self.spec, DTYPE)

    def check(self, _, r):
        same = (r.params == self.first.params
                and r.fmmfft_time == self.first.fmmfft_time
                and r.baseline_time == self.first.baseline_time)
        again = simulate_fmmfft(self.N, r.params, self.spec, DTYPE)
        return int(not (same and again == r.fmmfft_time)), None

    def _winner(self, r):
        """The winner re-simulated on a fresh timing-only cluster."""
        plan = FmmFftPlan.create(N=self.N, G=self.spec.num_devices,
                                 dtype=DTYPE, build_operators=False,
                                 **r.params)
        cl = VirtualCluster(self.spec, execute=False)
        FmmFftDistributed(plan, cl).run()
        return cl

    def _winner_numerics(self, r) -> float:
        """The winner's (P, ML, B, Q) executed at the smallest size that
        admits them; returns its relative error against the oracle."""
        n = 2 * r.params["P"]
        while True:
            try:
                plan = FmmFftPlan.create(N=n, G=self.spec.num_devices,
                                         dtype=DTYPE, **r.params)
                break
            except ParameterError:
                n *= 2
        x = _signal(self.seed, 1, n)
        cl = VirtualCluster(self.spec, execute=True)
        y = FmmFftDistributed(plan, cl, comm_algorithm="auto").run(x)
        return rel_l2(y, reference_fft(x))

    def finish(self, r):
        cl = self._winner(r)
        problems = invariants(cl)
        if cl.wall_time() != r.fmmfft_time:
            problems.append("winner re-simulation drifted")
        err = self._winner_numerics(r)
        if not err <= predicted_error(r.params["Q"], DTYPE):
            problems.append(f"winner numerics rel_err {err:.3g}")
        t = r.fmmfft_time
        return dict(sim_p50_s=t, sim_tail_s=t, sim_max_rate_rps=1 / t,
                    sim_speedup=r.speedup), [err], problems

    def sim_clock(self, r):
        return sim_table(self._winner(r))


class ServeOpen(Workload):
    """Open loop in simulated time: Poisson arrivals of a 3:2:1 mix of
    2^16/2^17/2^18 through the batching service on 8xP100.  One op is
    one served request; a timed run serves whole traces."""

    name = "serve_open"
    unit = "request"
    probe = "interp"
    SIZES = {1 << 16: 3.0, 1 << 17: 2.0, 1 << 18: 1.0}
    NOMINAL = 8000.0
    LADDER = (2000.0, 4000.0, 8000.0, 16000.0, 32000.0)
    TRACE = 200          # requests per timed trace
    NOMINAL_TRACES = 12  # timed traces per worker the latencies come from
    min_ops = NOMINAL_TRACES
    LADDER_TRACE = 400   # requests per ladder rung
    CHECK_TRACE = 16     # requests whose outputs are computed and checked
    P99_LIMIT = 10e-3    # interactive latency limit (s) for the max rate

    def setup(self):
        self.spec = preset(SYSTEM)
        #: simulated latencies of this process's first timed traces (the
        #: timed run pools them over its worker processes before finish)
        self.latencies: list[list[float]] = []
        wisdom = Wisdom()
        cache = PlanCache(self.spec, wisdom=wisdom)
        for n in self.SIZES:
            cache.plan_for(n, DTYPE)
        out = Path(__file__).resolve().parent / "out"
        out.mkdir(exist_ok=True)
        path = out / f"wisdom-{self.seed}.json"
        wisdom.save(path)
        self.wisdom = path.read_text()
        path.unlink()
        self.run(self.make_input(0))

    def _trace(self, n, rate, *path, payloads=False):
        return synthetic_workload(n, rate=rate, sizes=self.SIZES,
                                  dtype=DTYPE, seed=_seed(self.seed, *path),
                                  with_payloads=payloads)

    def make_input(self, i):
        return self._trace(self.TRACE, self.NOMINAL, i)

    def units(self, reqs):
        return len(reqs)

    def run(self, reqs, outputs=False):
        cache = PlanCache(self.spec, wisdom=Wisdom.loads(self.wisdom),
                          build_operators=outputs)
        sched = ServeScheduler(
            VirtualCluster(self.spec, execute=False),
            Batcher(cache, max_batch=8), queue=AdmissionQueue(capacity=64),
            max_inflight=2, replay=True, compute_outputs=outputs)
        sched.run(reqs)
        return sched

    @staticmethod
    def _lost(sched) -> int:
        return sum(sched.queue.shed.values()) + sum(sched.retry_shed.values())

    def check(self, reqs, sched):
        lost = self._lost(sched)
        done = len(sched.completed)
        if len(self.latencies) < self.NOMINAL_TRACES:
            self.latencies.append([c.latency for c in sched.completed])
        if done + lost != len(reqs) or sched.batcher.cache.searches:
            return len(reqs), None
        return lost, None

    def _outputs_check(self):
        """Serve a short trace with outputs on; every output must be
        within the error model of its plan.  Returns (errors, cluster)."""
        reqs = self._trace(self.CHECK_TRACE, self.NOMINAL, 1 << 20,
                           payloads=True)
        sched = self.run(reqs, outputs=True)
        errs = []
        for r in reqs:
            q = sched.batcher.cache.resolve(r.N, DTYPE)[0]["Q"]
            err = rel_l2(sched.outputs[r.rid], reference_fft(r.x))
            errs.append(err if err <= predicted_error(q, DTYPE) else math.inf)
        return errs, sched.cluster

    def finish(self, out):
        problems = []
        max_rate = 0.0
        for k, rate in enumerate(self.LADDER):
            reqs = self._trace(self.LADDER_TRACE, rate, 1 << 21, k)
            sched = self.run(reqs)
            rep = summarize(sched)
            offered = len(reqs) / reqs[-1].arrival
            served = rep.completed / rep.wall_time
            inter = [c.latency for c in sched.completed
                     if c.request.deadline == "interactive"]
            inter += [math.inf] * (sched.queue.shed["interactive"]
                                   + sched.retry_shed["interactive"])
            if (served >= 0.95 * offered
                    and nearest_rank(inter, 0.99) <= self.P99_LIMIT):
                max_rate = rate
        speedup = sum(
            w * simulate_fft1d(n, self.spec, DTYPE)
            / simulate_fmmfft(n, Wisdom.loads(self.wisdom).get(
                self.spec, n, DTYPE)["params"], self.spec, DTYPE)
            for n, w in self.SIZES.items()) / sum(self.SIZES.values())
        errs, cl = self._outputs_check()
        if math.inf in errs:
            problems.append("served output outside the error model")
        problems += invariants(cl)
        pooled = [x for lat in self.latencies for x in lat]
        return dict(sim_p50_s=nearest_rank(pooled, 0.5),
                    sim_tail_s=median([tail(lat)[0] for lat in self.latencies]),
                    sim_max_rate_rps=max_rate,
                    sim_speedup=speedup), errs, problems

    def sim_clock(self, sched):
        return sim_table(sched.cluster)

    def exact(self, sched, clusters):
        counts = super().exact(sched, clusters)
        rep = summarize(sched)
        lost, done = self._lost(sched), len(sched.completed)
        missed = sum(rep.deadline_misses.values())
        cache = sched.batcher.cache
        lookups = cache.graph_hits + cache.graph_misses
        counts.update({
            "serve.batches": rep.batches,
            "serve.mean_batch": rep.mean_batch_size,
            "serve.queue_depth_max": rep.queue_depth_max,
            "serve.plan_hit_rate": rep.plan_hit_rate,
            "serve.graph_hit_rate": cache.graph_hits / lookups if lookups else 0.0,
            "serve.deadline_miss_frac": (missed + lost) / (done + lost),
            "ir.replay_frac": sched.replayed_batches / max(1, rep.batches),
        })
        return counts


WORKLOADS = {w.name: w for w in (TransformDist, TransformSingle, ParamSearch,
                                 ServeOpen)}
