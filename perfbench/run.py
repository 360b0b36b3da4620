"""Two-clock benchmark of the FMM-FFT reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload transform_dist --seed 1 \
        --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` is the separate traced run and prints every per-layer
metric.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import os

#: BLAS/OpenMP threads, set before NumPy is first imported (at most nproc)
THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from probe import KINDS, InterpProbe, Probe  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
#: processes a timed run is spread over (this one plus fresh interpreters).
#: Each process runs at its own speed level, several percent from the
#: next; pooling the samples of three averages that out.
WORKERS = 3
#: op ``i`` of worker ``k`` gets input ``k * OP_STRIDE + i``
OP_STRIDE = 100_000
#: the traced run alternates untraced and traced ops; at least this many pairs
MIN_PAIRS = 3
FMM_STAGES = ("S2M", "S2T", "M2M", "M2L", "L2L", "L2T")


def load_workloads():
    """Import the workloads module, which imports ``repro`` from ``src``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro source tree under {SRC}")
    sys.path.insert(0, str(SRC))
    import workloads

    return workloads


def setup(name: str, seed: int):
    """Fresh import through the first cold op; returns (workload, seconds).

    On the ``interp``-probed workloads set-up is scaled like their ops.
    Which probe a workload takes is known only after the import that
    set-up times, so set-up of the ``stream``-probed transforms is raw.
    """
    interp = InterpProbe()
    before = interp.seconds()
    t0 = perf_counter()
    wl = load_workloads().WORKLOADS[name](seed)
    wl.setup()
    dt = perf_counter() - t0
    if wl.probe == "interp":
        dt *= interp.scale(before, interp.seconds())
    return wl, dt


class Tally:
    """Host time and outcome of the ops of one run (or one arm of it).

    With a ``speed`` probe each op's time is scaled by the probe timed
    around it (see ``probe.py``); ``raw`` keeps the unscaled times.
    """

    def __init__(self, speed: Probe | None = None) -> None:
        self.speed = speed
        self.samples: list[float] = []  # host seconds per unit, one per op
        self.raw: list[float] = []
        self.seconds = 0.0
        self.units = 0
        self.attempted = 0
        self.failed = 0
        self.errs: list[float] = []

    def op(self, wl, i: int, tracer=None):
        """Run op ``i`` (traced if ``tracer``), check it; returns its output
        or None when it raised.  Garbage is collected before the op, so
        no op pays for the previous one's."""
        inp = wl.make_input(i)
        n = wl.units(inp)
        self.attempted += n
        gc.collect()
        speed = self.speed
        before = speed.seconds() if speed else None
        if tracer is not None:
            tracer.op_id = i
            tracer.install()
        try:
            t0 = perf_counter()
            out = wl.run(inp)
            dt = perf_counter() - t0
        except Exception:
            traceback.print_exc()
            self.failed += n
            return None
        finally:
            if tracer is not None:
                tracer.uninstall()
        dt_raw = dt
        if speed:
            dt *= speed.scale(before, speed.seconds())
        self.samples.append(dt / n)
        self.raw.append(dt_raw / n)
        self.seconds += dt
        self.units += n
        failed, err = wl.check(inp, out)
        self.failed += failed
        if err is not None:
            self.errs.append(err)
        return out

    def merge(self, doc: dict) -> None:
        """Add a worker's tally (as :meth:`to_json` wrote it)."""
        self.samples += doc["samples"]
        self.raw += doc["raw"]
        self.errs += doc["errs"]
        for k in ("seconds", "units", "attempted", "failed"):
            setattr(self, k, getattr(self, k) + doc[k])

    def to_json(self) -> dict:
        return {k: getattr(self, k) for k in ("samples", "raw", "errs",
                                               "seconds", "units",
                                               "attempted", "failed")}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def work(wl, k: int, seconds: float, setup_s: float) -> tuple[dict, object]:
    """Worker ``k``'s share of the timed window, after its set-up.

    Returns its report (set-up seconds, tally, peak memory, simulated
    latencies of its first traces) and its first op's output.
    """
    first = None
    with KINDS[wl.probe]() as speed:
        tally = Tally(speed)
        end, i = perf_counter() + seconds, 0
        while perf_counter() < end or len(tally.samples) < wl.min_ops:
            i += 1
            out = tally.op(wl, k * OP_STRIDE + i)
            if first is None:
                first = out
            if i >= 8 * wl.min_ops and not tally.samples:
                raise RuntimeError("no op completed")
    return {"setup_s": setup_s, "tally": tally.to_json(),
            "peak_rss_mb": peak_rss_mb(),
            "latencies": getattr(wl, "latencies", [])}, first


def spawn_worker(name: str, seed: int, k: int, seconds: float) -> dict:
    """Worker ``k`` in a fresh interpreter; returns its report."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--worker", str(k)],
        capture_output=True, text=True, timeout=170, env=env, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {k} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(wl, seconds: float, setup_s: float):
    """The untraced run: returns (metrics, tally, problems, notes)."""
    from workloads import tail

    share = seconds / WORKERS
    report, first = work(wl, 0, share, setup_s)
    reports = [report] + [spawn_worker(wl.name, wl.seed, k, share)
                          for k in range(1, WORKERS)]
    tally = Tally()
    for r in reports:
        tally.merge(r["tally"])
    wl.latencies = [lat for r in reports for lat in r["latencies"]]
    sim, errs, problems = wl.finish(first)
    errs = tally.errs + errs
    if any(not math.isfinite(e) for e in errs):
        problems.append("non-finite relative error")
    if problems:  # a failed once-per-workload check fails the first op
        tally.failed += 1
    setups = [r["setup_s"] for r in reports]
    p_tail, pct, n = tail(tally.samples)
    metrics = {
        "setup_s": statistics.median(setups),
        "host_p50_s": statistics.median(tally.samples),
        "host_tail_s": p_tail,
        "ops_per_s": tally.units / tally.seconds,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
        **sim,
        "rel_err": max(e for e in errs if math.isfinite(e)),
    }
    notes = [f"setup_s samples {[round(s, 4) for s in setups]}",
             f"host_tail_s is p{pct:.1f} of {n} samples "
             f"from {WORKERS} processes"]
    if wl.probe:
        notes.append(f"host times scaled by the {wl.probe} probe; unscaled "
                     f"host_p50_s {statistics.median(tally.raw):.6g} s")
    if wl.name == "serve_open":
        notes.append("arrivals are fixed in simulated time, so the "
                     "generator cannot run late")
    return metrics, tally, problems, notes


def call_counts(calls: dict) -> dict:
    return {
        "fftcore.calls": calls.get("fftcore.fft", 0),
        "model.candidates": calls.get("model.simulate", 0),
        "ir.captures": calls.get("ir.capture", 0),
        "ir.replays": calls.get("ir.replay", 0),
        "trace.spans": sum(calls.values()),
    }


def per_layer(wl, seconds: float, host: dict):
    """The traced run: returns (metrics, tally, problems, notes)."""
    from tracer import Tracer

    tracer = Tracer()
    tally = Tally()
    problems = []
    # self-check: the same input twice, traced; exact values must agree
    exact = []
    for k in range(2):
        tracer.reset()
        tracer.spans = [] if k == 0 else None
        n0 = tally.attempted
        out = tally.op(wl, 1, tracer)
        if out is None:
            raise RuntimeError("self-check op failed")
        units0 = tally.attempted - n0
        exact.append({**wl.exact(out, tracer.clusters),
                      **call_counts(tracer.calls)})
        if k == 0:
            spans, tracer.spans = tracer.spans, None
    if exact[0] != exact[1]:
        diff = sorted(k for k in exact[0] if exact[0][k] != exact[1].get(k))
        problems.append(f"exact values differ between identical runs: {diff}")
        tally.failed += 1
    counts = exact[0]

    tracer.reset()
    plain, traced = Tally(), Tally()
    end, i = perf_counter() + seconds, 2
    while perf_counter() < end or len(traced.samples) < MIN_PAIRS:
        plain.op(wl, i)
        traced.op(wl, i + 1, tracer)
        tracer.clusters = []
        i += 2
        if i > 8 * MIN_PAIRS and not traced.samples:
            raise RuntimeError("no traced op completed")
    for t in (plain, traced):
        tally.attempted += t.attempted
        tally.failed += t.failed

    units = traced.units
    self_s = tracer.self_s

    def per_unit(*names):
        return sum(self_s.get(n, 0.0) for n in names) / units

    untraced_p50 = statistics.median(plain.samples)
    overhead = statistics.median(traced.samples) - untraced_p50
    s2t = per_unit("fmm.S2T")
    engine = per_unit("machine.engine")
    records = counts["machine.records"] / units0
    metrics = {
        "fftcore.fft_s": per_unit("fftcore.fft"),
        **{f"fmm.{s}_s": per_unit(f"fmm.{s}") for s in FMM_STAGES},
        "fmm.S2T_gflops": wl.s2t_flops / s2t / 1e9 if s2t > 0 else 0.0,
        "fmm.driver_s": per_unit("fmm.driver"),
        "dfft.fft2d_s": per_unit("dfft.fft2d"),
        "core.post_s": per_unit("core.post"),
        "core.driver_s": per_unit("core.driver"),
        "machine.engine_s": engine,
        "machine.engine_us_per_record": engine / records * 1e6 if records else 0.0,
        "machine.topology_s": per_unit("machine.topology"),
        "comm.issue_s": per_unit("comm.issue"),
        "comm.plan_build_s": per_unit("comm.plan_build"),
        "comm.certify_s": per_unit("comm.certify"),
        "comm.choose_s": per_unit("comm.choose"),
        "model.simulate_s": per_unit("model.simulate",
                                     "model.simulate_baseline",
                                     "model.search"),
        "model.plan_create_s": per_unit("model.plan_create"),
        "ir.capture_s": per_unit("ir.capture"),
        "ir.certify_s": per_unit("ir.certify"),
        "ir.replay_s": per_unit("ir.replay"),
        "serve.sched_s": per_unit("serve.sched"),
        "serve.wisdom_lookup_s": per_unit("serve.wisdom_lookup"),
        "trace.overhead_s": overhead,
        "trace.overhead_frac": overhead / untraced_p50,
        "host.calibration_s": host["calibration_s"],
        "fail_frac": tally.failed / tally.attempted,
    }
    for k, v in counts.items():
        metrics.setdefault(k, v)

    OUT.mkdir(exist_ok=True)
    doc = {"workload": wl.name, "seed": wl.seed, "host": host,
           "unit": wl.unit, "units_per_traced_op": units0,
           "self_s_per_unit": {k: v / units for k, v in sorted(self_s.items())},
           "per_layer": metrics,
           "spans_fields": ["id", "name", "start", "end", "parent", "op"],
           "spans": spans}
    path = OUT / f"trace-{wl.name}-{wl.seed}.json"
    path.write_text(json.dumps(doc))
    notes = [f"tracing overhead {overhead:.4g} s per {wl.unit} "
             f"({overhead / untraced_p50:+.1%})",
             f"spans written to {path.relative_to(ROOT)}"]
    return metrics, tally, problems, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--worker", type=int, default=0, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        ap.error(f"unknown workload {args.workload!r}")
    wl, setup_s = setup(args.workload, args.seed)
    if args.worker:
        print(json.dumps(work(wl, args.worker, args.seconds, setup_s)[0]))
        return 0

    from hostinfo import host_record

    host = host_record(ROOT, THREADS)
    if args.trace:
        metrics, tally, problems, notes = per_layer(wl, args.seconds, host)
        wanted = spec["per_layer"]
    else:
        metrics, tally, problems, notes = end_to_end(wl, args.seconds,
                                                     setup_s)
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")

    print(json.dumps({"host": host}))
    for note in notes:
        print(f"# {note}")
    for problem in problems:
        print(f"# FAILED CHECK: {problem}")
    for m in wanted:
        print(f"{m['name']:<32} {metrics[m['name']]:<24.9g} {m['unit']}")
    correct = tally.failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
