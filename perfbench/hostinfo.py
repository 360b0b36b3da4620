"""What the run ran on: a host record and a calibration kernel time.

The calibration time (the oracle FFT at 2^20 plus a fixed matmul) is
recorded so that a run on a noisy or slower host can be spotted; it is
not an end-to-end metric.
"""

from __future__ import annotations

import os
import platform
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.fftcore.oracle import reference_fft


def git_sha(root: Path) -> str:
    """HEAD's commit id read from ``.git`` ("unknown" outside a repo)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_version() -> str:
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def calibrate(repeats: int = 3) -> float:
    """Median seconds of the 2^20 oracle FFT plus a 512^2 float64 matmul."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal(1 << 20) + 1j * rng.standard_normal(1 << 20)
    a = rng.standard_normal((512, 512))
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        reference_fft(x)
        a @ a
        times.append(perf_counter() - t0)
    return statistics.median(times)


def host_record(root: Path, threads: int) -> dict:
    return {
        "git_sha": git_sha(root),
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "threads": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version(),
        "calibration_s": calibrate(),
    }
