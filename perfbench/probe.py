"""Speed probes: scale host times to a fixed host speed.

The benchmark host is a 2-vCPU share of a machine whose other tenants
come and go. While they run, the same op here runs up to twice as slow,
and a run's median moves with how much of it fell in such a phase. A
probe is a fixed kernel that imports nothing from ``repro``, so no change
to the program moves it. It is timed right before and right after each
op, outside the op's timed window. The op's host time multiplied by the
probe's reference time over the mean of the two probe times is the op's
time on a host where the probe takes its reference time.

Two kinds, matched to what slows each workload down:

- ``interp``: a pure-Python discrete-event loop, for the interpreter-bound
  parameter search and serve loop;
- ``stream``: a NumPy add over three 32 MiB arrays, for the NumPy-bound
  transforms, whose slow phases follow the memory system and not the
  interpreter. It runs in a helper process, so that its arrays never
  share the measured process's heap or count in its memory.

Run as ``python3 probe.py`` it is that helper: each line read from
standard input times one measurement and writes its seconds back; it
exits at the end of its input.
"""

from __future__ import annotations

import heapq
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

#: float64 elements of each of the three ``stream`` arrays (32 MiB)
STREAM_N = 1 << 22
#: kernel calls per measurement; their median is the probe time
INTERP_REPEATS = 5
STREAM_REPEATS = 3


def interp_kernel(steps: int = 2000) -> float:
    """A small discrete-event loop: heap pops and pushes, dict lookups,
    list updates and float arithmetic, the mix the simulator's engine
    spends its host time on."""
    heap = [(0.0, i) for i in range(64)]
    heapq.heapify(heap)
    state: dict[int, list] = {}
    acc = 0.0
    for k in range(steps):
        t, i = heapq.heappop(heap)
        s = state.get(i)
        if s is None:
            s = state[i] = [0, 0.0, str(i)]
        s[0] += 1
        s[1] += t * 1e-3 + (k % 7) * 0.5
        acc += s[1] / (s[0] + 1.0)
        heapq.heappush(heap, (t + 1.0 + (k * 2654435761 % 1000) * 1e-3, i))
    return acc


def median_s(kernel, repeats: int) -> float:
    """Median seconds of ``repeats`` calls of ``kernel``, now."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def stream_helper() -> None:
    """The helper process: one ``stream`` measurement per input line."""
    import numpy as np

    a = np.arange(STREAM_N, dtype=np.float64)
    b = np.ones(STREAM_N)
    c = a + b
    for _ in sys.stdin:
        print(median_s(lambda: np.add(a, b, out=c), STREAM_REPEATS),
              flush=True)


class Probe:
    """A speed probe: ``seconds()`` times its kernel now.

    ``reference_s`` is the probe's time between ops in the fast phases of
    the 2-vCPU Xeon the benchmark was tuned on, so that scaled times there
    read about as wall seconds. Close a probe when done with it.
    """

    reference_s: float

    def seconds(self) -> float:
        raise NotImplementedError

    def scale(self, before: float, after: float) -> float:
        """Factor taking host seconds measured between probe times
        ``before`` and ``after`` to seconds at the reference speed."""
        return self.reference_s / ((before + after) / 2)

    def close(self) -> None:
        pass

    def __enter__(self) -> Probe:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class InterpProbe(Probe):
    reference_s = 1.9e-3

    def seconds(self) -> float:
        return median_s(interp_kernel, INTERP_REPEATS)


class StreamProbe(Probe):
    """Times the ``stream`` kernel in a helper process."""

    reference_s = 12e-3

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def seconds(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=30)
        self.proc.stdout.close()


KINDS = {"interp": InterpProbe, "stream": StreamProbe}


if __name__ == "__main__":
    stream_helper()
