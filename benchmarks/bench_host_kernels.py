"""Real host-CPU benchmarks of the library's compute kernels.

Unlike the figure benches (which report *simulated* device time), these
measure the actual NumPy implementations on this machine via
pytest-benchmark — the numbers a developer profiles when optimizing the
substrate (see the HPC guides: measure, don't guess).
"""

import numpy as np
import pytest

from repro.core.plan import FmmFftPlan
from repro.core.single import fmmfft_single
from repro.fftcore.stockham import fft_pow2
from repro.fftcore.bluestein import fft_bluestein
from repro.fmm import operators
from repro.fmm.batched import BatchedFMM, m2l_cousin_kernel, s2t_kernel
from repro.fmm.plan import FmmOperators
from repro.util.prng import random_signal


@pytest.fixture(scope="module")
def signal_2_16():
    return random_signal(1 << 16, seed=0)


def test_host_stockham_2_16(benchmark, signal_2_16):
    out = benchmark(fft_pow2, signal_2_16)
    assert out.shape == signal_2_16.shape


def test_host_stockham_radix2_2_16(benchmark, signal_2_16):
    out = benchmark(lambda: fft_pow2(signal_2_16, radix=2))
    assert out.shape == signal_2_16.shape


def test_host_bluestein_60000(benchmark):
    x = random_signal(60000, seed=1)
    out = benchmark(fft_bluestein, x)
    assert out.shape == x.shape


def test_host_batched_fmm(benchmark, rng_seed=3):
    ops = FmmOperators.create(M=4096, P=16, ML=64, B=3, Q=16)
    fmm = BatchedFMM(ops)
    rng = np.random.default_rng(rng_seed)
    S = rng.uniform(-1, 1, (16, 4096)) + 1j * rng.uniform(-1, 1, (16, 4096))
    T, r = benchmark(fmm.apply, S)
    assert T.shape == (16, 4096)


def _complex_boxes(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("nb", [8, 64])
def test_host_s2t_kernel(benchmark, nb):
    """S2T at the 2^20 shapes (P=256, ML=64): nb=8 leaf boxes is one
    device of the 8-GPU distributed transform, nb=64 the single-device one."""
    P, ML = 256, 64
    s2t = operators.s2t_matrix(P, ML, N=1 << 20)
    ext = _complex_boxes((P - 1, nb + 2, ML), seed=5)
    T = benchmark(s2t_kernel, ext, s2t)
    assert T.shape == (P - 1, nb, ML)


def test_host_m2l_cousin_kernel(benchmark):
    """Cousin M2L at the single-device 2^20 leaf level (64 boxes, Q=16)."""
    P, Q, level = 256, 16, 6
    K = operators.m2l_level_tensor(level, P, Q, N=1 << 20)
    ext = _complex_boxes((P - 1, (1 << level) + 4, Q), seed=6)
    loc = benchmark(m2l_cousin_kernel, ext, K)
    assert loc.shape == (P - 1, 1 << level, Q)


def test_host_fmmfft_end_to_end(benchmark):
    plan = FmmFftPlan.create(N=1 << 14, P=16, ML=64, B=3, Q=16)
    x = random_signal(1 << 14, seed=4)
    out = benchmark(lambda: fmmfft_single(x, plan, backend="auto"))
    ref = np.fft.fft(x)
    assert np.linalg.norm(out - ref) / np.linalg.norm(ref) < 1e-13


def test_host_numpy_fft_reference(benchmark, signal_2_16):
    """pocketfft on the same input, for context."""
    out = benchmark(np.fft.fft, signal_2_16)
    assert out.shape == signal_2_16.shape
