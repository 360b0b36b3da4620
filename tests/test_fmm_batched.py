import numpy as np
import pytest

from repro.fmm.batched import BatchedFMM, real_op_matmul
from repro.fmm.plan import FmmOperators
from repro.fmm.reference import dense_apply_all
from repro.util.validation import ParameterError


def _fmm(M=256, P=8, ML=16, B=2, Q=16, dtype="complex128"):
    return BatchedFMM(FmmOperators.create(M=M, P=P, ML=ML, B=B, Q=Q, dtype=dtype))


def _signal(P, M, rng, dtype=np.complex128):
    x = rng.uniform(-1, 1, (P, M)) + 1j * rng.uniform(-1, 1, (P, M))
    return x.astype(dtype)


class TestAccuracy:
    @pytest.mark.parametrize(
        "M,P,ML,B,Q",
        [
            (256, 8, 16, 2, 16),
            (256, 8, 16, 3, 16),
            (256, 8, 16, 4, 16),
            (512, 4, 32, 3, 16),
            (256, 8, 8, 4, 16),
            (128, 4, 32, 2, 16),   # L == B: no hierarchical levels
            (64, 16, 16, 2, 16),
            (1024, 4, 64, 2, 16),
        ],
    )
    def test_matches_dense(self, M, P, ML, B, Q, rng):
        fmm = _fmm(M, P, ML, B, Q)
        S = _signal(P, M, rng)
        T, r = fmm.apply(S)
        Tref, rref = dense_apply_all(S, M, P)
        assert np.linalg.norm(T - Tref) / np.linalg.norm(Tref) < 5e-13
        np.testing.assert_allclose(r, rref, atol=1e-12)

    def test_p0_passthrough(self, rng):
        fmm = _fmm()
        S = _signal(8, 256, rng)
        T, _ = fmm.apply(S)
        np.testing.assert_array_equal(T[0], S[0])

    def test_accuracy_improves_with_q(self, rng):
        S = _signal(8, 256, rng)
        errs = []
        for Q in (4, 8, 12, 16):
            T, _ = _fmm(Q=Q).apply(S)
            Tref, _ = dense_apply_all(S, 256, 8)
            errs.append(np.linalg.norm(T - Tref) / np.linalg.norm(Tref))
        assert errs[3] < errs[1] < errs[0]

    def test_real_input(self, rng):
        fmm = _fmm()
        S = rng.uniform(-1, 1, (8, 256))
        T, r = fmm.apply(S)
        Tref, rref = dense_apply_all(S, 256, 8)
        assert np.linalg.norm(T - Tref) / np.linalg.norm(Tref) < 1e-12
        assert not np.iscomplexobj(T)

    def test_single_precision(self, rng):
        fmm = _fmm(Q=8, dtype="complex64")
        S = _signal(8, 256, rng, np.complex64)
        T, _ = fmm.apply(S)
        Tref, _ = dense_apply_all(S.astype(np.complex128), 256, 8)
        assert np.linalg.norm(T - Tref) / np.linalg.norm(Tref) < 1e-3

    def test_linearity(self, rng):
        fmm = _fmm()
        S1, S2 = _signal(8, 256, rng), _signal(8, 256, rng)
        T12, r12 = fmm.apply(S1 + 2.0 * S2)
        T1, r1 = fmm.apply(S1)
        T2, r2 = fmm.apply(S2)
        np.testing.assert_allclose(T12, T1 + 2 * T2, atol=1e-10)
        np.testing.assert_allclose(r12, r1 + 2 * r2, atol=1e-10)


class TestStackedInput:
    @pytest.mark.parametrize(
        "dtype,ops_dtype",
        [(np.complex128, "complex128"), (np.complex64, "complex64"), (np.float64, "complex128")],
    )
    def test_stack_equals_each_slice(self, dtype, ops_dtype, rng):
        """A (3, P, M) stack is bit-identical to applying each slice alone."""
        fmm = _fmm(M=512, P=8, ML=16, B=2, dtype=ops_dtype)
        S = np.stack([_signal(8, 512, rng) for _ in range(3)])
        S = (S.real if dtype == np.float64 else S).astype(dtype)
        T, r = fmm.apply(S)
        for n in range(3):
            Tn, rn = fmm.apply(S[n])
            assert np.array_equal(T[n], Tn)
            assert np.array_equal(r[n], rn)


class TestRealOpMatmul:
    @staticmethod
    def _operands(rng, dtype, real):
        k = rng.standard_normal((5, 12, 48)).astype(real)
        big = rng.standard_normal((5, 48, 9)) + 1j * rng.standard_normal((5, 48, 9))
        return k, big.astype(dtype)[..., 1:8]  # a column window, as S2T passes

    @pytest.mark.parametrize("dtype,real", [(np.complex128, np.float64), (np.complex64, np.float32)])
    def test_matches_complex_matmul(self, dtype, real, rng):
        k, x = self._operands(rng, dtype, real)
        out = real_op_matmul(k, x)
        ref = k.astype(dtype) @ x
        assert out.dtype == dtype
        assert np.abs(out - ref).max() <= 4 * np.finfo(real).eps * np.abs(ref).max()

    @pytest.mark.parametrize(
        "dtype,real,expect",
        [
            (np.complex64, np.float32, np.complex64),
            (np.complex64, np.float64, np.complex128),
            (np.complex128, np.float32, np.complex128),
        ],
    )
    def test_result_dtype(self, dtype, real, expect, rng):
        k, x = self._operands(rng, dtype, real)
        out = real_op_matmul(k, x)
        assert out.dtype == expect == np.result_type(k, x)

    def test_real_data_or_complex_operator_takes_plain_matmul(self, rng):
        k, x = self._operands(rng, np.complex128, np.float64)
        assert np.array_equal(real_op_matmul(k, x.real), k @ x.real)
        kc = k + 0.5j
        assert np.array_equal(real_op_matmul(kc, x), kc @ x)


class TestStages:
    def test_s2m_preserves_sums(self, rng):
        """Multipole coefficients carry the box sums upward."""
        fmm = _fmm()
        S = _signal(8, 256, rng).reshape(8, 16, 16)
        Mexp = fmm.s2m(S)
        np.testing.assert_allclose(Mexp.sum(axis=2), S[1:].sum(axis=2), atol=1e-10)

    def test_m2m_preserves_sums(self, rng):
        fmm = _fmm()
        child = rng.standard_normal((7, 8, 16)) + 0j
        parent = fmm.m2m(child)
        np.testing.assert_allclose(
            parent.sum(axis=(1, 2)), child.sum(axis=(1, 2)), atol=1e-10
        )

    def test_reduce_equals_input_sum(self, rng):
        fmm = _fmm()
        S = _signal(8, 256, rng)
        Sb = S.reshape(8, 16, 16)
        Mexp = fmm.s2m(Sb)
        for _ in range(2):  # up to the base
            Mexp = fmm.m2m(Mexp)
        r = fmm.reduce(Mexp)
        np.testing.assert_allclose(r, S[1:].sum(axis=1), atol=1e-10)

    def test_s2t_is_near_field_only(self, rng):
        """A source in a far box must not touch S2T output."""
        fmm = _fmm(M=256, P=4, ML=16, B=2)
        S = np.zeros((4, 16, 16))
        S[1, 8, 3] = 1.0  # a single source in box 8
        T = fmm.s2t(S)
        # boxes 0..6 and 10..15 are not neighbours of box 8
        assert np.abs(T[0, :6]).max() == 0.0
        assert np.abs(T[0, 11:]).max() == 0.0
        assert np.abs(T[0, 7:10]).max() > 0.0


class TestValidation:
    def test_rejects_distributed_operators(self):
        b = FmmOperators.create(M=256, P=4, ML=16, B=2, Q=8, G=2)
        with pytest.raises(ParameterError):
            BatchedFMM(b)

    def test_rejects_bad_shape(self, rng):
        fmm = _fmm()
        with pytest.raises(ParameterError):
            fmm.apply(np.zeros((8, 128)))
