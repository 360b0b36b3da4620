"""Single-device batched execution of the P-1 interleaved FMMs.

Each stage per level is one batched kernel, a few NumPy ``matmul`` calls
over all p at once — the direct analogue of the paper's "single call to
BatchedGEMM" claims (Sections 4.4-4.5).  The
kernel-launch inventory for L - B = 10 is exactly the paper's Figure 2
count: 1 S2M + 10 M2M + 1 S2T + (10 + 1) M2L + 1 reduce + 10 L2L +
1 L2T = 35.

Tensor layout: batch-of-FMMs axes ordered ``(p, box, within-box)`` so
every contraction is a broadcasted matrix product over a contiguous
trailing pair.  S2T and M2L, whose operators differ per p, instead put
the operator on the left of a box-innermost copy of their sources, so
complex data runs as one real GEMM (:func:`real_op_matmul`).

The module-level ``*_kernel`` functions are the one implementation of
the S2T, M2M, M2L and L2L numerics, shared by :class:`BatchedFMM`, the
distributed executor and the nonuniform FMM's far field.
"""

from __future__ import annotations

import numpy as np

from repro.fmm.interaction import COUSINS_EVEN, COUSINS_ODD, base_offsets
from repro.fmm.plan import FmmOperators
from repro.util.validation import ParameterError

# -- stage kernels ------------------------------------------------------------
# Box arrays are (..., box, n).  A kernel that reads neighbour boxes takes
# its input already extended along the box axis, so no kernel wraps an
# index: the periodic and the halo-fed callers share every contraction.


def periodic_extend(a: np.ndarray, width: int) -> np.ndarray:
    """``a`` with ``width`` boxes wrapped cyclically onto each end of axis -2."""
    return np.concatenate([a[..., -width:, :], a, a[..., :width, :]], axis=-2)


def real_op_matmul(k: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``k @ x`` for a real operator ``k``, as one real GEMM.

    ``@`` would promote ``k`` to complex (a complex temporary of the whole
    operator on every call) and run a complex GEMM at 4x the real flops.
    A complex ``x`` whose last axis is contiguous is instead read as a
    real array with twice the columns, real and imaginary parts
    interleaved, so one real GEMM does the two real products the cost
    model charges.  Real ``x`` and complex ``k`` go straight to ``@``.
    """
    if not np.iscomplexobj(x) or np.iscomplexobj(k):
        return k @ x
    return (k @ x.view(x.real.dtype)).view(np.result_type(k, x))


def s2t_kernel(ext: np.ndarray, s2t: np.ndarray) -> np.ndarray:
    """Near field from a width-1 extension ``(..., P-1, nb+2, ML)``.

    ``T[pi, b, i] = sum_j' K[pi, i, j'] S_halo[pi, b, j']`` with the
    halo triple [b-1, b, b+1] flattened into ``j'``.  The sources are
    transposed once, box axis innermost; each third of ``K`` then meets
    that copy shifted by one box, so no halo triple is ever built.
    """
    nb, ML = ext.shape[-2] - 2, ext.shape[-1]
    src = np.ascontiguousarray(ext.swapaxes(-1, -2))  # (..., P-1, ML, nb+2)
    T = real_op_matmul(s2t[..., :ML], src[..., :nb])
    for o in (1, 2):
        T += real_op_matmul(s2t[..., o * ML : (o + 1) * ML], src[..., o : o + nb])
    return T.swapaxes(-1, -2)


def m2m_kernel(child: np.ndarray, m2m: np.ndarray) -> np.ndarray:
    """One upward level: siblings flattened, then one GEMM against M2M^T."""
    nb2, Q = child.shape[-2:]
    return child.reshape(*child.shape[:-2], nb2 // 2, 2 * Q) @ m2m.T


def m2l_cousin_kernel(ext: np.ndarray, K: np.ndarray) -> np.ndarray:
    """Cousin interactions (3 per box) from a width-2 extension ``(..., nb+4, Q)``.

    ``K[..., parity, si, :, :]`` translates the source at offset
    ``COUSINS_EVEN[si]`` (even targets) or ``COUSINS_ODD[si]`` (odd), so
    the FMM-FFT's ``(P-1, 2, 3, Q, Q)`` stack and a single kernel's
    ``(2, 3, Q, Q)`` operator go through the same code.
    """
    nb = ext.shape[-2] - 4
    loc = np.empty((*ext.shape[:-2], nb, ext.shape[-1]), dtype=ext.dtype)
    for parity, offsets in ((0, COUSINS_EVEN), (1, COUSINS_ODD)):
        src = np.arange(parity, nb, 2)[:, None] + offsets + 2
        loc[..., parity::2, :] = _offsets_gemm(ext, src, K[..., parity, :, :, :])
    return loc


def m2l_base_kernel(ext: np.ndarray, K: np.ndarray, b0: int, b1: int) -> np.ndarray:
    """Dense base-level interactions onto target boxes ``b0 .. b1-1``.

    ``ext`` is the whole base level ``(..., 2^B, Q)`` extended by its own
    length on each side (``periodic_extend(MB, 2^B)``); ``K[..., si, :, :]``
    translates the source at offset ``base_offsets(B)[si]``.
    """
    nbB = ext.shape[-2] // 3
    src = np.arange(b0, b1)[:, None] + base_offsets(nbB.bit_length() - 1) + nbB
    return _offsets_gemm(ext, src, K)


def _offsets_gemm(ext: np.ndarray, src: np.ndarray, K: np.ndarray) -> np.ndarray:
    """``sum_si ext[..., src[t, si], :] @ K[..., si, :, :]^T`` as one GEMM.

    The S source offsets sit side by side along the contraction axis,
    against ``K`` laid out as ``(Q, S Q)``; the gathered sources are
    stored box axis innermost for :func:`real_op_matmul`.
    """
    nt, S = src.shape
    Q = ext.shape[-1]
    x = np.ascontiguousarray(ext[..., src.T, :].swapaxes(-1, -2))  # (..., S, Q, nt)
    k = K.swapaxes(-3, -2).reshape(*K.shape[:-3], Q, S * Q)
    return real_op_matmul(k, x.reshape(*ext.shape[:-2], S * Q, nt)).swapaxes(-1, -2)


def l2l_kernel(parent: np.ndarray, m2m: np.ndarray) -> np.ndarray:
    """One downward level: the parents' expansions at both children's
    nodes (L2L = M2M^T); callers add the result into the children."""
    nb, Q = parent.shape[-2:]
    return (parent @ m2m).reshape(*parent.shape[:-2], 2 * nb, Q)


class BatchedFMM:
    """Applies all P-1 cotangent kernels ``C~_p`` via one shared tree.

    Parameters
    ----------
    operators:
        A prebuilt :class:`~repro.fmm.plan.FmmOperators` (with G == 1).

    Examples
    --------
    >>> from repro.fmm.plan import FmmOperators
    >>> ops = FmmOperators.create(M=256, P=4, ML=16, B=2, Q=16)
    >>> fmm = BatchedFMM(ops)
    >>> import numpy as np
    >>> S = np.random.default_rng(0).standard_normal((4, 256))
    >>> T, r = fmm.apply(S)
    """

    def __init__(self, operators: FmmOperators):
        if operators.tree.G != 1:
            raise ParameterError("BatchedFMM is single-device; build operators with G=1")
        self.ops = operators

    # -- stages (each one batched contraction) ---------------------------

    def s2m(self, S: np.ndarray) -> np.ndarray:
        """Leaf multipoles: ``M^L[pi, b, q] = sum_m S2M[q, m] S[pi+1, b, m]``."""
        return S[..., 1:, :, :] @ self.ops.s2m.T

    def s2t(self, S: np.ndarray) -> np.ndarray:
        """Near field: the interleaved, overlapped Toeplitz convolution."""
        return s2t_kernel(periodic_extend(S[..., 1:, :, :], 1), self.ops.s2t)

    def m2m(self, child: np.ndarray) -> np.ndarray:
        """One upward level: siblings flattened then one batched GEMM."""
        return m2m_kernel(child, self.ops.m2m)

    def m2l_level(self, level: int, Mexp: np.ndarray) -> np.ndarray:
        """Cousin interactions at a hierarchical level (3 per box)."""
        return m2l_cousin_kernel(periodic_extend(Mexp, 2), self.ops.m2l_level[level])

    def m2l_base(self, MexpB: np.ndarray) -> np.ndarray:
        """Dense base-level interactions: every non-neighbour box."""
        nb = MexpB.shape[-2]
        return m2l_base_kernel(periodic_extend(MexpB, nb), self.ops.m2l_base, 0, nb)

    def reduce(self, MexpB: np.ndarray) -> np.ndarray:
        """``r[pi] = sum_{q,b} M^B[pi, q, b]`` — valid because S2M/M2M
        columns sum to one (Section 4.8)."""
        return MexpB.sum(axis=(-2, -1))

    def l2l(self, parent: np.ndarray) -> np.ndarray:
        """One downward level: evaluate parents at both children's nodes."""
        return l2l_kernel(parent, self.ops.m2m)

    def l2t(self, locL: np.ndarray) -> np.ndarray:
        """Evaluate leaf local expansions at the targets."""
        return locL @ self.ops.s2m

    # -- full pipeline ----------------------------------------------------

    def apply(self, S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Apply all kernels: ``T[0] = S[0]``, ``T[p] = C~_p S[p]``.

        Parameters
        ----------
        S:
            (P, M) array (any real/complex dtype), or (..., P, M) with
            leading batch axes — a stack of independent problems sharing
            one operator bundle, applied as one broadcasted contraction
            per stage (bit-identical to applying each slice alone).

        Returns
        -------
        (T, r):
            T of shape (..., P, M) and the reduction vector r of shape
            (..., P-1) with ``r[..., p-1] = sum_m S[..., p, m]``.
        """
        o = self.ops
        P, M, ML, nb = o.P, o.M, o.ML, o.tree.num_leaves
        S = np.asarray(S)
        if S.shape[-2:] != (P, M):
            raise ParameterError(f"S must have shape (..., {P}, {M}), got {S.shape}")
        lead = S.shape[:-2]
        Sb = S.reshape(*lead, P, nb, ML)

        Mexp = {o.L: self.s2m(Sb)}
        for ell in o.tree.levels_m2m():
            Mexp[ell] = self.m2m(Mexp[ell + 1])

        T = np.empty((*lead, P, nb, ML), dtype=np.result_type(S.dtype, o.real_dtype))
        T[..., 0, :, :] = Sb[..., 0, :, :]
        T[..., 1:, :, :] = self.s2t(Sb)

        loc = {ell: self.m2l_level(ell, Mexp[ell]) for ell in o.tree.levels_m2l()}
        loc[o.B] = self.m2l_base(Mexp[o.B])
        r = self.reduce(Mexp[o.B])

        for ell in o.tree.levels_l2l():
            loc[ell + 1] = loc[ell + 1] + self.l2l(loc[ell])
        T[..., 1:, :, :] += self.l2t(loc[o.L])
        return T.reshape(*lead, P, M), r
