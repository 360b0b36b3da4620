"""Periodic 1D FMM for ``cot(pi (x - y))`` with arbitrary points.

Sources ``y_j`` with weights ``w_j`` and targets ``x_i`` live on the
periodic unit interval.  The evaluation::

    u(x_i) = sum_j  w_j * cot(pi (x_i - y_j))        (x_i != y_j)

is the workhorse of trigonometric barycentric interpolation (and hence
of Dutt-Rokhlin nonequispaced FFTs).  Exact coincidences ``x_i == y_j``
contribute zero (the caller — the barycentric formula — handles node
hits separately).

The hierarchical structure is identical to the FMM-FFT's uniform FMM
(:mod:`repro.fmm`): a binary tree of ``2^L`` boxes, cousin interaction
lists at levels L..B+1, a dense all-non-neighbours pass at the base
level B >= 2, and the level-independent Chebyshev M2M/L2L translations.
Only S2M, L2T, and the near field see the actual point positions; the
far field (M2M, M2L, L2L) runs through the shared stage kernels of
:mod:`repro.fmm.batched` on ``(k, box, Q)`` arrays.
"""

from __future__ import annotations

import numpy as np

from repro.fmm import batched
from repro.fmm.chebyshev import cheb_points, lagrange_eval
from repro.fmm.interaction import COUSINS_EVEN, COUSINS_ODD, base_offsets
from repro.fmm.operators import m2m_matrix
from repro.util.validation import ParameterError, check_range


def cot_pi(x: np.ndarray) -> np.ndarray:
    """``cot(pi x)`` with exact zeros mapped to 0 (skipped pairs)."""
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    mask = x != 0.0
    out[mask] = 1.0 / np.tan(np.pi * x[mask])
    return out


class NonuniformPeriodicFMM:
    """Plan for repeated cot-kernel evaluations with fixed geometry.

    Parameters
    ----------
    sources, targets:
        Point coordinates in [0, 1) (any order; binned internally).
    L:
        Tree depth: 2^L leaf boxes.
    B:
        Base level (2 <= B <= L).
    Q:
        Chebyshev expansion order.

    Notes
    -----
    Points are *binned*, not assumed sorted.  Accuracy matches the
    uniform FMM: geometric in Q (Figure 9's rate), because cousin boxes
    are separated by at least one box width regardless of where points
    sit inside them.
    """

    def __init__(
        self,
        sources: np.ndarray,
        targets: np.ndarray,
        L: int = 6,
        B: int = 3,
        Q: int = 16,
    ):
        sources = np.asarray(sources, dtype=np.float64).ravel()
        targets = np.asarray(targets, dtype=np.float64).ravel()
        for name, pts in (("sources", sources), ("targets", targets)):
            if pts.size == 0:
                raise ParameterError(f"{name} must be non-empty")
            if (pts < 0).any() or (pts >= 1).any():
                raise ParameterError(f"{name} must lie in [0, 1)")
        check_range("B", B, 2, L)
        check_range("Q", Q, 2, None)
        self.L, self.B, self.Q = L, B, Q
        self.nb = 1 << L
        self.src = sources
        self.tgt = targets

        # bin points: argsort by box, store box boundaries
        self._src_order, self._src_bounds = self._bin(sources)
        self._tgt_order, self._tgt_bounds = self._bin(targets)

        # geometry-dependent operators
        self._s2m_blocks = self._anterp_blocks(sources, self._src_order,
                                               self._src_bounds)
        self._l2t_blocks = [a.T for a in self._anterp_blocks(
            targets, self._tgt_order, self._tgt_bounds)]
        self._m2m = m2m_matrix(Q)
        self._m2l_cache: dict[int, np.ndarray] = {}

    # -- setup helpers -----------------------------------------------------

    def _bin(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        box = np.minimum((pts * self.nb).astype(np.intp), self.nb - 1)
        order = np.argsort(box, kind="stable")
        bounds = np.searchsorted(box[order], np.arange(self.nb + 1))
        return order, bounds

    def _anterp_blocks(self, pts, order, bounds) -> list[np.ndarray]:
        """Per-box anterpolation matrices ``(Q, n_b)`` from positions."""
        w = 1.0 / self.nb
        blocks = []
        for b in range(self.nb):
            sl = order[bounds[b] : bounds[b + 1]]
            if sl.size == 0:
                blocks.append(np.zeros((self.Q, 0)))
                continue
            local = (pts[sl] - b * w) / w * 2.0 - 1.0  # map box -> [-1, 1]
            blocks.append(lagrange_eval(self.Q, local))
        return blocks

    def _m2l_operator(self, level: int) -> np.ndarray:
        """(2, 3, Q, Q) cousin operators at a level (cached)."""
        if level not in self._m2l_cache:
            zq = cheb_points(self.Q)
            w = 1.0 / (1 << level)
            s = np.array([COUSINS_EVEN, COUSINS_ODD], dtype=np.float64)
            # kernel argument is target - source = w((z_i - z_j)/2 - s)
            arg = w * (zq[None, None, :, None] / 2.0
                       - zq[None, None, None, :] / 2.0
                       - s[:, :, None, None])
            self._m2l_cache[level] = cot_pi(arg)
        return self._m2l_cache[level]

    def _m2l_base_operator(self) -> np.ndarray:
        """(nS, Q, Q) dense base-level operators."""
        key = -self.B
        if key not in self._m2l_cache:
            zq = cheb_points(self.Q)
            w = 1.0 / (1 << self.B)
            s = np.asarray(base_offsets(self.B), dtype=np.float64)
            # target - source convention, as at the hierarchical levels
            arg = w * (zq[None, :, None] / 2.0 - zq[None, None, :] / 2.0
                       - s[:, None, None])
            self._m2l_cache[key] = cot_pi(arg)
        return self._m2l_cache[key]

    # -- application --------------------------------------------------------

    def apply(self, weights: np.ndarray) -> np.ndarray:
        """Evaluate the kernel sum for one or more weight vectors.

        Parameters
        ----------
        weights:
            Shape ``(n_src,)`` or ``(n_src, k)`` (k right-hand sides).

        Returns
        -------
        ``(n_tgt,)`` or ``(n_tgt, k)`` values.
        """
        w = np.asarray(weights)
        squeeze = w.ndim == 1
        if squeeze:
            w = w[:, None]
        if w.shape[0] != self.src.size:
            raise ParameterError(
                f"weights must have {self.src.size} rows, got {w.shape[0]}"
            )
        k = w.shape[1]
        dtype = np.result_type(w.dtype, np.float64)
        out = np.zeros((self.tgt.size, k), dtype=dtype)

        # ---- upward: S2M at the leaves, M2M to the base --------------------
        L, B, nb = self.L, self.B, self.nb
        Mexp = {L: np.zeros((k, nb, self.Q), dtype=dtype)}
        so, sb = self._src_order, self._src_bounds
        for b in range(nb):
            sl = so[sb[b] : sb[b + 1]]
            if sl.size:
                Mexp[L][:, b, :] = (self._s2m_blocks[b] @ w[sl]).T
        for ell in range(L - 1, B - 1, -1):
            Mexp[ell] = batched.m2m_kernel(Mexp[ell + 1], self._m2m)

        # ---- M2L: cousins at L..B+1, dense at B ----------------------------
        loc = {}
        for ell in range(L, B, -1):
            ext = batched.periodic_extend(Mexp[ell], 2)
            loc[ell] = batched.m2l_cousin_kernel(ext, self._m2l_operator(ell))
        ext = batched.periodic_extend(Mexp[B], 1 << B)
        loc[B] = batched.m2l_base_kernel(ext, self._m2l_base_operator(), 0, 1 << B)

        # ---- downward: L2L to the leaves, L2T at targets --------------------
        for ell in range(B, L):
            loc[ell + 1] = loc[ell + 1] + batched.l2l_kernel(loc[ell], self._m2m)
        to, tb = self._tgt_order, self._tgt_bounds
        for b in range(nb):
            sl = to[tb[b] : tb[b + 1]]
            if sl.size:
                out[sl] += self._l2t_blocks[b] @ loc[L][:, b, :].T

        # ---- near field: direct with positions ------------------------------
        self._near_field(w, out)
        return out[:, 0] if squeeze else out

    def _near_field(self, w: np.ndarray, out: np.ndarray) -> None:
        so, sb = self._src_order, self._src_bounds
        to, tb = self._tgt_order, self._tgt_bounds
        for b in range(self.nb):
            ti = to[tb[b] : tb[b + 1]]
            if ti.size == 0:
                continue
            for s in (-1, 0, 1):
                nb_ = (b + s) % self.nb
                si = so[sb[nb_] : sb[nb_ + 1]]
                if si.size == 0:
                    continue
                diff = self.tgt[ti][:, None] - self.src[si][None, :]
                # cyclic wrap for the boundary boxes
                diff = diff - np.round(diff)
                out[ti] += cot_pi(diff) @ w[si]

    def apply_dense(self, weights: np.ndarray) -> np.ndarray:
        """O(N M) direct evaluation (test oracle; small sizes only)."""
        if self.src.size * self.tgt.size > 16_000_000:
            raise ParameterError("apply_dense refused: problem too large")
        w = np.asarray(weights)
        squeeze = w.ndim == 1
        if squeeze:
            w = w[:, None]
        diff = self.tgt[:, None] - self.src[None, :]
        diff = diff - np.round(diff)
        out = cot_pi(diff) @ w
        return out[:, 0] if squeeze else out
