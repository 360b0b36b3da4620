"""Distributed execution of the P-1 interleaved FMMs (Algorithm 1).

Box ownership is contiguous per device at every level (see
:class:`~repro.fmm.tree.Tree1D`), so the communication pattern is
exactly the paper's:

- **COMM S** — one leaf box to each cyclic neighbour (halo width 1),
  overlapped with S2M on the compute stream;
- **COMM M-ell** — two boxes to each neighbour per hierarchical level
  (halo width 2), overlapped with the previous level's M2L;
- **COMM M-B** — one all-to-all gather of the base-level multipoles,
  after which M2L-B and the reduction run on replicated data.

M2M and L2L never communicate: children of owned parents are owned.

Every compute stage is one launch per device per level, with flop/byte
costs derived from the actual tensor shapes — the ledger sums are
cross-checked against the Section 5 closed forms in the test suite.

The stage numerics are the shared kernels of :mod:`repro.fmm.batched`:
each ``_do_*`` extends a device's boxes with the halos it received and
calls them, so a device computes exactly what ``BatchedFMM`` would.
"""

from __future__ import annotations

import numpy as np

from repro import comm
from repro.fmm import batched
from repro.fmm.plan import FmmGeometry, FmmOperators
from repro.machine.cluster import VirtualCluster
from repro.machine.stream import Event
from repro.util.validation import ParameterError, c_factor, real_dtype_for


class DistributedFMM:
    """All P-1 FMMs across a :class:`VirtualCluster` (Algorithm 1).

    Parameters
    ----------
    operators:
        A prebuilt :class:`FmmOperators` (required for execute-mode
        clusters) or a bare :class:`FmmGeometry` (sufficient for
        timing-only sweeps at any scale).  The tree's G must match the
        cluster's device count.
    cluster:
        The machine to run on.
    dtype:
        Input/output dtype (sets the C factor and byte widths).
    ns:
        Buffer namespace: every device buffer this executor touches is
        named ``{ns}.<suffix>`` (default ``"fmm"``, the historical
        names).  Concurrent in-flight executions (the serve scheduler's
        interleaved batches) use distinct namespaces so the hazard
        sanitizer can prove them independent.
    batch:
        Number of stacked problems per stage launch (timing-only).  The
        serve batcher coalesces compatible transforms: data flops,
        memory traffic, and comm bytes scale by ``batch`` while launch
        count and operator reads do not — the BatchedGEMM amortization
        the paper's pipeline is shaped for.
    """

    def __init__(
        self,
        operators: FmmOperators | FmmGeometry,
        cluster: VirtualCluster,
        dtype="complex128",
        fuse_m2l_l2l: bool = False,
        comm_algorithm: str = "bulk",
        ns: str = "fmm",
        batch: int = 1,
    ):
        """``fuse_m2l_l2l`` enables the Section 5.3 fusion: each level's
        M2L and the L2L feeding it run as one kernel, saving one write
        and one read of the local-expansion data per level (identical
        numerics; fewer launches and memory ops).  ``comm_algorithm``
        selects the collective algorithm for the base-level allgather
        (see :mod:`repro.comm`); the halo exchanges are already
        per-message plans."""
        if operators.tree.G != cluster.G:
            raise ParameterError(
                f"operators built for G={operators.tree.G}, cluster has G={cluster.G}"
            )
        if cluster.execute and not isinstance(operators, FmmOperators):
            raise ParameterError(
                "execute-mode clusters need full FmmOperators, got geometry only"
            )
        if batch < 1:
            raise ParameterError(f"batch must be >= 1, got {batch}")
        if batch > 1 and cluster.execute:
            raise ParameterError(
                "batch > 1 is a timing-only cost model; execute-mode numerics "
                "run through core.single.fmmfft_batched"
            )
        self.ops = operators
        self.cl = cluster
        self.dtype = np.dtype(dtype)
        self.fuse_m2l_l2l = fuse_m2l_l2l
        self.comm_algorithm = comm_algorithm
        self.ns = ns
        self.batch = batch
        self.C = c_factor(self.dtype)
        self.rsize = np.dtype(real_dtype_for(self.dtype)).itemsize
        self.csize = self.C * self.rsize  # bytes per input element
        # execute-mode numerics state, per device; S2M opens each pass
        self._Mexp: list[dict] = []
        self._Loc: list[dict] = []
        self._halo: dict[str, dict] = {}
        self._MB = self._r = None

    def _buf(self, suffix: str) -> str:
        """Namespaced device buffer name."""
        return f"{self.ns}.{suffix}"

    # -- cost helpers -----------------------------------------------------

    def _gemm_cost(self, m: int, n: int, k: int, batch: float) -> tuple[float, float]:
        """(flops, bytes) for a batched GEMM on C-factor-flattened data.

        Operator A is real (m x k); data B and output C' carry the C
        factor.  Matches the Section 5 convention that complex input
        doubles flops and data bytes but not operator bytes.
        """
        flops = 2.0 * m * n * k * batch * self.C
        bytes_ = (
            m * k * self.rsize                      # operator (read)
            + k * n * batch * self.csize            # input (read)
            + m * n * batch * self.csize            # output (write)
        )
        return flops, bytes_

    # -- data staging ------------------------------------------------------

    def scatter(self, S: np.ndarray, key: str | None = None) -> None:
        """Place each device's leaf-box slice of S (shape (P, M))."""
        key = self._buf("S") if key is None else key
        o = self.ops
        Sb = np.asarray(S, dtype=self.dtype).reshape(o.P, o.tree.num_leaves, o.ML)
        for g in range(self.cl.G):
            b0, b1 = o.tree.box_range(o.L, g)
            self.cl.dev(g)[key] = Sb[:, b0:b1, :].copy()

    def gather(self, key: str | None = None) -> np.ndarray:
        """Reassemble the (P, M) output from per-device box slices."""
        key = self._buf("T") if key is None else key
        o = self.ops
        parts = [np.asarray(self.cl.dev(g)[key]) for g in range(self.cl.G)]
        return np.concatenate(parts, axis=1).reshape(o.P, o.M)

    # -- pipeline ----------------------------------------------------------

    def run(
        self,
        S: np.ndarray | None = None,
        key_in: str | None = None,
        key_out: str | None = None,
        staged: bool = False,
        after: list[Event] | None = None,
    ) -> tuple[list[Event], np.ndarray | None]:
        """Execute Algorithm 1 lines 1-14 (S2M .. L2T).

        ``after`` (optional) gates the input-consuming stages (S2M and
        the S halo) — one event for all devices or one per device; the
        serve scheduler uses it to model request release times.

        Returns ``(events, r)``: per-device completion events for the T
        tensor (so the 2D FFT can chain off them) and the replicated
        reduction vector r (execute mode; None otherwise).  POST is left
        to the caller — the FMM-FFT fuses it into the 2D FFT's load
        callback.
        """
        cl, o = self.cl, self.ops
        G, P, Q, ML = cl.G, o.P, o.Q, o.ML
        L, B = o.L, o.B
        nb_loc = o.tree.boxes_local(L)
        k = self.batch
        key_in = self._buf("S") if key_in is None else key_in
        key_out = self._buf("T") if key_out is None else key_out
        if after is None:
            rel = [None] * G
        elif len(after) == G:
            rel = list(after)
        elif len(after) == 1:
            rel = list(after) * G
        else:
            raise ParameterError(
                f"after must have 1 or G={G} events, got {len(after)}"
            )

        if cl.execute and not staged:
            if S is None:
                raise ParameterError("execute-mode cluster requires input data")
            self.scatter(S, key_in)

        # ---- line 1: S2M (one BatchedGEMM per device) --------------------
        flops, mops = self._gemm_cost(Q, nb_loc, ML, (P - 1) * k)
        with cl.region("fmm"), cl.region("S2M"):
            ev_s2m = [
                cl.launch(
                    g, "S2M", "batched_gemm", flops, mops, self.dtype,
                    after=[rel[g]] if rel[g] is not None else (),
                    fn=(lambda c: self._do_s2m(key_in)) if g == 0 else None,
                    reads=[key_in], writes=[self._buf(f"M{L}")],
                )
                for g in range(G)
            ]

        # ---- line 2: COMM S (halo width 1), overlapped with S2M ----------
        halo_bytes = (P - 1) * ML * self.csize * k
        with cl.region("fmm"), cl.region("halo-S"):
            ev_shalo = self._halo_exchange(
                "S", key_in, 1, halo_bytes, "COMM-S",
                after=rel if after is not None else None,
            )

        # ---- line 3: S2T after the S halo ---------------------------------
        flops = 6.0 * self.C * ML * ML * nb_loc * (P - 1) * k
        # operators generated on the fly (Section 5.3): traffic is the
        # halo-extended read of S plus the write of T.
        mops = ((nb_loc + 2) * ML * P * self.csize + nb_loc * ML * P * self.csize) * k
        with cl.region("fmm"), cl.region("S2T"):
            ev_s2t = [
                cl.launch(
                    g, "S2T", "custom", flops, mops, self.dtype,
                    after=[ev_shalo[g], ],
                    fn=(lambda c: self._do_s2t(key_in, key_out)) if g == 0 else None,
                    reads=[key_in, self._buf("halo.S")], writes=[key_out],
                )
                for g in range(G)
            ]

        # ---- lines 4-5: M2M up the tree -----------------------------------
        ev_m_level: dict[int, list[Event]] = {L: list(ev_s2m)}
        ev_m = list(ev_s2m)
        with cl.region("fmm"), cl.region("upward"):
            for ell in o.tree.levels_m2m():
                nbl = o.tree.boxes_local(ell)
                flops, mops = self._gemm_cost(Q, nbl, 2 * Q, (P - 1) * k)
                ev_m = [
                    cl.launch(
                        g, f"M2M-{ell}", "batched_gemm", flops, mops, self.dtype,
                        after=[ev_m[g]],
                        fn=(lambda c, e=ell: self._do_m2m(e)) if g == 0 else None,
                        reads=[self._buf(f"M{ell + 1}")], writes=[self._buf(f"M{ell}")],
                    )
                    for g in range(G)
                ]
                ev_m_level[ell] = ev_m

        # ---- lines 6-8: M halo + cousin M2L per level ----------------------
        ev_loc: dict[int, list[Event]] = {}
        ev_mh_level: dict[int, list[Event]] = {}
        with cl.region("fmm"), cl.region("m2l"):
            for ell in o.tree.levels_m2l():
                nbl = o.tree.boxes_local(ell)
                mh_bytes = 2 * (P - 1) * Q * self.csize * k  # two boxes per side
                ev_mh = self._halo_exchange(f"M{ell}", None, 2, mh_bytes, f"COMM-M{ell}",
                                            level=ell, after=ev_m_level[ell])
                ev_mh_level[ell] = ev_mh
                if self.fuse_m2l_l2l:
                    continue  # M2L runs fused with L2L in the downward pass
                flops = 6.0 * self.C * nbl * (P - 1) * Q * Q * k
                mops = ((nbl + 4) * Q + nbl * Q) * (P - 1) * self.csize * k
                ev_loc[ell] = [
                    cl.launch(
                        g, f"M2L-{ell}", "custom", flops, mops, self.dtype,
                        after=[ev_mh[g]],
                        fn=(lambda c, e=ell: self._do_m2l_level(e)) if g == 0 else None,
                        reads=[self._buf(f"M{ell}"), self._buf(f"halo.M{ell}")],
                        writes=[self._buf(f"L{ell}")],
                    )
                    for g in range(G)
                ]

        with cl.region("fmm"), cl.region("base"):
            # ---- line 9: all-to-all gather of base multipoles ---------------
            base_bytes = (P - 1) * o.tree.boxes_local(B) * Q * self.csize * k
            ev_gather = comm.allgather(
                cl, base_bytes, "COMM-MB",
                after=[ev_m[g] for g in range(G)] if G > 1 else ev_m,
                fn=lambda c: self._do_gather_base(),
                reads=[self._buf(f"M{B}")], writes=[self._buf("MB")],
                algorithm=self.comm_algorithm,
            )

            # ---- line 10: dense base-level M2L ------------------------------
            nS = (1 << B) - 3
            nbB_loc = o.tree.boxes_local(B)
            flops = 2.0 * self.C * nbB_loc * nS * (P - 1) * Q * Q * k
            mops = ((1 << B) * Q + nbB_loc * Q) * (P - 1) * self.csize * k
            ev_base = [
                cl.launch(
                    g, "M2L-B", "custom", flops, mops, self.dtype,
                    after=[ev_gather[min(g, len(ev_gather) - 1)]],
                    fn=(lambda c: self._do_m2l_base()) if g == 0 else None,
                    reads=[self._buf("MB")], writes=[self._buf(f"L{B}")],
                )
                for g in range(G)
            ]

            # ---- line 11: REDUCE (one GEMV on the gathered base data) -------
            flops = self.C * (1 << B) * (P - 1) * Q * k
            mops = ((1 << B) * (P - 1) * Q * self.csize + (P - 1) * self.csize) * k
            ev_red = [
                cl.launch(
                    g, "REDUCE", "gemv", flops, mops, self.dtype,
                    after=[ev_gather[min(g, len(ev_gather) - 1)]],
                    fn=(lambda c: self._do_reduce()) if g == 0 else None,
                    reads=[self._buf("MB")], writes=[self._buf("r")],
                )
                for g in range(G)
            ]

        # ---- lines 12-13: L2L down the tree -----------------------------------
        ev_l = ev_base
        with cl.region("fmm"), cl.region("downward"):
            for ell in o.tree.levels_l2l():
                nbl = o.tree.boxes_local(ell)
                flops, mops = self._gemm_cost(2 * Q, nbl, Q, (P - 1) * k)
                if self.fuse_m2l_l2l:
                    # one kernel: M2L-(ell+1) accumulated with L2L-(ell);
                    # saves one write + one read of the child L data.
                    nbl1 = o.tree.boxes_local(ell + 1)
                    flops += 6.0 * self.C * nbl1 * (P - 1) * Q * Q * k
                    mops += ((nbl1 + 4) * Q + nbl1 * Q) * (P - 1) * self.csize * k
                    mops -= 2.0 * nbl1 * Q * (P - 1) * self.csize * k
                    waits = [
                        max(ev_l[g], ev_mh_level[ell + 1][g], key=lambda e: e.time)
                        for g in range(G)
                    ]
                    ev_l = [
                        cl.launch(
                            g, f"M2L+L2L-{ell + 1}", "custom", flops, mops, self.dtype,
                            after=[waits[g]],
                            fn=(lambda c, e=ell: self._do_fused_m2l_l2l(e)) if g == 0 else None,
                            reads=[self._buf(f"M{ell + 1}"), self._buf(f"halo.M{ell + 1}"),
                                   self._buf(f"L{ell}")],
                            writes=[self._buf(f"L{ell + 1}")],
                        )
                        for g in range(G)
                    ]
                    continue
                waits = [ev_l[g] for g in range(G)]
                # the destination level's own M2L must also be done
                if (ell + 1) in ev_loc:
                    waits = [max(waits[g], ev_loc[ell + 1][g], key=lambda e: e.time) for g in range(G)]
                ev_l = [
                    cl.launch(
                        g, f"L2L-{ell}", "batched_gemm", flops, mops, self.dtype,
                        after=[waits[g]],
                        fn=(lambda c, e=ell: self._do_l2l(e)) if g == 0 else None,
                        reads=[self._buf(f"L{ell}"), self._buf(f"L{ell + 1}")],
                        writes=[self._buf(f"L{ell + 1}")],
                    )
                    for g in range(G)
                ]

        # ---- line 14: L2T (accumulate into T) ----------------------------------
        flops, mops = self._gemm_cost(ML, nb_loc, Q, (P - 1) * k)
        mops += nb_loc * ML * (P - 1) * self.csize * k  # read T for accumulation
        with cl.region("fmm"), cl.region("L2T"):
            ev_t = [
                cl.launch(
                    g, "L2T", "batched_gemm", flops, mops, self.dtype,
                    after=[ev_l[g], ev_s2t[g]],
                    fn=(lambda c: self._do_l2t(key_out)) if g == 0 else None,
                    reads=[self._buf(f"L{L}"), key_out], writes=[key_out],
                )
                for g in range(G)
            ]

        r = self._r if cl.execute else None
        return ev_t, r

    # -- halo machinery ------------------------------------------------------

    def _halo_exchange(
        self,
        what: str,
        key: str | None,
        width: int,
        nbytes: float,
        name: str,
        level: int | None = None,
        after: list[Event] | None = None,
    ) -> list[Event]:
        """Cyclic neighbour exchange of ``width`` boxes per side.

        Stashes the real halo data (execute mode), then issues the
        exchange through :func:`repro.comm.halo_exchange` — two fully
        parallel ring shifts whose ``#L``/``#R`` halo slots are disjoint
        sub-resources.  Returns per-device events for halo arrival;
        ``after[g]`` gates device g's sends on its producer kernel.  The
        real data is stashed in ``self._halo[what]`` as
        (left_halo, right_halo) per device.
        """
        cl = self.cl
        cl.host_action(lambda c: self._stash_halo(what, key, width, level))
        src_buf = key if key is not None else self._buf(f"M{level}")
        return comm.halo_exchange(
            cl, nbytes, name, src_buf, self._buf(f"halo.{what}"), after=after,
        )

    def _stash_halo(self, what: str, key: str | None, width: int, level: int | None) -> None:
        """Record the halo data every device will need (execute mode)."""
        cl, G = self.cl, self.cl.G

        def boxes(g: int) -> np.ndarray:
            return np.asarray(cl.dev(g)[key]) if key is not None else self._Mexp[g][level]

        self._halo[what] = {
            g: (boxes((g - 1) % G)[:, -width:, :], boxes((g + 1) % G)[:, :width, :])
            for g in range(G)
        }

    def _extend(self, what: str, g: int, a: np.ndarray) -> np.ndarray:
        """Device g's boxes ``a`` between the halos it received for ``what``."""
        lh, rh = self._halo[what][g]
        return np.concatenate([lh, a, rh], axis=-2)

    # -- real-data stage implementations ---------------------------------------
    # Each _do_* runs once (attached to device 0's launch) and updates the
    # per-device state for all devices; orchestration order guarantees
    # producers ran first.

    def _do_s2m(self, key_in: str) -> None:
        cl, o = self.cl, self.ops
        # S2M opens a fresh pass (an IR replay re-runs this instance)
        self._Mexp = []
        self._Loc = [dict() for _ in range(cl.G)]
        self._MB = None
        for g in range(cl.G):
            Sb = np.asarray(cl.dev(g)[key_in])  # (P, nb_loc, ML)
            self._Mexp.append({o.L: Sb[1:] @ o.s2m.T})

    def _do_s2t(self, key_in: str, key_out: str) -> None:
        cl, o = self.cl, self.ops
        for g in range(cl.G):
            Sb = np.asarray(cl.dev(g)[key_in])
            T = np.empty(Sb.shape, dtype=np.result_type(Sb.dtype, o.real_dtype))
            T[0] = Sb[0]
            T[1:] = batched.s2t_kernel(self._extend("S", g, Sb)[1:], o.s2t)
            cl.dev(g)[key_out] = T

    def _do_m2m(self, ell: int) -> None:
        for Mexp in self._Mexp:
            Mexp[ell] = batched.m2m_kernel(Mexp[ell + 1], self.ops.m2m)

    def _do_m2l_level(self, ell: int) -> None:
        K = self.ops.m2l_level[ell]
        for g in range(self.cl.G):
            ext = self._extend(f"M{ell}", g, self._Mexp[g][ell])
            self._Loc[g][ell] = batched.m2l_cousin_kernel(ext, K)

    def _do_gather_base(self) -> None:
        cl, o = self.cl, self.ops
        self._MB = np.concatenate([self._Mexp[g][o.B] for g in range(cl.G)], axis=1)

    def _do_m2l_base(self) -> None:
        o = self.ops
        ext = batched.periodic_extend(self._MB, 1 << o.B)
        for g in range(self.cl.G):
            b0, b1 = o.tree.box_range(o.B, g)
            self._Loc[g][o.B] = batched.m2l_base_kernel(ext, o.m2l_base, b0, b1)

    def _do_reduce(self) -> None:
        self._r = self._MB.sum(axis=(1, 2))

    def _do_l2l(self, ell: int) -> None:
        for loc in self._Loc:
            loc[ell + 1] = loc[ell + 1] + batched.l2l_kernel(loc[ell], self.ops.m2m)

    def _do_fused_m2l_l2l(self, ell: int) -> None:
        """Fused kernel data path: M2L at level ell+1, then accumulate
        the parent translation (identical numerics to the split path)."""
        self._do_m2l_level(ell + 1)
        self._do_l2l(ell)

    def _do_l2t(self, key_out: str) -> None:
        cl, o = self.cl, self.ops
        for g in range(cl.G):
            T = np.asarray(cl.dev(g)[key_out])
            T[1:] += self._Loc[g][o.L] @ o.s2m
            cl.dev(g)[key_out] = T
