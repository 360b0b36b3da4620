"""Correctness gates and exact simulated-clock tables over one cluster run.

Everything here reads a finished :class:`~repro.machine.cluster.
VirtualCluster` (its ledger and ``comm_log``) and runs outside the timed
window.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.hazards import HazardError
from repro.comm.plans import build_plan
from repro.obs.metrics import critical_path, overlap_summary


def rel_l2(got: np.ndarray, ref: np.ndarray) -> float:
    """Relative l2 error of ``got`` against ``ref``."""
    return float(np.linalg.norm(got - ref) / np.linalg.norm(ref))


def wire(entry: dict, spec) -> tuple[int, float]:
    """(messages, bytes) one ``comm_log`` entry puts on the wire.

    Plan algorithms are rebuilt (uncertified) from the logged payload;
    the flat ``bulk`` model, halos and point-to-point sends follow the
    per-device byte convention documented on ``OpRecord.comm_bytes``.
    """
    G, kind, algo = entry["G"], entry["kind"], entry["algorithm"]
    payload, chunks = entry["payload"], entry["chunks"]
    if kind == "halo":
        return 2 * G, 2 * G * payload
    if kind == "p2p":
        # a self-send is logged with zero predicted time and moves nothing
        return (1, payload) if entry["predicted"] > 0 else (0, 0.0)
    if kind not in ("alltoall", "allgather") or algo == "grouped":
        raise ValueError(f"no wire model for comm_log entry {kind}/{algo}")
    if algo == "bulk":
        per_dev = payload if kind == "alltoall" else (G - 1) * payload
        return chunks * G * (G - 1), G * per_dev
    per_chunk = payload / chunks if kind == "alltoall" else payload
    plan = build_plan(spec, kind, per_chunk, algo, certify=False)
    return chunks * plan.num_messages, chunks * plan.wire_bytes()


def comm_counts(clusters) -> dict[str, float]:
    """Exact comm counts over the ``comm_log`` of every cluster given."""
    colls = msgs = 0
    nbytes = 0.0
    for cl in clusters:
        for e in cl.comm_log:
            m, b = wire(e, cl.spec)
            colls += e["kind"] in ("alltoall", "allgather")
            msgs += m
            nbytes += b
    return {"comm.collectives": colls, "comm.messages": msgs,
            "comm.wire_bytes": nbytes}


def invariants(cl) -> list[str]:
    """The simulator invariants one run must satisfy; returns problems.

    The schedule is hazard-free, the critical path equals the wall
    time, and the bytes the ledger charged equal the wire bytes of the
    plans the comm layer logged.
    """
    problems = []
    try:
        cl.sanitize()
    except HazardError as e:
        problems.append(f"sanitize: {e}")
    start, end = cl.ledger.span()
    length = critical_path(cl.ledger).length
    if abs(length - (end - start)) > 1e-12 * max(1.0, end):
        problems.append(f"critical path {length!r} != wall {end - start!r}")
    charged = sum(r.comm_bytes for r in cl.ledger if r.kind == "comm")
    planned = comm_counts([cl])["comm.wire_bytes"]
    if abs(charged - planned) > 1e-9 * max(1.0, planned):
        problems.append(f"ledger comm bytes {charged!r} != plan wire bytes "
                        f"{planned!r}")
    return problems


def sim_table(cl) -> dict[str, float]:
    """Exact simulated-clock breakdown of one run (per-device means)."""
    ledger, G = cl.ledger, cl.G

    def region_time(seg: str) -> float:
        return sum(r.duration for r in ledger
                   if seg in r.region.split("/")) / G

    agg = overlap_summary(ledger, G)[-1]
    return {
        "sim.fmm_s": region_time("fmm"),
        "sim.fft2d_s": region_time("fft2d"),
        "sim.exposed_comm_s": agg.exposed / G,
        "sim.overlap_frac": agg.overlap_fraction,
        "sim.critical_path_ops": len(critical_path(ledger).ops),
        "sim.launches": ledger.launch_count(),
    }
