"""Golden engine output: interpreted runs pinned across commits.

The IR tests compare interpretation against replay *within* one tree;
this file pins what the engine itself produces, so a refactor of the
cluster's timing arithmetic has to leave every ledger byte and every
``comm_log`` entry count exactly where it was.  Each case runs one
timing-only pipeline at N = 2^12 and checks ``Ledger.fingerprint()``
(order-sensitive hash over every field of every record) and
``len(comm_log)`` against values recorded before the engine changed.

If one of these fails, the engine's schedule changed: that is a
behaviour change to explain, not a golden to refresh.
"""

from __future__ import annotations

import pytest

from repro.core.api import default_params
from repro.core.distributed import FmmFftDistributed
from repro.core.plan import FmmFftPlan
from repro.dfft.fft1d import Distributed1DFFT
from repro.faults import seeded_chaos
from repro.machine.cluster import VirtualCluster
from repro.machine.multinode import routed_multinode_p100
from repro.machine.spec import preset

N = 1 << 12

#: (pipeline, system, algorithm) -> (ledger fingerprint, len(comm_log))
GOLDEN = {
    ("fmmfft", "8xP100", "bulk"): (
        "be827cc2de8d166e6b27990e1916e069d8da1763f58292e6b2f2be35ddc757a0", 4),
    ("fmmfft", "8xP100", "direct"): (
        "5f6ce66d6f0a4921b15a71da5adc8e4fc152d106f9e0802cfdd8fc6890b99dc9", 4),
    ("fmmfft", "8xP100", "ring"): (
        "1b708dc3ee505ec417e4ce4cd8b8647f93b4043e26c99714e6915a9c85ff1597", 4),
    ("fmmfft", "8xP100", "bruck"): (
        "fda9d34b01fc6bb6c9162368591d9dab6a2fe21b54808b191f7c74904b49098d", 4),
    ("fmmfft", "8xP100", "auto"): (
        "fda9d34b01fc6bb6c9162368591d9dab6a2fe21b54808b191f7c74904b49098d", 4),
    ("fft1d", "8xP100", "bulk"): (
        "eef25b8a69e11172d2a3aa7a13b3a60d7ab46dea6314acb565d14c3407d5b3eb", 3),
    ("fft1d", "8xP100", "direct"): (
        "72d7e09f570e6afa6e2955be829b1dd66eda74c2e1c759c4b6d7bc0913c3a483", 3),
    ("fft1d", "8xP100", "ring"): (
        "7a6fded6d839d84f05ab13c5bda37ada59081d6f02730a98a684c500ab28aea3", 3),
    ("fft1d", "8xP100", "bruck"): (
        "dc1704ab86dda700f6ed6ab920d819a18ba6e74733735a534238402c8936319c", 3),
    ("fft1d", "8xP100", "auto"): (
        "dc1704ab86dda700f6ed6ab920d819a18ba6e74733735a534238402c8936319c", 3),
    ("fmmfft", "2-node", "hier"): (
        "ba85286825acfb13a93fc0c8c7c4490771a95873c486af7e300c0d2a068812e4", 4),
    ("fmmfft", "2-node", "hier2"): (
        "16a6892d54651629bc9950c87bb3a383fd8eb4af1cfd735e304daf3a9dd06dcd", 4),
    ("fft1d", "2-node", "hier"): (
        "86d4308cde33e42321924509f8f7d4571720f8fa7a322f9282fb75c43ef0f7b8", 3),
    ("fft1d", "2-node", "hier2"): (
        "e49ed1ee3ae6e6b238598d513f88fa321fa4a89421c215a0fec0282f354cc7c6", 3),
}

#: seeded chaos on 8xP100 (stragglers + transient failures with retry):
#: algorithm -> (fingerprint, len(comm_log), !fail records)
CHAOS_GOLDEN = {
    "bulk": (
        "1269be67515e9cef0a0438ab6a8a82cfa2b2e28d48e8a9293027caebb1a7ae58", 4, 12),
    "ring": (
        "11c126104fcc25b615f86c292272ca067af1e019f8cda9ab54e114295d68874a", 4, 14),
}


def _spec(system):
    return preset(system) if system != "2-node" else routed_multinode_p100(2)


def _run(pipeline, spec, algo, faults=None):
    cl = VirtualCluster(spec, execute=False, faults=faults)
    if pipeline == "fmmfft":
        plan = FmmFftPlan.create(N=N, G=cl.G, build_operators=False,
                                 **default_params(N, cl.G))
        FmmFftDistributed(plan, cl, comm_algorithm=algo).run()
    else:
        Distributed1DFFT(N, cl, comm_algorithm=algo).run()
    return cl


@pytest.mark.parametrize("case", sorted(GOLDEN), ids="-".join)
def test_interpreted_run_matches_golden(case):
    pipeline, system, algo = case
    cl = _run(pipeline, _spec(system), algo)
    assert (cl.ledger.fingerprint(), len(cl.comm_log)) == GOLDEN[case]


@pytest.mark.parametrize("algo", sorted(CHAOS_GOLDEN))
def test_seeded_chaos_run_matches_golden(algo):
    spec = preset("8xP100")
    inj = seeded_chaos(spec, seed=6, transient_rate=0.1, stragglers=2,
                       horizon=1e-3)
    cl = _run("fmmfft", spec, algo, faults=inj)
    fails = sum(1 for r in cl.ledger if r.name.endswith("!fail"))
    assert fails > 0  # the case exercises the retry path
    assert (cl.ledger.fingerprint(), len(cl.comm_log), fails) == \
        CHAOS_GOLDEN[algo]
