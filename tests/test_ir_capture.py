"""Capture layer: recorded graphs mirror the interpreted run exactly.

Capture must be invisible — the run it observes appends the same
ledger the plain pipeline would — while the graph it produces
accounts for every record, resolves every dependency to a captured
producer, and refuses anything it cannot replay truthfully (foreign
events, fault-injecting clusters).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults import FaultInjector, LinkFlap
from repro.ir import (
    PIPELINE_NAMES,
    CaptureError,
    capture,
    capture_fft1d,
    capture_pipeline,
)
from repro.ir.graph import OP_COLL, OP_LAUNCH, OP_LOG
from repro.machine.cluster import VirtualCluster
from repro.machine.spec import dual_p100_nvlink, p100_nvlink_node
from repro.util.validation import ParameterError

N = 1 << 12
SPEC = p100_nvlink_node(2)


def _cluster(name, execute=False):
    spec = p100_nvlink_node(1) if name == "nufft" else SPEC
    return VirtualCluster(spec, execute=execute)


class TestGraphStructure:
    def test_every_pipeline_captures(self):
        for name in PIPELINE_NAMES:
            cl = _cluster(name)
            graph, _ = capture_pipeline(name, cl, N)
            graph.validate()
            assert graph.meta["pipeline"] == name
            assert graph.meta["G"] == cl.G
            assert not graph.meta["executed"]
            assert graph.nodes, name

    def test_records_account_for_the_whole_ledger(self):
        for name in PIPELINE_NAMES:
            cl = _cluster(name)
            graph, _ = capture_pipeline(name, cl, N)
            assert graph.num_records == len(cl.ledger), name

    def test_comm_calls_mirror_the_comm_log(self):
        cl = _cluster("fmmfft")
        graph, _ = capture_pipeline("fmmfft", cl, N)
        assert graph.comm_calls() == list(cl.comm_log)
        assert len([n for n in graph.nodes if n.op == OP_LOG]) == len(
            cl.comm_log
        )

    def test_deps_point_at_captured_producers(self):
        cl = _cluster("fft1d")
        graph, _ = capture_pipeline("fft1d", cl, N)
        for i, n in enumerate(graph.nodes):
            for idx, sub, _ in n.deps:
                assert idx < i
                if idx >= 0 and sub >= 0:
                    assert graph.nodes[idx].op == OP_COLL

    def test_launches_carry_declares_and_regions(self):
        cl = _cluster("fft1d")
        graph, _ = capture_pipeline("fft1d", cl, N)
        launches = [n for n in graph.nodes if n.op == OP_LAUNCH]
        assert launches
        for n in launches:
            assert n.reads or n.writes
            assert n.region.startswith("fft1d")

    def test_summary_shape(self):
        cl = _cluster("fft1d")
        graph, _ = capture_pipeline("fft1d", cl, N)
        s = graph.summary()
        assert s["pipeline"] == "fft1d"
        assert s["nodes"] == len(graph.nodes)
        assert s["records_per_replay"] == graph.num_records
        assert s["buffers"] > 0
        assert s["peak_live_bytes"] is None  # not yet certified

    def test_unknown_pipeline_rejected(self):
        with pytest.raises(ParameterError, match="unknown pipeline"):
            capture_pipeline("warp", _cluster("fft1d"), N)


class TestCaptureIsTransparent:
    def test_capture_run_ledger_equals_plain_run(self):
        from repro.dfft.fft1d import Distributed1DFFT

        plain = VirtualCluster(SPEC, execute=False)
        Distributed1DFFT(N, plain, comm_algorithm="bulk").run()
        captured = VirtualCluster(SPEC, execute=False)
        capture_fft1d(captured, N, comm_algorithm="bulk")
        assert captured.ledger.fingerprint() == plain.ledger.fingerprint()

    def test_execute_capture_returns_pipeline_result(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        cl = VirtualCluster(SPEC, execute=True)
        graph, result = capture_fft1d(cl, N, x=x)
        assert graph.meta["executed"]
        np.testing.assert_allclose(result, np.fft.fft(x), rtol=1e-9)


class TestCaptureRefusals:
    def test_fault_cluster_refused(self):
        inj = FaultInjector(SPEC, scheduled=(LinkFlap(0, 1, 5e-3, 7.5e-3),))
        cl = VirtualCluster(SPEC, execute=False, faults=inj)
        with pytest.raises(CaptureError, match="fault"):
            capture_fft1d(cl, N)

    def test_foreign_event_refused(self):
        cl = VirtualCluster(SPEC, execute=False)
        # a real event produced *before* capture starts: its uid names
        # a producer the graph does not contain
        ev = cl.launch(0, "pre", "copy", flops=0.0, mops=8.0,
                       dtype=np.complex128, reads=[], writes=["pre.buf"])

        def run(proxy):
            proxy.launch(0, "inside", "copy", flops=0.0, mops=8.0,
                         dtype=np.complex128, after=[ev],
                         reads=["pre.buf"], writes=["in.buf"])

        with pytest.raises(CaptureError):
            capture(run, cl)

    def test_validate_rejects_forward_dep(self):
        cl = _cluster("fft1d")
        graph, _ = capture_pipeline("fft1d", cl, N)
        bad = graph.nodes[0]
        object.__setattr__(bad, "deps", ((5, -1, True),))
        with pytest.raises(ParameterError, match="does not precede"):
            graph.validate()


def _copy(cl, name, after=()):
    return cl.launch(0, name, "copy", flops=0.0, mops=8.0,
                     dtype=np.complex128, after=after, reads=[],
                     writes=[f"{name}.buf"])


class TestRecorderAttachment:
    def test_raising_run_propagates_and_detaches(self):
        cl = VirtualCluster(SPEC, execute=False)

        def boom(c):
            _copy(c, "inside")
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            capture(boom, cl)
        # interpreted, after the failed capture: nothing records it
        ev = _copy(cl, "between")
        graph, _ = capture(lambda c: _copy(c, "second"), cl)
        assert [n.name for n in graph.nodes] == ["second"]
        # ... and its event stays foreign to any later capture
        with pytest.raises(CaptureError, match="outside this capture"):
            capture(lambda c: _copy(c, "third", after=[ev]), cl)
        assert len(cl.ledger) == 4

    def test_ops_after_capture_are_not_recorded(self):
        cl = VirtualCluster(SPEC, execute=False)
        graph, _ = capture(lambda c: _copy(c, "inside"), cl)
        _copy(cl, "outside")
        assert [n.name for n in graph.nodes] == ["inside"]

    def test_nested_capture_refused(self):
        cl = VirtualCluster(SPEC, execute=False)
        with pytest.raises(CaptureError, match="already recording"):
            capture(lambda c: capture(lambda c2: None, c), cl)
        graph, _ = capture(lambda c: _copy(c, "after"), cl)
        assert len(graph.nodes) == 1


class TestGraphKeys:
    def test_key_carries_configuration(self):
        cl = _cluster("fft1d")
        graph, _ = capture_fft1d(cl, N, comm_algorithm="ring")
        assert graph.meta["key"] == (
            "fft1d", N, "complex128", 4, "auto", "ring", 2)

    def test_spec_fingerprint_recorded(self):
        from repro.machine.spec import spec_fingerprint

        cl = VirtualCluster(dual_p100_nvlink(), execute=False)
        graph, _ = capture_fft1d(cl, N)
        assert graph.meta["spec_fingerprint"] == spec_fingerprint(cl.spec)
