import numpy as np
import pytest

from repro.machine.cluster import VirtualCluster
from repro.machine.spec import dual_p100_nvlink, p100_nvlink_node
from repro.machine.stream import Event, Stream
from repro.util.validation import ParameterError


class TestStreamsAndEvents:
    def test_stream_in_order(self):
        s = Stream(0, "compute")
        s.advance_to(1.0)
        with pytest.raises(ValueError):
            s.advance_to(0.5)

    def test_ready_after_takes_max(self):
        s = Stream(0, "c")
        s.advance_to(2.0)
        assert s.ready_after(Event(1.0), Event(3.0)) == pytest.approx(3.0)

    def test_none_events_rejected(self):
        # None used to be silently skipped, which let absent dependencies
        # masquerade as satisfied ones; call sites must filter instead.
        s = Stream(0, "c")
        with pytest.raises(ValueError, match="None event"):
            s.ready_after(None, Event(1.0))

    def test_zero_events_is_stream_clock(self):
        s = Stream(0, "c")
        s.advance_to(2.5)
        assert s.ready_after() == pytest.approx(2.5)

    def test_event_zero(self):
        assert Event.zero().time == 0.0


class TestLaunch:
    def test_duration_includes_latency(self, cluster2):
        ev = cluster2.launch(0, "k", "gemm", 0.0, 0.0, np.float64)
        assert ev.time == pytest.approx(cluster2.spec.device.launch_latency)

    def test_stream_serializes(self, cluster2):
        e1 = cluster2.launch(0, "a", "gemm", 1e9, 1e6, np.float64)
        e2 = cluster2.launch(0, "b", "gemm", 1e9, 1e6, np.float64)
        assert e2.time > e1.time

    def test_devices_independent(self, cluster2):
        e1 = cluster2.launch(0, "a", "gemm", 1e9, 1e6, np.float64)
        e2 = cluster2.launch(1, "a", "gemm", 1e9, 1e6, np.float64)
        assert e1.time == pytest.approx(e2.time)

    def test_after_dependency(self, cluster2):
        e1 = cluster2.launch(0, "a", "gemm", 1e9, 1e6, np.float64)
        e2 = cluster2.launch(1, "b", "gemm", 1e9, 1e6, np.float64, after=[e1])
        assert e2.time >= e1.time + 1e-9

    def test_fn_runs_in_execute_mode(self, cluster2):
        hit = []
        cluster2.launch(0, "a", "gemm", 1.0, 1.0, np.float64, fn=lambda c: hit.append(1))
        assert hit == [1]

    def test_fn_skipped_in_timing_mode(self):
        cl = VirtualCluster(dual_p100_nvlink(), execute=False)
        hit = []
        cl.launch(0, "a", "gemm", 1.0, 1.0, np.float64, fn=lambda c: hit.append(1))
        assert hit == []

    def test_ledger_records(self, cluster2):
        cluster2.launch(0, "a", "gemm", 5.0, 7.0, np.float64)
        recs = cluster2.ledger.records(name="a")
        assert len(recs) == 1
        assert recs[0].flops == 5.0
        assert recs[0].mops == 7.0


class TestSendRecv:
    def test_time_matches_link(self, cluster2):
        nbytes = 36e9  # one second at link speed
        ev = cluster2.sendrecv(0, 1, nbytes, "msg")
        assert ev.time == pytest.approx(1.0 + cluster2.spec.comm_latency())

    def test_occupies_both_endpoints(self, cluster2):
        cluster2.sendrecv(0, 1, 36e9, "msg")
        assert cluster2.dev(0).stream("comm.tx").clock > 0.9
        assert cluster2.dev(1).stream("comm.rx").clock > 0.9

    def test_full_duplex_ring_shift_parallel(self, cluster4):
        # right-shift ring: all transfers concurrent
        evs = [cluster4.sendrecv(g, (g + 1) % 4, 36e9, "ring") for g in range(4)]
        times = {e.time for e in evs}
        assert len(times) == 1  # all finish together

    def test_self_send_free(self, cluster2):
        ev = cluster2.sendrecv(0, 0, 1e9, "self")
        assert ev.time == pytest.approx(0.0)

    def test_g1_free_but_fn_runs(self):
        cl = VirtualCluster(p100_nvlink_node(1))
        hit = []
        cl.sendrecv(0, 0, 1e9, "x", fn=lambda c: hit.append(1))
        assert hit == [1]
        assert cl.wall_time() == 0.0


class TestCollectives:
    def test_alltoall_time(self, cluster2):
        bw = cluster2.spec.alltoall_bandwidth()
        evs = cluster2.alltoall(bw, "a2a")  # one second of data
        expected = 1.0 + cluster2.spec.comm_latency() + cluster2.spec.collective_overhead
        assert evs[0].time == pytest.approx(expected)

    def test_alltoall_synchronizes(self, cluster2):
        cluster2.launch(0, "work", "gemm", 1e10, 1e6, np.float64)
        e0 = cluster2.dev(0).stream("compute").clock
        evs = cluster2.alltoall(1e3, "a2a", after=[Event(e0)])
        assert all(e.time == evs[0].time for e in evs)
        assert evs[0].time > e0

    def test_allgather_receive_dominated(self, cluster4):
        evs2 = VirtualCluster(p100_nvlink_node(2)).allgather(1e9, "ag")
        evs4 = cluster4.allgather(1e9, "ag")
        assert evs4[0].time != evs2[0].time  # (G-1) scaling differs

    def test_g1_collective_free(self):
        cl = VirtualCluster(p100_nvlink_node(1))
        evs = cl.alltoall(1e9, "x")
        assert evs[0].time == 0.0


class TestMemoryAndBarrier:
    def test_device_memory_dict(self, cluster2):
        cluster2.dev(0)["buf"] = np.ones(4)
        assert "buf" in cluster2.dev(0)
        assert cluster2.dev(0).nbytes("buf") == 32

    def test_timing_mode_memory_raises(self):
        cl = VirtualCluster(dual_p100_nvlink(), execute=False)
        cl.dev(0).alloc("buf", (4,), np.float64)
        assert cl.dev(0).nbytes("buf") == 32
        with pytest.raises(RuntimeError):
            cl.dev(0)["buf"]

    def test_barrier_aligns_clocks(self, cluster2):
        cluster2.launch(0, "a", "gemm", 1e10, 1e6, np.float64)
        cluster2.barrier()
        t = cluster2.wall_time()
        for d in cluster2.devices:
            for s in d.streams.values():
                assert s.clock == pytest.approx(t)

    def test_reset_time(self, cluster2):
        cluster2.launch(0, "a", "gemm", 1e9, 1e6, np.float64)
        cluster2.dev(0)["keepme"] = np.ones(2)
        cluster2.reset_time()
        assert cluster2.wall_time() == 0.0
        assert len(cluster2.ledger) == 0
        assert "keepme" in cluster2.dev(0)

    def test_host_op_free(self, cluster2):
        ev = cluster2.host_op(0, "setup")
        assert ev.time == pytest.approx(0.0)
