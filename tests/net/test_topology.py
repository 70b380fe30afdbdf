"""Tests for the underlay topology model."""

import numpy as np
import pytest

from repro.errors import TopologyError
from repro.net.topology import Topology
from repro.net.trace import uniform_random_metric
from repro.workloads.faults import FaultPlan


def simple_rtt(n=4, value=100.0):
    rtt = np.full((n, n), value)
    np.fill_diagonal(rtt, 0.0)
    return rtt


class TestValidation:
    def test_asymmetric_rejected(self):
        rtt = simple_rtt()
        rtt[0, 1] = 5.0
        with pytest.raises(TopologyError):
            Topology(rtt)

    def test_nonzero_diagonal_rejected(self):
        rtt = simple_rtt()
        np.fill_diagonal(rtt, 1.0)
        with pytest.raises(TopologyError):
            Topology(rtt)

    def test_negative_rtt_rejected(self):
        rtt = simple_rtt()
        rtt[0, 1] = rtt[1, 0] = -3.0
        with pytest.raises(TopologyError):
            Topology(rtt)

    def test_bad_loss_shape_rejected(self):
        with pytest.raises(TopologyError):
            Topology(simple_rtt(4), loss=np.zeros((3, 3)))

    def test_loss_out_of_range_rejected(self):
        loss = np.zeros((4, 4))
        loss[0, 1] = loss[1, 0] = 1.5
        with pytest.raises(TopologyError):
            Topology(simple_rtt(4), loss=loss)

    def test_failure_table_size_mismatch_rejected(self):
        with pytest.raises(TopologyError):
            Topology(simple_rtt(4), failures=FaultPlan().failure_table(5))

    def test_out_of_range_pair_rejected(self):
        topo = Topology(simple_rtt(4))
        with pytest.raises(TopologyError):
            topo.rtt_ms(0, 7)


class TestQueries:
    def test_rtt_and_delay(self):
        topo = Topology(simple_rtt(4, 80.0))
        assert topo.rtt_ms(0, 1) == 80.0
        assert topo.one_way_delay_s(0, 1) == pytest.approx(0.040)

    def test_from_trace(self, rng):
        trace = uniform_random_metric(10, rng)
        topo = Topology.from_trace(trace)
        assert topo.n == 10
        assert topo.rtt_ms(2, 3) == trace.rtt_ms[2, 3]

    def test_rtt_matrix_readonly(self):
        topo = Topology(simple_rtt(4))
        with pytest.raises(ValueError):
            topo.rtt_matrix_ms[0, 1] = 5.0

    def test_vectors(self):
        topo = Topology(simple_rtt(4, 60.0))
        assert np.all(topo.up_vector(0, 0.0))
        vec = topo.rtt_vector_ms(2)
        assert vec[2] == 0.0 and vec[0] == 60.0


class TestPacketDelivery:
    def test_lossless_always_delivers(self, rng):
        topo = Topology(simple_rtt(4))
        assert all(topo.packet_delivered(0, 1, 0.0, rng) for _ in range(50))

    def test_full_loss_never_delivers(self, rng):
        loss = np.ones((4, 4))
        np.fill_diagonal(loss, 0.0)
        topo = Topology(simple_rtt(4), loss=loss)
        assert not any(topo.packet_delivered(0, 1, 0.0, rng) for _ in range(50))

    def test_partial_loss_rate_statistical(self, rng):
        loss = np.full((4, 4), 0.3)
        np.fill_diagonal(loss, 0.0)
        topo = Topology(simple_rtt(4), loss=loss)
        delivered = sum(topo.packet_delivered(0, 1, 0.0, rng) for _ in range(5000))
        assert 0.63 < delivered / 5000 < 0.77

    def test_outage_blocks_delivery(self, rng):
        failures = FaultPlan().partition(10.0, 20.0, (0,), (1,)).failure_table(4)
        topo = Topology(simple_rtt(4), failures=failures)
        assert topo.packet_delivered(0, 1, 5.0, rng)
        assert not topo.packet_delivered(0, 1, 15.0, rng)
        assert not topo.link_is_up(0, 1, 15.0)
        assert topo.link_is_up(0, 1, 25.0)

    def test_self_delivery_always_succeeds(self, rng):
        topo = Topology(simple_rtt(4))
        assert topo.packet_delivered(2, 2, 0.0, rng)

    def test_deliver_many_is_the_scalar_queries_in_order(self):
        n = 5
        loss = np.full((n, n), 0.4)
        loss[0, 3] = loss[3, 0] = 0.0
        failures = FaultPlan().partition(10.0, 20.0, (0,), (2,)).failure_table(n)
        rtt = simple_rtt(n) + np.arange(n)[:, None] + np.arange(n)[None, :]
        np.fill_diagonal(rtt, 0.0)
        topo = Topology(rtt, loss=loss, failures=failures)
        js = np.array([4, 2, 0, 3, 1, 1])
        for t in (5.0, 15.0):
            scalar_rng = np.random.default_rng(9)
            vector_rng = np.random.default_rng(9)
            expected = [topo.packet_delivered(0, j, t, scalar_rng) for j in js.tolist()]
            delivered, delay_s = topo.deliver_many(0, js, t, vector_rng)
            assert delivered.tolist() == expected
            assert delay_s.tolist() == [topo.one_way_delay_s(0, j) for j in js.tolist()]
            assert vector_rng.bit_generator.state == scalar_rng.bit_generator.state

    def test_deliver_many_rejects_out_of_range_nodes(self, rng):
        topo = Topology(simple_rtt(4))
        for i, js in ((0, [1, 4]), (0, [-1, 2]), (4, [1]), (-1, [1])):
            with pytest.raises(TopologyError):
                topo.deliver_many(i, np.array(js), 0.0, rng)


class TestConcurrentFailures:
    def test_counts_match_failure_table(self):
        failures = (
            FaultPlan()
            .partition(0.0, 50.0, (0,), (1, 2))
            .partition(0.0, 50.0, (3,), (4,))
            .failure_table(5)
        )
        topo = Topology(simple_rtt(5), failures=failures)
        assert topo.concurrent_failures(0, 25.0) == 2
        assert topo.concurrent_failures(3, 25.0) == 1
        assert topo.concurrent_failures(0, 75.0) == 0
