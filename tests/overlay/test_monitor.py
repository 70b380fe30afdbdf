"""Tests for link monitoring: EWMA, failure detection, rapid probing."""

import numpy as np
import pytest

from repro.net.simulator import Simulator
from repro.net.topology import Topology
from repro.overlay.monitor import LinkMonitor
from repro.overlay.stats import BandwidthRecorder
from repro.workloads.faults import FaultPlan


def make_monitor(
    n=4,
    rtt=100.0,
    loss=None,
    failures=None,
    with_bw=False,
    me=0,
    on_down=None,
    on_up=None,
    seed=1,
):
    rtt_m = np.full((n, n), rtt)
    np.fill_diagonal(rtt_m, 0.0)
    topo = Topology(rtt_m, loss=loss, failures=failures)
    sim = Simulator()
    bw = BandwidthRecorder(n) if with_bw else None
    mon = LinkMonitor(
        me=me,
        sim=sim,
        topology=topo,
        rng=np.random.default_rng(seed),
        bandwidth=bw,
        on_link_down=on_down,
        on_link_up=on_up,
    )
    return sim, mon, bw


class TestSteadyState:
    def test_latency_estimates_converge(self):
        sim, mon, _ = make_monitor(rtt=80.0)
        mon.start(phase=1.0)
        sim.run_until(300.0)
        row = mon.latency_row()
        assert row[0] == 0.0
        for j in (1, 2, 3):
            assert row[j] == pytest.approx(80.0, rel=0.05)
            assert mon.is_up(j)

    def test_latency_estimates_converge_on_lossy_links(self):
        # 40 % loss each way: most exchanges fail, the ones that return
        # still price the link at its RTT.
        n = 3
        loss = np.full((n, n), 0.4)
        np.fill_diagonal(loss, 0.0)
        sim, mon, _ = make_monitor(n=n, rtt=80.0, loss=loss)
        mon.start(phase=1.0)
        sim.run_until(3000.0)
        row = mon.latency_row()
        for j in (1, 2):
            assert mon.is_up(j)
            assert row[j] == pytest.approx(80.0, rel=0.05)

    def test_latency_row_has_inf_for_down_links(self):
        failures = FaultPlan().partition(0.0, 1e6, (0,), (1,)).failure_table(4)
        sim, mon, _ = make_monitor(failures=failures)
        mon.start(phase=1.0)
        sim.run_until(120.0)
        assert not mon.is_up(1)
        assert np.isinf(mon.latency_row()[1])
        assert mon.is_up(2)


class TestFailureDetection:
    def test_detection_within_one_probe_interval(self):
        """§5: rapid probing detects failures within 1 probing period."""
        down_events = []
        failures = FaultPlan().partition(100.0, 1e6, (0,), (1,)).failure_table(4)
        sim, mon, _ = make_monitor(
            failures=failures, on_down=lambda j: down_events.append((j, sim.now))
        )
        mon.start(phase=1.0)
        sim.run_until(400.0)
        assert len(down_events) == 1
        j, t = down_events[0]
        assert j == 1
        # First post-failure round is at 121 s; detection within one
        # probing interval of that round.
        assert t <= 100.0 + 2 * 30.0

    def test_five_probes_required(self):
        """A blip shorter than the rapid-probe sequence is not declared."""
        down_events = []
        # Outage from 100 to 104 s: only 1-2 probes lost.
        failures = FaultPlan().partition(100.5, 104.0, (0,), (1,)).failure_table(4)
        sim, mon, _ = make_monitor(
            failures=failures, on_down=lambda j: down_events.append(j)
        )
        mon.start(phase=1.0)
        sim.run_until(300.0)
        assert down_events == []
        assert mon.is_up(1)

    def test_recovery_detected(self):
        up_events = []
        failures = FaultPlan().partition(100.0, 200.0, (0,), (1,)).failure_table(4)
        sim, mon, _ = make_monitor(
            failures=failures, on_up=lambda j: up_events.append((j, sim.now))
        )
        mon.start(phase=1.0)
        sim.run_until(400.0)
        assert mon.is_up(1)
        assert len(up_events) == 1
        j, t = up_events[0]
        assert j == 1
        assert t <= 200.0 + 31.0  # next regular round after recovery

    def test_consecutive_losses_reset_on_success(self):
        sim, mon, _ = make_monitor()
        mon.start(phase=1.0)
        sim.run_until(65.0)
        assert np.all(mon.consecutive_losses[1:] == 0)


class TestBandwidthAccounting:
    def test_probe_traffic_matches_49n_formula(self):
        """Total probing bandwidth (in+out) should approach 49.1 n bps."""
        n = 10
        sim, mon, bw = make_monitor(n=n, with_bw=True)
        # All nodes must probe for symmetric accounting; start n monitors.
        rtt_m = np.full((n, n), 50.0)
        np.fill_diagonal(rtt_m, 0.0)
        topo = Topology(rtt_m)
        sim2 = Simulator()
        bw2 = BandwidthRecorder(n)
        monitors = [
            LinkMonitor(
                me=i,
                sim=sim2,
                topology=topo,
                rng=np.random.default_rng(i),
                bandwidth=bw2,
            )
            for i in range(n)
        ]
        for i, m in enumerate(monitors):
            m.start(phase=0.5 + 0.1 * i)
        sim2.run_until(600.0)
        bps = bw2.bps_per_node(kinds=("probe",), t0=30.0, t1=600.0)
        # The paper's 49.1 n is the large-n approximation of the exact
        # per-node cost 4 * 46 B * 8 * (n - 1) / 30 s = 49.1 (n - 1).
        expected = 4 * 46 * 8 * (n - 1) / 30.0
        assert bps.mean() == pytest.approx(expected, rel=0.02)


class TestConfigValidation:
    def test_bad_index_rejected(self):
        with pytest.raises(Exception):
            make_monitor(me=10)

    def test_double_start_rejected(self):
        sim, mon, _ = make_monitor()
        mon.start()
        with pytest.raises(Exception):
            mon.start()

    def test_stop_idempotent(self):
        sim, mon, _ = make_monitor()
        mon.start()
        mon.stop()
        mon.stop()
