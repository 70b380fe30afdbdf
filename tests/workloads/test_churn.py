"""Churn traces replayed through a fault plan: traces, lifecycle, detection."""

import numpy as np
import pytest

from repro.errors import ConfigError, WorkloadError
from repro.net.trace import uniform_random_metric
from repro.overlay.config import OverlayConfig, RouterKind
from repro.overlay.harness import build_overlay
from repro.workloads import (
    ACTION_FAIL,
    ACTION_JOIN,
    ACTION_LEAVE,
    ChurnEvent,
    ChurnTrace,
    FaultPlan,
    replay,
)


def build(n=16, churn=None, router=RouterKind.QUORUM, seed=3, config=None):
    rng = np.random.default_rng(seed)
    trace = uniform_random_metric(n, rng)
    return build_overlay(
        trace=trace,
        router=router,
        rng=rng,
        config=config,
        with_freshness=False,
        active_members=churn.initial_active if churn is not None else None,
    )


def replay_churn(overlay, churn, settle_s):
    """Replay ``churn`` and run ``settle_s`` past its horizon."""
    return replay(overlay, FaultPlan().add_churn(churn), churn.duration_s + settle_s)


class TestChurnTrace:
    def test_poisson_is_deterministic_per_seed(self):
        a = ChurnTrace.poisson(32, 0.1, 200.0, seed=9)
        b = ChurnTrace.poisson(32, 0.1, 200.0, seed=9)
        c = ChurnTrace.poisson(32, 0.1, 200.0, seed=10)
        assert a == b
        assert a != c

    def test_poisson_respects_min_active(self):
        trace = ChurnTrace.poisson(
            16, 1.0, 200.0, seed=1, min_active=8, crash_fraction=1.0
        )
        active = set(trace.initial_active)
        for ev in trace.events:
            if ev.action == ACTION_JOIN:
                active.add(ev.node)
            else:
                active.discard(ev.node)
            assert len(active) >= 8

    def test_mass_failure_counts(self):
        trace = ChurnTrace.mass_failure(64, 0.25, at_s=100.0, duration_s=200.0, seed=2)
        assert trace.count(ACTION_FAIL) == 16
        assert trace.fail_times() == (100.0,)
        assert len(trace.active_at_end()) == 48

    def test_flash_crowd_layout(self):
        trace = ChurnTrace.flash_crowd(
            20, count=5, at_s=50.0, duration_s=100.0, seed=2, spread_s=4.0
        )
        assert trace.count(ACTION_JOIN) == 5
        assert len(trace.initial_active) == 15
        assert all(50.0 <= ev.time <= 54.0 for ev in trace.events)
        assert len(trace.active_at_end()) == 20

    def test_infeasible_sequences_rejected(self):
        # Join of an already-active node.
        with pytest.raises(WorkloadError):
            ChurnTrace(
                n=4,
                initial_active=(0, 1, 2, 3),
                events=(ChurnEvent(1.0, ACTION_JOIN, 2),),
                duration_s=10.0,
            )
        # Leave of a standby node.
        with pytest.raises(WorkloadError):
            ChurnTrace(
                n=4,
                initial_active=(0, 1),
                events=(ChurnEvent(1.0, ACTION_LEAVE, 3),),
                duration_s=10.0,
            )
        # A node that never existed in any pool cannot join twice.
        with pytest.raises(WorkloadError):
            ChurnTrace(
                n=5,
                initial_active=(0, 1, 2, 3),
                events=(
                    ChurnEvent(1.0, ACTION_JOIN, 4),
                    ChurnEvent(2.0, ACTION_JOIN, 4),
                ),
                duration_s=10.0,
            )
        # Unsorted events.
        with pytest.raises(WorkloadError):
            ChurnTrace(
                n=4,
                initial_active=(0, 1, 2),
                events=(
                    ChurnEvent(5.0, ACTION_JOIN, 3),
                    ChurnEvent(1.0, ACTION_LEAVE, 0),
                ),
                duration_s=10.0,
            )
        # Event outside the horizon.
        with pytest.raises(WorkloadError):
            ChurnTrace(
                n=4,
                initial_active=(0, 1, 2),
                events=(ChurnEvent(10.0, ACTION_JOIN, 3),),
                duration_s=10.0,
            )

    def test_crash_then_rejoin_is_feasible(self):
        # Reboots are modeled: a crashed node may rejoin later in the
        # same trace.
        trace = ChurnTrace(
            n=4,
            initial_active=(0, 1, 2, 3),
            events=(
                ChurnEvent(1.0, ACTION_FAIL, 0),
                ChurnEvent(50.0, ACTION_JOIN, 0),
            ),
            duration_s=100.0,
        )
        assert trace.active_at_end() == (0, 1, 2, 3)

    def test_leave_then_rejoin_is_feasible(self):
        trace = ChurnTrace(
            n=4,
            initial_active=(0, 1, 2, 3),
            events=(
                ChurnEvent(1.0, ACTION_LEAVE, 2),
                ChurnEvent(50.0, ACTION_JOIN, 2),
            ),
            duration_s=100.0,
        )
        assert trace.active_at_end() == (0, 1, 2, 3)


class TestWorkloadValidation:
    def test_active_set_mismatch_rejected(self):
        churn = ChurnTrace.flash_crowd(16, count=4, at_s=50.0, duration_s=100.0, seed=1)
        overlay = build(16)  # all 16 active; trace expects 12
        with pytest.raises(WorkloadError):
            replay_churn(overlay, churn, settle_s=0.0)

    def test_size_mismatch_rejected(self):
        churn = ChurnTrace.mass_failure(16, 0.25, at_s=10.0, duration_s=50.0, seed=1)
        overlay = build(12)
        with pytest.raises(WorkloadError):
            replay_churn(overlay, churn, settle_s=0.0)

    def test_double_install_rejected(self):
        churn = ChurnTrace.mass_failure(16, 0.25, at_s=10.0, duration_s=50.0, seed=1)
        overlay = build(16, churn)
        plan = FaultPlan().add_churn(churn)
        plan.install(overlay)
        pending = overlay.sim.pending()
        with pytest.raises(WorkloadError):
            replay(overlay, plan, 50.0)
        assert overlay.sim.pending() == pending

    def test_install_after_events_due_rejected(self):
        churn = ChurnTrace.mass_failure(16, 0.25, at_s=10.0, duration_s=50.0, seed=1)
        overlay = build(16, churn)
        overlay.run(20.0)
        with pytest.raises(WorkloadError):
            replay_churn(overlay, churn, settle_s=0.0)


class TestLifecycle:
    def test_crash_is_detected_by_peers(self):
        churn = ChurnTrace(
            n=9,
            initial_active=tuple(range(9)),
            events=(ChurnEvent(120.0, ACTION_FAIL, 4),),
            duration_s=150.0,
        )
        overlay = build(9, churn)
        replay_churn(overlay, churn, settle_s=120.0)
        node = overlay.nodes[4]
        assert not node.started and not node.registered
        # Every survivor's monitor has declared the crashed node down.
        for i in overlay.active:
            assert not overlay.nodes[i].monitor.is_up(4)

    def test_graceful_leave_then_rejoin(self):
        churn = ChurnTrace(
            n=9,
            initial_active=tuple(range(9)),
            events=(
                ChurnEvent(100.0, ACTION_LEAVE, 3),
                ChurnEvent(200.0, ACTION_JOIN, 3),
            ),
            duration_s=250.0,
        )
        overlay = build(9, churn)
        replay_churn(overlay, churn, settle_s=120.0)
        node = overlay.nodes[3]
        assert node.started and node.registered
        assert overlay.membership.is_member(3)
        assert 3 in overlay.nodes[0].router.view
        # The rejoined node is fully routable again.
        assert overlay.nodes[0].route_to(3).usable
        assert node.route_to(0).usable

    def test_direct_double_join_rejected(self):
        overlay = build(9)
        with pytest.raises(ConfigError):
            overlay.join_node(3)

    def test_crashed_node_rejoin_before_expiry_is_a_reboot(self):
        # The stale (crashed) membership entry is evicted so the node
        # can cleanly re-join within one run, modeling a reboot.
        overlay = build(9)
        overlay.run(50.0)
        overlay.fail_node(2)
        overlay.run(10.0)
        assert overlay.membership.is_member(2)  # refresh not yet expired
        overlay.join_node(2)
        overlay.run(30.0)
        assert 2 in overlay.active
        assert overlay.membership.is_member(2)
        assert overlay.membership.stats.get("evictions") == 1
        assert overlay.nodes[2].started
        assert 2 in overlay.nodes[0].router.view

    def test_crashed_node_expires_from_membership(self):
        config = OverlayConfig(membership_timeout_s=120.0)
        overlay = build(9, config=config)
        overlay.run(30.0)
        overlay.fail_node(2)
        assert overlay.membership.is_member(2)
        overlay.run(240.0)
        assert not overlay.membership.is_member(2)
        assert 2 not in overlay.nodes[0].router.view

    def test_heartbeats_keep_live_nodes_from_expiring(self):
        # With a short membership timeout and a run several timeouts
        # long, live nodes survive purely through their heartbeats.
        config = OverlayConfig(membership_timeout_s=120.0)
        overlay = build(9, config=config)
        overlay.run(600.0)
        assert overlay.membership.view.members == tuple(range(9))

    def test_teardown_leaves_no_stray_monitor_events(self):
        # Regression: pending rapid-probe follow-ups must die with the
        # node (they used to keep firing and accounting bandwidth).
        churn = ChurnTrace(
            n=9,
            initial_active=tuple(range(9)),
            events=(ChurnEvent(100.0, ACTION_FAIL, 1),),
            duration_s=130.0,
        )
        overlay = build(9, churn)
        replay_churn(overlay, churn, settle_s=100.0)
        t0 = overlay.sim.now
        dead = overlay.nodes[1]
        bytes_before = overlay.bandwidth.bytes_per_node(t0=0.0, t1=t0 + 1.0)[1]
        overlay.run(120.0)
        bytes_after = overlay.bandwidth.bytes_per_node(t0=0.0, t1=t0 + 121.0)[1]
        assert not dead.started
        assert bytes_after == bytes_before

    def test_leave_immediately_after_join_cancels_pending_start(self):
        # A node that leaves in the window between join_node() and its
        # deferred start must never come up as a ghost participant.
        churn = ChurnTrace(
            n=9,
            initial_active=tuple(range(8)),
            events=(
                ChurnEvent(100.0, ACTION_JOIN, 8),
                ChurnEvent(100.05, ACTION_LEAVE, 8),
            ),
            duration_s=150.0,
        )
        overlay = build(9, churn)
        replay_churn(overlay, churn, settle_s=60.0)
        node = overlay.nodes[8]
        assert not node.started and not node.registered
        assert not overlay.membership.is_member(8)
        assert 8 not in overlay.active

    def test_disruption_recorder_sees_mass_failure(self):
        churn = ChurnTrace.mass_failure(16, 0.25, at_s=120.0, duration_s=180.0, seed=5)
        overlay = build(16, churn)
        recorder = replay_churn(overlay, churn, settle_s=180.0)
        assert churn.fail_times() == (120.0,)
        recovery = recorder.recovery_time_after(120.0)
        assert recovery is not None and recovery > 0.0
        assert recorder.open_disruptions() == 0
