"""Fault plans and correlated-failure traces.

Covers the :class:`FaultPlan` construction invariants (canonical
partition pairs, merge-on-insert of overlapping windows, node-outage
compilation into the failure table) and the correlated churn
generator, plus installing a member-only plan on a coordinator-free
(gossip) overlay and the install-time replay of member events against
the overlay's active set.
"""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.net.trace import planetlab_like
from repro.overlay import gossip
from repro.overlay.config import Gossip, OverlayConfig, RouterKind
from repro.overlay.harness import build_overlay
from repro.workloads import ACTION_FAIL, ACTION_JOIN, ChurnEvent, ChurnTrace
from repro.workloads.faults import FaultPlan


class TestCorrelatedFailure:
    def test_crashes_whole_racks_within_spread(self):
        trace = ChurnTrace.correlated_failure(
            n=32,
            group_size=4,
            groups_to_fail=2,
            crash_at_s=100.0,
            duration_s=600.0,
            seed=9,
        )
        assert trace.initial_active == tuple(range(32))
        crashed = sorted(ev.node for ev in trace.events)
        assert len(crashed) == 8
        # Failed nodes come in contiguous rack-aligned runs of 4.
        racks = {node // 4 for node in crashed}
        assert len(racks) == 2
        assert crashed == sorted(
            node for r in racks for node in range(r * 4, r * 4 + 4)
        )
        for ev in trace.events:
            assert ev.action == ACTION_FAIL
            assert 100.0 <= ev.time <= 102.0
        assert list(trace.events) == sorted(trace.events, key=lambda e: e.time)

    def test_reboot_rejoins_same_nodes(self):
        trace = ChurnTrace.correlated_failure(
            n=24,
            group_size=4,
            groups_to_fail=1,
            crash_at_s=50.0,
            duration_s=400.0,
            seed=3,
            reboot_at_s=200.0,
        )
        crashed = sorted(ev.node for ev in trace.events if ev.action == ACTION_FAIL)
        rebooted = sorted(ev.node for ev in trace.events if ev.action == ACTION_JOIN)
        assert crashed == rebooted and len(crashed) == 4

    def test_deterministic_per_seed(self):
        kw = dict(
            n=32, group_size=4, groups_to_fail=2, crash_at_s=60.0,
            duration_s=500.0, reboot_at_s=250.0,
        )
        assert (
            ChurnTrace.correlated_failure(seed=5, **kw).events
            == ChurnTrace.correlated_failure(seed=5, **kw).events
        )
        assert (
            ChurnTrace.correlated_failure(seed=5, **kw).events
            != ChurnTrace.correlated_failure(seed=6, **kw).events
        )

    def test_validation(self):
        kw = dict(n=16, group_size=4, crash_at_s=50.0, duration_s=200.0, seed=0)
        with pytest.raises(WorkloadError):
            ChurnTrace.correlated_failure(groups_to_fail=0, **kw)
        with pytest.raises(WorkloadError):  # would fail every rack
            ChurnTrace.correlated_failure(groups_to_fail=4, **kw)
        with pytest.raises(WorkloadError):  # burst past end of trace
            ChurnTrace.correlated_failure(
                n=16, group_size=4, groups_to_fail=1,
                crash_at_s=199.5, duration_s=200.0, seed=0,
            )
        with pytest.raises(WorkloadError):  # reboot before crash settles
            ChurnTrace.correlated_failure(
                n=16, group_size=4, groups_to_fail=1, crash_at_s=50.0,
                duration_s=200.0, seed=0, reboot_at_s=51.0,
            )
        with pytest.raises(WorkloadError):  # < 4 survivors whichever rack fails
            ChurnTrace.correlated_failure(
                n=6, group_size=3, groups_to_fail=1,
                crash_at_s=50.0, duration_s=200.0, seed=0,
            )


class TestPartitionMerging:
    def test_overlapping_windows_same_pair_merge(self):
        plan = FaultPlan()
        plan.partition(10.0, 50.0, [0, 1], [2, 3])
        plan.partition(40.0, 90.0, [3, 2], [1, 0])  # swapped + unsorted
        assert plan.cuts == [(10.0, 90.0, (0, 1), (2, 3))]

    def test_touching_and_duplicate_windows_merge(self):
        plan = FaultPlan()
        plan.partition(10.0, 50.0, [0], [1])
        plan.partition(50.0, 70.0, [0], [1])  # touching
        plan.partition(10.0, 50.0, [0], [1])  # exact duplicate
        assert plan.cuts == [(10.0, 70.0, (0,), (1,))]

    def test_disjoint_windows_and_pairs_kept_separate(self):
        plan = FaultPlan()
        plan.partition(10.0, 20.0, [0], [1])
        plan.partition(30.0, 40.0, [0], [1])
        plan.partition(10.0, 20.0, [0], [2])
        assert len(plan.cuts) == 3

    def test_merge_chains_across_existing_windows(self):
        plan = FaultPlan()
        plan.partition(10.0, 20.0, [0], [1])
        plan.partition(30.0, 40.0, [0], [1])
        plan.partition(15.0, 35.0, [0], [1])  # bridges both
        assert plan.cuts == [(10.0, 40.0, (0,), (1,))]

    def test_validation(self):
        plan = FaultPlan()
        with pytest.raises(WorkloadError):
            plan.partition(50.0, 50.0, [0], [1])  # empty window
        with pytest.raises(WorkloadError):
            plan.partition(0.0, 10.0, [], [1])  # empty side
        with pytest.raises(WorkloadError):
            plan.partition(0.0, 10.0, [0, 1], [1, 2])  # overlapping sides
        with pytest.raises(WorkloadError):
            plan.partition(0.0, 10.0, [-1], [1])  # negative id


class TestNodeOutage:
    def test_compiles_into_node_schedules(self):
        plan = FaultPlan()
        plan.node_outage(100.0, 200.0, [3, 1, 3])
        plan.partition(50.0, 80.0, [0], [2])
        plan.node_outage(150.0, 300.0, [1])  # overlaps node 1's first window
        plan.node_outage(300.0, 320.0, [1])  # touches it
        table = plan.failure_table(n=8)
        # Only nodes 1 and 3 ever go down, each exactly inside its
        # merged window: [100, 320) for node 1, [100, 200) for node 3.
        windows = {1: (100.0, 320.0), 3: (100.0, 200.0)}
        for t in (0.0, 99.9, 100.0, 150.0, 199.9, 200.0, 250.0, 319.9, 320.0, 400.0):
            for node in range(8):
                lo, hi = windows.get(node, (np.inf, np.inf))
                assert table.node_is_up(node, t) == (not lo <= t < hi), (node, t)
                # A down node takes every one of its links with it.
                assert table.link_is_up(node, 7 - node, t) == (
                    table.node_is_up(node, t) and table.node_is_up(7 - node, t)
                )
        # The partition cut coexists as link windows.
        assert not table.link_is_up(0, 2, 60.0)
        assert table.link_is_up(0, 2, 90.0)
        assert table.link_is_up(0, 2, 150.0)

    def test_validation(self):
        plan = FaultPlan()
        with pytest.raises(WorkloadError):
            plan.node_outage(10.0, 10.0, [1])
        with pytest.raises(WorkloadError):
            plan.node_outage(10.0, 20.0, [])
        with pytest.raises(WorkloadError):
            plan.node_outage(10.0, 20.0, [-2])
        plan.node_outage(10.0, 20.0, [9])
        with pytest.raises(WorkloadError):  # out of range for this n
            plan.failure_table(n=8)


class TestMemberFaults:
    def test_validation(self):
        with pytest.raises(WorkloadError):
            FaultPlan().fail_node(-1.0, 0)
        with pytest.raises(WorkloadError):
            ChurnEvent(0.0, "reboot", 0)
        with pytest.raises(WorkloadError):
            FaultPlan().join_node(0.0, -1)

    def test_add_churn_absorbs_trace(self):
        trace = ChurnTrace.correlated_failure(
            n=24, group_size=4, groups_to_fail=1, crash_at_s=50.0,
            duration_s=400.0, seed=3, reboot_at_s=200.0,
        )
        plan = FaultPlan().add_churn(trace)
        assert len(plan.member_events) == len(trace.events)
        assert plan.member_events == list(trace.events)

    def test_member_only_plan_installs_on_gossip_overlay(self, monkeypatch):
        # Two-second rounds so the 20 s expiry has ten of them.
        monkeypatch.setattr(gossip, "PUSH_INTERVAL_S", 2.0)
        rng = np.random.default_rng(21)
        config = OverlayConfig(membership=Gossip(), membership_timeout_s=20.0)
        overlay = build_overlay(
            trace=planetlab_like(12, rng),
            router=RouterKind.QUORUM,
            rng=rng,
            config=config,
            with_freshness=False,
        )
        plan = FaultPlan().fail_node(10.0, 4).leave_node(15.0, 7)
        plan.install(overlay)
        overlay.run(80.0)
        members = overlay.membership.view.members
        assert 4 not in members and 7 not in members

    def test_coordinator_events_require_coordinator_group(self):
        rng = np.random.default_rng(5)
        overlay = build_overlay(
            trace=planetlab_like(8, rng), rng=rng, with_freshness=False
        )
        plan = FaultPlan().crash_coordinator(10.0, 0)
        with pytest.raises(WorkloadError):
            plan.install(overlay)

    def test_out_of_range_member_event_rejected_at_install(self):
        rng = np.random.default_rng(5)
        overlay = build_overlay(
            trace=planetlab_like(8, rng), rng=rng, with_freshness=False
        )
        plan = FaultPlan().fail_node(10.0, 99)
        with pytest.raises(WorkloadError):
            plan.install(overlay)

    @pytest.mark.parametrize(
        "plan",
        [
            FaultPlan().fail_node(10.0, 3).fail_node(20.0, 99),
            FaultPlan().crash_coordinator(10.0, 0).leave_node(0.5, 4),
            FaultPlan().crash_coordinator(10.0, 0).restore_coordinator(20.0, 7),
            FaultPlan().fail_node(10.0, 99).crash_coordinator(5.0, 0),
            FaultPlan().fail_node(10.0, 3).fail_node(20.0, 3),
            FaultPlan().join_node(10.0, 3),
            FaultPlan().leave_node(20.0, 3).fail_node(10.0, 3),
        ],
        ids=[
            "node-out-of-range",
            "member-in-past",
            "no-such-coordinator",
            "late-bad-member",
            "crash-of-crashed",
            "join-of-active",
            "leave-after-crash",
        ],
    )
    def test_rejected_plan_leaves_the_simulator_untouched(self, plan):
        # The first event of each plan is valid: installing event by
        # event would leave it on the heap when the second one raises.
        from repro.experiments.coordinator_failover import scenario_config

        rng = np.random.default_rng(5)
        overlay = build_overlay(
            trace=planetlab_like(8, rng),
            rng=rng,
            config=scenario_config(k=3),
            with_freshness=False,
        )
        overlay.run(1.0)
        pending = overlay.sim.pending()
        with pytest.raises(WorkloadError):
            plan.install(overlay)
        assert overlay.sim.pending() == pending


class TestInstallReplaysMembers:
    """``install`` replays the member events against ``overlay.active``
    in schedule order, so a plan the overlay cannot apply fails before
    the run instead of raising ``ConfigError`` from the harness mid-run."""

    def build_without(self, absent):
        rng = np.random.default_rng(5)
        return build_overlay(
            trace=planetlab_like(8, rng),
            rng=rng,
            with_freshness=False,
            active_members=[i for i in range(8) if i != absent],
        )

    def test_crash_of_absent_node_rejected(self):
        overlay = self.build_without(3)
        pending = overlay.sim.pending()
        with pytest.raises(WorkloadError):
            FaultPlan().fail_node(10.0, 3).install(overlay)
        assert overlay.sim.pending() == pending

    def test_join_then_crash_of_absent_node_installs(self):
        overlay = self.build_without(3)
        plan = FaultPlan().fail_node(40.0, 3).join_node(10.0, 3)
        plan.install(overlay)
        overlay.run(60.0)
        assert 3 not in overlay.active
