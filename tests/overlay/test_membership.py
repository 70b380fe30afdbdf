"""Tests for the membership service and views."""

import pytest

from repro.errors import MembershipError
from repro.net.simulator import Simulator
from repro.overlay.membership import MembershipService, MembershipView
from repro.overlay.stats import MEMBERSHIP_KINDS, BandwidthRecorder


class TestMembershipView:
    def test_index_of(self):
        view = MembershipView(version=1, members=(3, 7, 9, 20))
        assert view.index_of(3) == 0
        assert view.index_of(9) == 2
        assert view.index_of(20) == 3

    def test_missing_member_raises(self):
        view = MembershipView(version=1, members=(3, 7))
        with pytest.raises(MembershipError):
            view.index_of(5)

    def test_contains(self):
        view = MembershipView(version=1, members=(1, 2))
        assert 1 in view and 5 not in view

    def test_position_is_minus_one_for_non_members(self):
        view = MembershipView(version=1, members=(3, 7, 9))
        assert [view.position(m) for m in (3, 7, 9)] == [0, 1, 2]
        assert [view.position(m) for m in (-1, 0, 5, 8, 10)] == [-1] * 5

    def test_identity_is_version_and_members_only(self):
        a = MembershipView(version=4, members=(1, 2, 5))
        b = MembershipView(version=4, members=(1, 2, 5))
        a.position(2)  # lookups leave no trace in eq / hash / repr
        assert a == b and hash(a) == hash(b)
        assert repr(a) == "MembershipView(version=4, members=(1, 2, 5))"
        assert a != MembershipView(version=5, members=(1, 2, 5))

    def test_unsorted_members_rejected(self):
        with pytest.raises(MembershipError):
            MembershipView(version=1, members=(3, 1))

    def test_duplicate_members_rejected(self):
        with pytest.raises(MembershipError):
            MembershipView(version=1, members=(1, 1))


class TestMembershipService:
    def test_bootstrap_delivers_view_synchronously(self):
        sim = Simulator()
        svc = MembershipService(sim)
        views = {}
        svc.bootstrap({i: (lambda v, i=i: views.__setitem__(i, v)) for i in (5, 2, 9)})
        assert set(views) == {5, 2, 9}
        assert views[5].members == (2, 5, 9)

    def test_bootstrap_twice_rejected(self):
        sim = Simulator()
        svc = MembershipService(sim)
        svc.bootstrap({1: lambda v: None})
        with pytest.raises(MembershipError):
            svc.bootstrap({2: lambda v: None})

    def test_join_bumps_version_and_notifies_all(self):
        sim = Simulator()
        svc = MembershipService(sim)
        views = []
        svc.bootstrap({1: views.append, 2: views.append})
        views.clear()
        svc.join(3, views.append)
        sim.run_until(1.0)
        assert len(views) == 3  # all three members notified
        assert all(v.members == (1, 2, 3) for v in views)

    def test_double_join_rejected(self):
        sim = Simulator()
        svc = MembershipService(sim)
        svc.bootstrap({1: lambda v: None})
        with pytest.raises(MembershipError):
            svc.join(1, lambda v: None)

    def test_leave(self):
        sim = Simulator()
        svc = MembershipService(sim)
        views = {}
        svc.bootstrap(
            {i: (lambda v, i=i: views.__setitem__(i, v)) for i in (1, 2, 3)}
        )
        svc.leave(2)
        sim.run_until(1.0)
        assert views[1].members == (1, 3)
        with pytest.raises(MembershipError):
            svc.leave(2)

    def test_refresh_prevents_expiry(self):
        sim = Simulator()
        svc = MembershipService(sim, timeout_s=100.0, expiry_check_s=10.0)
        got = []
        svc.bootstrap({1: got.append, 2: got.append})

        # Node 1 refreshes periodically; node 2 goes silent.
        sim.periodic(50.0, lambda: svc.refresh(1), phase=50.0)
        sim.run_until(300.0)
        assert svc.view.members == (1,)

    def test_refresh_unknown_member_rejected(self):
        sim = Simulator()
        svc = MembershipService(sim)
        with pytest.raises(MembershipError):
            svc.refresh(42)

    def test_bootstrap_callback_may_mutate_membership(self):
        # Regression: bootstrap used to iterate the live subscriber dict
        # while invoking callbacks synchronously, so a callback that
        # joined or left mutated the dict mid-iteration and raised
        # RuntimeError.
        sim = Simulator()
        svc = MembershipService(sim)
        got = {}

        def make(i):
            def cb(update):
                got[i] = update

            return cb

        def joining_callback(update):
            got[1] = update
            if not svc.is_member(99):
                svc.join(99, make(99))

        svc.bootstrap({1: joining_callback, 2: make(2), 3: make(3)})
        sim.run_until(1.0)
        assert svc.is_member(99)
        assert svc.view.members == (1, 2, 3, 99)
        # Everyone (including the mid-bootstrap joiner) converged.
        assert set(got) == {1, 2, 3, 99}
        # No double delivery: member 1 got v1 + v2, the rest v2 only.
        assert svc.stats.get("view_full_msgs") == 5

    def test_bootstrap_callback_may_leave(self):
        sim = Simulator()
        svc = MembershipService(sim)

        def leaving_callback(update):
            if svc.is_member(2):
                svc.leave(2)

        svc.bootstrap({1: leaving_callback, 2: lambda v: None, 3: lambda v: None})
        sim.run_until(1.0)
        assert svc.view.members == (1, 3)

    def test_evict_drops_member_immediately(self):
        sim = Simulator()
        svc = MembershipService(sim)
        views = []
        svc.bootstrap({1: views.append, 2: lambda v: None})
        svc.evict(2)
        sim.run_until(1.0)
        assert not svc.is_member(2)
        assert views[-1].members == (1,)
        assert svc.stats.get("evictions") == 1
        with pytest.raises(MembershipError):
            svc.evict(2)
        # The evicted node can cleanly re-join (the reboot path).
        svc.join(2, lambda v: None)
        assert svc.view.members == (1, 2)

    def test_view_versions_increase(self):
        sim = Simulator()
        svc = MembershipService(sim)
        svc.bootstrap({1: lambda v: None})
        v1 = svc.view.version
        svc.join(2, lambda v: None)
        assert svc.view.version > v1


class TestFlashCrowdAccounting:
    """Regression: ``_account`` used to skip byte accounting silently for
    members with id >= the recorder's population, so flash-crowd joiners
    beyond the initial n were undercounted."""

    def _stats_bytes(self, svc):
        return (
            svc.stats.get("view_full_bytes")
            + svc.stats.get("view_delta_bytes")
            + svc.stats.get("parting_notice_bytes")
        )

    @pytest.mark.parametrize("deltas", [False, True])
    def test_joiners_beyond_recorder_population_are_accounted(self, deltas):
        sim = Simulator()
        recorder = BandwidthRecorder(4)
        svc = MembershipService(sim, deltas=deltas, bandwidth=recorder)
        svc.bootstrap({i: (lambda v: None) for i in range(4)})
        # A flash crowd of joiners with ids beyond the initial population.
        for m in range(4, 10):
            svc.join(m, lambda v: None)
        sim.run_until(5.0)
        assert recorder.n == 10  # grew to cover the newcomers
        per_member = recorder.bytes_per_node(MEMBERSHIP_KINDS, directions=("in",))
        assert per_member[4:].sum() > 0  # the joiners' updates are counted
        # Per-member totals equal the aggregate counters exactly: no
        # update escaped the recorder.
        assert per_member.sum() == self._stats_bytes(svc)

    def test_expiry_of_out_of_range_member_is_accounted(self):
        sim = Simulator()
        recorder = BandwidthRecorder(2)
        svc = MembershipService(
            sim, timeout_s=50.0, expiry_check_s=10.0, bandwidth=recorder
        )
        svc.bootstrap({0: lambda v: None, 1: lambda v: None})
        svc.join(7, lambda v: None)  # beyond the recorder's population
        sim.periodic(20.0, lambda: [svc.refresh(0), svc.refresh(1)], phase=20.0)
        sim.run_until(200.0)  # 7 goes silent and expires
        assert not svc.is_member(7)
        assert svc.stats.get("parting_notices") == 1
        per_member = recorder.bytes_per_node(MEMBERSHIP_KINDS, directions=("in",))
        assert per_member.sum() == self._stats_bytes(svc)


class TestRefreshExpiry:
    """Regression tests for refresh() and _expire_stale timing."""

    def test_refresh_within_timeout_is_never_expired(self):
        # A node that refreshes strictly inside the timeout must survive
        # arbitrarily many expiry checks — even refreshing at exactly
        # one-timeout intervals (now - last == timeout is not stale).
        sim = Simulator()
        svc = MembershipService(sim, timeout_s=100.0, expiry_check_s=10.0)
        svc.bootstrap({1: lambda v: None, 2: lambda v: None})
        sim.periodic(100.0, lambda: svc.refresh(1), phase=100.0)
        sim.periodic(99.0, lambda: svc.refresh(2), phase=99.0)
        sim.run_until(2000.0)
        assert svc.is_member(1)
        assert svc.is_member(2)
        assert svc.view.members == (1, 2)

    def test_expiry_bumps_version_exactly_once(self):
        sim = Simulator()
        svc = MembershipService(sim, timeout_s=100.0, expiry_check_s=10.0)
        versions = []
        svc.bootstrap({1: lambda v: versions.append(v.version), 2: lambda v: None})
        versions.clear()
        v0 = svc.view.version
        sim.periodic(50.0, lambda: svc.refresh(1), phase=50.0)
        # Node 2 goes silent; run far past several timeout multiples.
        sim.run_until(1000.0)
        assert svc.view.members == (1,)
        # Node 1 observed exactly one version bump from the expiry, and
        # no further rebuilds on later (no-op) expiry checks.
        assert versions == [v0 + 1]
        assert svc.view.version == v0 + 1

    def test_simultaneous_expiries_bump_version_once_total(self):
        # Several nodes going stale before the same expiry check leave
        # in one view transition, not one per node.
        sim = Simulator()
        svc = MembershipService(sim, timeout_s=100.0, expiry_check_s=200.0)
        versions = []
        svc.bootstrap(
            {
                1: lambda v: versions.append(v.version),
                2: lambda v: None,
                3: lambda v: None,
            }
        )
        versions.clear()
        v0 = svc.view.version
        sim.periodic(50.0, lambda: svc.refresh(1), phase=50.0)
        sim.run_until(500.0)
        assert svc.view.members == (1,)
        assert versions == [v0 + 1]

    def test_expired_node_is_notified_of_its_removal(self):
        # Regression (false-expiry blind spot): the expired member used
        # to be dropped from the subscriber dict *before* the eviction
        # was published, so a live-but-slow-refreshing node never
        # learned it left the view and kept routing on a stale grid.
        sim = Simulator()
        svc = MembershipService(sim, timeout_s=100.0, expiry_check_s=10.0)
        got = {}
        svc.bootstrap(
            {
                1: lambda v: got.__setitem__(1, v),
                2: lambda v: got.__setitem__(2, v),
            }
        )
        sim.periodic(50.0, lambda: svc.refresh(1), phase=50.0)
        sim.run_until(300.0)
        assert not svc.is_member(2)
        # The survivor heard about the removal...
        assert got[1].members == (1,)
        # ...and so did the expired member itself: its final update is
        # the view that excludes it ("you are out").
        assert got[2].members == (1,)
        assert 2 not in got[2].members
        assert svc.stats.get("parting_notices") == 1

    def test_expired_node_rejoining_in_same_batch_gets_no_parting_notice(self):
        # A member that expires and re-joins before the batched eviction
        # publishes must not receive a stale "you are out" view.
        sim = Simulator()
        svc = MembershipService(
            sim,
            timeout_s=100.0,
            expiry_check_s=10.0,
            notify_batch_s=30.0,
        )
        got = {1: [], 2: []}
        svc.bootstrap({1: got[1].append, 2: got[2].append})
        # 2 goes silent and expires...
        sim.periodic(50.0, lambda: svc.refresh(1), phase=50.0)
        sim.run_until(115.0)
        assert not svc.is_member(2)
        # ...but re-joins before the batching window flushes (and
        # heartbeats from then on).
        svc.join(2, got[2].append)
        sim.periodic(50.0, lambda: svc.refresh(2), phase=50.0)
        sim.run_until(300.0)
        assert svc.view.members == (1, 2)
        assert svc.stats.get("parting_notices") == 0
        assert all(2 in v.members for v in got[2])

    def test_rejoin_after_expiry_is_allowed(self):
        sim = Simulator()
        svc = MembershipService(sim, timeout_s=100.0, expiry_check_s=10.0)
        svc.bootstrap({1: lambda v: None, 2: lambda v: None})
        sim.periodic(50.0, lambda: svc.refresh(1), phase=50.0)
        sim.run_until(300.0)
        assert not svc.is_member(2)
        svc.join(2, lambda v: None)
        assert svc.view.members == (1, 2)
