"""Incremental membership: delta protocol, batching, and equivalence.

Covers the versioned :class:`ViewDelta` machinery end to end: delta
application, per-subscriber delivery (full view to newcomers, deltas to
everyone else), the batching window, the full-view gap fallback, and —
property-style — that any interleaving of joins/leaves/expiries yields,
per subscriber, the same final view (and identical grid) whether
delivered as deltas, batched deltas, or full views.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.core.grid import GridQuorum
from repro.errors import MembershipError
from repro.net.simulator import Simulator
from repro.net.trace import uniform_random_metric
from repro.overlay import membership
from repro.overlay.config import OutOfBand, OverlayConfig, RouterKind
from repro.overlay.harness import build_overlay
from repro.overlay.membership import MembershipService, MembershipView, ViewDelta
from repro.overlay.stats import MEMBERSHIP_KINDS
from repro.workloads import trace as churn_traces
from repro.workloads import (
    ACTION_FAIL,
    ACTION_JOIN,
    ACTION_LEAVE,
    ChurnEvent,
    ChurnTrace,
    FaultPlan,
    replay,
)


class TestViewDelta:
    def test_apply(self):
        view = MembershipView(version=3, members=(1, 2, 5))
        delta = ViewDelta(from_version=3, to_version=4, joined=(4,), left=(2,))
        new = delta.apply(view)
        assert new == MembershipView(version=4, members=(1, 4, 5))

    def test_apply_requires_matching_base_version(self):
        view = MembershipView(version=2, members=(1,))
        delta = ViewDelta(from_version=3, to_version=4, joined=(9,), left=())
        with pytest.raises(MembershipError):
            delta.apply(view)

    def test_apply_rejects_bogus_changes(self):
        view = MembershipView(version=1, members=(1, 2))
        with pytest.raises(MembershipError):
            ViewDelta(1, 2, joined=(), left=(9,)).apply(view)
        with pytest.raises(MembershipError):
            ViewDelta(1, 2, joined=(2,), left=()).apply(view)

    def test_equal_held_views_share_one_derived_view(self):
        delta = ViewDelta(from_version=3, to_version=4, joined=(4,), left=(2,))
        held = MembershipView(version=3, members=(1, 2, 5))
        derived = delta.apply(held)
        assert delta.apply(held) is derived
        # An equal view held by another subscriber: same object, one ids array.
        assert delta.apply(MembershipView(version=3, members=(1, 2, 5))) is derived
        assert derived.member_ids is delta.apply(held).member_ids
        # A different base is applied (and checked) afresh.
        other = delta.apply(MembershipView(version=3, members=(2, 7)))
        assert other == MembershipView(version=4, members=(4, 7))
        with pytest.raises(MembershipError):
            delta.apply(MembershipView(version=3, members=(1, 4)))
        with pytest.raises(MembershipError):
            delta.apply(MembershipView(version=2, members=(1, 2, 5)))

    def test_memo_keeps_no_view_alive(self):
        delta = ViewDelta(from_version=3, to_version=4, joined=(4,), left=())
        held = MembershipView(version=3, members=(1, 2))
        derived = delta.apply(held)
        gone = [weakref.ref(held), weakref.ref(derived)]
        del held, derived
        gc.collect()
        assert [ref() for ref in gone] == [None, None]
        # With the derived view gone, the delta derives a new one.
        assert delta.apply(MembershipView(version=3, members=(1, 2))) == MembershipView(
            version=4, members=(1, 2, 4)
        )

    def test_validation(self):
        with pytest.raises(MembershipError):
            ViewDelta(5, 5, (), ())  # must move forward
        with pytest.raises(MembershipError):
            ViewDelta(1, 2, (3, 1), ())  # unsorted
        with pytest.raises(MembershipError):
            ViewDelta(1, 2, (3,), (3,))  # overlapping


def collect(store, member):
    store.setdefault(member, [])
    return store[member].append


class TestDeltaDelivery:
    def test_join_sends_delta_to_existing_full_view_to_joiner(self):
        sim = Simulator()
        svc = MembershipService(sim, deltas=True)
        got = {}
        svc.bootstrap({1: collect(got, 1), 2: collect(got, 2)})
        svc.join(3, collect(got, 3))
        sim.run_until(1.0)
        # Existing members got one O(changes) delta...
        for m in (1, 2):
            update = got[m][-1]
            assert isinstance(update, ViewDelta)
            assert update.joined == (3,) and update.left == ()
        # ...the newcomer (version gap from 0) a full view.
        assert isinstance(got[3][-1], MembershipView)
        assert got[3][-1].members == (1, 2, 3)
        assert svc.stats.get("view_delta_msgs") == 2
        assert svc.stats.get("view_full_msgs") == 3  # bootstrap + joiner

    def test_leave_and_expiry_send_deltas(self):
        sim = Simulator()
        svc = MembershipService(
            sim, deltas=True, timeout_s=100.0, expiry_check_s=10.0
        )
        got = {}
        svc.bootstrap({1: collect(got, 1), 2: collect(got, 2), 3: collect(got, 3)})
        svc.leave(2)
        sim.run_until(1.0)
        assert got[1][-1] == ViewDelta(1, 2, joined=(), left=(2,))
        # Node 3 goes silent; only 1 refreshes.
        sim.periodic(50.0, lambda: svc.refresh(1), phase=50.0)
        sim.run_until(300.0)
        assert svc.view.members == (1,)
        assert isinstance(got[1][-1], ViewDelta)
        assert got[1][-1].left == (3,)

    def test_deltas_chain_across_many_changes(self):
        sim = Simulator()
        svc = MembershipService(sim, deltas=True)
        held = {}

        def mirror(member):
            def cb(update):
                held[member] = (
                    update.apply(held[member])
                    if isinstance(update, ViewDelta)
                    else update
                )

            return cb

        svc.bootstrap({0: mirror(0)})
        for m in range(1, 12):
            svc.join(m, mirror(m))
            sim.run_until(sim.now + 1.0)
        for m in (3, 5, 7):
            svc.leave(m)
            sim.run_until(sim.now + 1.0)
        for m in svc.view.members:
            assert held[m] == svc.view

    def test_batching_coalesces_changes_into_one_version(self):
        sim = Simulator()
        svc = MembershipService(sim, deltas=True, notify_batch_s=5.0)
        got = {}
        svc.bootstrap({1: collect(got, 1), 2: collect(got, 2)})
        v0 = svc.view.version
        svc.join(10, collect(got, 10))
        svc.join(11, collect(got, 11))
        svc.leave(2)
        # Nothing published until the window closes.
        assert svc.view.version == v0
        assert svc.pending_changes == 3
        sim.run_until(10.0)
        assert svc.view.version == v0 + 1
        assert svc.view.members == (1, 10, 11)
        update = got[1][-1]
        assert isinstance(update, ViewDelta)
        assert update.joined == (10, 11) and update.left == (2,)

    def test_join_then_leave_within_window_cancels_out(self):
        sim = Simulator()
        svc = MembershipService(sim, deltas=True, notify_batch_s=5.0)
        got = {}
        svc.bootstrap({1: collect(got, 1)})
        v0 = svc.view.version
        n_updates = len(got[1])
        svc.join(7, lambda u: None)
        svc.leave(7)
        sim.run_until(20.0)
        assert svc.view.version == v0  # no net change published
        assert len(got[1]) == n_updates

    def test_gap_fallback_sends_full_view(self, monkeypatch):
        monkeypatch.setattr(membership, "DELTA_LOG_VERSIONS", 2)
        sim = Simulator()
        svc = MembershipService(sim, deltas=True)
        got = {}
        svc.bootstrap({1: collect(got, 1), 2: collect(got, 2)})
        for m in (10, 11, 12, 13):
            svc.join(m, collect(got, m))
        # Pretend subscriber 1 fell far behind the bounded delta log.
        svc._delivered[1] = 1
        svc.join(14, collect(got, 14))
        sim.run_until(1.0)
        assert isinstance(got[1][-1], MembershipView)  # unbridgeable gap
        assert got[1][-1] == svc.view
        assert isinstance(got[2][-1], ViewDelta)  # normal chained delta
        assert svc.stats.get("view_gap_fallbacks") == 1

    def test_quiesce_publishes_pending_batch(self):
        sim = Simulator()
        svc = MembershipService(sim, deltas=True, notify_batch_s=60.0)
        got = {}
        svc.bootstrap({1: collect(got, 1)})
        svc.join(5, collect(got, 5))
        svc.quiesce()
        sim.run_until(sim.now + 1.0)
        assert svc.view.members == (1, 5)
        assert got[1][-1] == ViewDelta(1, 2, joined=(5,), left=())


# ----------------------------------------------------------------------
# Property-style equivalence: deltas / batched deltas / full views
# ----------------------------------------------------------------------
def drive_random_churn(seed, mode, n_pool=20, n_events=50):
    """One random interleaving of joins/leaves/expiries against one mode.

    The event *schedule* is derived purely from ``seed``, so every mode
    replays the identical interleaving. Expiries are induced by crashed
    members going silent under a short refresh timeout. Returns
    ``(service, held_views)`` after a quiesced, fully drained run.
    """
    rng = np.random.default_rng(seed)
    sim = Simulator()
    svc = MembershipService(
        sim,
        timeout_s=60.0,
        expiry_check_s=7.0,
        deltas=mode != "full",
        notify_batch_s=3.0 if mode == "delta-batch" else 0.0,
    )
    held = {}
    alive = set()

    def mirror(member):
        def cb(update):
            held[member] = (
                update.apply(held[member])
                if isinstance(update, ViewDelta)
                else update
            )

        return cb

    boot = sorted(int(m) for m in rng.choice(n_pool, size=8, replace=False))
    alive.update(boot)
    svc.bootstrap({m: mirror(m) for m in boot})
    sim.periodic(20.0, lambda: [svc.refresh(m) for m in sorted(alive) if svc.is_member(m)])

    for _ in range(n_events):
        sim.run_until(sim.now + float(rng.uniform(0.5, 8.0)))
        # Schedule decisions come only from the authoritative membership
        # bookkeeping, which is identical across delivery modes (the
        # published view lags in batch mode and must not steer the rng).
        members = {m for m in range(n_pool) if svc.is_member(m)}
        outside = sorted(set(range(n_pool)) - members)
        inside = sorted(alive)
        roll = rng.random()
        if outside and (roll < 0.45 or len(inside) <= 2):
            m = outside[int(rng.integers(len(outside)))]
            if svc.is_member(m):  # crashed, not yet expired: reboot
                svc.evict(m)
            held.pop(m, None)
            svc.join(m, mirror(m))
            alive.add(m)
        elif inside and roll < 0.75:
            m = inside[int(rng.integers(len(inside)))]
            svc.leave(m)
            alive.discard(m)
            held.pop(m, None)
        elif inside:
            m = inside[int(rng.integers(len(inside)))]  # crash: go silent
            alive.discard(m)
    sim.run_until(sim.now + 90.0)
    svc.quiesce()
    sim.run_until(sim.now + 1.0)
    return svc, held, alive


class TestModeEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 17, 99])
    def test_all_modes_converge_to_identical_views_and_grids(self, seed):
        finals = {}
        for mode in ("full", "delta", "delta-batch"):
            svc, held, alive = drive_random_churn(seed, mode)
            # Every live subscriber holds exactly the coordinator's view.
            for m in svc.view.members:
                if m in alive:
                    assert held[m] == svc.view, (mode, m)
            finals[mode] = svc.view.members
        # All delivery modes agree on the final membership...
        assert finals["full"] == finals["delta"] == finals["delta-batch"]
        # ...and therefore on the grid every node derives from it.
        if finals["full"]:
            grids = [
                GridQuorum(list(range(len(finals[mode]))))
                for mode in ("full", "delta", "delta-batch")
            ]
            for g in grids[1:]:
                assert g.members == grids[0].members
                assert all(
                    g.servers(m) == grids[0].servers(m) for m in g.members
                )

    @pytest.mark.parametrize("seed", [5, 23])
    def test_full_and_immediate_delta_publish_identical_version_history(
        self, seed
    ):
        # With no batching, both modes publish one version per change, so
        # the (version, members) history must match exactly.
        svc_a, _, _ = drive_random_churn(seed, "full")
        svc_b, _, _ = drive_random_churn(seed, "delta")
        assert svc_a.view == svc_b.view


# ----------------------------------------------------------------------
# Overlay integration: deltas drive the routers incrementally
# ----------------------------------------------------------------------
def build_delta_overlay(n, churn, notify_batch_s=0.0):
    config = OverlayConfig(
        membership=OutOfBand(deltas=True, notify_batch_s=notify_batch_s),
        membership_timeout_s=120.0,
    )
    rng = np.random.default_rng(11)
    trace = uniform_random_metric(n, rng)
    return build_overlay(
        trace=trace,
        router=RouterKind.QUORUM,
        rng=rng,
        config=config,
        with_freshness=False,
        active_members=churn.initial_active,
    )


def assert_routers_share_fresh_grids(overlay):
    """Every router that holds a view — departed ones with their last —
    holds its view size's one shared grid, equal to a fresh build."""
    sizes = set()
    for node in overlay.nodes:
        view = node.router.view
        if view is not None:
            assert node.router.grid is GridQuorum.of_size(view.n), node.id
            sizes.add(view.n)
    for n in sorted(sizes):
        GridQuorum.of_size(n).assert_equals_fresh()


class TestOverlayIntegration:
    def _churn(self, n=12):
        return ChurnTrace(
            n=n,
            initial_active=tuple(range(n - 2)),
            events=(
                ChurnEvent(60.0, ACTION_JOIN, n - 2),
                ChurnEvent(90.0, ACTION_FAIL, 1),
                ChurnEvent(120.0, ACTION_LEAVE, 2),
                ChurnEvent(150.0, ACTION_JOIN, n - 1),
                ChurnEvent(320.0, ACTION_JOIN, 1),  # reboot after crash
            ),
            duration_s=360.0,
        )

    def test_delta_churn_run_converges_and_routes(self):
        churn = self._churn()
        overlay = build_delta_overlay(12, churn)
        replay(overlay, FaultPlan().add_churn(churn), churn.duration_s + 150.0)
        view = overlay.membership.view
        assert set(view.members) == set(overlay.active)
        for i in overlay.active:
            node = overlay.nodes[i]
            assert node.started
            assert node.router.view == view
            assert node.membership.dropped_unappliable_deltas == 0
        # The rebooted node is fully routable again.
        assert overlay.nodes[0].route_to(1).usable
        assert overlay.nodes[1].route_to(0).usable
        # Deltas (not just full views) actually flowed.
        assert overlay.membership.stats.get("view_delta_msgs") > 0
        # Membership wire cost was accounted.
        received = overlay.bandwidth.bytes_per_node(MEMBERSHIP_KINDS, directions=("in",))
        assert received.sum() > 0
        assert_routers_share_fresh_grids(overlay)

    def test_delta_and_full_view_runs_agree_on_final_views(self):
        churn = self._churn()
        delta_overlay = build_delta_overlay(12, churn)
        replay(delta_overlay, FaultPlan().add_churn(churn), churn.duration_s + 150.0)

        config = OverlayConfig(membership_timeout_s=120.0)
        rng = np.random.default_rng(11)
        trace = uniform_random_metric(12, rng)
        full_overlay = build_overlay(
            trace=trace,
            router=RouterKind.QUORUM,
            rng=rng,
            config=config,
            with_freshness=False,
            active_members=churn.initial_active,
        )
        replay(full_overlay, FaultPlan().add_churn(churn), churn.duration_s + 150.0)

        assert delta_overlay.membership.view == full_overlay.membership.view
        for i in delta_overlay.active:
            assert (
                delta_overlay.nodes[i].router.view
                == full_overlay.nodes[i].router.view
            )

    def test_batched_overlay_publishes_fewer_versions(self, monkeypatch):
        monkeypatch.setattr(churn_traces, "FLASH_SPREAD_S", 3.0)
        churn = ChurnTrace.flash_crowd(16, count=6, at_s=60.0, duration_s=120.0, seed=4)
        batched = build_delta_overlay(16, churn, notify_batch_s=5.0)
        replay(batched, FaultPlan().add_churn(churn), churn.duration_s + 120.0)
        immediate = build_delta_overlay(16, churn)
        replay(immediate, FaultPlan().add_churn(churn), churn.duration_s + 120.0)
        assert (
            batched.membership.view.members
            == immediate.membership.view.members
        )
        # Six joins in three seconds collapse into fewer view bumps.
        assert batched.membership.view.version < immediate.membership.view.version
        for i in batched.active:
            assert batched.nodes[i].started
            assert batched.nodes[i].router.view == batched.membership.view
        assert_routers_share_fresh_grids(batched)
