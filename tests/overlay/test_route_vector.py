"""Route queries against the one-destination-at-a-time reference.

`route_vector` is the hot path behind ground-truth availability
sampling and route-table dumps, and `route_to` answers one destination
from the same kernel. For the quorum router both must equal
`reference_routes` — hop, cost, source, age, usability and the §7
conflict counts — including under adversarially scrambled routing
state, stale rows, dead links and cross-validation; the full-mesh
router's two forms must agree with each other.
"""

import numpy as np
import pytest
from reference_routes import reference_route

from repro.net.trace import uniform_random_metric
from repro.overlay.config import OverlayConfig, RouterKind
from repro.overlay.harness import build_overlay
from repro.overlay.router_quorum import QuorumRouter
from repro.workloads import ChurnTrace, FaultPlan, replay

CONFLICT_COUNTERS = ("rec_conflicts", "rec_conflicts_overridden")


def counted(router, query):
    """``query()`` and the §7 counter deltas it caused."""
    before = [router.counters.get(name) for name in CONFLICT_COUNTERS]
    out = query()
    after = [router.counters.get(name) for name in CONFLICT_COUNTERS]
    return out, [a - b for a, b in zip(after, before)]


def assert_routes_match_reference(router):
    n = router.view.n
    if not isinstance(router, QuorumRouter):
        hops, usable = router.route_vector()
        for d in range(n):
            route = router.route_to(d)
            assert hops[d] == route.hop, f"dst {d}: {hops[d]} != {route.hop}"
            assert usable[d] == route.usable, f"dst {d} usability"
        return
    refs, ref_counts = [], []
    for d in range(n):
        counts = {}
        refs.append(reference_route(router, d, counts))
        ref_counts.append([counts.get(name, 0) for name in CONFLICT_COUNTERS])
    for d in range(n):
        route, deltas = counted(router, lambda: router.route_to(d))
        assert route == refs[d], f"dst {d}: {route} != {refs[d]}"
        assert deltas == ref_counts[d], f"dst {d} conflict counts"
    (hops, usable), deltas = counted(router, router.route_vector)
    assert hops.tolist() == [r.hop for r in refs]
    assert usable.tolist() == [r.usable for r in refs]
    assert deltas == np.sum(ref_counts, axis=0).tolist()


def scramble(router, rng):
    """Randomize routing state into corners the protocol rarely visits:
    stale recommendations (and secondaries, where held), hops pointing
    at dead links, missing rows."""
    n = router.view.n
    now = router.sim.now
    k = max(1, n // 3)
    if hasattr(router, "route_time"):  # quorum recommendation state
        for hop, time in (("route_hop", "route_time"), ("route_hop2", "route_time2")):
            if getattr(router, hop) is None:
                continue
            idx = rng.choice(n, size=k, replace=False)
            getattr(router, time)[idx] = rng.choice([-np.inf, now - 100.0, now], size=k)
            getattr(router, hop)[idx] = rng.integers(-1, n, size=k)
    stale_rows = rng.choice(n, size=k, replace=False)
    router.table.row_time[stale_rows] = -np.inf
    # Kill some links from the monitor's point of view.
    dead = rng.choice(router.monitor.n, size=k, replace=False)
    router.monitor.alive[dead] = False
    router.monitor.version += 1


@pytest.mark.parametrize("kind", [RouterKind.QUORUM, RouterKind.FULL_MESH])
class TestRouteVectorEquivalence:
    def test_steady_state(self, kind):
        rng = np.random.default_rng(9)
        ov = build_overlay(trace=uniform_random_metric(18, rng), router=kind, rng=rng)
        ov.run(150.0)
        for node in ov.nodes:
            assert_routes_match_reference(node.router)

    def test_cold_start(self, kind):
        rng = np.random.default_rng(10)
        ov = build_overlay(trace=uniform_random_metric(12, rng), router=kind, rng=rng)
        ov.run(5.0)  # before any routing tick on most nodes
        for node in ov.nodes:
            assert_routes_match_reference(node.router)

    def test_scrambled_state(self, kind):
        rng = np.random.default_rng(11)
        ov = build_overlay(trace=uniform_random_metric(15, rng), router=kind, rng=rng)
        ov.run(120.0)
        scramble_rng = np.random.default_rng(99)
        for node in ov.nodes:
            scramble(node.router, scramble_rng)
            assert_routes_match_reference(node.router)


class TestRouteVectorUnderChurn:
    def test_matches_during_membership_changes(self):
        churn = ChurnTrace.poisson(
            n=20,
            rate_per_s=0.05,
            duration_s=200.0,
            seed=8,
            warmup_s=30.0,
        )
        rng = np.random.default_rng(8)
        ov = build_overlay(
            trace=uniform_random_metric(20, rng),
            router=RouterKind.QUORUM,
            rng=rng,
            with_freshness=False,
            active_members=churn.initial_active,
        )
        replay(ov, FaultPlan().add_churn(churn), churn.duration_s + 60.0)
        checked = 0
        for node in ov.nodes:
            if node.started and node.router.view is not None:
                assert_routes_match_reference(node.router)
                checked += 1
        assert checked > 0

    def test_verify_recommendations_path(self):
        # Two rendezvous that recommend themselves for every pair give
        # the §7 cross-validation conflicts to count and override.
        rng = np.random.default_rng(13)
        ov = build_overlay(
            trace=uniform_random_metric(16, rng),
            router=RouterKind.QUORUM,
            rng=rng,
            config=OverlayConfig(verify_recommendations=True),
            malicious=(3, 11),
        )
        ov.run(150.0)
        conflicts = 0
        for node in ov.nodes:
            before = node.router.counters.get("rec_conflicts")
            assert_routes_match_reference(node.router)
            conflicts += node.router.counters.get("rec_conflicts") - before
        assert conflicts > 0

    def test_verify_recommendations_scrambled(self):
        rng = np.random.default_rng(14)
        ov = build_overlay(
            trace=uniform_random_metric(15, rng),
            router=RouterKind.QUORUM,
            rng=rng,
            config=OverlayConfig(verify_recommendations=True),
            malicious=(2,),
        )
        ov.run(120.0)
        scramble_rng = np.random.default_rng(98)
        for node in ov.nodes:
            scramble(node.router, scramble_rng)
            assert_routes_match_reference(node.router)


class TestRouteOkMatrixEquivalence:
    """The vectorized availability sampler reproduces the per-pair
    reference implementation exactly."""

    @staticmethod
    def reference_route_ok_matrix(overlay):
        t = overlay.sim.now
        mask = overlay.started_mask()
        ok = np.zeros((overlay.n, overlay.n), dtype=bool)
        ids = [int(i) for i in np.nonzero(mask)[0]]
        up = {i: overlay.topology.up_vector(i, t) for i in ids}
        for s in ids:
            node = overlay.nodes[s]
            view = node.router.view
            for d in ids:
                if d == s or d not in view:
                    continue
                route = node.router.route_to(view.index_of(d))
                if not route.usable:
                    continue
                hop = int(view.members[route.hop])
                if hop == d or hop == s:
                    ok[s, d] = bool(up[s][d])
                else:
                    ok[s, d] = (
                        bool(mask[hop]) and bool(up[s][hop]) and bool(up[hop][d])
                    )
        return ok, mask

    def test_matches_reference_under_churn(self):
        churn = ChurnTrace.poisson(
            n=18,
            rate_per_s=0.05,
            duration_s=150.0,
            seed=21,
            warmup_s=30.0,
        )
        rng = np.random.default_rng(21)
        ov = build_overlay(
            trace=uniform_random_metric(18, rng),
            router=RouterKind.QUORUM,
            rng=rng,
            with_freshness=False,
            active_members=churn.initial_active,
        )
        replay(ov, FaultPlan().add_churn(churn), churn.duration_s + 30.0)
        ok_new, mask_new = ov.route_ok_matrix()
        ok_ref, mask_ref = self.reference_route_ok_matrix(ov)
        assert np.array_equal(mask_new, mask_ref)
        assert np.array_equal(ok_new, ok_ref)

    def test_route_hops_matches_reference(self):
        rng = np.random.default_rng(23)
        ov = build_overlay(
            trace=uniform_random_metric(14, rng),
            router=RouterKind.FULL_MESH,
            rng=rng,
        )
        ov.run(120.0)
        hops = ov.route_hops()
        for node in ov.nodes:
            view = node.router.view
            members = view.members
            for d_idx, d_id in enumerate(members):
                if d_id == node.id:
                    continue
                route = node.router.route_to(d_idx)
                expect = members[route.hop] if route.hop >= 0 else -1
                assert hops[node.id, d_id] == expect
