"""Edge cases of route selection and router internals."""

import numpy as np
from repro.net.trace import uniform_random_metric
from repro.overlay.config import RouterKind
from repro.overlay.harness import build_overlay
from repro.overlay.router_base import (
    SOURCE_DIRECT,
    SOURCE_REDUNDANT,
    Route,
)
from repro.workloads.faults import FaultPlan


def build(n=16, seed=41, failures=None, config=None, run_s=120.0):
    rng = np.random.default_rng(seed)
    trace = uniform_random_metric(n, rng)
    ov = build_overlay(
        trace=trace,
        router=RouterKind.QUORUM,
        rng=rng,
        failures=failures,
        config=config,
        with_freshness=False,
    )
    ov.run(run_s)
    return ov


class TestRouteDataclass:
    def test_usable_semantics(self):
        good = Route(dst=1, hop=2, cost_ms=10.0, source=SOURCE_DIRECT, age_s=0.0)
        assert good.usable
        no_hop = Route(dst=1, hop=-1, cost_ms=10.0, source=SOURCE_DIRECT, age_s=0.0)
        assert not no_hop.usable
        no_cost = Route(
            dst=1, hop=2, cost_ms=np.inf, source=SOURCE_DIRECT, age_s=0.0
        )
        assert not no_cost.usable

    def test_is_direct(self):
        assert Route(dst=3, hop=3, cost_ms=1.0, source=SOURCE_DIRECT, age_s=0.0).is_direct


class TestFallbackOrder:
    def test_stale_recs_and_stale_clients_fall_back_to_direct(self):
        ov = build()
        router = ov.nodes[0].router
        router.route_time[:] = -np.inf  # no recommendations
        router.table.row_time[:] = -np.inf  # no client tables either
        router._refresh_own_row()  # except our own measurements
        route = router.route_to(5)
        assert route.source == SOURCE_DIRECT
        assert route.is_direct

    def test_unreachable_destination_yields_unusable_route(self):
        n = 16
        failures = FaultPlan().node_outage(0.0, 1e12, (7,)).failure_table(n)
        ov = build(failures=failures, run_s=200.0)
        router = ov.nodes[0].router
        router.route_time[:] = -np.inf
        router.table.row_time[:] = -np.inf
        router._refresh_own_row()
        route = router.route_to(7)
        assert not route.usable

    def test_down_recommended_hop_triggers_fallback(self):
        ov = build()
        router = ov.nodes[0].router
        # Forge a fresh recommendation pointing at a "down" hop.
        hop = 3
        router.route_hop[5] = hop
        router.route_time[5] = ov.sim.now
        router.monitor.alive[3] = False
        route = router.route_to(5)
        assert route.source in (SOURCE_REDUNDANT, SOURCE_DIRECT)

    def test_self_route_is_trivial(self):
        ov = build()
        route = ov.nodes[4].router.route_to(ov.nodes[4].router.me_idx)
        assert route.cost_ms == 0.0 and route.is_direct


class TestDoubleFailureSemantics:
    def test_proximal_count_at_most_full_count(self):
        n = 25
        rng = np.random.default_rng(13)
        from repro.net.failures import build_failure_table

        failures = build_failure_table(n, 1200.0, rng)
        ov = build(n=n, failures=failures, run_s=400.0)
        polls = [node.router._evaluate_failover() for node in ov.nodes]
        assert all(p.proximal_double_failures <= p.double_failures for p in polls)
        assert sum(p.double_failures for p in polls) > 0
        assert [node.router.double_failure_count() for node in ov.nodes] == [
            p.proximal_double_failures for p in polls
        ]
