"""Integration tests: both routers over the event-driven overlay."""

import numpy as np
import pytest

from repro.core.failover import FailoverManager
from repro.core.onehop import best_one_hop_all_pairs
from repro.experiments.coordinator_failover import scenario_config
from repro.net.trace import SyntheticTrace, planetlab_like, uniform_random_metric
from repro.overlay.config import InBand, OutOfBand, OverlayConfig, RouterKind
from repro.overlay.harness import build_overlay
from repro.overlay.linkstate import LinkStateRow
from repro.overlay.router_base import (
    SOURCE_DIRECT,
    SOURCE_RECOMMENDATION,
    SOURCE_REDUNDANT,
)
from repro.workloads import trace as churn_traces
from repro.workloads.faults import FaultPlan
from repro.workloads.trace import ChurnEvent, ChurnTrace


def build(n=16, router=RouterKind.QUORUM, seed=3, failures=None, run_s=0.0, trace=None):
    rng = np.random.default_rng(seed)
    trace = trace or uniform_random_metric(n, rng)
    ov = build_overlay(trace=trace, router=router, rng=rng, failures=failures)
    if run_s:
        ov.run(run_s)
    return ov


def route_cost(w, i, h, j):
    return w[i, j] if h in (i, j) else w[i, h] + w[h, j]


def optimal_fraction(ov, tol_rel=0.08):
    """Fraction of pairs routed within tol of the true optimum.

    The monitor adds up to ±3% measurement noise per link, so we accept
    near-optimal choices.
    """
    w = ov.topology.rtt_matrix_ms
    opt, _ = best_one_hop_all_pairs(np.asarray(w))
    hops = ov.route_hops()
    n = ov.n
    good = total = 0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            total += 1
            h = hops[i, j]
            if h < 0:
                continue
            if route_cost(w, i, h, j) <= opt[i, j] * (1 + tol_rel) + 1.0:
                good += 1
    return good / total


class TestQuorumRouterSteadyState:
    def test_converges_to_near_optimal_routes(self):
        ov = build(n=16, run_s=150.0)
        assert optimal_fraction(ov) > 0.97

    def test_routes_come_from_recommendations(self):
        ov = build(n=16, run_s=150.0)
        sources = [
            ov.nodes[0].route_to(d).source for d in range(1, 16)
        ]
        frac_rec = sum(s == SOURCE_RECOMMENDATION for s in sources) / len(sources)
        assert frac_rec > 0.9

    def test_non_square_overlay_works(self):
        ov = build(n=13, run_s=150.0)
        assert optimal_fraction(ov) > 0.95

    def test_recommendation_freshness_bounded(self):
        ov = build(n=16, run_s=200.0)
        now = ov.sim.now
        for node in ov.nodes:
            ages = now - node.router.last_rec_times()
            ages = np.delete(ages, node.router.me_idx)
            # every destination heard from within ~2 routing intervals
            assert ages.max() < 2.5 * ov.config.routing_interval_quorum_s

    def test_route_to_self(self):
        ov = build(n=9, run_s=50.0)
        r = ov.nodes[2].route_to(2)
        assert r.hop == r.dst and r.cost_ms == 0.0


def lossy_triangle_trace(n=9):
    """Node 0 <-> 8: direct link fast but very lossy; detour via 4 is
    lossless and only slightly slower. All other links have visible
    (5%) loss."""
    rtt = np.full((n, n), 80.0)
    loss = np.full((n, n), 0.05)
    rtt[0, 8] = rtt[8, 0] = 50.0
    loss[0, 8] = loss[8, 0] = 0.30
    rtt[0, 4] = rtt[4, 0] = 40.0
    rtt[4, 8] = rtt[8, 4] = 40.0
    loss[0, 4] = loss[4, 0] = 0.0
    loss[4, 8] = loss[8, 4] = 0.0
    np.fill_diagonal(rtt, 0.0)
    np.fill_diagonal(loss, 0.0)
    return SyntheticTrace(
        rtt_ms=rtt,
        loss=loss,
        regions=np.zeros(n, dtype=int),
        access_ms=np.zeros(n),
        is_hub=np.zeros(n, dtype=bool),
        inflated=np.zeros((n, n), dtype=bool),
    )


class TestLatencyMetric:
    def test_latency_router_takes_lossy_shortcut(self):
        """Routes minimise latency, the paper's metric, whatever a
        link's loss: 50 ms direct beats the 80 ms lossless detour."""
        ov = build_overlay(
            trace=lossy_triangle_trace(),
            router=RouterKind.QUORUM,
            rng=np.random.default_rng(5),
            with_freshness=False,
        )
        ov.run(240.0)
        assert ov.nodes[0].route_to(8).is_direct

    def test_full_mesh_router_takes_lossy_shortcut(self):
        ov = build_overlay(
            trace=lossy_triangle_trace(),
            router=RouterKind.FULL_MESH,
            rng=np.random.default_rng(5),
            with_freshness=False,
        )
        ov.run(240.0)
        route = ov.nodes[0].route_to(8)
        assert route.is_direct
        assert route.cost_ms == pytest.approx(50.0, rel=0.05)


class TestFullMeshRouterSteadyState:
    def test_converges_to_near_optimal_routes(self):
        ov = build(n=16, router=RouterKind.FULL_MESH, run_s=150.0)
        assert optimal_fraction(ov) > 0.97

    def test_uses_more_routing_bandwidth_than_quorum(self):
        # The crossover between 1.6 n^2 and 6.4 n^1.5 sits near n = 45;
        # at n = 100 theory predicts quorum at ~55% of full mesh.
        n = 100
        ov_mesh = build(n=n, router=RouterKind.FULL_MESH, run_s=240.0, seed=5)
        ov_quorum = build(n=n, router=RouterKind.QUORUM, run_s=240.0, seed=5)
        mesh_bps = ov_mesh.routing_bps(60.0, 240.0).mean()
        quorum_bps = ov_quorum.routing_bps(60.0, 240.0).mean()
        assert quorum_bps < 0.75 * mesh_bps


class TestQuorumFailover:
    def test_direct_and_besthop_failure_recovers(self):
        """Scenario 1 (§4.1): links Src-Dst and Src-C fail; a new best
        hop is learned within ~2r of detection."""
        n = 16
        rng = np.random.default_rng(11)
        trace = uniform_random_metric(n, rng)
        w = trace.rtt_ms
        src, dst = 0, 15
        opt, hops = best_one_hop_all_pairs(np.asarray(w))
        best_c = int(hops[src, dst])
        fail_at = 200.0
        plan = FaultPlan().partition(fail_at, 1e9, (src,), (dst,))
        if best_c not in (src, dst):
            plan.partition(fail_at, 1e9, (src,), (best_c,))
        failures = plan.failure_table(n)
        ov = build(n=n, failures=failures, seed=11, trace=trace)
        ov.run(fail_at)
        ov.run(200.0)  # detection (<=30 s) + 2 routing intervals + slack
        route = ov.nodes[src].route_to(dst)
        assert route.usable
        assert route.hop != dst and route.hop != best_c
        # the chosen detour actually works on the failed topology
        assert ov.topology.link_is_up(src, route.hop, ov.sim.now)
        assert ov.topology.link_is_up(route.hop, dst, ov.sim.now)

    def test_double_rendezvous_failure_triggers_failover(self):
        """Scenario 2: both default rendezvous for (src, dst) fail
        proximally; src adopts a failover from dst's row/column."""
        n = 16
        rng = np.random.default_rng(13)
        trace = uniform_random_metric(n, rng)
        ov0 = build(n=n, seed=13, trace=trace)
        router = ov0.nodes[0].router
        dst = 15
        pair = router.failover.default_pair(dst)
        if 0 in pair or dst in pair:
            pytest.skip("degenerate geometry for this seed")
        fail_at = 200.0
        failures = FaultPlan().partition(fail_at, 1e9, (0,), (*pair, dst)).failure_table(n)

        ov = build(n=n, failures=failures, seed=13, trace=trace)
        ov.run(fail_at + 150.0)
        router = ov.nodes[0].router
        assert router.failover.active_failover(dst) is not None
        route = ov.nodes[0].route_to(dst)
        assert route.usable
        assert route.hop != dst

    def test_dead_destination_suppresses_failover_churn(self):
        """§4.1: when dst is actually dead, nodes stop burning through
        failover candidates after the initial attempt."""
        n = 16
        fail_at = 150.0
        failures = FaultPlan().node_outage(fail_at, 1e9, (15,)).failure_table(n)
        ov = build(n=n, failures=failures, seed=7)
        ov.run(fail_at + 300.0)
        router = ov.nodes[0].router
        # after the dust settles the router is not holding a failover
        # for the dead node (suppressed), and counted suppressions
        assert router.counters.get("failover_suppressed_polls") > 0

    def test_lossless_static_overlay_never_adopts(self):
        """No adoption without a failure (§4.1): nothing ever fails in a
        lossless static overlay, so nobody fails over — not even while
        rendezvous servers are still waiting for their clients' first
        rows and leave them out — and every rendezvous serves exactly
        the 2(√n − 1) clients the grid assigns it, every interval. (Read
        as failures, those bootstrap omissions were 4746 adoptions and
        up to 65 fresh client rows per rendezvous for three intervals.)
        """
        rng = np.random.default_rng(42)
        ov = build_overlay(
            trace=planetlab_like(256, rng, base_loss=0.0, lossy_fraction=0.0),
            router=RouterKind.QUORUM,
            rng=rng,
            config=OverlayConfig(),
            with_freshness=False,
        )
        interval_s = ov.config.routing_interval_s(RouterKind.QUORUM)
        for boundary in range(1, 9):  # t = 15 ... 120 s; the bench stops at 45
            ov.run(interval_s)
            assert ov.sim.now == boundary * interval_s
            routers = [n.router for n in ov.nodes]
            assert sum(r.counters.get("failover_adoptions") for r in routers) == 0
            held = {r._fresh_client_indices().size for r in routers}
            # The first interval's last rows are still in flight at t = 15.
            assert held == {30} or (boundary == 1 and max(held) == 30)
            assert {
                len(r.grid.servers(r.me_idx, include_self=False)) for r in routers
            } == {30}

    def test_a_recovered_link_is_priced_before_the_next_tick(self):
        """Node 5 is cut off for a minute. When node 0's monitor sees the
        link again no rendezvous can recommend 5 yet (every row they hold
        says it is dead), so the one route is the direct link — costed
        from node 0's own row, which must not keep the link at ``inf``
        until the next routing tick."""
        plan = FaultPlan().node_outage(20.0, 80.0, [5])
        rng = np.random.default_rng(3)
        ov = build_overlay(
            trace=uniform_random_metric(9, rng),
            router=RouterKind.QUORUM,
            rng=rng,
            failures=plan.failure_table(9),
        )
        node = ov.nodes[0]
        router = node.router
        seen = []

        def link_up(j):
            since_tick = ov.sim.now - router.table.row_time[router.me_idx]
            router.on_link_up(j)
            seen.append((j, since_tick, router.route_to(j)))

        node.monitor.on_link_up = link_up
        ov.run(79.0)
        assert not router.route_to(5).usable
        ov.run(45.0)
        (j, since_tick, route), = seen
        assert j == 5
        assert 0.0 < since_tick < router.routing_interval_s  # between two ticks
        assert route.usable and route.hop == 5 and route.source == SOURCE_DIRECT

    def test_redundant_linkstate_fallback_available(self):
        """§4.2: a node can route via its clients' tables when its
        recommendations are stale."""
        ov = build(n=16, run_s=150.0)
        router = ov.nodes[0].router
        # Invalidate all recommendations; lookup should fall back.
        router.route_time[:] = -np.inf
        route = router.route_to(5)
        assert route.source in (SOURCE_REDUNDANT, SOURCE_DIRECT)
        assert route.usable

    def test_without_relay_no_post_failure_recommendation(self):
        """No temporary one-hop relays link state to a failover
        rendezvous (§4.1 footnote 8 is not modelled): Src loses its
        direct links to Dst and to everything in Dst's row and column,
        and Dst to everything in Src's, so no rendezvous can serve
        (Src, Dst) and Src hears no recommendation for Dst after the
        failure."""
        n, src, fail_at, seed = 16, 0, 150.0, 19
        trace = uniform_random_metric(n, np.random.default_rng(seed))
        probe = build_overlay(
            trace=trace,
            router=RouterKind.QUORUM,
            rng=np.random.default_rng(seed),
            with_freshness=False,
        )
        grid = probe.nodes[src].router.grid
        # A destination not sharing a row/column with src.
        dst = next(
            d
            for d in range(n - 1, 0, -1)
            if src not in grid.servers(d) and d not in grid.servers(src)
        )
        plan = FaultPlan().partition(fail_at, 1e12, (src,), (dst,))
        plan.partition(fail_at, 1e12, (src,), grid.servers(dst, include_self=False))
        plan.partition(fail_at, 1e12, (dst,), grid.servers(src, include_self=False))
        ov = build_overlay(
            trace=trace,
            router=RouterKind.QUORUM,
            rng=np.random.default_rng(seed),
            failures=plan.failure_table(n),
            with_freshness=False,
        )
        ov.run(fail_at + 150.0)
        assert float(ov.nodes[src].router.route_time[dst]) < fail_at + 30.0


class TestViewChange:
    def test_rebuild_on_join(self):
        # Underlay has 10 hosts; only 9 join the overlay initially.
        rng = np.random.default_rng(21)
        trace = uniform_random_metric(10, rng)
        ov = build_overlay(
            trace=trace,
            router=RouterKind.QUORUM,
            rng=rng,
            active_members=range(9),
        )
        ov.run(100.0)
        node = ov.nodes[0]
        old_view = node.router.view
        assert old_view.n == 9
        ov.join_node(9)
        ov.run(120.0)
        assert node.router.view.version > old_view.version
        assert node.router.view.n == 10
        assert node.router.grid.n == 10
        # The late joiner participates: it has routes and is routable.
        late = ov.nodes[9].route_to(0)
        assert late.usable
        assert ov.nodes[0].route_to(9).usable

    @pytest.mark.parametrize("plane", ["out_of_band", "in_band_deltas", "replicated_k3"])
    def test_joins_and_graceful_leaves_cause_no_remote_failover(self, plane, monkeypatch):
        """A view version carries the §4.1 evidence over only for the
        pairs that were default pairs already, and a joiner's rendezvous
        cannot hold its row for an interval: neither may read as a
        rendezvous failure. On a lossless underlay with joins and
        graceful leaves only, first-time joiners cause no adoption at
        all; the few that remain (24 / 24 / 29 here; 1057 / 329 / 348
        under the any-omission rule) are all *proximal* — a node that
        left and came back is held down by its row and column
        neighbours' link monitors until their next probe round, which is
        the monitor's verdict to fix, not a recommendation's."""
        config = {
            "out_of_band": OverlayConfig(),
            "in_band_deltas": OverlayConfig(membership=InBand(deltas=True)),
            "replicated_k3": scenario_config(k=3),
        }[plane]
        adoptions = []
        poll = FailoverManager.poll

        def recording_poll(self, now, up, sees_alive):
            result = poll(self, now, up, sees_alive)
            for dst, _ in result.adopted:
                proximal = not any(
                    up[dst if server == self.me else server]
                    for server in self.default_pair(dst)
                )
                adoptions.append((now, dst, proximal))
            return result

        monkeypatch.setattr(FailoverManager, "poll", recording_poll)
        n = 64
        for rejoins in (False, True):
            if rejoins:
                monkeypatch.setattr(churn_traces, "CRASH_FRACTION", 0.0)
                churn = ChurnTrace.poisson(
                    n=n, rate_per_s=0.1, duration_s=300.0, seed=3, warmup_s=45.0
                )
            else:
                # 16 first-time joiners in, 16 founders out, one per 8 s.
                events = [
                    ChurnEvent(45.0 + 8.0 * i, *(("join", 48 + i // 2) if i % 2 else ("leave", 16 + i // 2)))
                    for i in range(32)
                ]
                churn = ChurnTrace(
                    n=n, initial_active=tuple(range(48)), events=tuple(events), duration_s=300.0
                )
            assert churn.count("fail") == 0
            rng = np.random.default_rng(3)
            ov = build_overlay(
                trace=planetlab_like(n, rng, base_loss=0.0, lossy_fraction=0.0),
                router=RouterKind.QUORUM,
                rng=rng,
                config=config,
                with_freshness=False,
                active_members=churn.initial_active,
            )
            FaultPlan().add_churn(churn).install(ov)
            adoptions.clear()
            ov.run(360.0)
            survivors = churn.active_at_end()
            assert ov.nodes[survivors[0]].router.view.members == tuple(survivors)
            if not rejoins:
                assert adoptions == []
            assert [a for a in adoptions if not a[2]] == []

    @pytest.mark.parametrize("deltas", [True, False], ids=["deltas", "full_views"])
    def test_remote_failure_is_caught_under_churn_faster_than_the_timeout(self, deltas):
        """Both default rendezvous of (0, 12) lose their links to 12
        while a view version lands every 10 s, a quarter of the remote
        timeout. They stop recommending 12 once its row goes stale;
        node 0 must read that as "stopped" — they were covering 12 under
        the previous view — and fail over. Evidence wiped per view
        version never does: no cover under the new view, so no omission
        counts, and the timeout restarts before it can run out. Whether
        the versions arrive as deltas or as full views is a wire format:
        the router carries its evidence across either."""
        n = 22  # five columns at 21 and 22 members: only the tail moves
        plan = FaultPlan().partition(70.0, 400.0, [2, 10], [12])
        for k, t in enumerate(np.arange(60.0, 300.0, 10.0).tolist()):
            (plan.join_node if k % 2 else plan.leave_node)(t, 21)
        rng = np.random.default_rng(5)
        ov = build_overlay(
            trace=planetlab_like(n, rng, base_loss=0.0, lossy_fraction=0.0),
            router=RouterKind.QUORUM,
            rng=rng,
            config=OverlayConfig(membership=OutOfBand(deltas=deltas)),
            failures=plan.failure_table(n),
            with_freshness=False,
        )
        plan.install(ov)
        router = ov.nodes[0].router
        assert router.config.remote_timeout_s() > 3 * 10.0
        ov.run(65.0)
        assert router.failover.default_pair(12) == (2, 10)
        assert router.failover.active_failover(12) is None
        # The cut at 70 s; 12's row stays fresh at 2 and 10 for three
        # routing intervals, and their next messages leave it out.
        ov.run(70.0)
        assert router.view.version >= 7
        assert router.failover.active_failover(12) not in (None, 2, 10)
        assert router.route_to(12).usable
        ov.run(120.0)  # and it stays failed over through twelve more versions
        assert router.failover.active_failover(12) not in (None, 2, 10)

    def test_leave_shrinks_view(self):
        ov = build(n=9, run_s=60.0)
        ov.leave_node(8)
        ov.run(30.0)
        node = ov.nodes[0]
        assert node.router.view.n == 8
        assert node.router.grid.n == 8

    def test_stale_view_messages_dropped(self):
        ov = build(n=9, run_s=100.0)
        node = ov.nodes[0]
        from repro.net.packet import LinkStateMessage

        stale = LinkStateMessage(
            origin=1,
            row=LinkStateRow(1, np.zeros(9), np.ones(9, dtype=bool)),
            view_version=node.router.view.version - 1,
        )
        before = node.router.dropped_stale_view
        node.router.on_linkstate(stale, 1)
        assert node.router.dropped_stale_view == before + 1
