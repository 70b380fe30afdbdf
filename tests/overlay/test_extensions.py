"""Tests for the paper's optional extensions wired into the overlay.

* timestamped recommendations (§6.2.2 footnote 11),
* relay failover through temporary one-hops (§4.1 footnote 8).
"""

import numpy as np

from repro.net.failures import FailureTable, OutageSchedule
from repro.net.packet import (
    LinkStateMessage,
    RecommendationMessage,
    RelayEnvelope,
)
from repro.net.trace import uniform_random_metric
from repro.overlay.config import OverlayConfig, RouterKind
from repro.overlay.harness import build_overlay
from repro.overlay.linkstate import LinkStateRow


class TestTimestampedRecommendations:
    def test_wire_cost(self):
        plain = RecommendationMessage(origin=0, entries=[(1, 2)] * 10)
        stamped = RecommendationMessage(
            origin=0, entries=[(1, 2)] * 10, timestamped=True
        )
        assert stamped.wire_size() == plain.wire_size() + 2 * 10

    def _router(self, timestamped):
        config = OverlayConfig(timestamped_recommendations=timestamped)
        rng = np.random.default_rng(3)
        trace = uniform_random_metric(9, rng)
        ov = build_overlay(
            trace=trace, router=RouterKind.QUORUM, rng=rng, config=config
        )
        ov.run(60.0)
        return ov.nodes[0].router, ov

    def test_out_of_order_rec_ignored_with_timestamps(self):
        router, ov = self._router(timestamped=True)
        view = router.view
        newer = RecommendationMessage(
            origin=1, entries=[(5, 3)], view_version=view.version, sent_at=100.0
        )
        older = RecommendationMessage(
            origin=2, entries=[(5, 7)], view_version=view.version, sent_at=90.0
        )
        router.on_recommendation(newer, 1)
        router.on_recommendation(older, 2)  # delivered later, computed earlier
        assert router.route_hop[5] == 3  # newer computation kept

    def test_out_of_order_rec_overwrites_without_timestamps(self):
        router, ov = self._router(timestamped=False)
        view = router.view
        newer = RecommendationMessage(
            origin=1, entries=[(5, 3)], view_version=view.version, sent_at=100.0
        )
        older = RecommendationMessage(
            origin=2, entries=[(5, 7)], view_version=view.version, sent_at=90.0
        )
        router.on_recommendation(newer, 1)
        router.on_recommendation(older, 2)
        assert router.route_hop[5] == 7  # last-delivered wins (baseline)


def _row10():
    return LinkStateRow(0, np.zeros(10), np.ones(10, dtype=bool), np.zeros(10))


class TestRelayEnvelope:
    def test_wire_cost(self):
        inner = LinkStateMessage(origin=0, row=_row10())
        env = RelayEnvelope(origin=0, inner=inner, target=5)
        assert env.wire_size() == inner.wire_size() + 4
        assert env.kind == inner.kind

    def test_relayed_linkstate_carries_extra_id(self):
        base = LinkStateMessage(origin=0, row=_row10())
        relayed = LinkStateMessage(origin=0, row=_row10(), relay_via=3)
        assert relayed.wire_size() == base.wire_size() + 2


class TestRelayFailover:
    """Footnote 8: Src loses its direct links to *everything* in the
    destination's row and column (and the destination). Without the
    relay extension no rendezvous can serve (Src, Dst); with it, link
    state travels through a temporary one-hop and recommendations come
    back the same way."""

    N = 16
    SRC = 0
    FAIL_AT = 150.0

    def _build(self, relay: bool, seed=19):
        rng = np.random.default_rng(seed)
        trace = uniform_random_metric(self.N, rng)
        probe = build_overlay(
            trace=trace,
            router=RouterKind.QUORUM,
            rng=np.random.default_rng(seed),
            with_freshness=False,
        )
        router = probe.nodes[self.SRC].router
        grid = router.grid
        # A destination not sharing a row/column with SRC.
        dst = next(
            d
            for d in range(self.N - 1, 0, -1)
            if self.SRC not in grid.servers(d) and d not in grid.servers(self.SRC)
        )
        forever = OutageSchedule([(self.FAIL_AT, 1e12)])
        links = {tuple(sorted((self.SRC, dst))): forever}
        # Cut Src from everything in Dst's row/column AND Dst from
        # everything in Src's row/column: otherwise Dst's own symmetric
        # §4.1 failover (its failover rendezvous lives in Src's row or
        # column and can reach Src directly) restores coverage without
        # any relaying.
        for member in grid.servers(dst, include_self=False):
            links[tuple(sorted((self.SRC, member)))] = forever
        for member in grid.servers(self.SRC, include_self=False):
            links[tuple(sorted((dst, member)))] = forever
        failures = FailureTable(n=self.N, link_schedules=links)
        config = OverlayConfig(relay_failover=relay)
        overlay = build_overlay(
            trace=trace,
            router=RouterKind.QUORUM,
            rng=np.random.default_rng(seed),
            failures=failures,
            config=config,
            with_freshness=False,
        )
        return overlay, dst

    def test_without_relay_no_post_failure_recommendation(self):
        overlay, dst = self._build(relay=False)
        overlay.run(self.FAIL_AT + 150.0)
        router = overlay.nodes[self.SRC].router
        assert float(router.route_time[dst]) < self.FAIL_AT + 30.0

    def test_with_relay_recommendations_recover(self):
        overlay, dst = self._build(relay=True)
        overlay.run(self.FAIL_AT + 150.0)
        router = overlay.nodes[self.SRC].router
        # Recommendations for dst resumed through the relay path.
        assert float(router.route_time[dst]) > self.FAIL_AT + 30.0
        assert router.counters.get("relay_linkstate_sent") > 0
        route = overlay.nodes[self.SRC].route_to(dst)
        assert route.usable
        # And the route actually works on the broken topology.
        now = overlay.sim.now
        hop = route.hop
        assert hop not in (self.SRC, dst)
        assert overlay.topology.link_is_up(self.SRC, hop, now)
        assert overlay.topology.link_is_up(hop, dst, now)

    def test_relay_rendezvous_sends_back_through_relay(self):
        overlay, dst = self._build(relay=True)
        overlay.run(self.FAIL_AT + 150.0)
        total_relay_recs = sum(
            node.router.counters.get("relay_recommendation_sent")
            for node in overlay.nodes
        )
        assert total_relay_recs > 0
