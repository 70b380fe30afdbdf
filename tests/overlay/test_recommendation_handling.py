"""Recommendation-message application: delivery order and batch semantics.

The last-delivered recommendation wins, whenever it was computed: an
out-of-order entry installs, refreshes the route's freshness window and
counts as §4.1 coverage for failover omission detection.
"""

import numpy as np
import pytest
from failover_state import last_cover
from reference_recommendations import AllArraysOracle

from repro.net.packet import RecommendationMessage
from repro.net.trace import planetlab_like, uniform_random_metric
from repro.overlay.config import OverlayConfig, RouterKind
from repro.overlay.harness import build_overlay
from repro.overlay.router_quorum import QuorumRouter


def make_router(verify=False, n=9, seed=4):
    """The secondary candidate (``route_hop2`` / ``time2`` / ``server2``)
    exists only with ``verify``: a test that reads one asks for it here."""
    rng = np.random.default_rng(seed)
    ov = build_overlay(
        trace=uniform_random_metric(n, rng),
        router=RouterKind.QUORUM,
        rng=rng,
        config=OverlayConfig(verify_recommendations=verify),
        with_freshness=False,
    )
    return ov, ov.nodes[0].router


def rec(origin, entries, view):
    return RecommendationMessage(origin=origin, entries=entries, view_version=view.version)


class TestOutOfOrderDelivery:
    def test_out_of_order_rec_overwrites_without_timestamps(self):
        ov, router = make_router()
        view = router.view
        newer = rec(view.members[1], [(5, 3)], view)
        older = rec(view.members[2], [(5, 7)], view)
        router.on_recommendation(newer, view.members[1])
        router.on_recommendation(older, view.members[2])  # delivered later, computed earlier
        assert router.route_hop[5] == 7  # last-delivered wins

    def test_out_of_order_batch_overwrites_on_the_vector_path(self):
        ov, router = make_router()
        view = router.view
        src_a, src_b = view.members[1], view.members[2]
        router.on_recommendation(rec(src_a, [(5, 3), (6, 3), (7, 3)], view), src_a)
        ov.run(1.0)
        router.on_recommendation(rec(src_b, [(7, 4), (5, 4)], view), src_b)
        assert list(router.route_hop[5:8]) == [4, 3, 4]
        assert router.route_server[5] == router.route_server[7] == view.index_of(src_b)
        assert float(router.route_time[5]) == float(router.route_time[7]) == ov.sim.now
        assert float(router.route_time[6]) < ov.sim.now

    def test_stale_entry_still_counts_as_coverage(self):
        ov, router = make_router()
        view = router.view
        dst = 8  # its default rendezvous (on the 3x3 grid) are 2 and 6
        src_a, src_b = view.members[1], view.members[2]
        src_b_idx = view.index_of(src_b)
        assert src_b_idx in router.failover.default_pair(dst)
        router.on_recommendation(rec(src_a, [(dst, 4)], view), src_a)
        ov.run(1.0)
        router.on_recommendation(rec(src_b, [(dst, 5)], view), src_b)
        # The rendezvous demonstrably recommends dst: no omission signal.
        assert last_cover(router.failover, src_b_idx, dst) == ov.sim.now

    def test_newer_entry_installs_and_refreshes(self):
        ov, router = make_router(verify=True)
        view = router.view
        dst = 3
        src_a, src_b = view.members[1], view.members[2]
        router.on_recommendation(rec(src_a, [(dst, 4)], view), src_a)
        ov.run(1.0)
        router.on_recommendation(rec(src_b, [(dst, 5)], view), src_b)
        assert router.route_hop[dst] == 5
        assert float(router.route_time[dst]) == ov.sim.now
        # The displaced rendezvous' opinion is kept as the secondary.
        assert router.route_hop2[dst] == 4
        assert router.route_server2[dst] == view.index_of(src_a)


class TestBatchApplication:
    def test_duplicate_destinations_last_wins(self):
        ov, router = make_router()
        view = router.view
        src = view.members[1]
        msg = rec(src, [(3, 4), (3, 5), (6, 7), (3, 8)], view)
        router.on_recommendation(msg, src)
        assert router.route_hop[3] == 8  # sequential last-wins
        assert router.route_hop[6] == 7

    def test_out_of_range_and_self_entries_ignored(self):
        ov, router = make_router()
        view = router.view
        src = view.members[1]
        me = router.me_idx
        msg = rec(src, [(-1, 2), (3, view.n), (view.n, 2), (me, 4), (5, 6)], view)
        router.on_recommendation(msg, src)
        assert router.route_hop[5] == 6
        assert router.route_hop[me] == -1
        assert router.route_hop[3] == -1

    @pytest.mark.parametrize("verify", (False, True))
    def test_repeated_destinations_match_the_oracle(self, verify):
        # Batches that repeat a destination, ascending or not, leave the
        # route state of one entry at a time: the last entry wins, and a
        # rendezvous displaced by the first of a run stays displaced.
        ov, router = make_router(verify=verify, seed=6)
        for node in ov.nodes:
            node.stop()  # ov.run only moves the clock
        view = router.view
        oracle = AllArraysOracle(view.n, router.me_idx)
        batches = [
            (1, [(3, 4), (5, 2), (3, 7), (7, 7)], 0.0),
            (2, [(3, 6), (5, 5), (5, 1)], 1.0),
            (1, [(7, 2), (3, 1), (7, 5), (3, 2), (7, 8)], 2.0),
            (2, [(7, 3), (1, 5), (5, 8), (3, 3), (1, 1), (5, 4)], 3.0),
        ]
        for server, entries, dt in batches:
            ov.run(dt)
            src = view.members[server]
            router.on_recommendation(rec(src, entries, view), src)
            oracle.apply(server, entries, ov.sim.now)
            oracle.assert_router_matches(router)
        assert (router.route_hop2 is not None) == verify

    def test_a_standard_senders_messages_take_the_vector_path(self, monkeypatch):
        """Three routing intervals of a lossless n = 25 quorum overlay:
        every message's destination and hop columns are contiguous (cut
        from one ``(2, total)`` entry array per sender), and none repeats
        a destination."""
        rng = np.random.default_rng(5)
        ov = build_overlay(
            trace=planetlab_like(25, rng, base_loss=0.0, lossy_fraction=0.0),
            router=RouterKind.QUORUM,
            rng=rng,
            config=OverlayConfig(),
            with_freshness=False,
        )
        delivered = []
        on_recommendation = QuorumRouter.on_recommendation

        def recorded(self, msg, src):
            delivered.append(msg)
            return on_recommendation(self, msg, src)

        monkeypatch.setattr(QuorumRouter, "on_recommendation", recorded)
        ov.run(3 * ov.config.routing_interval_s(RouterKind.QUORUM))
        assert len(delivered) > 25
        for msg in delivered:
            assert msg.entries[:, 0].flags.c_contiguous
            assert msg.entries[:, 1].flags.c_contiguous
            assert len(set(msg.entries[:, 0].tolist())) == len(msg.entries)
