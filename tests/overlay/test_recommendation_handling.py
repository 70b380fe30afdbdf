"""Recommendation-message application: footnote 11 and batch semantics.

Covers the PR-4 fix: with timestamped recommendations an out-of-order
*stale* entry must neither clobber the newer hop (pre-existing
behavior) nor refresh the route's freshness window (the bug — stale
information is not evidence the installed hop still holds), while still
counting as §4.1 coverage for failover omission detection.
"""

import numpy as np

from repro.net.packet import RecommendationMessage
from repro.net.trace import uniform_random_metric
from repro.overlay.config import OverlayConfig, RouterKind
from repro.overlay.harness import build_overlay


def make_router(timestamped=True, verify=False, n=9, seed=4):
    """``route_sent_at`` exists only with ``timestamped``, the secondary
    candidate (``route_hop2`` / ``time2`` / ``server2``) only with
    ``verify``: a test that reads one asks for it here."""
    rng = np.random.default_rng(seed)
    ov = build_overlay(
        trace=uniform_random_metric(n, rng),
        router=RouterKind.QUORUM,
        rng=rng,
        config=OverlayConfig(
            timestamped_recommendations=timestamped, verify_recommendations=verify
        ),
        with_freshness=False,
    )
    return ov, ov.nodes[0].router


def rec(origin, entries, view, sent_at, timestamped=True):
    return RecommendationMessage(
        origin=origin,
        entries=entries,
        view_version=view.version,
        sent_at=sent_at,
        timestamped=timestamped,
    )


class TestFootnote11Staleness:
    def test_stale_entry_does_not_extend_freshness(self):
        ov, router = make_router(timestamped=True)
        view = router.view
        dst, hop_new, hop_old = 3, 4, 5
        src_a, src_b = view.members[1], view.members[2]

        router.on_recommendation(rec(src_a, [(dst, hop_new)], view, sent_at=0.0), src_a)
        t_installed = float(router.route_time[dst])
        assert router.route_hop[dst] == hop_new

        ov.run(1.0)  # later arrival of an older-computed message
        stale = rec(src_b, [(dst, hop_old)], view, sent_at=-5.0)
        router.on_recommendation(stale, src_b)

        # The newer hop survives (pre-existing footnote-11 behavior)...
        assert router.route_hop[dst] == hop_new
        assert router.route_sent_at[dst] == 0.0
        # ...and the freshness window is NOT silently extended (PR-4
        # fix: route_time used to be refreshed before the staleness
        # check, keeping a possibly-broken hop "fresh" forever).
        assert float(router.route_time[dst]) == t_installed

    def test_stale_entry_still_counts_as_coverage(self):
        ov, router = make_router(timestamped=True)
        view = router.view
        dst = 8  # its default rendezvous (on the 3x3 grid) are 2 and 6
        src_a, src_b = view.members[1], view.members[2]
        src_b_idx = view.index_of(src_b)
        assert src_b_idx in router.failover.default_pair(dst)
        router.on_recommendation(rec(src_a, [(dst, 4)], view, sent_at=0.0), src_a)
        ov.run(1.0)
        router.on_recommendation(rec(src_b, [(dst, 5)], view, sent_at=-5.0), src_b)
        # The rendezvous demonstrably recommends dst: no omission signal.
        assert router.failover.last_cover(src_b_idx, dst) == ov.sim.now

    def test_newer_entry_installs_and_refreshes(self):
        ov, router = make_router(timestamped=True, verify=True)
        view = router.view
        dst = 3
        src_a, src_b = view.members[1], view.members[2]
        router.on_recommendation(rec(src_a, [(dst, 4)], view, sent_at=0.0), src_a)
        ov.run(1.0)
        router.on_recommendation(rec(src_b, [(dst, 5)], view, sent_at=0.5), src_b)
        assert router.route_hop[dst] == 5
        assert router.route_sent_at[dst] == 0.5
        assert float(router.route_time[dst]) == ov.sim.now
        # The displaced rendezvous' opinion is kept as the secondary.
        assert router.route_hop2[dst] == 4
        assert router.route_server2[dst] == view.index_of(src_a)


class TestBatchApplication:
    def test_duplicate_destinations_last_wins(self):
        ov, router = make_router(timestamped=False)
        view = router.view
        src = view.members[1]
        msg = rec(src, [(3, 4), (3, 5), (6, 7), (3, 8)], view, 0.0, timestamped=False)
        router.on_recommendation(msg, src)
        assert router.route_hop[3] == 8  # sequential last-wins
        assert router.route_hop[6] == 7

    def test_out_of_range_and_self_entries_ignored(self):
        ov, router = make_router(timestamped=False)
        view = router.view
        src = view.members[1]
        me = router.me_idx
        msg = rec(
            src,
            [(-1, 2), (3, view.n), (view.n, 2), (me, 4), (5, 6)],
            view,
            0.0,
            timestamped=False,
        )
        router.on_recommendation(msg, src)
        assert router.route_hop[5] == 6
        assert router.route_hop[me] == -1
        assert router.route_hop[3] == -1

    def test_vector_and_scalar_paths_agree(self):
        # Same entry batch (unique dsts) applied via the vector path on
        # one router and forced through the scalar path on another must
        # leave identical route state.
        ov_a, ra = make_router(timestamped=True, verify=True, seed=6)
        ov_b, rb = make_router(timestamped=True, verify=True, seed=6)
        view = ra.view
        src1, src2 = view.members[1], view.members[2]
        batches = [
            (src1, [(3, 4), (5, 2), (7, 7)], 0.0),
            (src2, [(3, 6), (5, 5)], -1.0),  # older-computed
            (src1, [(3, 1), (7, 2)], 2.0),
        ]
        for src, entries, sent_at in batches:
            ra.on_recommendation(rec(src, entries, view, sent_at), src)
            dsts = np.array([d for d, _ in entries])
            hops = np.array([h for _, h in entries])
            rb._apply_entries_scalar(dsts, hops, view.index_of(src), sent_at, rb.sim.now)
        for arr in (
            "route_hop",
            "route_time",
            "route_sent_at",
            "route_server",
            "route_hop2",
            "route_time2",
            "route_server2",
        ):
            assert np.array_equal(getattr(ra, arr), getattr(rb, arr)), arr
