"""Round 2 keeps only the route state its configuration reads.

A default ``QuorumRouter`` holds three per-destination arrays (hop,
arrival time, sender); ``verify_recommendations`` adds the §7 secondary
candidate. Whatever is held must equal
``reference_recommendations.AllArraysOracle`` — one entry at a time, all
six values always — with the flag off and on and under any message
sequence, a view delta in the middle included; and the route queries
must not notice which arrays exist, and must agree with each other when
a hop's row prices the destination at ``inf`` or NaN.

Mutations these tests were checked against: maintaining the secondary
candidate when ``route_hop2 is None`` instead of ``is not None`` (the
verify guard the wrong way round — ``TypeError`` on the first displaced
entry by default, a secondary that never fills with the flag on).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from failover_state import last_cover
from reference_recommendations import AllArraysOracle

from repro.net.packet import RecommendationMessage
from repro.net.trace import uniform_random_metric
from repro.overlay.config import OverlayConfig, RouterKind
from repro.overlay.harness import build_overlay
from repro.overlay.linkstate import LinkStateRow
from repro.overlay.membership import ViewDelta
from repro.overlay.router_base import SOURCE_RECOMMENDATION

N = 10  # underlay nodes; the last one starts outside the view
OPTIONAL = ("route_hop2", "route_time2", "route_server2")


def quiet_router(verify, seed=5):
    """Node 0's router in an overlay where nothing else happens: every
    node is stopped, so ``ov.run`` only moves the clock."""
    rng = np.random.default_rng(seed)
    ov = build_overlay(
        trace=uniform_random_metric(N, rng),
        router=RouterKind.QUORUM,
        rng=rng,
        config=OverlayConfig(verify_recommendations=verify),
        with_freshness=False,
        active_members=range(N - 1),
    )
    for node in ov.nodes:
        node.stop()
    return ov, ov.nodes[0].router


def deliver(router, oracle, server, entries):
    """One message to the router and to the oracle; both must then hold
    the same routes, and the router must have seen every destination
    covered that the server is a default rendezvous for (the only
    covers a verdict reads without an adoption)."""
    now = router.sim.now
    msg = RecommendationMessage(
        origin=router.view.members[server],
        entries=entries,
        view_version=router.wire_view_version(),
    )
    router.on_recommendation(msg, msg.origin)
    covered = oracle.apply(server, entries, now)
    oracle.assert_router_matches(router)
    for dst in covered:
        if server in router.failover.default_pair(dst):
            assert last_cover(router.failover, server, dst) == now, (server, dst)


def change_view(router, oracle, leaver, joiner):
    view = router.view
    delta = ViewDelta(
        from_version=view.version,
        to_version=view.version + 1,
        joined=(joiner,) if joiner is not None else (),
        left=(view.members[leaver],),
    )
    after = delta.apply(view)
    moved_to = {
        old: after.position(member)
        for old, member in enumerate(view.members)
        if member in after
    }
    router.on_view_change(after)
    oracle.change_view(moved_to, after.n, router.me_idx)
    oracle.assert_router_matches(router)


@st.composite
def message(draw, n, me):
    """``(server, entries)``: half the time what
    a rendezvous sends (ascending, in range, not me), half the time
    anything — out of range, about me, repeated, unordered."""
    server = draw(st.integers(1, n - 1))
    if draw(st.booleans()):
        dsts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=n)))
        entries = [(d, draw(st.integers(0, n - 1))) for d in dsts]
    else:
        position = st.integers(-2, n + 1)
        entries = draw(st.lists(st.tuples(position, position), max_size=2 * n))
    return server, entries


@pytest.mark.parametrize("verify", (False, True))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_held_route_state_equals_the_all_arrays_oracle(verify, data):
    ov, router = quiet_router(verify)
    oracle = AllArraysOracle(router.view.n, router.me_idx)
    view_changes_at = data.draw(st.sets(st.integers(0, 11), max_size=2), label="deltas")
    joiner = N - 1
    for step in range(data.draw(st.integers(1, 12), label="steps")):
        ov.run(data.draw(st.sampled_from((0.0, 0.5, 16.0, 31.0)), label="dt"))
        n = router.view.n
        if step in view_changes_at and n > 4:
            leaver = data.draw(st.integers(1, n - 1), label="leaver")
            change_view(router, oracle, leaver, joiner)
            joiner = None
            n = router.view.n
        server, entries = data.draw(message(n, router.me_idx), label="message")
        deliver(router, oracle, server, entries)
    for name in OPTIONAL:
        assert (getattr(router, name) is not None) == verify, name

    # Rows held for some hops price some destinations at inf or NaN: the
    # estimate of a recommended route adds the hop's entry only where it
    # is finite, so usability is the first leg's either way.
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="rows"))
    hops_with_rows = data.draw(st.sets(st.integers(0, n - 1), max_size=n), label="held")
    for h in sorted(hops_with_rows - {router.me_idx}):
        latency = rng.uniform(5.0, 300.0, n)
        poisoned = rng.random(n) < 0.5
        latency[poisoned] = rng.choice([np.inf, np.nan], size=int(poisoned.sum()))
        row = LinkStateRow(h, latency, np.ones(n, dtype=bool))
        router.table.update_row(h, row, router.sim.now)

    # Route queries see the oracle's routes ...
    now = router.sim.now
    routes = [router.route_to(dst) for dst in range(n)]
    hops, usable = router.route_vector()
    for dst, route in enumerate(routes):
        assert (hops[dst], usable[dst]) == (route.hop, route.usable), dst
        fresh = now - oracle.time[dst] <= 2.0 * router.routing_interval_s
        if dst != router.me_idx and oracle.hop[dst] >= 0 and fresh and not verify:
            # (every link is up: nothing has been probed, let alone failed)
            assert route.source == SOURCE_RECOMMENDATION, dst
            assert route.hop == oracle.hop[dst], dst
    # ... and read no array their configuration does not name: handed
    # all six, they answer the same.
    oracle.install_all_arrays(router)
    assert [router.route_to(dst) for dst in range(n)] == routes
    again = router.route_vector()
    assert again[0].tolist() == hops.tolist() and again[1].tolist() == usable.tolist()


def test_a_default_router_holds_three_route_arrays():
    ov, router = quiet_router(verify=False)
    for name in OPTIONAL:
        assert getattr(router, name) is None, name
    for name in ("route_hop", "route_time", "route_server"):
        assert getattr(router, name).shape == (router.view.n,), name
    # ... through a view delta and a full rebuild alike.
    change_view(router, AllArraysOracle(router.view.n, router.me_idx), 3, N - 1)
    view = router.view
    router.forget_view()
    router.on_view_change(view)
    for name in OPTIONAL:
        assert getattr(router, name) is None, name


def test_a_displaced_route_is_kept_only_for_cross_validation():
    for verify in (False, True):
        ov, router = quiet_router(verify=verify)
        oracle = AllArraysOracle(router.view.n, router.me_idx)
        deliver(router, oracle, 1, [(3, 4)])
        deliver(router, oracle, 2, [(3, 5)])
        assert oracle.hop2[3] == 4 and oracle.server2[3] == 1
        if verify:
            assert router.route_hop2[3] == 4 and router.route_server2[3] == 1
        else:
            assert router.route_hop2 is None
