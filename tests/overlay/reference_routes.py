"""Route lookup, one destination at a time.

A test-only reference for ``QuorumRouter.route_to`` and ``route_vector``:
the §4.2 lookup order (a fresh recommendation, the redundant link-state
path through a client whose row the node holds, the direct path) with
the §7 cross-validation as one more step, in plain scalar code. It reads
the router's state and writes none of it: the §7 conflicts it finds are
counted into the ``counts`` dict it is handed.
"""

import numpy as np

from repro.overlay.router_base import (
    SOURCE_DIRECT,
    SOURCE_RECOMMENDATION,
    SOURCE_REDUNDANT,
    Route,
)


def link_up(router, view_idx):
    return router.monitor.is_up(int(router.view.member_ids[view_idx]))


def fresh_clients(router):
    fresh = router.table.fresh_rows(router.sim.now, router.config.rec_memory_s())
    return fresh[fresh != router.me_idx]


def estimate_cost(router, own, hop, dst):
    """The recommended path's cost: the first leg, plus the hop's row
    entry when the hop's row is fresh and prices ``dst`` finitely."""
    if hop == dst:
        return float(own[dst])
    first_leg = float(own[hop])
    if router.table.row_age(hop, router.sim.now) <= router.config.rec_memory_s():
        second = float(router.table.cost_row(hop)[dst])
    else:
        second = np.nan
    return first_leg + (second if np.isfinite(second) else 0.0)


def redundant_route(router, dst):
    """§4.2 fallback: the cheapest one-hop via a fresh client (not
    ``dst`` itself), or None."""
    fresh = fresh_clients(router)
    fresh = fresh[fresh != dst]
    if fresh.size == 0:
        return None
    own = router.table.cost_row(router.me_idx)
    via = own[fresh] + np.array([router.table.cost_row(int(i))[dst] for i in fresh])
    pos = int(np.argmin(via))
    cost = float(via[pos])
    if not np.isfinite(cost):
        return None
    return Route(dst=dst, hop=int(fresh[pos]), cost_ms=cost, source=SOURCE_REDUNDANT, age_s=0.0)


def cross_validated_hop(router, own, dst, primary, counts):
    """§7: when the displaced rendezvous' fresh recommendation disagrees,
    keep the cheaper of the two hops (a secondary over a down link never
    wins)."""
    secondary = int(router.route_hop2[dst])
    sec_age = router.sim.now - float(router.route_time2[dst])
    if secondary < 0 or sec_age > 2.0 * router.routing_interval_s:
        return primary
    if secondary == primary:
        return primary
    counts["rec_conflicts"] = counts.get("rec_conflicts", 0) + 1
    if secondary != dst and not link_up(router, secondary):
        return primary
    if estimate_cost(router, own, secondary, dst) < estimate_cost(router, own, primary, dst):
        counts["rec_conflicts_overridden"] = counts.get("rec_conflicts_overridden", 0) + 1
        return secondary
    return primary


def reference_route(router, dst, counts):
    """The route ``router.route_to(dst)`` must return."""
    if dst == router.me_idx:
        return Route(dst=dst, hop=dst, cost_ms=0.0, source=SOURCE_DIRECT, age_s=0.0)
    now = router.sim.now
    own = router.table.cost_row(router.me_idx)
    rec_age = now - float(router.route_time[dst])
    hop = int(router.route_hop[dst])
    rec_fresh = rec_age <= 2.0 * router.routing_interval_s and hop >= 0
    if rec_fresh and router.config.verify_recommendations:
        hop = cross_validated_hop(router, own, dst, hop, counts)
    if rec_fresh and (hop == dst or link_up(router, hop)):
        cost = estimate_cost(router, own, hop, dst)
        return Route(dst=dst, hop=hop, cost_ms=cost, source=SOURCE_RECOMMENDATION, age_s=rec_age)
    fallback = redundant_route(router, dst)
    if fallback is not None:
        return fallback
    if link_up(router, dst):
        return Route(dst=dst, hop=dst, cost_ms=float(own[dst]), source=SOURCE_DIRECT, age_s=0.0)
    return Route(dst=dst, hop=-1, cost_ms=np.inf, source=SOURCE_DIRECT, age_s=np.inf)


def best_one_hops(rows):
    """Round 2's min-plus over ``m`` clients' cost rows, one client
    against all of them at a time, without the kernel's symmetry:
    ``pair_hop[a, b]`` is the first ``h`` minimising ``rows[a, h] +
    rows[b, h]`` (0 on the diagonal), ``pair_ok[a, b]`` whether that
    minimum is finite. ``QuorumRouter._best_one_hops`` must return the
    same two arrays bit for bit."""
    m = rows.shape[0]
    pair_hop = np.zeros((m, m), dtype=np.int64)
    pair_ok = np.zeros((m, m), dtype=bool)
    for a in range(m):
        sums = rows[a] + rows
        pair_hop[a] = sums.argmin(axis=1)
        pair_ok[a] = np.isfinite(sums.min(axis=1))
    pair_hop[np.arange(m), np.arange(m)] = 0
    return pair_hop, pair_ok
