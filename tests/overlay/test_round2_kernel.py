"""Round 2's min-plus kernel against the loop it replaced.

``QuorumRouter._best_one_hops`` sums each pair of client rows into one
scratch buffer, takes the argmin straight into ``pair_hop`` and reads
"the best one-hop exists" from one boolean product of the finite masks.
On rows in ``LinkStateRow``'s normal form (entries ``>= 0`` or ``inf``)
that must be the old per-row loop's result bit for bit: the same
``pair_hop`` (first minimum on ties) and the same entries sent. The
rows below draw from a handful of values so that ties are common, and
include ``inf`` entries and dead rows (``inf`` but for the own ``0``, or
``inf`` throughout).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.overlay.router_quorum import QuorumRouter

VALUES = (0.0, 1.0, 2.0, 2.0, 7.5, np.inf)


def old_loop(rows):
    """The round-2 kernel as it was: a fresh sum per row, the argmin
    gathered back into a cost matrix, reachability from its finiteness."""
    m = rows.shape[0]
    pair_hop = np.zeros((m, m), dtype=np.int64)
    pair_cost = np.full((m, m), np.inf)
    positions = np.arange(m)
    for i in range(m - 1):
        totals = rows[i] + rows[i + 1 :]
        best_h = totals.argmin(axis=1)
        pair_hop[i, i + 1 :] = best_h
        pair_cost[i, i + 1 :] = totals[positions[: m - 1 - i], best_h]
    pair_hop += pair_hop.T
    pair_ok = np.isfinite(pair_cost)
    pair_ok |= pair_ok.T
    return pair_hop, pair_ok


@st.composite
def clients(draw):
    """Covered client positions and their cost rows over a view of ``n``."""
    n = draw(st.integers(2, 12))
    m = draw(st.integers(2, n))
    ids = np.array(sorted(draw(st.sets(st.integers(0, n - 1), min_size=m, max_size=m))))
    cells = draw(st.lists(st.sampled_from(VALUES), min_size=m * n, max_size=m * n))
    rows = np.array(cells).reshape(m, n)
    rows[np.arange(m), ids] = 0.0  # a row costs 0 to its own node
    for i, state in enumerate(draw(st.lists(st.sampled_from("lld-"), min_size=m, max_size=m))):
        if state == "d":  # dead: every link down, the own 0 kept
            rows[i] = np.inf
            rows[i, ids[i]] = 0.0
        elif state == "-":  # inf throughout
            rows[i] = np.inf
    return ids, rows


@settings(max_examples=300, deadline=None)
@given(clients())
def test_kernel_equals_the_old_loop(case):
    ids, rows = case
    hop, ok = QuorumRouter._best_one_hops(rows)
    old_hop, old_ok = old_loop(rows)
    assert hop.dtype == old_hop.dtype and np.array_equal(hop, old_hop)
    off = ~np.eye(len(ids), dtype=bool)
    assert np.array_equal(ok[off], old_ok[off])
    table, keep = QuorumRouter._entry_table(ids, hop, ok)
    old_table, old_keep = QuorumRouter._entry_table(ids, old_hop, old_ok)
    assert np.array_equal(keep, old_keep)
    sent = np.compress(keep.reshape(-1), table.reshape(2, -1), axis=1)
    old_sent = np.compress(old_keep.reshape(-1), old_table.reshape(2, -1), axis=1)
    assert np.array_equal(sent, old_sent)


def test_all_ties_pick_the_first_hop():
    rows = np.zeros((3, 5))
    hop, ok = QuorumRouter._best_one_hops(rows)
    assert not hop.any() and ok.all()
