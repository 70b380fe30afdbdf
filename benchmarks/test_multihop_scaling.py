"""§3 multi-hop extension — all-pairs shortest paths in Θ(n√n log n).

Paper result: iterating the two-round protocol log(l) times finds
optimal routes of length <= l; all-pairs shortest paths cost
Θ(n√n log n) per node — asymptotically better than the Θ(n^2)
broadcast — and optimal 3-hop routes cost just twice the one-hop
communication.
"""

from conftest import published


def test_multihop_scaling():
    rows = published("multihop")

    assert all(r.routes_correct for r in rows)
    # Per-node multi-hop bytes grow ~ n^1.5 log n: strictly slower than
    # n^2 and faster than n^1.2.
    first, last = rows[0], rows[-1]
    growth = last.multihop_kb / first.multihop_kb
    n_ratio = last.n / first.n
    assert growth < n_ratio**2
    assert growth > n_ratio**1.2
    # The multi-hop run costs about its iteration count in one-hop
    # rounds (so "3-hop routes for twice the communication", l=4 being
    # two iterations).
    for r in rows:
        per_iteration = r.multihop_over_onehop / max(1, r.iterations)
        assert 0.5 < per_iteration < 2.5
