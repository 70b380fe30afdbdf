"""Figure 12 — route freshness for all (src, dst) pairs (140 nodes).

Paper result: nodes typically receive an update for each destination
every ~8 seconds (two unsynchronized rendezvous per destination at a
15 s routing interval; same-row/column destinations are fresher still);
97% of the time the typical pair's freshness is under 12 s, and the
median pair's worst case over the run was 30 s.
"""

import numpy as np
from conftest import published


def test_fig12_freshness_all_pairs():
    deployment = published("deployment")

    n = deployment.n
    off = ~np.eye(n, dtype=bool)
    medians = deployment.freshness_stats["median"][off]
    p97 = deployment.freshness_stats["p97"][off]
    worst = deployment.freshness_stats["max"][off]

    r = 15.0  # quorum routing interval
    # Typical pair hears about its destination well within one routing
    # interval (paper: ~8 s).
    assert np.median(medians) < r
    # Typical pair's 97th percentile under ~2 routing intervals
    # (paper: under 12 s at r=15).
    assert np.median(p97) < 2 * r
    # Median pair's worst case over the whole run stays bounded
    # (paper: 30 s).
    assert np.median(worst) < 4 * r
    # Almost every pair heard something at least once.
    assert np.isfinite(medians).mean() > 0.99
