"""Figure 11 — destinations with double rendezvous failures (140 nodes).

Paper result: the median node experiences almost no double failures, and
98% of nodes have fewer than 10 concurrent double failures on average —
two default rendezvous per destination are enough redundancy for the
vast majority of pairs.
"""

import numpy as np
from conftest import published


def test_fig11_double_failures():
    deployment = published("deployment")

    means = deployment.fig11_mean_per_node()
    # Median node: almost no double failures.
    assert np.median(means) < 3.0
    # The vast majority of nodes average a small count (paper: 98% < 10;
    # our injected environment is somewhat harsher).
    assert (means < 10).mean() > 0.85
    # Double failures are far rarer than single link failures.
    assert means.mean() < 0.5 * deployment.fig8_mean_per_node().mean() + 1.0
