"""Figure 8 — CDF of concurrent link failures per node (140 nodes).

Paper result: almost all nodes average fewer than 40 concurrent link
failures; most nodes have good connectivity while a few are very poorly
connected (the poorly-connected node of Figure 14 averaged 44 with a
max of 123).
"""

import numpy as np
from conftest import published


def test_fig8_concurrent_failures():
    deployment = published("deployment")

    means = deployment.fig8_mean_per_node()
    # Almost all nodes below 40 on average.
    assert (means < 40).mean() > 0.9
    # Most nodes have good connectivity...
    assert np.median(means) < 15
    # ... but a few are much worse than the median.
    assert means.max() > 4 * np.median(means)
