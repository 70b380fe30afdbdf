"""Figures 13/14 — freshness from a well- vs poorly-connected node.

Paper result: a well-connected node (5.2 avg concurrent failures)
receives recommendations for every destination about every 8 s, with
97% of destinations updated within 30 s; even a poorly connected node
(44 avg / 123 max concurrent failures) receives updates for nearly all
destinations within a minute, 97% of the time.
"""

import numpy as np
import pytest
from conftest import published


def test_fig13_14_freshness_by_connectivity():
    deployment = published("deployment")
    well, poor = deployment.well_and_poorly_connected()

    means = deployment.fig8_mean_per_node()
    assert means[poor] > 3 * means[well] + 1

    def stats_for(node):
        med = np.delete(deployment.freshness_stats["median"][node], node)
        p97 = np.delete(deployment.freshness_stats["p97"][node], node)
        return med, p97

    well_med, well_p97 = stats_for(well)
    poor_med, poor_p97 = stats_for(poor)

    # Well-connected node: typical destination updated within ~one
    # routing interval; 97% of the time within ~30 s.
    assert np.median(well_med) < 15.0
    assert np.median(well_p97) < 30.0
    # Poorly connected node is worse but still hears about nearly all
    # destinations within a minute 97% of the time.
    finite = np.isfinite(poor_p97)
    assert finite.mean() > 0.9
    assert (poor_p97[finite] < 60.0).mean() > 0.9
    # And the poorly connected node is indeed staler than the good one
    # in the tail, which is what the paper's two figures contrast.
    assert np.median(poor_p97[finite]) >= np.median(well_p97)


@pytest.mark.xfail(
    strict=False,
    reason=(
        "seed-dependent in this emulation: held on 2 of 6 seeds before the "
        "section 4.1 re-baseline (seed 42 by 0.04 s) and on 1 of 6 after; the "
        "poorly connected node hears ~540 extra recommendation messages from "
        "the ~14 failover servers it holds (results/README.md, ROADMAP item 3)"
    ),
)
def test_fig14_poorly_connected_node_is_staler_at_the_median():
    """The other half of the paper's Fig. 13/14 contrast: the typical
    destination too is staler from the poorly connected node."""
    deployment = published("deployment")
    well, poor = deployment.well_and_poorly_connected()
    median = deployment.freshness_stats["median"]
    poor_med = np.delete(median[poor], poor)
    well_med = np.delete(median[well], well)
    assert np.median(poor_med[np.isfinite(poor_med)]) >= np.median(well_med)
