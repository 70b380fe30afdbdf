"""Figure 1 — RTT of direct vs one-hop paths for high-latency pairs.

Paper result (359 PlanetLab hosts, Nov 2005; pairs with direct RTT
> 400 ms): the best one-hop path brings >= 45% of the pairs under
400 ms; excluding the top 3% of intermediates drops that to ~30%;
excluding the top 50% leaves almost nothing — random intermediaries
rarely help for latency.
"""

from conftest import published


def test_fig1_onehop_latency_cdf():
    result = published("fig1")
    frac = result.fraction_improved_below(400.0)

    # Shape assertions from the paper's reading of the figure.
    assert frac["point_to_point"] == 0.0
    assert frac["best_one_hop"] > 0.30
    assert frac["excluding_top_3pct"] < frac["best_one_hop"]
    assert frac["excluding_top_50pct"] < 0.15
    assert result.num_high_latency_pairs > 500
