"""§2 motivation — random intermediaries (SOSR) vs optimal one-hop.

Paper results reproduced: (a) picking from four random intermediaries
suffices for *availability* (SOSR), and overlays improve availability
severalfold over direct paths; (b) random intermediaries work poorly for
*latency* — "97% of the time, a randomly chosen intermediary will not
significantly improve latency" — so the best path must be found
deliberately, which is the quorum protocol's job.
"""

from conftest import published


def test_related_work_sosr():
    avail, latency = published("sosr")

    # Availability: overlays beat the direct path severalfold; random-4
    # captures nearly all of the optimal policy's availability gain.
    assert avail.improvement_factor("random_4") > 3.0
    assert avail.availability["random_4"] > 0.99
    assert (
        avail.availability["best_one_hop"] >= avail.availability["random_4"]
    )
    # Latency: a single random intermediary almost never repairs a
    # high-latency pair; even 4 random picks recover well under half of
    # what the optimal one-hop does.
    assert latency.repaired["random_1"] < 0.10
    assert latency.repaired["random_4"] < 0.5 * latency.repaired["best_one_hop"]
