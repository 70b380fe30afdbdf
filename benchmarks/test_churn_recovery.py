"""Churn workloads — disruption and recovery under dynamic membership.

Workload extension (not a paper figure): identical deterministic churn
traces are replayed against both routing algorithms, and a mass-failure
event crashes a quarter of the overlay at one instant. Both algorithms
must keep availability high under sustained churn and recover fully —
availability among survivors back to 100% — within the failure-detection
plus route-repair budget (one probing interval to detect, about two
routing intervals to repair).
"""

from conftest import published


def test_churn_comparison():
    result, _, _, _ = published("churn")

    assert len(result.rows) == 2
    for stats in result.rows:
        # Sustained churn must not collapse routing: overwhelmingly
        # available on average, and every disruption transient.
        assert stats.mean_availability > 0.97
        assert stats.min_availability > 0.90
        assert stats.disruption_max_s < 120.0


def test_mass_failure_recovery():
    _, result, _, _ = published("churn")

    runs = {(frac, s.router): s for frac, s in result.rows}
    for frac in (0.125, 0.25, 0.5):
        for router in ("quorum", "full-mesh"):
            stats = runs[frac, router]
            # Both algorithms survive the simultaneous crash...
            assert stats.recovered, f"{router} never recovered at p={frac}"
            # ...within detection (<= 1 probing interval + rapid probes)
            # plus repair (<= 2 routing intervals) plus sampling slack.
            assert stats.recovery_s <= 120.0
            # The dip is bounded: most pairs don't route through the dead.
            assert stats.min_availability > 0.9


def test_in_band_membership_reconverges():
    # The same Poisson churn on a 1%-loss underlay, with the view updates
    # on that wire: every divergence window closes, and availability
    # stays within a hair of the out-of-band plane's.
    _, _, _, result = published("churn")
    (_, out_of_band, _, _), (_, in_band, div, _) = result.rows
    assert div["windows"] > 0
    assert all(not row_div["open"] for _, _, row_div, _ in result.rows)
    assert in_band.mean_availability > out_of_band.mean_availability - 0.005
