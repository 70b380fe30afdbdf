"""Churn workloads — disruption and recovery under dynamic membership.

Workload extension (not a paper figure): identical deterministic churn
traces are replayed against both routing algorithms, and a mass-failure
event crashes a quarter of the overlay at one instant. Both algorithms
must keep availability high under sustained churn and recover fully —
availability among survivors back to 100% — within the failure-detection
plus route-repair budget (one probing interval to detect, about two
routing intervals to repair).
"""

from conftest import emit

from repro.experiments.churn import (
    run_churn_comparison,
    run_mass_failure_sweep,
)


def test_churn_comparison(benchmark, results_dir):
    result = benchmark.pedantic(
        run_churn_comparison,
        kwargs={"n": 64, "rate_per_s": 0.05, "duration_s": 300.0, "seed": 42},
        rounds=1,
        iterations=1,
    )
    emit(results_dir, "table_churn_comparison", result.format_table())

    assert len(result.rows) == 2
    for stats in result.rows:
        # Sustained churn must not collapse routing: overwhelmingly
        # available on average, and every disruption transient.
        assert stats.mean_availability > 0.97
        assert stats.min_availability > 0.90
        assert stats.disruption_max_s < 120.0


def test_mass_failure_recovery(benchmark, results_dir):
    # Same parameters as the CLI default, so both producers of this
    # results file emit identical content.
    result = benchmark.pedantic(
        run_mass_failure_sweep,
        kwargs={"n": 64, "fractions": (0.125, 0.25, 0.5), "seed": 42},
        rounds=1,
        iterations=1,
    )
    emit(results_dir, "table_churn_mass_failure", result.format_table())

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
