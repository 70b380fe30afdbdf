"""Tests for the §2 related-work comparison experiment."""

import pytest

from repro.errors import ConfigError
from repro.experiments import related_work
from repro.experiments.related_work import (
    format_related_work,
    run_availability_comparison,
    run_latency_repair_comparison,
)


class TestAvailability:
    @pytest.fixture(scope="class")
    def result(self):
        return run_availability_comparison(n=49, num_times=15, num_pairs=200)

    def test_policies_present(self, result):
        assert set(result.availability) == {
            "direct",
            "random_1",
            "random_4",
            "best_one_hop",
        }

    def test_dominance_ordering(self, result):
        a = result.availability
        assert a["direct"] <= a["random_1"] + 1e-9
        assert a["random_1"] <= a["random_4"] + 1e-9
        assert a["random_4"] <= a["best_one_hop"] + 1e-9

    def test_best_one_hop_is_upper_bound(self, result):
        assert result.availability["best_one_hop"] > 0.99

    def test_improvement_factor(self, result):
        assert result.improvement_factor("random_4") >= 1.0

    def test_bad_arguments_rejected(self):
        with pytest.raises(ConfigError):
            run_availability_comparison(n=20, num_times=0)


class TestLatencyRepair:
    @pytest.fixture(scope="class")
    def result(self):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(related_work, "LATENCY_RANDOM_K", (1, 4))
            return run_latency_repair_comparison(n=150, trials=10)

    def test_random_much_worse_than_best(self, result):
        assert result.repaired["random_1"] < result.repaired["best_one_hop"]
        assert result.repaired["random_4"] < result.repaired["best_one_hop"]

    def test_more_random_picks_help_monotonically(self, result):
        assert result.repaired["random_1"] <= result.repaired["random_4"] + 0.02

    def test_format(self, result):
        avail = run_availability_comparison(n=36, num_times=10, num_pairs=100)
        out = format_related_work(avail, result)
        assert "Availability" in out and "Latency repair" in out
