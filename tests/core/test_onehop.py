"""Tests for one-hop route computation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_asymmetric import best_one_hop_all_pairs_asymmetric
from reference_onehop import best_one_hop
from repro.core.onehop import (
    best_excluding_top_fraction,
    best_one_hop_all_pairs,
    one_hop_totals,
    validate_cost_matrix,
)
from repro.errors import RoutingError
from tests.conftest import make_symmetric_costs


def brute_force_best(w, i, j):
    """O(n) oracle: best one-hop (or direct) cost for pair (i, j)."""
    n = w.shape[0]
    best = w[i, j]
    for h in range(n):
        if h in (i, j):
            continue
        best = min(best, w[i, h] + w[h, j])
    return best


class TestValidation:
    def test_nonsquare_rejected(self):
        with pytest.raises(RoutingError):
            validate_cost_matrix(np.zeros((2, 3)))

    def test_nonzero_diagonal_rejected(self):
        w = np.ones((3, 3))
        with pytest.raises(RoutingError):
            validate_cost_matrix(w)

    def test_negative_rejected(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = -1.0
        with pytest.raises(RoutingError):
            validate_cost_matrix(w)

    def test_inf_allowed(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = np.inf
        w[0, 2] = w[2, 0] = 1.0
        w[1, 2] = w[2, 1] = 1.0
        validate_cost_matrix(w)


class TestBestOneHop:
    def test_prefers_detour_when_cheaper(self):
        # 0 -- 1 costs 100 direct, but 0-2 + 2-1 = 30.
        w = np.array(
            [[0.0, 100.0, 10.0], [100.0, 0.0, 20.0], [10.0, 20.0, 0.0]]
        )
        hop, cost = best_one_hop(w[0], w[1], 0, 1)
        assert hop == 2
        assert cost == 30.0

    def test_direct_when_triangle_inequality_holds(self):
        w = np.array([[0.0, 10.0, 50.0], [10.0, 0.0, 50.0], [50.0, 50.0, 0.0]])
        hop, cost = best_one_hop(w[0], w[1], 0, 1)
        assert hop == 1  # canonical direct form
        assert cost == 10.0

    def test_unreachable_returns_inf(self):
        w = np.full((3, 3), np.inf)
        np.fill_diagonal(w, 0.0)
        hop, cost = best_one_hop(w[0], w[1], 0, 1)
        assert cost == np.inf

    def test_mismatched_rows_rejected(self):
        with pytest.raises(RoutingError):
            best_one_hop(np.zeros(3), np.zeros(4), 0, 1)

    @given(st.integers(min_value=3, max_value=30), st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_matches_brute_force(self, n, seed):
        rng = np.random.default_rng(seed)
        w = make_symmetric_costs(rng, n)
        i, j = rng.integers(n), rng.integers(n)
        if i == j:
            j = (i + 1) % n
        hop, cost = best_one_hop(w[i], w[j], int(i), int(j))
        assert cost == pytest.approx(brute_force_best(w, i, j))
        # the returned hop realizes the cost
        realized = w[i, j] if hop == j else w[i, hop] + w[hop, j]
        assert realized == pytest.approx(cost)


class TestAllPairs:
    @given(st.integers(min_value=2, max_value=25), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_matches_per_pair_oracle(self, n, seed):
        rng = np.random.default_rng(seed)
        w = make_symmetric_costs(rng, n)
        costs, hops = best_one_hop_all_pairs(w)
        for i in range(n):
            for j in range(n):
                if i == j:
                    assert costs[i, j] == 0.0
                    continue
                assert costs[i, j] == pytest.approx(brute_force_best(w, i, j))
                h = hops[i, j]
                realized = w[i, j] if h == j else w[i, h] + w[h, j]
                assert realized == pytest.approx(costs[i, j])

    def test_symmetric_costs_produce_symmetric_results(self, rng):
        w = make_symmetric_costs(rng, 12)
        costs, _ = best_one_hop_all_pairs(w)
        assert np.allclose(costs, costs.T)

    def test_one_hop_never_worse_than_direct(self, rng):
        w = make_symmetric_costs(rng, 15)
        costs, _ = best_one_hop_all_pairs(w)
        assert np.all(costs <= w + 1e-9)

    def test_handles_dead_links(self):
        w = np.array(
            [[0.0, np.inf, 10.0], [np.inf, 0.0, 20.0], [10.0, 20.0, 0.0]]
        )
        costs, hops = best_one_hop_all_pairs(w)
        assert costs[0, 1] == 30.0
        assert hops[0, 1] == 2


def tie_heavy_costs(rng, n, symmetric):
    """Costs from {1, 2, 3} with ~15 % dead links: most pairs have several
    minimising hops, so only the tie-break decides which one is returned."""
    w = rng.integers(1, 4, size=(n, n)).astype(float)
    w[rng.random((n, n)) < 0.15] = np.inf
    if symmetric:
        w = np.triu(w, 1)
        w = w + w.T
    np.fill_diagonal(w, 0.0)
    return w


class TestAllPairsTieBreak:
    """The all-pairs oracles return, per pair, the *first* minimising hop
    (normalised to the direct form) and that hop's total, bit for bit."""

    @pytest.mark.parametrize("symmetric", [True, False])
    @pytest.mark.parametrize("seed", range(15))
    def test_first_minimising_hop_and_exact_cost(self, symmetric, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 41))
        w = tie_heavy_costs(rng, n, symmetric)
        expected_costs = np.zeros((n, n))
        expected_hops = np.empty((n, n), dtype=np.int64)
        for i in range(n):
            for j in range(n):
                totals = w[i] + w[:, j]
                h = int(np.argmin(totals))
                expected_hops[i, j] = j if h in (i, j) else h
                if i != j:
                    expected_costs[i, j] = totals[h]
        oracles = [best_one_hop_all_pairs]
        if not symmetric:
            oracles.append(best_one_hop_all_pairs_asymmetric)
        for oracle in oracles:
            costs, hops = oracle(w)
            np.testing.assert_array_equal(hops, expected_hops)
            assert costs.tobytes() == expected_costs.tobytes()


class TestExclusionAnalysis:
    def test_totals_vector(self, rng):
        w = make_symmetric_costs(rng, 8)
        totals = one_hop_totals(w, 2, 5)
        for h in range(8):
            assert totals[h] == pytest.approx(w[2, h] + w[h, 5])

    def test_zero_exclusion_equals_best(self, rng):
        w = make_symmetric_costs(rng, 20)
        costs, _ = best_one_hop_all_pairs(w)
        assert best_excluding_top_fraction(w, 3, 9, 0.0) == pytest.approx(
            costs[3, 9]
        )

    def test_excluding_everything_falls_back_to_direct(self, rng):
        w = make_symmetric_costs(rng, 10)
        assert best_excluding_top_fraction(w, 1, 2, 0.999) == w[1, 2]

    def test_monotone_in_exclusion_fraction(self, rng):
        w = make_symmetric_costs(rng, 30)
        prev = -np.inf
        for frac in (0.0, 0.1, 0.3, 0.5, 0.9):
            val = best_excluding_top_fraction(w, 0, 1, frac)
            assert val >= prev - 1e-9
            prev = val

    def test_never_worse_than_direct(self, rng):
        w = make_symmetric_costs(rng, 25)
        for frac in (0.0, 0.5, 0.97):
            assert best_excluding_top_fraction(w, 2, 3, frac) <= w[2, 3]

    def test_bad_fraction_rejected(self, rng):
        w = make_symmetric_costs(rng, 5)
        with pytest.raises(RoutingError):
            best_excluding_top_fraction(w, 0, 1, 1.0)
