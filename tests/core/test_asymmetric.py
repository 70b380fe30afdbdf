"""Tests for the asymmetric-cost variant (§3 footnote 2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_asymmetric import (
    ASYMMETRIC_LS_ENTRY_BYTES,
    best_one_hop_all_pairs_asymmetric,
    best_one_hop_asymmetric,
    run_two_round_asymmetric,
    validate_asymmetric_cost_matrix,
)
from repro.core.onehop import best_one_hop_all_pairs
from repro.core.protocol import run_two_round
from repro.core.quorum import GridQuorumSystem
from repro.errors import RoutingError
from tests.conftest import make_symmetric_costs


def make_directed_costs(rng, n, low=10.0, high=500.0):
    w = rng.uniform(low, high, size=(n, n))
    np.fill_diagonal(w, 0.0)
    return w


def brute_force_directed(w, i, j):
    n = w.shape[0]
    best = w[i, j]
    for h in range(n):
        if h in (i, j):
            continue
        best = min(best, w[i, h] + w[h, j])
    return best


class TestValidation:
    def test_asymmetric_matrix_accepted(self, rng):
        w = make_directed_costs(rng, 5)
        validate_asymmetric_cost_matrix(w)

    def test_negative_rejected(self, rng):
        w = make_directed_costs(rng, 4)
        w[1, 2] = -1.0
        with pytest.raises(RoutingError):
            validate_asymmetric_cost_matrix(w)

    def test_nonzero_diagonal_rejected(self):
        w = np.ones((3, 3))
        with pytest.raises(RoutingError):
            validate_asymmetric_cost_matrix(w)


class TestBestOneHopAsymmetric:
    def test_uses_directed_costs(self):
        # 0 -> 1 expensive; 0 -> 2 -> 1 cheap; reverse direction differs.
        w = np.array(
            [
                [0.0, 100.0, 10.0],
                [5.0, 0.0, 50.0],
                [10.0, 15.0, 0.0],
            ]
        )
        hop, cost = best_one_hop_asymmetric(w[0], w[:, 1], 0, 1)
        assert hop == 2 and cost == 25.0
        # reverse: direct 1 -> 0 costs 5, no detour beats it
        hop_r, cost_r = best_one_hop_asymmetric(w[1], w[:, 0], 1, 0)
        assert hop_r == 0 and cost_r == 5.0

    @given(st.integers(min_value=3, max_value=25), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force(self, n, seed):
        rng = np.random.default_rng(seed)
        w = make_directed_costs(rng, n)
        i, j = int(rng.integers(n)), int(rng.integers(n))
        if i == j:
            j = (i + 1) % n
        hop, cost = best_one_hop_asymmetric(w[i], w[:, j], i, j)
        assert cost == pytest.approx(brute_force_directed(w, i, j))


class TestAllPairsAsymmetric:
    @given(st.integers(min_value=2, max_value=20), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_matches_per_pair(self, n, seed):
        rng = np.random.default_rng(seed)
        w = make_directed_costs(rng, n)
        costs, hops = best_one_hop_all_pairs_asymmetric(w)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                assert costs[i, j] == pytest.approx(brute_force_directed(w, i, j))
                h = hops[i, j]
                realized = w[i, j] if h == j else w[i, h] + w[h, j]
                assert realized == pytest.approx(costs[i, j])

    def test_reduces_to_symmetric_case(self, rng):
        w = make_symmetric_costs(rng, 15)
        sym_costs, _ = best_one_hop_all_pairs(w)
        asym_costs, _ = best_one_hop_all_pairs_asymmetric(w)
        assert np.allclose(sym_costs, asym_costs)

    def test_result_can_be_asymmetric(self, rng):
        w = make_directed_costs(rng, 10)
        costs, _ = best_one_hop_all_pairs_asymmetric(w)
        assert not np.allclose(costs, costs.T)


class TestTwoRoundAsymmetric:
    @given(st.integers(min_value=2, max_value=40), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_protocol_equals_oracle(self, n, seed):
        rng = np.random.default_rng(seed)
        w = make_directed_costs(rng, n)
        result = run_two_round_asymmetric(w, GridQuorumSystem(list(range(n))))
        oracle, _ = best_one_hop_all_pairs_asymmetric(w)
        assert result.coverage_fraction() == 1.0
        assert np.allclose(result.costs, oracle)

    def test_wire_cost_is_5_bytes_per_entry(self):
        n = 49
        rng = np.random.default_rng(0)
        w = make_directed_costs(rng, n)
        grid = GridQuorumSystem(list(range(n)))
        sym = run_two_round(make_symmetric_costs(rng, n), grid)
        asym = run_two_round_asymmetric(w, grid)
        # Round-1 messages grow from 3 to 5 bytes per entry; round-2
        # messages are unchanged, so the total grows but less than 5/3.
        ratio = asym.ledger.max_total_bytes() / sym.ledger.max_total_bytes()
        assert 1.1 < ratio < 5 / 3

    def test_size_mismatch_rejected(self, rng):
        w = make_directed_costs(rng, 5)
        with pytest.raises(RoutingError):
            run_two_round_asymmetric(w, GridQuorumSystem(list(range(6))))

    def test_entry_constant(self):
        assert ASYMMETRIC_LS_ENTRY_BYTES == 5
