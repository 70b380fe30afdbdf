"""Tests for the multi-hop extension (§3)."""

import math

import numpy as np
import pytest

try:
    import networkx as nx
except ImportError:  # pragma: no cover
    nx = None
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.multihop import (
    minplus,
    run_multihop,
    shortest_paths_bounded_hops,
    walk_path,
)
from repro.core.quorum import GridQuorumSystem
from repro.errors import RoutingError
from tests.conftest import make_symmetric_costs


class TestMinPlus:
    def test_identity_with_zero_diag_inf_matrix(self):
        inf = np.full((3, 3), np.inf)
        np.fill_diagonal(inf, 0.0)
        w = make_symmetric_costs(np.random.default_rng(0), 3)
        assert np.allclose(minplus(inf, w), w)

    def test_two_hop_cost(self):
        w = np.array(
            [[0.0, 10.0, np.inf], [10.0, 0.0, 10.0], [np.inf, 10.0, 0.0]]
        )
        two = minplus(w, w)
        assert two[0, 2] == 20.0


class TestBoundedHopsReference:
    def test_one_hop_is_direct_matrix(self, rng):
        w = make_symmetric_costs(rng, 10)
        assert np.allclose(shortest_paths_bounded_hops(w, 1), w)

    def test_converges_to_shortest_paths(self, rng):
        w = make_symmetric_costs(rng, 12)
        full = shortest_paths_bounded_hops(w, 12)
        more = shortest_paths_bounded_hops(w, 50)
        assert np.allclose(full, more)

    @pytest.mark.skipif(nx is None, reason="networkx unavailable")
    def test_matches_networkx_dijkstra(self, rng):
        n = 15
        w = make_symmetric_costs(rng, n)
        g = nx.Graph()
        for i in range(n):
            for j in range(i + 1, n):
                g.add_edge(i, j, weight=w[i, j])
        ours = shortest_paths_bounded_hops(w, n)
        lengths = dict(nx.all_pairs_dijkstra_path_length(g))
        for i in range(n):
            for j in range(n):
                assert ours[i, j] == pytest.approx(lengths[i][j])

    def test_monotone_in_hop_budget(self, rng):
        w = make_symmetric_costs(rng, 10)
        prev = shortest_paths_bounded_hops(w, 1)
        for l in (2, 3, 4, 8):
            cur = shortest_paths_bounded_hops(w, l)
            assert np.all(cur <= prev + 1e-9)
            prev = cur

    def test_bad_hops_rejected(self, rng):
        with pytest.raises(RoutingError):
            shortest_paths_bounded_hops(make_symmetric_costs(rng, 4), 0)


class TestRunMultihop:
    @given(st.integers(min_value=3, max_value=30), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_costs_match_reference_for_power_of_two_budget(self, n, seed):
        rng = np.random.default_rng(seed)
        w = make_symmetric_costs(rng, n)
        for max_hops in (2, 4):
            result = run_multihop(w, GridQuorumSystem(list(range(n))), max_hops)
            expected = shortest_paths_bounded_hops(w, max_hops)
            assert np.allclose(result.costs, expected)

    def test_iterations_equal_log2(self, rng):
        w = make_symmetric_costs(rng, 9)
        q = GridQuorumSystem(list(range(9)))
        assert run_multihop(w, q, 1).iterations == 0
        assert run_multihop(w, q, 2).iterations == 1
        assert run_multihop(w, q, 4).iterations == 2
        assert run_multihop(w, q, 8).iterations == 3

    def test_three_hop_via_l4_finds_long_detours(self):
        # A "policy" chain: 0-1-2-3 cheap, 0-3 direct expensive.
        w = np.full((4, 4), 1000.0)
        np.fill_diagonal(w, 0.0)
        for a, b in ((0, 1), (1, 2), (2, 3)):
            w[a, b] = w[b, a] = 10.0
        result = run_multihop(w, GridQuorumSystem(list(range(4))), 4)
        assert result.costs[0, 3] == 30.0
        assert result.next_hop[0, 3] == 1

    @given(st.integers(min_value=3, max_value=20), st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_sec_pointers_realize_costs(self, n, seed):
        rng = np.random.default_rng(seed)
        w = make_symmetric_costs(rng, n)
        budget = 1 << math.ceil(math.log2(n))
        result = run_multihop(w, GridQuorumSystem(list(range(n))), budget)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                path, cost = walk_path(result.next_hop, w, i, j)
                assert cost <= result.costs[i, j] + 1e-9
                assert path[0] == i and path[-1] == j

    def test_communication_scales_n15_logn(self):
        sizes = [16, 64, 144]
        per_node = []
        for n in sizes:
            w = make_symmetric_costs(np.random.default_rng(0), n)
            result = run_multihop(w, GridQuorumSystem(list(range(n))), max_hops=n)
            per_node.append(max(result.bytes_per_node.values()))
        # Theta(n^1.5 log n): growing n by 9x should grow bytes by
        # roughly 27 * log factor; definitely less than n^2 scaling.
        ratio = per_node[-1] / per_node[0]
        n_ratio = sizes[-1] / sizes[0]
        assert ratio < n_ratio**2  # strictly better than quadratic
        assert ratio > n_ratio**1.3  # and super-linear

    def test_unreachable_pairs_marked(self):
        w = np.full((4, 4), np.inf)
        np.fill_diagonal(w, 0.0)
        w[0, 1] = w[1, 0] = 5.0
        result = run_multihop(w, GridQuorumSystem(list(range(4))), 4)
        assert np.isinf(result.costs[0, 2])
        assert result.next_hop[0, 2] == -1


class TestWalkPath:
    def test_detects_missing_entry(self):
        next_hop = np.array([[0, -1], [0, 1]])
        w = np.array([[0.0, 5.0], [5.0, 0.0]])
        with pytest.raises(RoutingError):
            walk_path(next_hop, w, 0, 1)

    def test_detects_loop(self):
        # 0 -> 1 -> 0 -> ... for destination 2.
        next_hop = np.array([[0, 1, 1], [0, 1, 0], [2, 2, 2]])
        w = np.ones((3, 3))
        np.fill_diagonal(w, 0.0)
        with pytest.raises(RoutingError):
            walk_path(next_hop, w, 0, 2)

    def test_trivial_direct(self):
        next_hop = np.array([[0, 1], [0, 1]])
        w = np.array([[0.0, 7.0], [7.0, 0.0]])
        path, cost = walk_path(next_hop, w, 0, 1)
        assert path == [0, 1]
        assert cost == 7.0
