"""Tests for the Appendix A lower-bound machinery."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_lowerbound import count_diamonds_exhaustive, lemma3_bound
from repro.core.lowerbound import (
    count_diamonds_codegree,
    diamonds_in_complete_graph,
    grid_quorum_edges_received,
    optimality_ratio,
    theorem4_min_edges_per_node,
)
from repro.errors import ReproError


def complete_graph_edges(n):
    return list(itertools.combinations(range(n), 2))


class TestLemma2:
    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_complete_graph_count_matches_formula(self, n):
        edges = complete_graph_edges(n)
        expected = diamonds_in_complete_graph(n)
        assert count_diamonds_exhaustive(edges) == expected
        assert count_diamonds_codegree(edges) == expected

    def test_small_values(self):
        assert diamonds_in_complete_graph(3) == 0
        assert diamonds_in_complete_graph(4) == 3
        assert diamonds_in_complete_graph(5) == 15

    def test_negative_rejected(self):
        with pytest.raises(ReproError):
            diamonds_in_complete_graph(-1)


class TestDiamondCounting:
    def test_single_square(self):
        edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
        assert count_diamonds_exhaustive(edges) == 1
        assert count_diamonds_codegree(edges) == 1

    def test_square_with_diagonals_gives_three(self):
        # K4 has 3 diamonds.
        assert count_diamonds_codegree(complete_graph_edges(4)) == 3

    def test_path_has_no_diamonds(self):
        edges = [(0, 1), (1, 2), (2, 3), (3, 4)]
        assert count_diamonds_codegree(edges) == 0

    def test_self_loop_rejected(self):
        with pytest.raises(ReproError):
            count_diamonds_codegree([(1, 1)])

    @given(
        st.sets(
            st.tuples(st.integers(0, 9), st.integers(0, 9)).filter(
                lambda e: e[0] != e[1]
            ),
            max_size=25,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_two_implementations_agree(self, edges):
        edges = list(edges)
        assert count_diamonds_exhaustive(edges) == count_diamonds_codegree(edges)


class TestLemma3:
    @given(
        st.sets(
            st.tuples(st.integers(0, 11), st.integers(0, 11)).filter(
                lambda e: e[0] != e[1]
            ),
            max_size=40,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_e_edges_form_at_most_e_squared_diamonds(self, edges):
        edges = {(min(e), max(e)) for e in edges}
        diamonds = count_diamonds_codegree(list(edges))
        assert diamonds <= lemma3_bound(len(edges))

    def test_base_case_four_edges_one_diamond(self):
        edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
        assert count_diamonds_codegree(edges) == 1 <= lemma3_bound(4)

    def test_negative_rejected(self):
        with pytest.raises(ReproError):
            lemma3_bound(-1)


class TestTheorem4:
    def test_floor_grows_as_n_to_1_5(self):
        # min edges ~ n^1.5 / sqrt(8); ratio across 4x n should be ~8.
        small = theorem4_min_edges_per_node(100)
        large = theorem4_min_edges_per_node(400)
        assert 6.0 < large / small < 10.0

    def test_tiny_n_is_zero(self):
        assert theorem4_min_edges_per_node(3) == 0.0

    @pytest.mark.parametrize("n", [16, 100, 400, 2500, 10000])
    def test_grid_quorum_is_above_the_floor(self, n):
        assert grid_quorum_edges_received(n) >= theorem4_min_edges_per_node(n)

    @pytest.mark.parametrize("n", [100, 400, 2500, 10000])
    def test_grid_quorum_within_constant_factor(self, n):
        # The paper's optimality claim: the construction matches the
        # lower bound up to a constant (~2 sqrt(8) / ... ≈ 5.7 with our
        # exact accounting).
        assert 1.0 <= optimality_ratio(n) < 8.0

    def test_ratio_roughly_constant_across_scales(self):
        ratios = [optimality_ratio(n) for n in (400, 2500, 10000, 40000)]
        assert max(ratios) / min(ratios) < 1.5
