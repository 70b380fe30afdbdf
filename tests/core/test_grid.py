"""Tests for the grid quorum construction (§3)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_failover import default_pairs
from reference_grid import default_rendezvous_pair
from repro.core.grid import GridQuorum, grid_dimensions
from repro.errors import QuorumError
from repro.net.trace import uniform_random_metric
from repro.overlay.config import RouterKind
from repro.overlay.harness import build_overlay


class TestGridDimensions:
    def test_perfect_squares(self):
        for root in (1, 2, 3, 5, 10, 12):
            assert grid_dimensions(root * root) == (root, root)

    def test_paper_rule_examples(self):
        # a < 0.5 -> ceil x floor; a >= 0.5 -> ceil x ceil (footnote 5).
        assert grid_dimensions(10) == (4, 3)  # sqrt=3.16, a=0.16
        assert grid_dimensions(15) == (4, 4)  # sqrt=3.87, a=0.87
        assert grid_dimensions(8) == (3, 3)  # sqrt=2.83, a=0.83
        assert grid_dimensions(6) == (3, 2)  # sqrt=2.45, a=0.45
        assert grid_dimensions(18) == (5, 4)  # the paper's 18-node example

    def test_zero_rejected(self):
        with pytest.raises(QuorumError):
            grid_dimensions(0)

    @given(st.integers(min_value=1, max_value=5000))
    def test_grid_fits_and_last_row_nonempty(self, n):
        rows, cols = grid_dimensions(n)
        assert (rows - 1) * cols < n <= rows * cols
        # grid stays nearly square
        assert abs(rows - cols) <= 1

    @given(st.integers(min_value=1, max_value=5000))
    def test_dimensions_near_sqrt(self, n):
        rows, cols = grid_dimensions(n)
        assert rows - 1 <= math.sqrt(n) <= rows + 1
        assert cols - 1 <= math.sqrt(n) <= cols + 1


class TestConstruction:
    def test_nine_node_grid_matches_figure_2(self):
        # Figure 2/3: 3x3 grid with nodes 1..9; node 9 at (2, 2) has
        # rendezvous servers 3, 6 (column) and 7, 8 (row).
        grid = GridQuorum(list(range(1, 10)))
        assert grid.rows == 3 and grid.cols == 3
        assert grid.position(9) == (2, 2)
        assert set(grid.servers(9, include_self=False)) == {3, 6, 7, 8}

    def test_duplicate_members_rejected(self):
        with pytest.raises(QuorumError):
            GridQuorum([1, 2, 2])

    def test_empty_rejected(self):
        with pytest.raises(QuorumError):
            GridQuorum([])

    def test_single_node(self):
        grid = GridQuorum([42])
        assert grid.servers(42) == (42,)
        assert grid.servers(42, include_self=False) == ()

    def test_membership_query(self):
        grid = GridQuorum([5, 7, 9])
        assert 7 in grid
        assert 6 not in grid
        with pytest.raises(QuorumError):
            grid.position(6)

    def test_at_out_of_bounds(self):
        grid = GridQuorum(list(range(9)))
        with pytest.raises(QuorumError):
            grid.at(5, 0)

    def test_blank_position_returns_none(self):
        grid = GridQuorum(list(range(10)))  # 4x3 grid, last row has 1
        assert grid.last_row_fill == 1
        assert grid.at(3, 1) is None
        assert grid.at(3, 2) is None


class TestPaperAugmentationExample:
    """The 18-node example drawn in §3 (5x4 grid, last row = {17, 18})."""

    def setup_method(self):
        self.grid = GridQuorum(list(range(1, 19)))

    def test_dimensions(self):
        assert (self.grid.rows, self.grid.cols) == (5, 4)
        assert self.grid.last_row_fill == 2

    def test_bottom_row_nodes_gain_blank_column_partners(self):
        # Node 17 at (4, 0): row {17, 18}, column {1, 5, 9, 13}; blank
        # columns are 2 and 3 (0-indexed), so 17 additionally gets the
        # row-0 nodes in those columns: 3 and 4.
        servers = set(self.grid.servers(17, include_self=False))
        assert {18, 1, 5, 9, 13}.issubset(servers)
        assert {3, 4}.issubset(servers)
        # Node 18 at (4, 1): extras from row 1: nodes 7, 8.
        servers18 = set(self.grid.servers(18, include_self=False))
        assert {7, 8}.issubset(servers18)

    def test_augmentation_is_symmetric(self):
        assert 17 in self.grid.servers(3)
        assert 17 in self.grid.servers(4)
        assert 18 in self.grid.servers(7)
        assert 18 in self.grid.servers(8)

    def test_every_pair_covered(self):
        self.grid.verify()


class TestInvariants:
    @pytest.mark.parametrize("n", list(range(1, 40)) + [49, 50, 81, 90, 121, 140])
    def test_verify_passes_for_all_sizes(self, n):
        grid = GridQuorum(list(range(n)))
        grid.verify()

    @pytest.mark.parametrize("n", [4, 9, 12, 18, 25, 47, 100, 140])
    def test_load_bound_2_sqrt_n(self, n):
        grid = GridQuorum(list(range(n)))
        bound = 2 * math.ceil(math.sqrt(n))
        for m in range(n):
            assert len(grid.servers(m, include_self=False)) <= bound

    @pytest.mark.parametrize("n", [4, 9, 16, 25, 100, 144])
    def test_perfect_square_pairs_share_two_rendezvous(self, n):
        grid = GridQuorum(list(range(n)))
        root = math.isqrt(n)
        for i in range(0, n, 7):
            for j in range(i + 1, n, 5):
                assert len(grid.common_rendezvous(i, j)) >= 2

    @pytest.mark.parametrize("n", [9, 16, 25])
    def test_server_client_symmetry(self, n):
        grid = GridQuorum(list(range(n)))
        for m in range(n):
            assert grid.servers(m) == grid.clients(m)

    @given(st.integers(min_value=2, max_value=250))
    @settings(max_examples=40, deadline=None)
    def test_default_pair_is_common_rendezvous(self, n):
        grid = GridQuorum(list(range(n)))
        # Spot-check a deterministic selection of pairs.
        step = max(1, n // 7)
        for i in range(0, n, step):
            for j in range(i + 1, n, step):
                pair = default_rendezvous_pair(grid, i, j)
                common = set(grid.common_rendezvous(i, j))
                assert pair, f"no default pair for ({i}, {j})"
                for r in pair:
                    assert r in common

    @given(st.integers(min_value=2, max_value=250))
    @settings(max_examples=30, deadline=None)
    def test_full_grid_pairs_have_two_defaults(self, n):
        grid = GridQuorum(list(range(n)))
        if grid.last_row_fill != grid.cols:
            return  # partial grids may degenerate for same-row pairs
        for i in range(0, n, max(1, n // 5)):
            for j in range(i + 1, n, max(1, n // 5)):
                ri, ci = grid.position(i)
                rj, cj = grid.position(j)
                if ri != rj and ci != cj:
                    assert len(default_rendezvous_pair(grid, i, j)) == 2

    def test_default_pair_with_self_rejected(self):
        grid = GridQuorum(list(range(9)))
        with pytest.raises(QuorumError):
            default_rendezvous_pair(grid, 3, 3)

    def test_same_row_pair_defaults_are_the_nodes_themselves(self):
        grid = GridQuorum(list(range(9)))  # 0,1,2 in row 0
        pair = default_rendezvous_pair(grid, 0, 1)
        assert set(pair) == {0, 1}

    def test_failover_candidates_are_dst_row_and_column(self):
        grid = GridQuorum(list(range(1, 10)))
        cands = set(grid.failover_candidates(9))
        assert cands == {3, 6, 7, 8}
        assert 9 not in cands

    def test_arbitrary_member_ids(self):
        ids = [100, 205, 3, 42, 77, 8, 901]
        grid = GridQuorum(ids)
        grid.verify()
        assert set(grid.members) == set(ids)


class TestIncrementalUpdates:
    """Delta-applied grids must equal from-scratch constructions."""

    def test_tail_insert_matches_fresh(self):
        grid = GridQuorum(list(range(9)))
        idx = grid.insert_member(9)
        assert idx == 9
        grid.assert_equals_fresh()
        assert grid.n == 10 and (grid.rows, grid.cols) == (4, 3)

    def test_mid_insert_matches_fresh(self):
        grid = GridQuorum([1, 3, 5, 7, 9, 11, 13, 15, 17])
        idx = grid.insert_member(8)
        assert idx == 4
        grid.assert_equals_fresh()
        assert grid.position(8) == (1, 1)

    def test_remove_matches_fresh(self):
        grid = GridQuorum(list(range(12)))
        idx = grid.remove_member(5)
        assert idx == 5
        grid.assert_equals_fresh()
        assert 5 not in grid
        assert grid.n == 11

    def test_insert_duplicate_rejected(self):
        grid = GridQuorum([1, 2, 3])
        with pytest.raises(QuorumError):
            grid.insert_member(2)

    def test_remove_unknown_rejected(self):
        grid = GridQuorum([1, 2, 3])
        with pytest.raises(QuorumError):
            grid.remove_member(9)

    def test_remove_last_member_rejected(self):
        grid = GridQuorum([4])
        with pytest.raises(QuorumError):
            grid.remove_member(4)

    def test_unsorted_fill_rejects_incremental_insert(self):
        grid = GridQuorum([5, 1, 9])
        with pytest.raises(QuorumError):
            grid.insert_member(3)

    def test_grow_and_shrink_across_dimension_changes(self):
        # 1 -> 40 -> 1 crosses many (rows, cols) transitions; every
        # intermediate grid must be exactly the canonical construction.
        grid = GridQuorum([0])
        for m in range(1, 40):
            grid.insert_member(m)
            grid.assert_equals_fresh()
            grid.verify()
        for m in range(39, 0, -1):
            grid.remove_member(m)
            grid.assert_equals_fresh()

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_random_churn_equals_fresh(self, seed):
        import random as _random

        rng = _random.Random(seed)
        members = sorted(rng.sample(range(200), rng.randint(1, 30)))
        grid = GridQuorum(list(members))
        pool = set(range(200)) - set(members)
        for _ in range(25):
            if grid.n > 1 and (not pool or rng.random() < 0.5):
                m = rng.choice(grid.members)
                grid.remove_member(m)
                pool.add(m)
            else:
                m = rng.choice(sorted(pool))
                pool.discard(m)
                grid.insert_member(m)
            grid.assert_equals_fresh()


class TestSharedGridPerSize:
    """Every router of a view size holds the one grid over its positions."""

    def test_one_object_per_size_equal_to_a_fresh_build(self):
        for n in (1, 2, 9, 10, 18, 64):
            grid = GridQuorum.of_size(n)
            assert GridQuorum.of_size(n) is grid and grid.shared
            assert grid.members == list(range(n))
            grid.assert_equals_fresh()
        assert GridQuorum.of_size(9) is not GridQuorum.of_size(10)
        assert not GridQuorum(list(range(9))).shared

    def test_a_holder_cannot_resize_the_shared_grid(self):
        grid = GridQuorum.of_size(12)
        with pytest.raises(QuorumError, match="cannot be resized"):
            grid.insert_member(12)
        with pytest.raises(QuorumError, match="cannot be resized"):
            grid.remove_member(11)
        assert grid.n == 12
        grid.assert_equals_fresh()
        # A grid of one's own still resizes.
        own = GridQuorum(list(range(12)))
        own.insert_member(12)
        own.assert_equals_fresh()

    def test_routers_of_one_view_size_hold_the_same_grid(self):
        rng = np.random.default_rng(3)
        overlay = build_overlay(
            trace=uniform_random_metric(10, rng),
            router=RouterKind.QUORUM,
            rng=rng,
            with_freshness=False,
        )
        grids = {id(node.router.grid) for node in overlay.nodes}
        assert grids == {id(GridQuorum.of_size(10))}
        with pytest.raises(QuorumError):
            overlay.nodes[0].router.grid.insert_member(10)


def _scalar_default_pairs(grid, i):
    want = np.full((grid.n, 2), -1, dtype=np.int64)
    for j in range(grid.n):
        if j != i:
            pair = default_rendezvous_pair(grid, i, j)
            want[j, : len(pair)] = pair
    return want


def test_default_pairs_equals_the_scalar_pair_for_every_i_j():
    """``reference_failover.default_pairs(grid, i)`` row ``j`` is
    ``default_rendezvous_pair(grid, i, j)``: for every pair at every size from
    2 to 64 (every grid shape: square, one short row, blank columns,
    ragged last row), and above that, to 300, for every ``j`` of a few
    ``i`` per size drawn with a fixed seed — the first and the last
    member, where a ragged last row bites, always among them."""
    rng = np.random.default_rng(272)
    for n in range(2, 301):
        grid = GridQuorum(list(range(n)))
        if n <= 64:
            nodes = range(n)
        else:
            nodes = {0, n - 1, *rng.choice(n, size=4, replace=False).tolist()}
        for i in nodes:
            assert np.array_equal(
                default_pairs(grid, i), _scalar_default_pairs(grid, i)
            ), (n, i)
