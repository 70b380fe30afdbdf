"""Unit and property tests for failure injection.

Tables with targeted faults are written as a run writes them, through
:class:`~repro.workloads.faults.FaultPlan`; the Fig. 8 builder is held
to one link's draws in ``reference_failures.py``.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from reference_failures import schedule_from_episodes

from repro.errors import TopologyError, WorkloadError
from repro.net.failures import (
    DEFAULT_CLASS_PARAMS,
    NodeClass,
    NodeClassParams,
    assign_node_classes,
    build_failure_table,
)
from repro.workloads.faults import FaultPlan


def link_windows(table):
    """Every link window of ``table`` once, as ``(i, j, start, end)``
    arrays with ``i < j``, in ``(i, j, start)`` order."""
    src = np.repeat(np.arange(table.n, dtype=np.int32), np.diff(table._off))
    once = src < table._peer
    return src[once], table._peer[once], table._start[once], table._end[once]


def windows_digest(table):
    """sha256 over every link window as int64 ``(i, j)`` then float64
    ``(start, end)`` columns, in ``(i, j, start)`` order."""
    i, j, start, end = link_windows(table)
    ij = np.stack([i, j], axis=1).astype(np.int64)
    se = np.stack([start, end], axis=1).astype(np.float64)
    return hashlib.sha256(ij.tobytes() + se.tobytes()).hexdigest(), len(ij)


def stratified_classes(n, rng):
    """The default class mix with fixed counts, permuted by ``rng``."""
    mediocre, poor = round(0.15 * n), max(1, round(0.05 * n))
    classes = (
        [NodeClass.GOOD] * (n - mediocre - poor)
        + [NodeClass.MEDIOCRE] * mediocre
        + [NodeClass.POOR] * poor
    )
    return [classes[i] for i in rng.permutation(n)]


class TestScheduleFromEpisodes:
    def test_zero_duty_cycle_gives_empty_schedule(self, rng):
        sched = schedule_from_episodes(rng, 1000.0, 0.0, 60.0)
        assert not sched

    def test_duty_cycle_approximately_respected(self, rng):
        horizon = 500_000.0
        duty = 0.10
        sched = schedule_from_episodes(rng, horizon, duty, 60.0)
        measured = sum(e - s for s, e in sched) / horizon
        assert 0.5 * duty < measured < 1.8 * duty

    def test_intervals_within_horizon(self, rng):
        sched = schedule_from_episodes(rng, 1000.0, 0.3, 60.0)
        for s, e in sched:
            assert 0.0 <= s < e <= 1000.0


class TestNodeClasses:
    def test_default_params_cover_all_classes(self):
        assert set(DEFAULT_CLASS_PARAMS) == set(NodeClass)

    def test_bad_duty_cycle_rejected(self):
        with pytest.raises(TopologyError):
            NodeClassParams(duty_cycle=1.5, mean_outage_s=60.0)
        with pytest.raises(TopologyError):
            NodeClassParams(duty_cycle=0.1, mean_outage_s=0.0)

    def test_assignment_has_guaranteed_good_and_poor(self, rng):
        classes = assign_node_classes(140, rng)
        assert len(classes) == 140
        assert NodeClass.GOOD in classes
        assert NodeClass.POOR in classes

    def test_assignment_mix_roughly_matches(self, rng):
        classes = assign_node_classes(2000, rng)
        frac_good = sum(c is NodeClass.GOOD for c in classes) / 2000
        assert 0.7 < frac_good < 0.9


def cut(n, *links, start=0.0, end=100.0):
    """The table with each ``(i, j)`` in ``links`` down during ``[start, end)``."""
    plan = FaultPlan()
    for i, j in links:
        plan.partition(start, end, (i,), (j,))
    return plan.failure_table(n)


class TestFailureTable:
    def test_ids_are_checked_against_n(self):
        with pytest.raises(WorkloadError):  # a cut id >= n
            FaultPlan().partition(0.0, 10.0, (0,), (3,)).failure_table(3)
        with pytest.raises(WorkloadError):
            FaultPlan().node_outage(0.0, 10.0, (5,)).failure_table(3)
        assert FaultPlan().partition(0.0, 10.0, (0,), (2,)).failure_table(3).n == 3

    def test_empty_plan_is_always_up(self):
        table = FaultPlan().failure_table(3)
        for t in (0.0, 1e9):
            assert table.up_matrix(t).all()
            assert all(table.node_is_up(i, t) for i in range(3))

    def test_windows_are_half_open(self):
        table = (
            FaultPlan()
            .partition(10.0, 20.0, (0,), (1,))
            .partition(30.0, 40.0, (1,), (0,))
            .node_outage(10.0, 20.0, (2,))
            .failure_table(3)
        )
        # The start is inside a window, the end is not.
        for t, down in ((5.0, False), (10.0, True), (15.0, True), (20.0, False)):
            assert table.link_is_up(0, 1, t) is not down, t
            assert table.node_is_up(2, t) is not down, t
        for t, down in ((29.5, False), (30.0, True), (35.0, True), (40.0, False)):
            assert table.link_is_up(0, 1, t) is not down, t

    def test_link_down_during_outage(self):
        table = cut(3, (0, 1), start=10.0, end=20.0)
        assert table.link_is_up(0, 1, 5.0)
        assert not table.link_is_up(0, 1, 15.0)
        assert not table.link_is_up(1, 0, 15.0)  # symmetric
        assert table.link_is_up(0, 2, 15.0)

    def test_node_outage_kills_all_links(self):
        table = FaultPlan().node_outage(10.0, 20.0, (1,)).failure_table(3)
        assert not table.link_is_up(0, 1, 15.0)
        assert not table.link_is_up(1, 2, 15.0)
        assert table.link_is_up(0, 2, 15.0)

    def test_up_vector_matches_scalar_queries(self):
        table = (
            FaultPlan()
            .partition(0.0, 100.0, (0,), (1,))
            .partition(50.0, 60.0, (0,), (3,))
            .node_outage(55.0, 58.0, (2,))
            .failure_table(4)
        )
        for t in (25.0, 56.0, 70.0, 200.0):
            vec = table.up_vector(0, t)
            for j in range(4):
                if j == 0:
                    assert vec[j]
                else:
                    assert vec[j] == table.link_is_up(0, j, t)

    def test_up_many_matches_scalar_queries(self):
        table = (
            FaultPlan()
            .partition(0.0, 100.0, (0,), (1,))
            .partition(50.0, 60.0, (3,), (0, 2))
            .node_outage(55.0, 58.0, (2,))
            .node_outage(69.0, 71.0, (4,))
            .failure_table(5)
        )
        # Any order, duplicates, the source itself, a subset of the row.
        js = np.array([3, 0, 1, 4, 2, 2, 0, 3])
        for t in (25.0, 56.0, 70.0, 200.0):
            for i in range(5):
                assert table.up_many(i, js, t).tolist() == [
                    table.link_is_up(i, j, t) for j in js.tolist()
                ]
                assert table.up_many(i, js[:0], t).tolist() == []

    def test_crashed_source_sees_everything_down(self):
        table = FaultPlan().node_outage(0.0, 10.0, (0,)).failure_table(3)
        vec = table.up_vector(0, 5.0)
        assert vec[0]
        assert not vec[1] and not vec[2]
        assert table.up_many(0, np.array([2, 0, 1]), 5.0).tolist() == [False, True, False]

    def test_concurrent_failures_counts_down_links(self):
        table = cut(4, (0, 1), (0, 2))
        assert table.concurrent_failures(0, 50.0) == 2
        assert table.concurrent_failures(0, 150.0) == 0
        assert table.concurrent_failures(3, 50.0) == 0


class TestBuildFailureTable:
    def test_poor_nodes_see_more_concurrent_failures(self, rng):
        n = 60
        classes = [NodeClass.GOOD] * (n - 3) + [NodeClass.POOR] * 3
        table = build_failure_table(n, 3600.0, rng, node_classes=classes)
        times = np.linspace(100.0, 3500.0, 20)
        good_avg = np.mean([table.concurrent_failures(0, t) for t in times])
        poor_avg = np.mean([table.concurrent_failures(n - 1, t) for t in times])
        assert poor_avg > good_avg

    def test_wrong_class_count_rejected(self, rng):
        with pytest.raises(TopologyError):
            build_failure_table(5, 100.0, rng, node_classes=[NodeClass.GOOD] * 3)

    def test_windows_are_pinned(self):
        """Every interval of two built tables, bit for bit: the values
        the builder produced when it drew one link at a time."""
        table = build_failure_table(64, 400.0, np.random.default_rng(3))
        assert windows_digest(table) == (
            "19967b7ebc1f283e2dd4f85951117cf0f3d99990cfe0dbeaa6cdda06877a5985",
            511,
        )
        rng = np.random.default_rng(42)
        table = build_failure_table(
            160, 240.0, rng, node_classes=stratified_classes(160, rng)
        )
        assert windows_digest(table) == (
            "56d9e242b101abe93db6ace1a9391f62393bdb109329d461c8a47069c58b2fe5",
            2210,
        )

    def test_each_link_is_drawn_as_schedule_from_episodes_draws_it(self):
        n, horizon = 12, 900.0
        classes = stratified_classes(n, np.random.default_rng(5))
        table = build_failure_table(
            n, horizon, np.random.default_rng(8), node_classes=classes
        )
        rng = np.random.default_rng(8)
        expected = []
        for a in range(n):
            for b in range(a + 1, n):
                pa, pb = DEFAULT_CLASS_PARAMS[classes[a]], DEFAULT_CLASS_PARAMS[classes[b]]
                sched = schedule_from_episodes(
                    rng,
                    horizon,
                    0.002 + pa.duty_cycle + pb.duty_cycle,
                    max(pa.mean_outage_s, pb.mean_outage_s, 45.0),
                    sigma=max(pa.sigma_outage, pb.sigma_outage),
                )
                expected += [(a, b, s, e) for s, e in sched]
        assert expected
        assert list(zip(*(col.tolist() for col in link_windows(table)))) == expected


class TestPlanTable:
    def test_every_node_id_is_checked(self):
        with pytest.raises(WorkloadError):  # an empty side
            FaultPlan().partition(0.0, 10.0, [99], [])
        with pytest.raises(WorkloadError):
            FaultPlan().partition(0.0, 10.0, [0], [-1])
        with pytest.raises(WorkloadError):
            FaultPlan().partition(0.0, 10.0, [0, 1], [1, 2])
        plan = FaultPlan().partition(0.0, 10.0, [0], [1]).partition(0.0, 10.0, [2], [5])
        with pytest.raises(WorkloadError):  # a bad later cut
            plan.failure_table(5)
        with pytest.raises(WorkloadError):
            FaultPlan().node_outage(0.0, 10.0, [5]).failure_table(5)

    @given(
        st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), max_size=8),
        st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), max_size=8),
    )
    def test_merged_windows_are_sorted_and_disjoint(self, cuts, outages):
        plan = FaultPlan()
        for a, b in cuts:
            if a != b:
                plan.partition(min(a, b), max(a, b), (0,), (1,))
        for a, b in outages:
            if a != b:
                plan.node_outage(min(a, b), max(a, b), (2,))
        table = plan.failure_table(3)
        _, _, link_start, link_end = link_windows(table)
        for start, end in (
            (link_start, link_end),
            (table._node_start, table._node_end),
        ):
            # Each window is non-empty and ends strictly before the next
            # starts: touching windows were joined too.
            assert (start < end).all()
            assert (end[:-1] < start[1:]).all()

    def test_cut_and_outage_windows_merge(self):
        table = (
            FaultPlan()
            .partition(10.0, 20.0, [0, 1], [2])
            .partition(20.0, 30.0, [0], [2, 3])  # touches (0, 2)'s first window
            .partition(15.0, 25.0, [3], [0])  # overlaps (0, 3)'s window
            .node_outage(40.0, 50.0, [4])
            .node_outage(45.0, 60.0, [4, 5])
            .failure_table(6)
        )
        i, j, start, end = link_windows(table)
        assert list(zip(i.tolist(), j.tolist(), start.tolist(), end.tolist())) == [
            (0, 2, 10.0, 30.0),
            (0, 3, 15.0, 30.0),
            (1, 2, 10.0, 20.0),
        ]
        for t, node4, node5 in ((39.0, True, True), (40.0, False, True),
                                (45.0, False, False), (59.9, False, False),
                                (60.0, True, True)):
            assert table.node_is_up(4, t) is node4
            assert table.node_is_up(5, t) is node5


#: Windows on a small integer grid, so that overlapping, touching,
#: duplicate and empty ones are all common.
_window = st.tuples(st.integers(0, 12), st.integers(0, 12)).map(
    lambda p: (float(min(p)), float(max(p)))
)


@st.composite
def fault_specs(draw):
    """``n``, then partition cuts ``(start, end, side_a, side_b)`` on
    random disjoint side pairs (singletons included, some cuts repeated)
    and node outages ``(start, end, nodes)``, as a plan would be given
    them."""
    n = draw(st.integers(1, 7))
    cuts = []
    for _ in range(draw(st.integers(0, 6)) if n > 1 else 0):
        a = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
        b = draw(st.sets(st.sampled_from(sorted(set(range(n)) - a)), min_size=1))
        cuts.append((*draw(_window), sorted(a), sorted(b, reverse=True)))
    if cuts:
        cuts += draw(st.lists(st.sampled_from(cuts), max_size=2))
    outages = [
        (*draw(_window), draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3)))
        for _ in range(draw(st.integers(0, 3)))
    ]
    return n, cuts, outages


class TestFlatQueries:
    @given(fault_specs(), st.lists(st.integers(0, 6), max_size=8))
    def test_every_query_agrees_with_the_raw_windows(self, spec, dsts):
        n, cuts, outages = spec
        plan = FaultPlan()
        for start, end, a, b in cuts:
            if end > start:
                plan.partition(start, end, a, b)
            else:  # an empty window is refused where it is written
                with pytest.raises(WorkloadError):
                    plan.partition(start, end, a, b)
        for start, end, nodes in outages:
            if end > start:
                plan.node_outage(start, end, nodes)
            else:
                with pytest.raises(WorkloadError):
                    plan.node_outage(start, end, nodes)
        table = plan.failure_table(n)
        js = np.array([j % n for j in dsts], dtype=np.int64)

        def node_down(i, t):
            return any(s <= t < e and i in nodes for s, e, nodes in outages)

        def cut_down(i, j, t):
            return any(
                s <= t < e and ((i in a and j in b) or (i in b and j in a))
                for s, e, a, b in cuts
            )

        times = np.arange(-0.5, 13.0, 0.5).tolist()
        for t in times[1::2] + times[::-2]:  # forwards, then backwards
            matrix = table.up_matrix(t)
            assert matrix.shape == (n, n) and matrix.dtype == bool
            for i in range(n):
                row = table.up_vector(i, t)
                assert (matrix[i] == row).all()
                assert table.node_is_up(i, t) is not node_down(i, t)
                if node_down(i, t):  # a down source sees only itself
                    assert row.tolist() == [j == i for j in range(n)]
                for j in range(n):
                    expected = i == j or not (
                        node_down(i, t) or node_down(j, t) or cut_down(i, j, t)
                    )
                    assert table.link_is_up(i, j, t) is expected
                    assert row[j] == expected
                assert table.up_many(i, js, t).tolist() == row[js].tolist()
