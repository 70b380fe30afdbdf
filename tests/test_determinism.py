"""End-to-end determinism: identical seeds produce identical runs.

Reproducibility is a core property of the evaluation harness — every
figure in EXPERIMENTS.md is regenerated from fixed seeds.
"""

import numpy as np

from repro.net.trace import planetlab_like, uniform_random_metric
from repro.overlay.config import RouterKind
from repro.overlay.harness import build_overlay
from repro.workloads import ChurnTrace, FaultPlan, replay


def run_once(seed=77, n=16, duration=150.0):
    rng = np.random.default_rng(seed)
    trace = uniform_random_metric(n, rng)
    ov = build_overlay(trace=trace, router=RouterKind.QUORUM, rng=rng)
    ov.run(duration)
    return ov


def run_churn_once(seed=5, churn_seed=11, n=20, duration=240.0):
    churn = ChurnTrace.poisson(
        n=n,
        rate_per_s=0.05,
        duration_s=duration,
        seed=churn_seed,
        crash_fraction=0.5,
        warmup_s=45.0,
    )
    rng = np.random.default_rng(seed)
    trace = uniform_random_metric(n, rng)
    ov = build_overlay(
        trace=trace,
        router=RouterKind.QUORUM,
        rng=rng,
        with_freshness=False,
        active_members=churn.initial_active,
    )
    plan = FaultPlan().add_churn(churn)
    recorder = replay(ov, plan, churn.duration_s + 90.0)
    # Every planned event was applied: the overlay ends on the trace's
    # final active set.
    assert sorted(ov.active) == list(churn.active_at_end())
    return ov, plan, recorder


class TestDeterminism:
    def test_route_tables_identical(self):
        a = run_once()
        b = run_once()
        assert np.array_equal(a.route_hops(), b.route_hops())

    def test_bandwidth_identical(self):
        a = run_once()
        b = run_once()
        assert np.array_equal(
            a.routing_bps(30.0, 150.0), b.routing_bps(30.0, 150.0)
        )
        assert np.array_equal(
            a.probing_bps(30.0, 150.0), b.probing_bps(30.0, 150.0)
        )

    def test_freshness_samples_identical(self):
        a = run_once()
        b = run_once()
        assert np.array_equal(a.freshness.ages(), b.freshness.ages())

    def test_different_seeds_differ(self):
        # Different seeds give different underlays and therefore
        # different routes and freshness traces. (Probing *bandwidth* is
        # intentionally seed-independent on a lossless underlay: every
        # node probes every peer the same number of times.)
        a = run_once(seed=77)
        b = run_once(seed=78)
        assert not np.array_equal(a.route_hops(), b.route_hops())
        assert not np.array_equal(a.freshness.ages(), b.freshness.ages())

    def test_trace_generation_deterministic(self):
        t1 = planetlab_like(60, np.random.default_rng(4))
        t2 = planetlab_like(60, np.random.default_rng(4))
        assert np.array_equal(t1.rtt_ms, t2.rtt_ms)
        assert np.array_equal(t1.inflated, t2.inflated)


class TestChurnDeterminism:
    """A churn workload is as reproducible as a static run: identical
    seeds give byte-identical disruption and bandwidth stats."""

    def test_same_seed_identical_disruption_and_bandwidth(self):
        ov_a, plan_a, rec_a = run_churn_once()
        ov_b, plan_b, rec_b = run_churn_once()
        # The planned event sequence matches exactly...
        assert plan_a.member_events == plan_b.member_events
        # ...the disruption instrumentation is byte-identical...
        t_a, avail_a = rec_a.availability_series()
        t_b, avail_b = rec_b.availability_series()
        assert np.array_equal(t_a, t_b)
        assert np.array_equal(avail_a, avail_b)
        assert rec_a.events() == rec_b.events()
        assert np.array_equal(
            rec_a.disruption_durations(),
            rec_b.disruption_durations(),
        )
        # ...and so is the bandwidth accounting.
        assert np.array_equal(
            ov_a.bandwidth.bytes_per_node(), ov_b.bandwidth.bytes_per_node()
        )
        assert np.array_equal(
            ov_a.routing_bps(45.0, 240.0), ov_b.routing_bps(45.0, 240.0)
        )

    def test_different_churn_seed_differs(self):
        _, plan_a, _ = run_churn_once(churn_seed=11)
        _, plan_b, _ = run_churn_once(churn_seed=12)
        assert plan_a.member_events != plan_b.member_events

    def test_different_overlay_seed_differs(self):
        # Same churn trace, different underlay/phases: the event
        # sequence matches but the measured series do not.
        ov_a, plan_a, rec_a = run_churn_once(seed=5)
        ov_b, plan_b, rec_b = run_churn_once(seed=6)
        assert plan_a.member_events == plan_b.member_events
        _, avail_a = rec_a.availability_series()
        _, avail_b = rec_b.availability_series()
        assert not (
            np.array_equal(avail_a, avail_b)
            and np.array_equal(
                ov_a.bandwidth.bytes_per_node(), ov_b.bandwidth.bytes_per_node()
            )
        )
