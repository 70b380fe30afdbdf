"""Membership scaling — view-change cost under churn at n up to 2048.

Workload extension (not a paper figure): the §5 membership service is
driven alone (no routing/probing) under identical Poisson churn traces
in three delivery modes. The incremental (delta) protocol must make a
view change cost O(changes) bytes rather than O(n): for a single-member
change at n = 1024 the delta message is required to be at most 10% of
the full-view message, every mode must converge every subscriber to the
coordinator's exact final view, and batching must publish strictly
fewer versions than immediate delivery under the same trace.

The in-band guard replays the same traces with view updates as real
wire messages over a 1%-loss underlay: every live member must end the
run holding the coordinator's exact view with no divergence window left
open, and the reliability layer's repair resends must keep total update
bytes within 2x of the out-of-band accounting model.
"""

from conftest import emit

from repro.experiments.membership_scaling import (
    churn_trace_for,
    run_in_band_scaling,
    run_membership_mode,
    run_membership_scaling,
)

SIZES = (256, 1024, 2048)
IN_BAND_SIZES = (256, 1024)


def test_membership_scaling(benchmark, results_dir):
    result = benchmark.pedantic(
        run_membership_scaling,
        kwargs={"sizes": SIZES, "duration_s": 300.0, "seed": 42},
        rounds=1,
        iterations=1,
    )
    emit(results_dir, "table_membership_scaling", result.format_table())

    runs = {(s.n, s.mode): s for s in result.rows}
    for n in SIZES:
        full = runs[n, "full"]
        delta = runs[n, "delta"]
        batched = runs[n, "delta-batch"]
        # Convergence is the correctness bar in every mode.
        assert full.converged and delta.converged and batched.converged
        # Identical trace => identical immediate-mode publication counts.
        assert delta.views_published == full.views_published
        assert delta.updates_sent == full.updates_sent
        # The whole point: deltas decouple update cost from n.
        assert delta.total_bytes < full.total_bytes
        # Batching coalesces bursts into fewer view transitions.
        assert batched.views_published < delta.views_published
        assert batched.total_bytes <= delta.total_bytes

    # Acceptance: at n=1024 a single-member view change costs <= 10% of
    # the full-view bytes on the delta path (O(changes), not O(n)).
    delta_1024 = runs[1024, "delta"]
    assert delta_1024.single_change_ratio <= 0.10
    # And the *measured* per-update cost reflects it: the delta run's
    # mean update is a small fraction of the full-view run's.
    full_1024 = runs[1024, "full"]
    assert delta_1024.bytes_per_update <= 0.10 * full_1024.bytes_per_update


def test_membership_in_band_guard(benchmark, results_dir):
    result = benchmark.pedantic(
        run_in_band_scaling,
        kwargs={"sizes": IN_BAND_SIZES, "duration_s": 300.0, "seed": 42},
        rounds=1,
        iterations=1,
    )
    emit(results_dir, "table_membership_in_band", result.format_table())

    for stats in result.rows:
        # The wire actually dropped traffic — the reliability layer was
        # genuinely exercised, not idling on a lossless run.
        assert stats.transport_dropped > 0
        # Acceptance: every live member reconverged to the coordinator's
        # exact final view after every change, and no view-divergence
        # window was left open (they are bounded by the heartbeat-repair
        # cadence, so all must have closed by the end of the run).
        assert stats.converged
        assert not stats.div_open
        # Bounded: divergence cannot outlive the churn phase plus two
        # heartbeat-repair rounds (the reliability layer's backstop).
        assert stats.div_max_s <= 300.0 + 2 * 80.0
        assert stats.div_total_s <= 300.0 + 2 * 80.0

    # Guard: at n=1024 the in-band delta bytes (including every repair
    # resend and full-view fallback the loss forced) stay within 2x of
    # the out-of-band accounting model on the identical trace.
    (in_1024,) = [s for s in result.rows if s.n == 1024]
    out_1024 = run_membership_mode(churn_trace_for(1024), "delta")
    assert in_1024.repairs > 0  # losses occurred and were repaired
    assert in_1024.update_bytes <= 2.0 * out_1024.total_bytes
