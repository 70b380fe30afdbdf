"""Tests for the experiment runners (small/fast parameterizations).

The benchmarks run the paper-scale versions; these tests verify the
experiment *logic* — series shapes, qualitative orderings, bound checks —
at sizes that keep the suite quick.
"""

import math

import numpy as np
import pytest

from repro.experiments.ablation_interval import (
    format_interval_ablation,
    run_interval_ablation,
)
from repro.experiments.ablation_quorum import (
    format_quorum_ablation,
    run_quorum_ablation,
)
from repro.experiments.capacity_tables import (
    capacity_table,
    coefficients_table,
    config_table,
    run_capacity_headlines,
)
from repro.experiments.deployment import run_deployment
from repro.experiments.fig1_onehop_cdf import run_fig1
from repro.experiments.fig9_bandwidth_scaling import run_fig9
from repro.experiments.multihop_scaling import (
    format_multihop_scaling,
    run_multihop_scaling,
)
from repro.experiments.scenarios import format_scenarios, run_all_scenarios
from repro.overlay import wire


class TestFig1:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig1(n_hosts=200, seed=2005)

    def test_series_present(self, result):
        assert set(result.series) == {
            "point_to_point",
            "best_one_hop",
            "excluding_top_50pct",
            "excluding_top_3pct",
        }

    def test_all_series_same_length(self, result):
        sizes = {len(v) for v in result.series.values()}
        assert sizes == {result.num_high_latency_pairs}

    def test_ordering_best_beats_exclusions_beats_direct(self, result):
        """The Figure 1 dominance ordering at the 400 ms mark."""
        frac = result.fraction_improved_below(400.0)
        assert frac["point_to_point"] == 0.0  # pairs selected as > 400
        assert frac["best_one_hop"] >= frac["excluding_top_3pct"]
        assert frac["excluding_top_3pct"] >= frac["excluding_top_50pct"]
        assert frac["best_one_hop"] > 0.2  # detours help many pairs

    def test_random_intermediaries_rarely_help(self, result):
        """The paper's punchline: the bottom 50% contains ~no good hops."""
        frac = result.fraction_improved_below(400.0)
        assert frac["excluding_top_50pct"] < 0.15

    def test_cdf_monotone(self, result):
        grid = np.arange(200.0, 1001.0, 50.0)
        for vals in result.cdf(grid).values():
            assert np.all(np.diff(vals) >= -1e-12)

    def test_format_table(self, result):
        out = result.format_table()
        assert "Figure 1" in out
        assert "best_one_hop" in out


class TestFig9:
    @pytest.fixture(scope="class")
    def result(self):
        # Eight routing intervals, on the recorder's 10 s bucket edges.
        return run_fig9(sizes=(16, 49, 100), duration_s=120.0, warmup_s=60.0)

    def test_quorum_wins_at_100(self, result):
        k = result.sizes.index(100)
        assert result.measured_quorum_bps[k] < result.measured_fullmesh_bps[k]

    def test_measured_tracks_theory(self, result):
        """The quorum measurement is held to what the emulation sends —
        2(sqrt(n)-1) messages of each kind each way, not the closed
        form's 2 sqrt(n), which at n = 16 is 43 % more — and to the
        byte: a failure-free overlay has no reason to send anything
        else (rows to bootstrap failover servers were +0.2 ... +0.5 %)."""
        for k, n in enumerate(result.sizes):
            assert result.measured_fullmesh_bps[k] == pytest.approx(
                result.theory_fullmesh_bps[k], rel=0.25
            )
            # m servers and m clients: m rows and m recommendation
            # messages (one entry per fellow client) each way, per 15 s.
            m = 2 * (math.isqrt(n) - 1)
            sent_bytes = m * wire.linkstate_message_bytes(n) + m * (
                wire.recommendation_message_bytes(m - 1)
            )
            assert result.measured_quorum_bps[k] == pytest.approx(
                2 * sent_bytes * 8 / 15.0, rel=1e-6
            )

    def test_measured_at_or_below_theory(self, result):
        """Emulation sends 2(sqrt(n)-1) messages vs theory's 2 sqrt(n),
        and the full mesh sends n-1 vs n, so measurements sit below the
        closed forms (§6.1)."""
        for k in range(len(result.sizes)):
            assert (
                result.measured_fullmesh_bps[k]
                <= result.theory_fullmesh_bps[k] * 1.02
            )
            assert result.measured_quorum_bps[k] <= result.theory_quorum_bps[k]

    def test_table_renders(self, result):
        assert "Figure 9" in result.format_table()


class TestDeploymentSmall:
    @pytest.fixture(scope="class")
    def result(self):
        return run_deployment(n=36, duration_s=300.0, warmup_s=120.0, seed=6)

    def test_shapes(self, result):
        assert result.concurrent_failures.shape[1] == 36
        assert result.double_failures.shape[1] == 36
        assert result.routing_bps_mean.shape == (36,)
        for stat in ("median", "average", "p97", "max"):
            assert result.freshness_stats[stat].shape == (36, 36)

    def test_poorly_connected_node_sees_more_failures(self, result):
        well, poor = result.well_and_poorly_connected()
        assert (
            result.fig8_mean_per_node()[poor]
            > result.fig8_mean_per_node()[well]
        )

    def test_freshness_typical_below_routing_interval(self, result):
        # With two unsynchronized rendezvous per destination, typical
        # freshness sits well below the 15 s routing interval (§6.2.2).
        assert result.fig12_typical_median() < 15.0

    def test_median_below_p97_below_max(self, result):
        off = ~np.eye(36, dtype=bool)
        med = result.freshness_stats["median"][off]
        p97 = result.freshness_stats["p97"][off]
        mx = result.freshness_stats["max"][off]
        finite = np.isfinite(mx)
        assert np.all(med[finite] <= p97[finite] + 1e-6)
        assert np.all(p97[finite] <= mx[finite] + 1e-6)

    def test_tables_render(self, result):
        assert "Figure 8" in result.fig8_table()
        assert "Figure 10" in result.fig10_table()
        assert "Figure 11" in result.fig11_table()
        assert "Figure 12" in result.fig12_table()
        well, poor = result.well_and_poorly_connected()
        assert "Figures 13/14" in result.fig13_14_table(well)

    def test_routing_bandwidth_positive_and_bounded(self, result):
        # theory at n=36 with failover overhead margin
        from repro.analysis.bandwidth import quorum_routing_bps

        theory = quorum_routing_bps(36)
        assert np.all(result.routing_bps_mean > 0.3 * theory)
        assert np.all(result.routing_bps_mean < 2.5 * theory)


class TestScenarios:
    @pytest.fixture(scope="class")
    def results(self):
        return run_all_scenarios(n=36, seed=8)

    def test_all_within_paper_bounds(self, results):
        for res in results:
            assert res.within_bound, f"{res.name}/{res.router}: {res.effective_recovery_s}"

    def test_scenario3_bound_larger(self, results):
        by_name = {(r.name, r.router.value): r for r in results}
        assert (
            by_name[("scenario-3", "quorum")].bound_s
            > by_name[("scenario-2", "quorum")].bound_s
        )

    def test_format(self, results):
        assert "scenario-1" in format_scenarios(results)


class TestCapacityTables:
    def test_headlines(self):
        head = run_capacity_headlines()
        assert head.fullmesh_nodes_at_budget == 165
        assert 280 <= head.quorum_nodes_at_budget <= 310
        assert head.skype_reduction_10k == pytest.approx(50, rel=0.08)

    def test_tables_render(self):
        assert "routing interval" in config_table()
        assert "49.1" in coefficients_table()
        assert "165" in capacity_table()


class TestAblations:
    def test_quorum_ablation_shape(self):
        rows = run_quorum_ablation(n=49)
        by_name = {r.name: r for r in rows}
        grid = by_name["grid (paper)"]
        mesh = by_name["full-mesh (RON)"]
        star = by_name["central star"]
        assert grid.coverage == 1.0 and mesh.coverage == 1.0
        assert grid.mean_bytes < 0.5 * mesh.mean_bytes
        assert star.load_imbalance > 10.0
        assert grid.load_imbalance < 1.5
        assert by_name["random c=1"].coverage < 1.0
        assert "grid" in format_quorum_ablation(rows)

    def test_interval_ablation(self):
        rows = run_interval_ablation(n=25, duration_s=240.0, warmup_s=90.0)
        fast, slow = rows
        # Halving the interval halves freshness and doubles traffic.
        assert fast.median_freshness_s < slow.median_freshness_s
        assert fast.mean_routing_kbps == pytest.approx(
            2 * slow.mean_routing_kbps, rel=0.25
        )
        assert "Routing-interval" in format_interval_ablation(rows)


class TestMultihopScaling:
    def test_correct_and_scales(self):
        rows = run_multihop_scaling(sizes=(16, 49))
        assert all(r.routes_correct for r in rows)
        # multi-hop costs ~log2(n) one-hop iterations
        for r in rows:
            assert 2.0 < r.multihop_over_onehop < 2.5 * r.iterations
        assert "multi-hop" in format_multihop_scaling(rows)


class TestChurnExperiments:
    """Small/fast parameterizations of the churn workload experiments."""

    def test_comparison_runs_both_routers_on_one_trace(self):
        from repro.experiments.churn import run_churn_comparison

        result = run_churn_comparison(
            n=20, rate_per_s=0.05, duration_s=180.0, seed=7, settle_s=90.0
        )
        assert [s.router for s in result.rows] == ["quorum", "full-mesh"]
        quorum, mesh = result.rows
        # Identical trace: both rows report the same event counts.
        assert (quorum.num_joins, quorum.num_leaves, quorum.num_fails) == (
            mesh.num_joins,
            mesh.num_leaves,
            mesh.num_fails,
        )
        for s in result.rows:
            assert 0.0 <= s.min_availability <= s.mean_availability <= 1.0
        assert "identical Poisson churn" in result.format_table()

    def test_mass_failure_both_routers_recover(self):
        from repro.experiments.churn import run_mass_failure_sweep

        result = run_mass_failure_sweep(
            n=20, fractions=(0.25,), seed=7, fail_at_s=120.0, settle_s=240.0
        )
        assert [(frac, s.router) for frac, s in result.rows] == [
            (0.25, "quorum"),
            (0.25, "full-mesh"),
        ]
        for _, stats in result.rows:
            assert stats.num_fails == 5
            assert stats.recovered
            assert stats.recovery_s <= 180.0
        assert "Mass failure" in result.format_table()

    def test_flash_crowd_settles(self):
        from repro.experiments.churn import run_flash_crowd

        result = run_flash_crowd(n=20, count=5, seed=7, at_s=120.0, settle_s=180.0)
        for s in result.rows:
            assert s.num_joins == 5
            assert s.recovery_s is not None  # newcomers became routable
        assert "Flash crowd" in result.format_table()

    def test_in_band_churn_reconverges(self):
        from repro.experiments.churn import run_in_band_churn

        result = run_in_band_churn(n=20, duration_s=150.0, seed=1)
        assert [row[0] for row in result.rows] == ["out-of-band", "in-band"]
        for _, stats, divergence, _ in result.rows:
            assert 0.0 <= stats.min_availability <= stats.mean_availability <= 1.0
            assert not divergence["open"]  # every divergence window closed
        assert "in-band" in result.format_table()

    def test_in_band_membership_converges_under_loss(self, monkeypatch):
        from repro.experiments import membership_scaling
        from repro.experiments.membership_scaling import (
            churn_trace_for,
            run_membership_in_band,
        )

        monkeypatch.setattr(membership_scaling, "IN_BAND_LOSS", 0.02)
        stats = run_membership_in_band(churn_trace_for(128, duration_s=200.0, seed=7), seed=7)
        assert stats.transport_dropped > 0  # the wire really dropped traffic
        assert stats.repairs > 0  # ...and the reliability layer repaired it
        assert stats.converged
        assert not stats.div_open


class TestMembershipScalingClients:
    """The membership experiments run the overlay's own coordinator
    clients on membership-only stand-in nodes."""

    @staticmethod
    def count_calls(monkeypatch, owner, name):
        calls = []
        original = getattr(owner, name)

        def counting(self, *args, **kwargs):
            calls.append(self.node.id)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
        return calls

    def test_runs_drive_callback_and_wire_clients(self, monkeypatch):
        from repro.experiments import membership_scaling
        from repro.experiments.membership_scaling import (
            churn_trace_for,
            run_membership_in_band,
            run_membership_mode,
        )
        from repro.overlay.membership import CallbackClient, WireClient

        gaps = self.count_calls(monkeypatch, WireClient, "on_version_gap")
        heartbeats = self.count_calls(monkeypatch, CallbackClient, "heartbeat")
        trace = churn_trace_for(64, duration_s=150.0, seed=7)
        assert run_membership_mode(trace, "delta").converged
        assert heartbeats
        monkeypatch.setattr(membership_scaling, "IN_BAND_LOSS", 0.02)
        stats = run_membership_in_band(churn_trace_for(128, duration_s=200.0, seed=7), seed=7)
        assert stats.converged
        assert gaps  # a lost delta made a WireClient ask for the repair

    def test_dropped_delta_fails_out_of_band_convergence(self, monkeypatch):
        """Out-of-band delivery is reliable: a delta that does not chain
        onto the held view is a fault even if the final view is right."""
        from repro.experiments import membership_scaling
        from repro.experiments.membership_scaling import (
            churn_trace_for,
            run_membership_mode,
        )
        from repro.overlay.membership import ViewDelta

        stand_in = membership_scaling._StandIn
        on_view = stand_in.on_view
        injected = []

        def with_one_stray_delta(self, update, epoch=0):
            if isinstance(update, ViewDelta) and not injected:
                stray = ViewDelta(
                    from_version=update.to_version + 1,
                    to_version=update.to_version + 2,
                    joined=(),
                    left=(),
                )
                on_view(self, stray, epoch)
                injected.append(self.membership.dropped_unappliable_deltas)
            on_view(self, update, epoch)

        monkeypatch.setattr(stand_in, "on_view", with_one_stray_delta)
        trace = churn_trace_for(64, duration_s=150.0, seed=7)
        assert not run_membership_mode(trace, "delta").converged
        assert injected == [1]  # the stray was dropped, not applied
        monkeypatch.undo()
        assert run_membership_mode(trace, "delta").converged
