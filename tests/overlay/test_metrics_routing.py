"""Tests for routing on loss / combined metrics (RON's metric set)."""

import numpy as np
import pytest

from repro.core.metrics import PathMetric
from repro.net.trace import SyntheticTrace
from repro.overlay.config import OverlayConfig, RouterKind
from repro.overlay.harness import build_overlay
from repro.overlay.linkstate import LinkStateRow, LinkStateTable


def lossy_triangle_trace(n=9):
    """Node 0 <-> 8: direct link fast but very lossy; detour via 4 is
    lossless and only slightly slower. All other links have visible
    (5%) loss so the monitor's estimates separate them from the clean
    detour."""
    rtt = np.full((n, n), 80.0)
    loss = np.full((n, n), 0.05)
    rtt[0, 8] = rtt[8, 0] = 50.0
    loss[0, 8] = loss[8, 0] = 0.30
    rtt[0, 4] = rtt[4, 0] = 40.0
    rtt[4, 8] = rtt[8, 4] = 40.0
    loss[0, 4] = loss[4, 0] = 0.0
    loss[4, 8] = loss[8, 4] = 0.0
    np.fill_diagonal(rtt, 0.0)
    np.fill_diagonal(loss, 0.0)
    return SyntheticTrace(
        rtt_ms=rtt,
        loss=loss,
        regions=np.zeros(n, dtype=int),
        access_ms=np.zeros(n),
        is_hub=np.zeros(n, dtype=bool),
        inflated=np.zeros((n, n), dtype=bool),
    )


def run_with_metric(metric, seed=5):
    config = OverlayConfig(path_metric=metric)
    rng = np.random.default_rng(seed)
    ov = build_overlay(
        trace=lossy_triangle_trace(),
        router=RouterKind.QUORUM,
        rng=rng,
        config=config,
        with_freshness=False,
    )
    ov.run(240.0)
    return ov


class TestEffectiveCost:
    def test_latency_metric_is_default(self):
        t = LinkStateTable(3)
        lat = np.array([0.0, 20.0, 30.0])
        alive = np.ones(3, dtype=bool)
        t.update_row(0, LinkStateRow(0, lat, alive, np.array([0.0, 0.5, 0.0])), 0.0)
        assert np.allclose(t.effective_cost(0), t.effective_latency(0))

    def test_loss_metric_transforms(self):
        t = LinkStateTable(3)
        lat = np.array([0.0, 20.0, 30.0])
        alive = np.ones(3, dtype=bool)
        t.update_row(0, LinkStateRow(0, lat, alive, np.array([0.0, 0.5, 0.0])), 0.0)
        row = t.effective_cost(0, PathMetric.LOSS)
        assert row[0] == 0.0
        assert row[1] == pytest.approx(-np.log(0.5))
        assert row[2] == 0.0

    def test_combined_penalizes_loss(self):
        t = LinkStateTable(3)
        lat = np.array([0.0, 20.0, 20.0])
        alive = np.ones(3, dtype=bool)
        t.update_row(0, LinkStateRow(0, lat, alive, np.array([0.0, 0.3, 0.0])), 0.0)
        row = t.effective_cost(0, PathMetric.COMBINED, loss_penalty_ms=100.0)
        assert row[1] > row[2]

    def test_dead_links_inf_under_all_metrics(self):
        t = LinkStateTable(3)
        lat = np.array([0.0, 20.0, 30.0])
        alive = np.array([True, True, False])
        t.update_row(0, LinkStateRow(0, lat, alive, np.zeros(3)), 0.0)
        for metric in PathMetric:
            assert np.isinf(t.effective_cost(0, metric)[2])


class TestMetricRouting:
    def test_latency_router_takes_lossy_shortcut(self):
        ov = run_with_metric(PathMetric.LATENCY)
        route = ov.nodes[0].route_to(8)
        assert route.is_direct  # 50 ms direct beats 80 ms detour

    @staticmethod
    def _true_path_loss(ov, route):
        loss = lossy_triangle_trace().loss
        if route.is_direct:
            return loss[0, 8]
        h = route.hop
        return 1.0 - (1.0 - loss[0, h]) * (1.0 - loss[h, 8])

    def test_loss_router_avoids_lossy_link(self):
        """The chosen detour's true end-to-end loss must be far below
        the 30%-lossy direct link (estimates are noisy after a few probe
        rounds, so the exact hop may be any low-loss candidate)."""
        ov = run_with_metric(PathMetric.LOSS)
        route = ov.nodes[0].route_to(8)
        assert not route.is_direct
        assert self._true_path_loss(ov, route) < 0.15

    def test_combined_router_avoids_lossy_link(self):
        ov = run_with_metric(PathMetric.COMBINED)
        route = ov.nodes[0].route_to(8)
        assert not route.is_direct
        assert self._true_path_loss(ov, route) < 0.15


class TestConfigValidation:
    def test_negative_penalty_rejected(self):
        with pytest.raises(Exception):
            OverlayConfig(loss_penalty_ms=-1.0)

    def test_default_metric_is_latency(self):
        assert OverlayConfig().path_metric is PathMetric.LATENCY
