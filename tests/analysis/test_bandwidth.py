"""Tests for the closed-form bandwidth and capacity models."""

import pytest

from repro.analysis.bandwidth import (
    fullmesh_routing_bps,
    paper_coefficients,
    probing_bps,
    quorum_routing_bps,
    routing_bps,
    total_bps,
)
from repro.analysis.capacity import (
    capacity_at_budget,
    max_overlay_size,
    planetlab_sites_comparison,
    skype_scenario_reduction,
)
from repro.errors import ConfigError
from repro.overlay.config import RouterKind


class TestPaperCoefficients:
    """The §6.1 closed forms, coefficient by coefficient."""

    def test_all_six_coefficients(self):
        c = paper_coefficients()
        assert c["probing_linear"] == pytest.approx(49.1, abs=0.05)
        assert c["fullmesh_quadratic"] == pytest.approx(1.6, abs=0.01)
        assert c["fullmesh_linear"] == pytest.approx(24.5, abs=0.05)
        assert c["quorum_n15"] == pytest.approx(6.4, abs=0.01)
        assert c["quorum_linear"] == pytest.approx(17.1, abs=0.05)
        assert c["quorum_sqrt"] == pytest.approx(196.3, abs=0.1)

    def test_fig9_140_node_values(self):
        """§6.1: at n=140, 34.8 Kbps (full mesh) vs 15.3 Kbps (quorum)."""
        assert fullmesh_routing_bps(140) == pytest.approx(34_800, rel=0.002)
        assert quorum_routing_bps(140) == pytest.approx(15_300, rel=0.002)

    def test_interval_scaling_is_linear(self):
        assert fullmesh_routing_bps(100, 15.0) == pytest.approx(
            2 * fullmesh_routing_bps(100, 30.0)
        )
        assert quorum_routing_bps(100, 30.0) == pytest.approx(
            quorum_routing_bps(100, 15.0) / 2
        )

    def test_bad_arguments_rejected(self):
        with pytest.raises(ConfigError):
            probing_bps(-1)
        with pytest.raises(ConfigError):
            fullmesh_routing_bps(10, 0.0)
        with pytest.raises(ConfigError):
            quorum_routing_bps(10, -5.0)


class TestRoutingDispatch:
    def test_kind_dispatch(self):
        assert routing_bps(100, RouterKind.FULL_MESH) == fullmesh_routing_bps(100)
        assert routing_bps(100, RouterKind.QUORUM) == quorum_routing_bps(100)

    def test_total_includes_probing(self):
        total = total_bps(100, RouterKind.QUORUM)
        assert total == pytest.approx(probing_bps(100) + quorum_routing_bps(100))

    def test_fig9_point_at_140(self):
        assert total_bps(140, RouterKind.FULL_MESH) > total_bps(140, RouterKind.QUORUM)
        reduction = fullmesh_routing_bps(140) / quorum_routing_bps(140)
        assert reduction == pytest.approx(34.8 / 15.3, rel=0.01)


class TestCapacity:
    def test_56kbps_headline(self):
        """§1: 56 Kbps supports 165 (full mesh) vs ~300 (quorum) nodes."""
        comparison = capacity_at_budget()
        assert comparison.fullmesh_nodes == 165
        assert 280 <= comparison.quorum_nodes <= 310
        assert comparison.improvement > 1.7

    def test_planetlab_416_headline(self):
        """§1: 416 sites -> 307 Kbps (full mesh) vs 86 Kbps (quorum)."""
        result = planetlab_sites_comparison()
        assert result["fullmesh_total_bps"] / 1000 == pytest.approx(307, abs=2)
        assert result["quorum_total_bps"] / 1000 == pytest.approx(86, abs=2)

    def test_skype_10k_headline(self):
        """§6: ~50-fold reduction at 10,000 nodes, equal intervals."""
        assert skype_scenario_reduction() == pytest.approx(50, rel=0.08)

    def test_capacity_monotone_in_budget(self):
        small = max_overlay_size(10_000, RouterKind.QUORUM)
        large = max_overlay_size(100_000, RouterKind.QUORUM)
        assert large > small

    def test_capacity_respects_budget(self):
        n = max_overlay_size(56_000, RouterKind.QUORUM)
        assert total_bps(n, RouterKind.QUORUM) <= 56_000
        assert total_bps(n + 1, RouterKind.QUORUM) > 56_000

    def test_tiny_budget_zero_nodes(self):
        assert max_overlay_size(10.0, RouterKind.FULL_MESH) == 0

    def test_bad_budget_rejected(self):
        with pytest.raises(ConfigError):
            max_overlay_size(0.0, RouterKind.QUORUM)

    def test_quorum_always_fits_more(self):
        for budget in (30_000, 56_000, 200_000):
            quorum = max_overlay_size(budget, RouterKind.QUORUM)
            assert quorum >= max_overlay_size(budget, RouterKind.FULL_MESH)
