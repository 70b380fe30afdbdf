"""Tests for synthetic latency trace generation."""

import numpy as np
import pytest

from repro.errors import TopologyError
from repro.net import trace as trace_module
from repro.net.trace import (
    REGION_BASE_RTT_MS,
    REGION_WEIGHTS,
    REGIONS,
    planetlab_like,
    uniform_random_metric,
)


class TestRegionModel:
    def test_region_matrix_is_symmetric(self):
        assert np.allclose(REGION_BASE_RTT_MS, REGION_BASE_RTT_MS.T)

    def test_region_weights_sum_to_one(self):
        assert abs(sum(REGION_WEIGHTS) - 1.0) < 1e-9
        assert len(REGION_WEIGHTS) == len(REGIONS)

    def test_intra_region_faster_than_cross_region(self):
        diag = np.diag(REGION_BASE_RTT_MS)
        off = REGION_BASE_RTT_MS[~np.eye(len(REGIONS), dtype=bool)]
        assert diag.max() < off.mean()


class TestPlanetlabLike:
    def test_validates(self, rng):
        trace = planetlab_like(80, rng)
        trace.validate()
        assert trace.n == 80

    def test_too_few_hosts_rejected(self, rng):
        with pytest.raises(TopologyError):
            planetlab_like(1, rng)

    def test_symmetric_zero_diagonal(self, rng):
        trace = planetlab_like(50, rng)
        assert np.allclose(trace.rtt_ms, trace.rtt_ms.T)
        assert np.all(np.diag(trace.rtt_ms) == 0)

    def test_has_hub_hosts(self, rng):
        trace = planetlab_like(100, rng)
        assert trace.is_hub.any()
        # hubs have small access penalties
        assert trace.access_ms[trace.is_hub].max() < 5.0

    def test_hub_links_never_inflated(self, rng):
        trace = planetlab_like(100, rng)
        hubs = np.where(trace.is_hub)[0]
        assert not trace.inflated[hubs, :].any()
        assert not trace.inflated[:, hubs].any()

    def test_inflation_raises_latency(self, rng):
        trace = planetlab_like(200, rng)
        same_region = trace.regions[:, None] == trace.regions[None, :]
        cross = ~same_region & ~np.eye(trace.n, dtype=bool)
        inflated = trace.rtt_ms[trace.inflated & cross]
        normal = trace.rtt_ms[~trace.inflated & cross]
        if inflated.size and normal.size:
            assert inflated.mean() > normal.mean()

    def test_produces_high_latency_paths_at_scale(self, rng):
        trace = planetlab_like(359, rng)
        n = trace.n
        upper = trace.rtt_ms[np.triu_indices(n, 1)]
        frac_high = (upper > 400.0).mean()
        # Figure 1 regime: a meaningful minority of pairs above 400 ms
        # (our congested-corridor environment is harsher than the 2005
        # dataset; the exclusion-curve shape is what matters).
        assert 0.02 < frac_high < 0.40

    def test_deterministic_given_seed(self):
        t1 = planetlab_like(40, np.random.default_rng(5))
        t2 = planetlab_like(40, np.random.default_rng(5))
        assert np.array_equal(t1.rtt_ms, t2.rtt_ms)
        assert np.array_equal(t1.loss, t2.loss)

    def test_loss_matrix_valid(self, rng):
        trace = planetlab_like(60, rng)
        assert np.all(trace.loss >= 0) and np.all(trace.loss <= 1)
        assert np.all(np.diag(trace.loss) == 0)


class TestUniformRandom:
    def test_validates(self, rng):
        uniform_random_metric(20, rng).validate()

    def test_bounds_respected(self, rng, monkeypatch):
        monkeypatch.setattr(trace_module, "UNIFORM_LOW_MS", 50.0)
        monkeypatch.setattr(trace_module, "UNIFORM_HIGH_MS", 60.0)
        trace = uniform_random_metric(20, rng)
        off = trace.rtt_ms[~np.eye(20, dtype=bool)]
        assert off.min() >= 50.0 and off.max() <= 60.0
