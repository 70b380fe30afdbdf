"""Ablation — the routing-interval halving (§4/§5 design choice).

The paper runs the quorum system at r = 15 s (half of full mesh)
because routes take two intervals to reflect fresh probes. Halving the
interval doubles routing traffic and halves freshness; even doubled,
quorum traffic remains far below full mesh at scale.
"""

import pytest
from conftest import published


def test_routing_interval_ablation():
    _, (fast, slow) = published("ablations")

    assert fast.routing_interval_s == 15.0
    # Twice the traffic...
    assert fast.mean_routing_kbps == pytest.approx(
        2.0 * slow.mean_routing_kbps, rel=0.2
    )
    # ... buys roughly half the staleness.
    assert fast.median_freshness_s < 0.75 * slow.median_freshness_s
