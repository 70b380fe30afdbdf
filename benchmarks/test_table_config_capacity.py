"""§5 configuration table, §6.1 coefficients, and §1 capacity headlines.

Paper results reproduced exactly from the calibrated wire model:

* probing 49.1n; full mesh 1.6n^2+24.5n; quorum 6.4n^1.5+17.1n+196.3√n;
* 56 Kbps budget: 165 nodes (RON) vs ~300 (quorum);
* 416 PlanetLab sites: 307 vs 86 Kbps;
* 10,000-node Skype overlay: ~50x routing-traffic reduction.
"""

import pytest
from conftest import published

from repro.experiments.capacity_tables import coefficients_table, config_table


def test_config_and_coefficients_tables():
    published("capacity")
    cfg, coeff = config_table(), coefficients_table()
    assert "30s" in cfg and "15s" in cfg
    assert "49.07" in coeff


def test_capacity_headlines():
    head = published("capacity")

    assert head.fullmesh_nodes_at_budget == 165
    assert 280 <= head.quorum_nodes_at_budget <= 310
    assert head.planetlab["fullmesh_total_bps"] / 1000 == pytest.approx(307, abs=2)
    assert head.planetlab["quorum_total_bps"] / 1000 == pytest.approx(86, abs=2)
    assert head.skype_reduction_10k == pytest.approx(50, rel=0.08)
