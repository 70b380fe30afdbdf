"""The paper's headline capacity arithmetic (§1, §2, §5, §6.1, App. A).

Four tables:

* the §5 configuration-parameter table,
* the §6.1 bandwidth coefficients against the paper's,
* the §1 capacity headlines (56 Kbps budget; 416 PlanetLab sites; the
  §2/§6 Skype scenario of 10,000 nodes at equal routing intervals),
* Appendix A: the grid quorum against the Ω(n√n) lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.analysis.bandwidth import (
    fullmesh_routing_bps,
    paper_coefficients,
    quorum_routing_bps,
)
from repro.analysis.capacity import (
    capacity_at_budget,
    planetlab_sites_comparison,
    skype_scenario_reduction,
)
from repro.analysis.tables import render_table
from repro.core.lowerbound import (
    grid_quorum_edges_received,
    optimality_ratio,
    theorem4_min_edges_per_node,
)
from repro.overlay.config import (
    PROBE_INTERVAL_S,
    PROBES_TO_FAIL,
    ROUTING_INTERVAL_FULL_S,
    ROUTING_INTERVAL_QUORUM_S,
)

__all__ = [
    "config_table",
    "lower_bound_table",
    "coefficients_table",
    "CapacityHeadlines",
    "run_capacity_headlines",
]


def config_table() -> str:
    """§5's parameter table."""
    rows = [
        ["routing interval (r)", f"{ROUTING_INTERVAL_FULL_S:.0f}s",
         f"{ROUTING_INTERVAL_QUORUM_S:.0f}s"],
        ["probing interval (p)", f"{PROBE_INTERVAL_S:.0f}s", f"{PROBE_INTERVAL_S:.0f}s"],
        ["#probes for failure", str(PROBES_TO_FAIL), str(PROBES_TO_FAIL)],
    ]
    return render_table(
        ["Configuration parameter", "Full-mesh (RON)", "Quorum System"],
        rows,
        title="§5 configuration parameters",
    )


def coefficients_table() -> str:
    """§6.1 closed-form coefficients vs the paper's printed values."""
    ours = paper_coefficients()
    paper = {
        "probing_linear": 49.1,
        "fullmesh_quadratic": 1.6,
        "fullmesh_linear": 24.5,
        "quorum_n15": 6.4,
        "quorum_linear": 17.1,
        "quorum_sqrt": 196.3,
    }
    rows = [[k, f"{ours[k]:.2f}", f"{paper[k]:.1f}"] for k in paper]
    return render_table(
        ["coefficient", "derived_from_wire_model", "paper"],
        rows,
        title="§6.1 bandwidth formula coefficients",
    )


@dataclass
class CapacityHeadlines:
    """The §1 numbers, computed from the models."""

    budget_bps: float
    fullmesh_nodes_at_budget: int
    quorum_nodes_at_budget: int
    planetlab: Dict[str, float]
    skype_reduction_10k: float

    def format_table(self) -> str:
        rows = [
            [
                "max nodes at 56 Kbps (paper: 165 vs ~300)",
                self.fullmesh_nodes_at_budget,
                self.quorum_nodes_at_budget,
            ],
            [
                "416 PlanetLab sites, total Kbps (paper: 307 vs 86)",
                f"{self.planetlab['fullmesh_total_bps'] / 1000:.1f}",
                f"{self.planetlab['quorum_total_bps'] / 1000:.1f}",
            ],
            [
                "10k-node routing reduction (paper: ~50x)",
                "1x",
                f"{self.skype_reduction_10k:.1f}x",
            ],
            [
                "140-node routing Kbps (paper Fig 9: 34.8 vs 15.3)",
                f"{fullmesh_routing_bps(140) / 1000:.1f}",
                f"{quorum_routing_bps(140) / 1000:.1f}",
            ],
        ]
        return render_table(
            ["claim", "full_mesh", "quorum"],
            rows,
            title="§1 capacity headlines",
        )


def run_capacity_headlines() -> CapacityHeadlines:
    comparison = capacity_at_budget()
    return CapacityHeadlines(
        budget_bps=comparison.budget_bps,
        fullmesh_nodes_at_budget=comparison.fullmesh_nodes,
        quorum_nodes_at_budget=comparison.quorum_nodes,
        planetlab=planetlab_sites_comparison(),
        skype_reduction_10k=skype_scenario_reduction(),
    )


#: Overlay sizes of the Appendix A table.
LOWER_BOUND_SIZES = (100, 400, 2500, 10_000, 40_000)


def lower_bound_table() -> str:
    """Edges each node receives under the grid quorum against Theorem 4's
    floor."""
    rows = [
        [
            n,
            f"{theorem4_min_edges_per_node(n):,.0f}",
            f"{grid_quorum_edges_received(n):,}",
            f"{optimality_ratio(n):.2f}x",
        ]
        for n in LOWER_BOUND_SIZES
    ]
    return render_table(
        ["n", "theorem4_min_edges/node", "grid_quorum_edges/node", "ratio"],
        rows,
        title="Appendix A — grid quorum vs the Ω(n√n) lower bound",
    )
