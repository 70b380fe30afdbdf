"""Closed-form models and post-processing of experiment measurements."""

from repro.analysis.ascii_plot import ascii_cdf, ascii_plot
from repro.analysis.bandwidth import (
    fullmesh_routing_bps,
    paper_coefficients,
    probing_bps,
    quorum_routing_bps,
    routing_bps,
    total_bps,
)
from repro.analysis.capacity import (
    CapacityComparison,
    capacity_at_budget,
    max_overlay_size,
    planetlab_sites_comparison,
    skype_scenario_reduction,
)
from repro.analysis.cdf import cdf_at, counts_at, fraction_below
from repro.analysis.tables import render_series, render_table

__all__ = [
    "ascii_cdf",
    "ascii_plot",
    "CapacityComparison",
    "capacity_at_budget",
    "cdf_at",
    "counts_at",
    "fraction_below",
    "fullmesh_routing_bps",
    "max_overlay_size",
    "paper_coefficients",
    "planetlab_sites_comparison",
    "probing_bps",
    "quorum_routing_bps",
    "render_series",
    "render_table",
    "routing_bps",
    "skype_scenario_reduction",
    "total_bps",
]
