"""Experiment runners, one per figure/table of the paper's evaluation.

Each ``run_*`` entry point's defaults are the published parameters: the
CLI (:mod:`repro.cli`) runs them unchanged to write ``results/``.

* :mod:`repro.experiments.fig1_onehop_cdf` — Figure 1
* :mod:`repro.experiments.fig9_bandwidth_scaling` — Figure 9
* :mod:`repro.experiments.deployment` — Figures 8, 10-14, §6.2 summary
* :mod:`repro.experiments.scenarios` — §4.1 scenarios (Figures 4-7)
* :mod:`repro.experiments.capacity_tables` — §1/§5/§6.1 tables, Appendix A
* :mod:`repro.experiments.ablation_quorum` — quorum-construction ablation
* :mod:`repro.experiments.ablation_interval` — routing-interval ablation
* :mod:`repro.experiments.multihop_scaling` — §3 multi-hop extension

Host wall time and memory are not measured here: ``bench/`` records
them, per workload and per layer (``bench/README.md``).
"""

from repro.experiments.adversarial import (
    AdversarialResult,
    format_adversarial,
    run_adversarial,
    run_adversarial_sweep,
)
from repro.experiments.ablation_interval import (
    IntervalAblationRow,
    format_interval_ablation,
    run_interval_ablation,
)
from repro.experiments.ablation_quorum import (
    QuorumAblationRow,
    format_quorum_ablation,
    run_quorum_ablation,
)
from repro.experiments.capacity_tables import (
    CapacityHeadlines,
    coefficients_table,
    config_table,
    lower_bound_table,
    run_capacity_headlines,
)
from repro.experiments.deployment import (
    FRESHNESS_GRID,
    DeploymentResult,
    run_deployment,
)
from repro.experiments.fig1_onehop_cdf import Fig1Result, run_fig1
from repro.experiments.fig9_bandwidth_scaling import Fig9Result, run_fig9
from repro.experiments.membership_scaling import (
    MembershipRunStats,
    MembershipScalingResult,
    run_membership_mode,
    run_membership_scaling,
)
from repro.experiments.multihop_scaling import (
    MultiHopRow,
    format_multihop_scaling,
    run_multihop_scaling,
)
from repro.experiments.related_work import (
    AvailabilityResult,
    LatencyRepairResult,
    format_related_work,
    run_availability_comparison,
    run_latency_repair_comparison,
)
from repro.experiments.scenarios import (
    ScenarioResult,
    format_scenarios,
    run_all_scenarios,
    run_scenario,
)

__all__ = [
    "AdversarialResult",
    "AvailabilityResult",
    "format_adversarial",
    "run_adversarial",
    "run_adversarial_sweep",
    "CapacityHeadlines",
    "LatencyRepairResult",
    "format_related_work",
    "run_availability_comparison",
    "run_latency_repair_comparison",
    "DeploymentResult",
    "FRESHNESS_GRID",
    "Fig1Result",
    "Fig9Result",
    "IntervalAblationRow",
    "MembershipRunStats",
    "MembershipScalingResult",
    "MultiHopRow",
    "QuorumAblationRow",
    "ScenarioResult",
    "coefficients_table",
    "config_table",
    "lower_bound_table",
    "format_interval_ablation",
    "format_multihop_scaling",
    "format_quorum_ablation",
    "format_scenarios",
    "run_all_scenarios",
    "run_capacity_headlines",
    "run_deployment",
    "run_fig1",
    "run_fig9",
    "run_interval_ablation",
    "run_membership_mode",
    "run_membership_scaling",
    "run_multihop_scaling",
    "run_quorum_ablation",
    "run_scenario",
]
