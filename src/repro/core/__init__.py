"""The paper's core contribution: quorum-based all-pairs overlay routing."""

from repro.core.failover import FailoverManager, FailoverPoll
from repro.core.grid import GridQuorum, grid_dimensions
from repro.core.lowerbound import (
    count_diamonds_codegree,
    diamonds_in_complete_graph,
    grid_quorum_edges_received,
    optimality_ratio,
    theorem4_min_edges_per_node,
)
from repro.core.multihop import (
    MultiHopResult,
    minplus,
    run_multihop,
    shortest_paths_bounded_hops,
    walk_path,
)
from repro.core.onehop import (
    best_excluding_top_fraction,
    best_one_hop_all_pairs,
    one_hop_totals,
)
from repro.core.protocol import (
    CommunicationLedger,
    TwoRoundResult,
    run_two_round,
)
from repro.core.quorum import (
    CentralQuorum,
    FullMeshQuorum,
    GridQuorumSystem,
    QuorumSystem,
    RandomQuorum,
    coverage_fraction,
)

__all__ = [
    "CentralQuorum",
    "CommunicationLedger",
    "FailoverManager",
    "FailoverPoll",
    "FullMeshQuorum",
    "GridQuorum",
    "GridQuorumSystem",
    "MultiHopResult",
    "QuorumSystem",
    "RandomQuorum",
    "TwoRoundResult",
    "best_excluding_top_fraction",
    "best_one_hop_all_pairs",
    "count_diamonds_codegree",
    "coverage_fraction",
    "diamonds_in_complete_graph",
    "grid_dimensions",
    "grid_quorum_edges_received",
    "minplus",
    "one_hop_totals",
    "optimality_ratio",
    "run_multihop",
    "run_two_round",
    "shortest_paths_bounded_hops",
    "theorem4_min_edges_per_node",
    "walk_path",
]
