"""The paper's core contribution: quorum-based all-pairs overlay routing."""

from repro.core.failover import FailoverManager, FailoverPoll
from repro.core.grid import GridQuorum, grid_dimensions
from repro.core.lowerbound import (
    count_diamonds_codegree,
    count_diamonds_exhaustive,
    diamonds_in_complete_graph,
    grid_quorum_edges_received,
    lemma3_bound,
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
    best_one_hop,
    best_one_hop_all_pairs,
    best_one_hop_all_pairs_asymmetric,
    best_one_hop_asymmetric,
    one_hop_totals,
)
from repro.core.protocol import (
    CommunicationLedger,
    TwoRoundResult,
    run_two_round,
    run_two_round_asymmetric,
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
    "best_one_hop",
    "best_one_hop_all_pairs",
    "best_one_hop_all_pairs_asymmetric",
    "best_one_hop_asymmetric",
    "count_diamonds_codegree",
    "count_diamonds_exhaustive",
    "coverage_fraction",
    "diamonds_in_complete_graph",
    "grid_dimensions",
    "grid_quorum_edges_received",
    "lemma3_bound",
    "minplus",
    "one_hop_totals",
    "optimality_ratio",
    "run_multihop",
    "run_two_round",
    "run_two_round_asymmetric",
    "shortest_paths_bounded_hops",
    "theorem4_min_edges_per_node",
    "walk_path",
]
