"""§3 multi-hop extension: correctness and Θ(n sqrt(n) log n) scaling.

The paper claims the iterated two-round protocol finds all-pairs shortest
paths with Θ(n sqrt(n) log n) per-node communication — asymptotically
better than the Θ(n^2) of link-state broadcast — and that "with just
twice the communication this algorithm can find optimal 3-hop routes".
This experiment measures both: per-node bytes of the multi-hop protocol
vs the one-hop protocol and vs a full-mesh broadcast, and verifies the
computed routes against a centralized shortest-path oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.analysis.tables import render_table
from repro.core.multihop import run_multihop, shortest_paths_bounded_hops
from repro.core.protocol import run_two_round
from repro.core.quorum import FullMeshQuorum, GridQuorumSystem
from repro.net.trace import uniform_random_metric

__all__ = ["MultiHopRow", "run_multihop_scaling", "format_multihop_scaling"]


@dataclass
class MultiHopRow:
    n: int
    iterations: int
    onehop_kb: float
    multihop_kb: float
    fullmesh_kb: float
    routes_correct: bool

    @property
    def multihop_over_onehop(self) -> float:
        return self.multihop_kb / self.onehop_kb if self.onehop_kb else 0.0


def run_multihop_scaling(
    sizes: Sequence[int] = (16, 36, 64, 100, 144),
    seed: int = 31,
) -> List[MultiHopRow]:
    """Per-node communication of one-hop vs all-pairs-shortest-path."""
    rows = []
    for n in sizes:
        rng = np.random.default_rng(seed)
        w = uniform_random_metric(n, rng).rtt_ms
        members = list(range(n))
        grid = GridQuorumSystem(members)

        onehop = run_two_round(w, grid)
        multihop = run_multihop(w, grid, max_hops=n)
        mesh = run_two_round(w, FullMeshQuorum(members))

        expected = shortest_paths_bounded_hops(w, n)
        correct = bool(np.allclose(multihop.costs, expected))

        onehop_bytes = np.mean(
            [onehop.ledger.total_bytes(x) for x in members]
        )
        multihop_bytes = np.mean(
            [multihop.bytes_per_node[x] for x in members]
        )
        mesh_bytes = np.mean([mesh.ledger.total_bytes(x) for x in members])
        rows.append(
            MultiHopRow(
                n=n,
                iterations=multihop.iterations,
                onehop_kb=float(onehop_bytes) / 1000.0,
                multihop_kb=float(multihop_bytes) / 1000.0,
                fullmesh_kb=float(mesh_bytes) / 1000.0,
                routes_correct=correct,
            )
        )
    return rows


def format_multihop_scaling(rows: Sequence[MultiHopRow]) -> str:
    table_rows = [
        [
            r.n,
            r.iterations,
            f"{r.onehop_kb:.1f}",
            f"{r.multihop_kb:.1f}",
            f"{r.multihop_over_onehop:.1f}x",
            f"{r.fullmesh_kb:.1f}",
            "yes" if r.routes_correct else "NO",
        ]
        for r in rows
    ]
    return render_table(
        [
            "n",
            "iterations",
            "one-hop_KB/node",
            "multi-hop_KB/node",
            "multi/one",
            "full-mesh_KB/node",
            "shortest_paths_correct",
        ],
        table_rows,
        title="§3 multi-hop extension — per-node communication and correctness",
    )
