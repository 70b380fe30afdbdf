"""Ablation: what the grid quorum buys over alternative constructions.

The routing protocol only requires pairwise-intersecting rendezvous
sets; the grid quorum is one point in a design space. This ablation runs
the synchronous two-round protocol over four constructions and compares:

* pair coverage (fraction of pairs that can learn their optimal route),
* mean and worst-case per-node communication,
* load balance (max/mean byte ratio).

It quantifies §3's argument: the central rendezvous matches the grid's
*total* communication but concentrates it catastrophically; the full
mesh is balanced but Θ(n^2); random quorums are balanced and cheap but
give up coverage determinism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.analysis.tables import render_table
from repro.core.protocol import run_two_round
from repro.core.quorum import (
    CentralQuorum,
    FullMeshQuorum,
    GridQuorumSystem,
    QuorumSystem,
    RandomQuorum,
)
from repro.net.trace import uniform_random_metric

__all__ = ["QuorumAblationRow", "run_quorum_ablation", "format_quorum_ablation"]


@dataclass
class QuorumAblationRow:
    """One construction's measurements."""

    name: str
    n: int
    coverage: float
    mean_bytes: float
    max_bytes: int
    load_imbalance: float  # max/mean per-node bytes


def _measure(name: str, quorum: QuorumSystem, w: np.ndarray) -> QuorumAblationRow:
    result = run_two_round(w, quorum)
    n = len(quorum.members)
    totals = np.array([result.ledger.total_bytes(x) for x in quorum.members])
    mean_bytes = float(totals.mean())
    return QuorumAblationRow(
        name=name,
        n=n,
        coverage=result.coverage_fraction(),
        mean_bytes=mean_bytes,
        max_bytes=int(totals.max()),
        load_imbalance=float(totals.max() / mean_bytes) if mean_bytes else 0.0,
    )


def run_quorum_ablation(n: int = 144, seed: int = 17) -> List[QuorumAblationRow]:
    """Run the two-round protocol over all four constructions."""
    rng = np.random.default_rng(seed)
    w = uniform_random_metric(n, rng).rtt_ms
    members = list(range(n))
    quorum_rng = np.random.default_rng(seed + 1)
    systems = [
        ("grid (paper)", GridQuorumSystem(members)),
        ("full-mesh (RON)", FullMeshQuorum(members)),
        ("central star", CentralQuorum(members)),
        ("random c=1", RandomQuorum(members, quorum_rng, multiplier=1.0)),
        ("random c=2", RandomQuorum(members, quorum_rng, multiplier=2.0)),
    ]
    return [_measure(name, q, w) for name, q in systems]


def format_quorum_ablation(rows: Sequence[QuorumAblationRow]) -> str:
    table_rows = [
        [
            r.name,
            f"{r.coverage * 100:.1f}%",
            f"{r.mean_bytes / 1000:.1f}",
            f"{r.max_bytes / 1000:.1f}",
            f"{r.load_imbalance:.1f}x",
        ]
        for r in rows
    ]
    return render_table(
        ["construction", "pair_coverage", "mean_KB/node", "max_KB/node", "imbalance"],
        table_rows,
        title=f"Quorum construction ablation (one protocol round, n={rows[0].n})",
    )
