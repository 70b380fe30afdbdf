"""Figure 9: per-node routing traffic vs overlay size (emulation).

The paper emulates both algorithms on one machine, with no node or link
failures, for five minutes per point, and reports average per-node routing
traffic (incoming + outgoing). The measured curves track the closed forms

* full mesh: ``1.6 n^2 + 24.5 n`` bps
* quorum:    ``6.4 n sqrt(n) + 17.1 n + 196.3 sqrt(n)`` bps

— e.g. at n = 140: 34.8 vs 15.3 Kbps. We reproduce the sweep with the
same implementation the deployment uses (the emulation *is* the system,
as in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.bandwidth import fullmesh_routing_bps, quorum_routing_bps
from repro.analysis.tables import render_table
from repro.net.trace import planetlab_like
from repro.overlay.config import RouterKind
from repro.overlay.harness import build_overlay

__all__ = ["Fig9Result", "run_fig9"]

DEFAULT_SIZES: Tuple[int, ...] = (16, 36, 64, 100, 140, 196)


@dataclass
class Fig9Result:
    """Measured and theoretical routing bandwidth per overlay size."""

    sizes: List[int]
    measured_fullmesh_bps: List[float]
    measured_quorum_bps: List[float]
    theory_fullmesh_bps: List[float]
    theory_quorum_bps: List[float]

    def crossover_size(self) -> Optional[int]:
        """Smallest measured n at which the quorum algorithm wins."""
        for n, full, quorum in zip(
            self.sizes, self.measured_fullmesh_bps, self.measured_quorum_bps
        ):
            if quorum < full:
                return n
        return None

    def format_table(self) -> str:
        rows = []
        for k, n in enumerate(self.sizes):
            rows.append(
                [
                    n,
                    self.measured_fullmesh_bps[k] / 1000.0,
                    self.theory_fullmesh_bps[k] / 1000.0,
                    self.measured_quorum_bps[k] / 1000.0,
                    self.theory_quorum_bps[k] / 1000.0,
                ]
            )
        return render_table(
            [
                "n",
                "RON_measured_kbps",
                "RON_theory_kbps",
                "quorum_measured_kbps",
                "quorum_theory_kbps",
            ],
            rows,
            title=(
                "Figure 9 — average per-node routing traffic (in+out), "
                "failure-free emulation"
            ),
        )


def run_fig9(
    sizes: Sequence[int] = DEFAULT_SIZES,
    duration_s: float = 180.0,
    warmup_s: float = 60.0,
    seed: int = 9,
) -> Fig9Result:
    """Run the failure-free emulation sweep for both algorithms."""
    measured: Dict[RouterKind, List[float]] = {
        RouterKind.FULL_MESH: [],
        RouterKind.QUORUM: [],
    }
    for n in sizes:
        for kind in (RouterKind.FULL_MESH, RouterKind.QUORUM):
            rng = np.random.default_rng(seed)
            trace = planetlab_like(n, rng, base_loss=0.0, lossy_fraction=0.0)
            overlay = build_overlay(
                trace=trace,
                router=kind,
                rng=rng,
                with_freshness=False,
            )
            overlay.run(warmup_s + duration_s)
            bps = overlay.routing_bps(warmup_s, warmup_s + duration_s)
            measured[kind].append(float(bps.mean()))
    return Fig9Result(
        sizes=list(sizes),
        measured_fullmesh_bps=measured[RouterKind.FULL_MESH],
        measured_quorum_bps=measured[RouterKind.QUORUM],
        theory_fullmesh_bps=[fullmesh_routing_bps(n) for n in sizes],
        theory_quorum_bps=[quorum_routing_bps(n) for n in sizes],
    )
