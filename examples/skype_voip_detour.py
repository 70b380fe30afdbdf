#!/usr/bin/env python3
"""The §2 Skype scenario: a VoIP detour-finding overlay.

A VoIP provider provisions overlay nodes near the Internet's edges. When
the direct route between two users crosses a congested corridor, the
overlay proposes the optimal one-hop detour. Because latency changes
slowly, measurement and routing can run on a relaxed schedule, and the
quorum algorithm makes the overlay's control traffic scale to thousands
of nodes.

This example:

1. finds the worst high-latency calls on a 300-node synthetic global
   topology and prints the detours the overlay recommends,
2. prints the control-traffic budget for overlays of growing size,
   including the paper's 10,000-node / ~50x headline.
"""

import numpy as np

from repro.analysis.bandwidth import fullmesh_routing_bps, quorum_routing_bps
from repro.analysis.capacity import skype_scenario_reduction
from repro.analysis.tables import render_table
from repro.core.onehop import best_one_hop_all_pairs
from repro.net.trace import REGIONS, planetlab_like


def main() -> None:
    n = 300
    rng = np.random.default_rng(33)
    trace = planetlab_like(n, rng)
    w = trace.rtt_ms

    print(f"=== {n}-node global VoIP overlay ===")
    costs, hops = best_one_hop_all_pairs(w)

    # The ten worst calls that a detour can actually fix.
    iu = np.triu_indices(n, 1)
    improvement = w[iu] - costs[iu]
    order = np.argsort(improvement)[::-1][:10]
    rows = []
    for k in order:
        i, j = int(iu[0][k]), int(iu[1][k])
        h = int(hops[i, j])
        rows.append(
            [
                f"{i}({REGIONS[trace.regions[i]]})",
                f"{j}({REGIONS[trace.regions[j]]})",
                f"{w[i, j]:.0f}",
                f"{h}({REGIONS[trace.regions[h]]})" + ("*" if trace.is_hub[h] else ""),
                f"{costs[i, j]:.0f}",
                f"-{improvement[k]:.0f}",
            ]
        )
    print(
        render_table(
            ["caller", "callee", "direct_ms", "via", "detour_ms", "saved_ms"],
            rows,
            title="Top calls fixed by one-hop detours (* = hub host)",
        )
    )

    frac_high = (w[iu] > 400).mean()
    fixed = ((w[iu] > 400) & (costs[iu] <= 400)).mean() / max(frac_high, 1e-9)
    print(f"\ncalls over 400 ms: {frac_high * 100:.1f}%; "
          f"detours fix {fixed * 100:.0f}% of them")

    # Control-plane budget: relaxed 5-minute schedule (§2), both
    # algorithms at the same interval since failover speed is not the
    # goal here.
    interval = 300.0
    rows = []
    for size in (300, 1000, 3000, 10_000):
        full = fullmesh_routing_bps(size, interval)
        quorum = quorum_routing_bps(size, interval)
        rows.append(
            [size, f"{full / 1000:.1f}", f"{quorum / 1000:.1f}", f"{full / quorum:.1f}x"]
        )
    print()
    print(
        render_table(
            ["nodes", "full_mesh_kbps", "quorum_kbps", "reduction"],
            rows,
            title="Per-node routing traffic at a 5-minute routing interval",
        )
    )
    print(
        f"\npaper headline — 10,000 nodes: "
        f"{skype_scenario_reduction():.0f}x reduction"
    )


if __name__ == "__main__":
    main()
