"""Ablation — grid quorum vs alternative rendezvous constructions.

Quantifies §3's design argument: the central rendezvous has the same
total communication but a catastrophic hot spot; the full mesh is
balanced but Θ(n^2); random (probabilistic) quorums are cheap and
balanced but give up deterministic pair coverage.
"""

from conftest import published


def test_quorum_construction_ablation():
    rows, _ = published("ablations")

    by_name = {r.name: r for r in rows}
    grid = by_name["grid (paper)"]
    mesh = by_name["full-mesh (RON)"]
    star = by_name["central star"]
    rand1 = by_name["random c=1"]

    # Grid: full coverage, far cheaper than the mesh, balanced.
    assert grid.coverage == 1.0
    assert grid.mean_bytes < 0.35 * mesh.mean_bytes
    assert grid.load_imbalance < 1.5
    # Central star: covered but catastrophically imbalanced.
    assert star.coverage == 1.0
    assert star.load_imbalance > 0.25 * star.n
    # Random c=1: cheap but not fully covered.
    assert rand1.coverage < 1.0
