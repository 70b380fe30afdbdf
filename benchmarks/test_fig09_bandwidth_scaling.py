"""Figure 9 — per-node routing traffic vs overlay size (emulation).

Paper result: the full-mesh algorithm grows as 1.6 n^2 + 24.5 n bps and
the quorum algorithm as 6.4 n sqrt(n) + 17.1 n + 196.3 sqrt(n) bps; at
140 nodes that is 34.8 vs 15.3 Kbps, and the measured emulation tracks
the closed forms (sitting slightly below them).
"""

from conftest import published


def test_fig9_bandwidth_scaling():
    result = published("fig9")

    sizes = result.sizes
    k140 = sizes.index(140)
    # The paper's 140-node numbers: 34.8 vs 15.3 Kbps (theory), with the
    # measured emulation tracking them.
    assert abs(result.theory_fullmesh_bps[k140] - 34_800) < 200
    assert abs(result.theory_quorum_bps[k140] - 15_300) < 200
    assert result.measured_fullmesh_bps[k140] < result.theory_fullmesh_bps[k140] * 1.02
    assert (
        result.measured_quorum_bps[k140]
        < 0.55 * result.measured_fullmesh_bps[k140]
    )
    # Who wins and where: the quorum algorithm wins from ~n=64 onward.
    assert result.crossover_size() is not None
    assert result.crossover_size() <= 100
    # Separation grows with n.
    gap_small = result.measured_fullmesh_bps[0] - result.measured_quorum_bps[0]
    gap_large = result.measured_fullmesh_bps[-1] - result.measured_quorum_bps[-1]
    assert gap_large > 10 * abs(gap_small)
