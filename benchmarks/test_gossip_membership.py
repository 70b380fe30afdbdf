"""Coordinator-free gossip membership vs the replicated-coordinator plane.

Robustness extension (not a paper figure): both planes face the same
member-level fault traces — a correlated two-rack crash with a third
rack's link outage, and the loss of every coordinator host. The gossip
plane must converge in both; the replicated plane converges after the
rack crash but cannot admit a member once every coordinator is gone,
the single point of failure the gossip plane removes.
"""

from conftest import published

from repro.experiments.gossip_membership import EXPECT_NO_JOIN, PLANE_COORD, PLANE_GOSSIP


def test_gossip_membership_scenarios():
    results = published("gossip")

    assert len(results) == 4
    for res in results:
        assert res.passed, f"{res.name}/{res.plane}: missing={res.missing}"
    by_key = {(res.name, res.plane): res for res in results}
    # Without coordinators the gossip joiner bootstraps from a live peer...
    assert by_key["coordinator-loss", PLANE_GOSSIP].joiner_started
    # ...while the replicated plane's joiner never starts.
    stuck = [res for res in results if res.expect == EXPECT_NO_JOIN]
    assert [res.joiner_started for res in stuck] == [False]
    # Gossip subsumes liveness and pays for it in bytes.
    for res in results:
        if res.plane == PLANE_GOSSIP:
            assert res.plane_bytes_node_s > by_key[res.name, PLANE_COORD].plane_bytes_node_s
