"""Replicated membership under injected coordinator faults.

Robustness extension (not a paper figure): the §5 coordinator is
replicated across three endpoints and the membership plane is attacked
directly — primary crash inside an open batching window, the primary's
host partitioned away, and a split-brain partition forcing conflicting
concurrent views. Every scenario must converge to a single
``(epoch, version)`` with no member lost, no per-member divergence
window left open, and no permanent routing disruption.
"""

from conftest import published


def test_coordinator_failover_scenarios():
    results = published("failover")

    assert len(results) == 3
    for res in results:
        assert res.passed, (
            f"{res.name}: converged={res.converged} missing={res.missing} "
            f"divergence={res.divergence} open={res.open_disruptions}"
        )
    # The fault machinery actually fired: a replica promoted in every
    # scenario, and wrongly-expelled members came back via readmission.
    assert all(res.promotions >= 1 for res in results)
    assert any(res.readmissions >= 1 for res in results)
    by_name = {res.name: res for res in results}
    # Split-brain readmits the whole minority side after the heal.
    assert by_name["split-brain"].readmissions >= by_name["split-brain"].n // 4
