"""Figures 4-7 — the §4.1 failover scenarios and their timing bounds.

Paper result: the quorum system recovers within 2r (scenarios 1 and 2)
or 3r (scenario 3) of detecting the failure; ordinary full-mesh
link-state routing recovers within one probing + one routing interval.
Wall-clock bounds therefore add the probing timeout p.
"""

from conftest import published

from repro.overlay.config import RouterKind


def test_failover_scenarios():
    results = published("scenarios")

    for res in results:
        assert res.within_bound, (
            f"{res.name} ({res.router.value}) recovered in "
            f"{res.effective_recovery_s}s, bound {res.bound_s}s"
        )
    quorum = [r for r in results if r.router is RouterKind.QUORUM]
    assert len(quorum) == 3
    # Scenario 3 is the slow one (extra remote-detection interval).
    bounds = {r.name: r.bound_s for r in quorum}
    assert bounds["scenario-3"] > bounds["scenario-1"]
