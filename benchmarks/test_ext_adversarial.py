"""§7 future work — malicious rendezvous attack vs cross-validation.

The paper poses resisting malicious rendezvous nodes as an open problem
for larger overlays. This extension quantifies it: traffic-attraction
rendezvous (recommending themselves for every pair) measurably inflate
honest pairs' route cost, and the grid quorum's two-rendezvous
redundancy plus local cross-validation of recommendations removes
essentially all of the inflation.
"""

from conftest import published


def test_adversarial_rendezvous():
    results = published("adversarial")

    by_key = {(r.num_malicious, r.verify): r for r in results}
    clean = by_key[(0, False)]
    attacked = by_key[(3, False)]
    defended = by_key[(3, True)]

    # No malicious nodes: routes essentially optimal either way.
    assert clean.mean_stretch < 1.05
    # The attack meaningfully inflates route cost...
    assert attacked.mean_stretch > 1.1
    assert attacked.fraction_degraded > 0.03
    # ... and verification removes almost all of it.
    assert defended.mean_stretch < 1.05
    assert defended.fraction_degraded < 0.25 * attacked.fraction_degraded
    assert defended.rec_conflicts > 0
