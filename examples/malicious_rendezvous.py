#!/usr/bin/env python3
"""§7 future work: surviving malicious rendezvous nodes.

Three of 49 overlay nodes run a traffic-attraction attack: as rendezvous
servers they recommend *themselves* as the best one-hop for every client
pair. The demo shows the damage to honest pairs' routes, then turns on
recommendation cross-validation — possible because the grid quorum gives
every pair two independent rendezvous — and shows the damage disappear.
"""

from repro.experiments.adversarial import (
    format_adversarial,
    run_adversarial_sweep,
)


def main() -> None:
    print("running 49-node overlays (clean / attacked / defended) ...\n")
    results = run_adversarial_sweep(n=49)
    print(format_adversarial(results))

    by_key = {(r.num_malicious, r.verify): r for r in results}
    attacked = by_key[(3, False)]
    defended = by_key[(3, True)]
    print(
        f"\nattack: {attacked.fraction_degraded * 100:.1f}% of honest pairs "
        f"routed > 1.2x optimal (mean stretch {attacked.mean_stretch:.2f})"
    )
    print(
        f"defense: cross-validating the two rendezvous' recommendations "
        f"cuts that to {defended.fraction_degraded * 100:.1f}% "
        f"(mean stretch {defended.mean_stretch:.3f}, "
        f"{defended.rec_conflicts} conflicts adjudicated)"
    )


if __name__ == "__main__":
    main()
