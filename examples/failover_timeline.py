#!/usr/bin/env python3
"""Walk through the §4.1 failure scenarios with a narrated timeline.

Injects scenario 2 (both default rendezvous fail proximally, plus the
direct link) into a 49-node overlay and narrates what the source node's
router does: failure detection, failover adoption, and the recovery of
best-hop information — then prints the full scenario table (Figures
4-7's timing bounds).
"""

from repro.experiments.scenarios import (
    build_scenario,
    format_scenarios,
    run_all_scenarios,
)
from repro.overlay.config import RouterKind


def narrated_scenario_2(n: int = 49, seed: int = 4) -> None:
    t_fail = 150.0
    setup = build_scenario(2, n, seed, RouterKind.QUORUM, t_fail)
    overlay, src, dst = setup.overlay, setup.src, setup.dst
    r1, r2 = setup.pair
    print(f"src={src}  dst={dst}  default rendezvous: R1={r1}, R2={r2}")
    node = overlay.nodes[src]

    events = []
    state = {"down": set(), "failover": None, "recovered": False}

    def watch() -> None:
        now = overlay.sim.now
        if now < t_fail:
            return
        for peer in (dst, r1, r2):
            if not node.monitor.is_up(peer) and peer not in state["down"]:
                state["down"].add(peer)
                events.append((now, f"monitor marks link to {peer} DOWN"))
        active = node.router.failover.active_failover(dst)
        if active is not None and state["failover"] != active:
            state["failover"] = active
            events.append((now, f"failover rendezvous {active} adopted for dst {dst}"))
        route = node.route_to(dst)
        if (
            not state["recovered"]
            and route.usable
            and route.source == "recommendation"
            and float(node.router.last_rec_times()[dst]) >= t_fail
            and int(node.router.route_server[dst]) not in (r1, r2)
        ):
            state["recovered"] = True
            events.append(
                (now, f"fresh best-hop (via {route.hop}) received from failover "
                      f"rendezvous — RECOVERED")
            )

    overlay.sim.periodic(0.5, watch, phase=0.25)
    print(f"\nt={t_fail:.0f}s: links src-dst, src-R1, src-R2 all fail")
    overlay.run(t_fail + 120.0)

    print("\ntimeline (seconds after failure):")
    for t, text in events:
        print(f"  +{t - t_fail:6.1f}s  {text}")
    if state["recovered"]:
        total = next(t for t, x in events if "RECOVERED" in x) - t_fail
        print(f"\nrecovered {total:.1f}s after the failure "
              f"(paper bound: p + 2r = 60s, plus delivery slack)")


def main() -> None:
    print("=== narrated scenario 2: double proximal rendezvous failure ===\n")
    narrated_scenario_2()
    print("\n\n=== all scenarios vs the paper's bounds ===\n")
    print(format_scenarios(run_all_scenarios()))


if __name__ == "__main__":
    main()
