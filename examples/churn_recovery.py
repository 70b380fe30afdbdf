#!/usr/bin/env python3
"""Churn workload walkthrough: crash a quarter of the overlay, watch it heal.

Builds a 36-node quorum-routed overlay, lets it converge, then replays a
deterministic churn trace that crashes 25% of the nodes at one instant
(plus a graceful leave and a rejoin) through a fault plan and the
``replay`` driver. Prints:

* the trace itself (every event is pre-materialized from a seed),
* the availability time series around the mass-failure event,
* the disruption-duration distribution and the measured recovery time.

Everything runs through the discrete-event simulator, so re-running this
script reproduces identical numbers.
"""

import numpy as np

from repro import RouterKind, build_overlay
from repro.net.trace import planetlab_like
from repro.workloads import ChurnEvent, ChurnTrace, FaultPlan, replay

N = 36
FAIL_AT = 240.0


def main() -> None:
    # A mass-failure trace, with a leave/rejoin pair mixed in to show
    # the three lifecycle paths (crash, graceful leave, rejoin).
    base = ChurnTrace.mass_failure(
        n=N, fraction=0.25, at_s=FAIL_AT, duration_s=FAIL_AT + 120.0, seed=7
    )
    survivors = [i for i in range(N) if all(e.node != i for e in base.events)]
    events = sorted(
        base.events
        + (
            ChurnEvent(time=120.0, action="leave", node=survivors[0]),
            ChurnEvent(time=300.0, action="join", node=survivors[0]),
        ),
        key=lambda e: e.time,
    )
    churn = ChurnTrace(
        n=N,
        initial_active=base.initial_active,
        events=tuple(events),
        duration_s=base.duration_s,
    )

    print("=== churn trace ===")
    print(churn.describe())
    for ev in churn.events[:6]:
        print(f"  t={ev.time:7.1f}s  {ev.action:<5}  node {ev.node}")
    print(f"  ... ({churn.num_events} events total)\n")

    rng = np.random.default_rng(1)
    net = planetlab_like(N, rng, base_loss=0.0, lossy_fraction=0.0)
    overlay = build_overlay(
        trace=net,
        router=RouterKind.QUORUM,
        rng=rng,
        with_freshness=False,
        active_members=churn.initial_active,
    )

    print(f"replaying churn on a {N}-node quorum overlay ...")
    plan = FaultPlan().add_churn(churn)
    recorder = replay(overlay, plan, until_s=churn.duration_s + 240.0)

    print("\n=== availability around the mass failure (t=%.0fs) ===" % FAIL_AT)
    times, avail = recorder.availability_series()
    for t, a in zip(times, avail):
        if FAIL_AT - 20.0 <= t <= FAIL_AT + 90.0:
            bar = "#" * int(round(50 * a))
            print(f"  t={t:6.0f}s  {a:6.1%}  {bar}")

    durations = recorder.disruption_durations(FAIL_AT)
    recovery = recorder.recovery_time_after(FAIL_AT)
    print("\n=== recovery ===")
    print(f"pairs disrupted by the crash : {durations.size}")
    if durations.size:
        print(f"disruption p50 / max         : "
              f"{np.median(durations):.0f}s / {durations.max():.0f}s")
    print(f"availability back to 100% in : {recovery:.0f}s")
    print(f"still-broken pairs at the end: {recorder.open_disruptions()}")


if __name__ == "__main__":
    main()
