#!/usr/bin/env python3
"""A miniature §6 deployment: overlay under realistic failures.

Runs the deployment experiment at reduced scale (64 nodes, ~6 simulated
minutes) and prints the measured counterparts of Figures 8 and 10-14:
concurrent link failures, routing bandwidth, double rendezvous
failures, and route freshness. For the paper-scale (140-node) run, see
``pytest benchmarks/ --benchmark-only``.
"""

from repro.experiments.deployment import run_deployment


def main() -> None:
    print("running a 64-node deployment (6 simulated minutes) ...\n")
    result = run_deployment(n=64, duration_s=360.0, warmup_s=150.0, seed=11)

    print(result.fig8_table())
    print()
    print(result.fig10_table())
    print()
    print(result.fig11_table())
    print()
    print(result.fig12_table())
    print()

    well, poor = result.well_and_poorly_connected()
    print(result.fig13_14_table(well))
    print()
    print(result.fig13_14_table(poor))

    print("\nsummary:")
    print(f"  typical (median) route freshness: "
          f"{result.fig12_typical_median():.1f}s")
    print(f"  mean routing traffic: {result.routing_bps_mean.mean() / 1000:.2f} "
          f"Kbps/node")
    print(f"  failover adoptions: {result.counters.get('failover_adoptions', 0)}")
    print(f"  link-down events: {result.counters.get('link_down_events', 0)}")


if __name__ == "__main__":
    main()
