"""Command-line interface: regenerate any of the paper's experiments.

Usage (also via ``python -m repro``)::

    repro-experiments capacity                 # §1 headline tables
    repro-experiments fig1                     # Figure 1 CDF
    repro-experiments fig9 --duration 120      # bandwidth scaling sweep
    repro-experiments deployment --n 64        # Figures 8, 10-14
    repro-experiments scenarios                # §4.1 failover timing
    repro-experiments ablations                # quorum + interval ablations
    repro-experiments multihop                 # §3 multi-hop scaling
    repro-experiments sosr                     # §2 random-intermediary study
    repro-experiments churn --nodes 64 --rate 0.05   # dynamic membership
                                               # (writes results/ unless --out)
    repro-experiments churn --in-band          # lossy in-band membership
    repro-experiments membership               # view-delta scaling sweep
    repro-experiments membership --smoke       # fast n=256-only CI path
    repro-experiments membership --in-band     # updates on the lossy wire
    repro-experiments failover                 # replicated-coordinator faults
    repro-experiments failover --smoke         # crash+partition CI subset
    repro-experiments gossip                   # coordinator-free membership
    repro-experiments gossip --smoke           # n=24 CI variant
    repro-experiments all                      # everything above

Each command prints the same rows/series the paper's corresponding
figure or table reports; ``--out DIR`` additionally writes them to
files. Host wall time and memory at scale are the benchmark's to
measure, not the CLI's: see ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import math
import pathlib
import sys
from typing import Callable, Dict, List, Optional

__all__ = ["main", "build_parser"]


def _write(out_dir: Optional[pathlib.Path], name: str, text: str) -> None:
    print(text)
    print()
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"{name}.txt").write_text(text + "\n")


def _overlay_size(text: str) -> int:
    n = int(text)
    if n < 2:
        raise argparse.ArgumentTypeError(f"an overlay needs at least 2 nodes, got {n}")
    return n


def _positive(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a positive number, got {text}")
    return value


def _size(args: argparse.Namespace, default: int) -> int:
    """The ``--n`` override, or the command's own size."""
    return default if args.n is None else args.n


def _cmd_capacity(args: argparse.Namespace) -> None:
    from repro.experiments.capacity_tables import (
        capacity_table,
        coefficients_table,
        config_table,
    )

    _write(args.out, "table_config", config_table())
    _write(args.out, "table_coefficients", coefficients_table())
    _write(args.out, "table_capacity", capacity_table())


def _cmd_fig1(args: argparse.Namespace) -> None:
    from repro.experiments.fig1_onehop_cdf import run_fig1

    result = run_fig1(n_hosts=_size(args, 359), seed=args.seed)
    _write(args.out, "fig01_onehop_latency", result.format_table())
    frac = result.fraction_improved_below(400.0)
    summary = "\n".join(
        f"  {name:>22}: {100 * val:.1f}% of pairs < 400 ms"
        for name, val in frac.items()
    )
    _write(args.out, "fig01_summary", summary)


def _cmd_fig9(args: argparse.Namespace) -> None:
    from repro.experiments.fig9_bandwidth_scaling import run_fig9

    result = run_fig9(
        sizes=(16, 36, 64, 100, 140) if args.n is None else (args.n,),
        duration_s=args.duration,
        seed=args.seed,
    )
    _write(args.out, "fig09_bandwidth_scaling", result.format_table())


def _cmd_deployment(args: argparse.Namespace) -> None:
    from repro.experiments.deployment import run_deployment

    result = run_deployment(
        n=_size(args, 140),
        duration_s=args.duration,
        warmup_s=min(240.0, args.duration),
        seed=args.seed,
    )
    _write(args.out, "fig08_concurrent_failures", result.fig8_table())
    _write(args.out, "fig10_bandwidth_cdf", result.fig10_table())
    _write(args.out, "fig11_double_failures", result.fig11_table())
    _write(args.out, "fig12_freshness_pairs", result.fig12_table())
    well, poor = result.well_and_poorly_connected()
    _write(args.out, "fig13_freshness_well_connected", result.fig13_14_table(well))
    _write(args.out, "fig14_freshness_poorly_connected", result.fig13_14_table(poor))


def _cmd_scenarios(args: argparse.Namespace) -> None:
    from repro.experiments.scenarios import format_scenarios, run_all_scenarios

    results = run_all_scenarios(n=_size(args, 49), seed=args.seed)
    _write(args.out, "fig04_07_failover_scenarios", format_scenarios(results))


def _cmd_ablations(args: argparse.Namespace) -> None:
    from repro.experiments.ablation_interval import (
        format_interval_ablation,
        run_interval_ablation,
    )
    from repro.experiments.ablation_quorum import (
        format_quorum_ablation,
        run_quorum_ablation,
    )

    _write(
        args.out,
        "table_ablation_quorum",
        format_quorum_ablation(run_quorum_ablation(n=_size(args, 100), seed=args.seed)),
    )
    _write(
        args.out,
        "table_ablation_interval",
        format_interval_ablation(
            run_interval_ablation(n=_size(args, 49), duration_s=args.duration)
        ),
    )


def _cmd_multihop(args: argparse.Namespace) -> None:
    from repro.experiments.multihop_scaling import (
        format_multihop_scaling,
        run_multihop_scaling,
    )

    sizes = (16, 36, 64, 100) if args.n is None else (args.n,)
    _write(
        args.out,
        "table_multihop_scaling",
        format_multihop_scaling(run_multihop_scaling(sizes=sizes, seed=args.seed)),
    )


def _cmd_adversarial(args: argparse.Namespace) -> None:
    from repro.experiments.adversarial import (
        format_adversarial,
        run_adversarial_sweep,
    )

    results = run_adversarial_sweep(
        n=_size(args, 49), seed=args.seed, duration_s=args.duration
    )
    _write(args.out, "table_ext_adversarial", format_adversarial(results))


def _cmd_churn(args: argparse.Namespace) -> None:
    from repro.experiments.churn import (
        run_churn_comparison,
        run_flash_crowd,
        run_in_band_churn,
        run_mass_failure_sweep,
    )

    n = _size(args, 64)
    # The churn workload writes its disruption/recovery tables under
    # results/ by default (they are the experiment's deliverable).
    out = args.out if args.out is not None else pathlib.Path("results")
    if args.in_band:
        # The lossy in-band membership comparison is its own variant run.
        result = run_in_band_churn(
            n=n, rate_per_s=args.rate, duration_s=args.duration, seed=args.seed
        )
        _write(out, "table_churn_in_band", result.format_table())
        for mode, _, divergence, _ in result.rows:
            if divergence["open"]:
                raise SystemExit(
                    f"churn run ({mode}) left a view-divergence window open"
                )
        return
    comparison = run_churn_comparison(
        n=n, rate_per_s=args.rate, duration_s=args.duration, seed=args.seed
    )
    _write(out, "table_churn_comparison", comparison.format_table())
    mass = run_mass_failure_sweep(n=n, seed=args.seed)
    _write(out, "table_churn_mass_failure", mass.format_table())
    flash = run_flash_crowd(n=n, seed=args.seed)
    _write(out, "table_churn_flash_crowd", flash.format_table())


def _cmd_membership(args: argparse.Namespace) -> None:
    from repro.experiments.membership_scaling import (
        run_in_band_scaling,
        run_membership_scaling,
    )

    # Like churn, the scaling tables are the deliverable: write them
    # under results/ unless the caller redirects them.
    out = args.out if args.out is not None else pathlib.Path("results")
    if args.in_band:
        if args.smoke:
            sizes = (256,)
        elif args.n is not None:
            sizes = (args.n,)
        else:
            sizes = (256, 1024)
        result = run_in_band_scaling(
            sizes=sizes, duration_s=args.duration, seed=args.seed
        )
        name = (
            "table_membership_in_band"
            if not args.smoke and args.n is None
            else "table_membership_in_band_smoke"
        )
        _write(out, name, result.format_table())
        for stats in result.rows:
            if not stats.converged or stats.div_open:
                raise SystemExit(
                    f"in-band membership run n={stats.n} did not reconverge"
                )
        return
    if args.smoke:
        sizes = (256,)
    elif args.n is not None:
        sizes = (args.n,)
    else:
        sizes = (256, 1024, 2048)
    result = run_membership_scaling(
        sizes=sizes, duration_s=args.duration, seed=args.seed
    )
    name = (
        "table_membership_scaling"
        if not args.smoke and args.n is None
        else "table_membership_scaling_smoke"
    )
    _write(out, name, result.format_table())
    for stats in result.rows:
        if not stats.converged:
            raise SystemExit(
                f"membership run n={stats.n} mode={stats.mode} did not converge"
            )


def _cmd_failover(args: argparse.Namespace) -> None:
    from repro.experiments.coordinator_failover import (
        format_failover_scenarios,
        run_failover_scenarios,
    )

    # The scenario table is the deliverable; write it under results/
    # unless redirected (CI's smoke run passes --out and uploads it).
    out = args.out if args.out is not None else pathlib.Path("results")
    results = run_failover_scenarios(
        n=_size(args, 48), seed=args.seed, smoke=args.smoke
    )
    name = (
        "table_coordinator_failover_smoke"
        if args.smoke
        else "table_coordinator_failover"
    )
    _write(out, name, format_failover_scenarios(results))
    failed = [r.name for r in results if not r.passed]
    if failed:
        raise SystemExit(
            "failover scenario(s) failed to converge cleanly: "
            + ", ".join(failed)
        )


def _cmd_gossip(args: argparse.Namespace) -> None:
    from repro.experiments.gossip_membership import (
        format_gossip_scenarios,
        run_gossip_scenarios,
    )

    # Like failover, the scenario table is the deliverable; write it
    # under results/ unless redirected (CI's smoke run passes --out).
    out = args.out if args.out is not None else pathlib.Path("results")
    results = run_gossip_scenarios(
        n=_size(args, 64), seed=args.seed, smoke=args.smoke
    )
    name = (
        "table_gossip_membership_smoke"
        if args.smoke
        else "table_gossip_membership"
    )
    _write(out, name, format_gossip_scenarios(results))
    failed = [f"{r.name}/{r.plane}" for r in results if not r.passed]
    if failed:
        raise SystemExit(
            "gossip membership scenario(s) failed: " + ", ".join(failed)
        )


def _cmd_sosr(args: argparse.Namespace) -> None:
    from repro.experiments.related_work import (
        format_related_work,
        run_availability_comparison,
        run_latency_repair_comparison,
    )

    avail = run_availability_comparison(n=_size(args, 100), seed=args.seed)
    latency = run_latency_repair_comparison(n=_size(args, 359), seed=args.seed)
    _write(args.out, "table_related_work_sosr", format_related_work(avail, latency))


_COMMANDS: Dict[str, Callable[[argparse.Namespace], None]] = {
    "adversarial": _cmd_adversarial,
    "capacity": _cmd_capacity,
    "churn": _cmd_churn,
    "fig1": _cmd_fig1,
    "failover": _cmd_failover,
    "fig9": _cmd_fig9,
    "gossip": _cmd_gossip,
    "deployment": _cmd_deployment,
    "membership": _cmd_membership,
    "scenarios": _cmd_scenarios,
    "ablations": _cmd_ablations,
    "multihop": _cmd_multihop,
    "sosr": _cmd_sosr,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the tables and figures of 'Scaling "
        "All-Pairs Overlay Routing' (CoNEXT 2009).",
    )
    parser.add_argument(
        "command",
        choices=sorted(_COMMANDS) + ["all"],
        help="which experiment to run ('all' runs every one)",
    )
    parser.add_argument(
        "--n",
        "--nodes",
        dest="n",
        type=_overlay_size,
        default=None,
        help="overlay/trace size override",
    )
    parser.add_argument(
        "--rate",
        type=_positive,
        default=0.05,
        help="churn: membership events per second (default 0.05)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="membership/failover/gossip: fast CI path (smaller runs)",
    )
    parser.add_argument(
        "--in-band",
        dest="in_band",
        action="store_true",
        help="membership/churn: run the lossy in-band delivery variant "
        "(view updates as real wire messages with piggyback repair)",
    )
    parser.add_argument(
        "--duration",
        type=_positive,
        default=300.0,
        help="simulated measurement duration in seconds (default 300)",
    )
    parser.add_argument("--seed", type=int, default=42, help="random seed")
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=None,
        help="directory to also write the tables into",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "all":
        for name in sorted(_COMMANDS):
            print(f"##### {name} #####")
            _COMMANDS[name](args)
    else:
        _COMMANDS[args.command](args)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
