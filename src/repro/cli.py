"""Command-line interface: regenerate any of the paper's experiments.

Usage (also via ``python -m repro``)::

    repro-experiments capacity       # §1/§5/§6.1 tables, Appendix A bound
    repro-experiments fig1           # Figure 1 CDF, chart and summary
    repro-experiments fig9           # Figure 9 bandwidth scaling sweep
    repro-experiments deployment     # Figures 8, 10-14, §6.2 summary
    repro-experiments scenarios      # §4.1 failover timing (Figures 4-7)
    repro-experiments ablations      # quorum + interval ablations
    repro-experiments multihop       # §3 multi-hop scaling
    repro-experiments sosr           # §2 random-intermediary study
    repro-experiments adversarial    # §7 malicious rendezvous
    repro-experiments churn          # dynamic membership, in-band included
    repro-experiments membership     # view-delta scaling, in-band included
    repro-experiments failover       # replicated-coordinator faults
    repro-experiments gossip         # coordinator-free membership
    repro-experiments all            # every command above

    repro-experiments fig9 --n 64 --duration 120     # one smaller point
    repro-experiments churn --nodes 20 --rate 0.1    # a smaller, busier run
    repro-experiments membership --smoke             # fast CI variants
    repro-experiments all --out results              # rewrite results/

Each command owns the ``results/*.txt`` tables listed in
:data:`COMMANDS` and runs its experiments at their entry points' own
defaults, which are the published values, so ``all --out DIR`` writes
every committed table byte for byte. ``--n``, ``--duration``, ``--seed``
and ``--rate`` (churn) replace a default only when given; ``--smoke``
runs the membership / failover / gossip CI variants, whose tables end in
``_smoke``. Every command prints its tables, and writes them as
``DIR/<table>.txt`` only under ``--out DIR``. Host wall time and memory
at scale are the benchmark's to measure, not the CLI's: see
``bench/README.md``.
"""

from __future__ import annotations

import argparse
import math
import pathlib
import sys
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

__all__ = ["COMMANDS", "build_parser", "main", "run_command"]

_Ran = Tuple[Any, List[str]]


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


def _given(args: argparse.Namespace, *params: str) -> Dict[str, Any]:
    """The options the user gave, as keywords of an entry point taking
    ``params``; ``sizes`` is a sweep, which ``--n`` narrows to one size.
    An option left out keeps the entry point's own default."""
    values = {
        "n": args.n,
        "sizes": None if args.n is None else (args.n,),
        "duration_s": args.duration,
        "seed": args.seed,
        "rate_per_s": args.rate,
    }
    return {p: values[p] for p in params if values[p] is not None}


def _capacity(args: argparse.Namespace) -> _Ran:
    from repro.experiments.capacity_tables import (
        coefficients_table,
        config_table,
        lower_bound_table,
        run_capacity_headlines,
    )

    head = run_capacity_headlines()
    return head, [config_table(), coefficients_table(), head.format_table(), lower_bound_table()]


def _fig1(args: argparse.Namespace) -> _Ran:
    from repro.experiments.fig1_onehop_cdf import run_fig1

    result = run_fig1(**_given(args, "n", "seed"))
    return result, [result.format_table(), result.format_plot(), result.format_summary()]


def _fig9(args: argparse.Namespace) -> _Ran:
    from repro.experiments.fig9_bandwidth_scaling import run_fig9

    result = run_fig9(**_given(args, "sizes", "duration_s", "seed"))
    return result, [result.format_table()]


def _deployment(args: argparse.Namespace) -> _Ran:
    from repro.experiments.deployment import run_deployment

    result = run_deployment(**_given(args, "n", "duration_s", "seed"))
    well, poor = result.well_and_poorly_connected()
    return result, [
        result.fig8_table(),
        result.fig10_table(),
        result.fig11_table(),
        result.fig12_table(),
        result.fig13_14_table(well),
        result.fig13_14_table(poor),
        result.effectiveness_table(),
    ]


def _scenarios(args: argparse.Namespace) -> _Ran:
    from repro.experiments.scenarios import format_scenarios, run_all_scenarios

    results = run_all_scenarios(**_given(args, "n", "seed"))
    return results, [format_scenarios(results)]


def _ablations(args: argparse.Namespace) -> _Ran:
    from repro.experiments.ablation_interval import (
        format_interval_ablation,
        run_interval_ablation,
    )
    from repro.experiments.ablation_quorum import (
        format_quorum_ablation,
        run_quorum_ablation,
    )

    quorum = run_quorum_ablation(**_given(args, "n", "seed"))
    interval = run_interval_ablation(**_given(args, "n", "duration_s", "seed"))
    return (quorum, interval), [
        format_quorum_ablation(quorum),
        format_interval_ablation(interval),
    ]


def _multihop(args: argparse.Namespace) -> _Ran:
    from repro.experiments.multihop_scaling import (
        format_multihop_scaling,
        run_multihop_scaling,
    )

    rows = run_multihop_scaling(**_given(args, "sizes", "seed"))
    return rows, [format_multihop_scaling(rows)]


def _adversarial(args: argparse.Namespace) -> _Ran:
    from repro.experiments.adversarial import format_adversarial, run_adversarial_sweep

    results = run_adversarial_sweep(**_given(args, "n", "seed", "duration_s"))
    return results, [format_adversarial(results)]


def _sosr(args: argparse.Namespace) -> _Ran:
    from repro.experiments.related_work import (
        format_related_work,
        run_availability_comparison,
        run_latency_repair_comparison,
    )

    avail = run_availability_comparison(**_given(args, "n", "seed"))
    latency = run_latency_repair_comparison(**_given(args, "n", "seed"))
    return (avail, latency), [format_related_work(avail, latency)]


def _churn(args: argparse.Namespace) -> _Ran:
    from repro.experiments.churn import (
        run_churn_comparison,
        run_flash_crowd,
        run_in_band_churn,
        run_mass_failure_sweep,
    )

    comparison = run_churn_comparison(**_given(args, "n", "rate_per_s", "duration_s", "seed"))
    mass = run_mass_failure_sweep(**_given(args, "n", "seed"))
    flash = run_flash_crowd(**_given(args, "n", "seed"))
    in_band = run_in_band_churn(**_given(args, "n", "rate_per_s", "duration_s", "seed"))
    results = (comparison, mass, flash, in_band)
    return results, [r.format_table() for r in results]


def _membership(args: argparse.Namespace) -> _Ran:
    from repro.experiments.membership_scaling import (
        run_in_band_scaling,
        run_membership_scaling,
    )

    given = _given(args, "sizes", "duration_s", "seed")
    if args.smoke:
        given["sizes"] = (256,)
    scaling = run_membership_scaling(**given)
    in_band = run_in_band_scaling(**given)
    return (scaling, in_band), [scaling.format_table(), in_band.format_table()]


def _failover(args: argparse.Namespace) -> _Ran:
    from repro.experiments.coordinator_failover import (
        format_failover_scenarios,
        run_failover_scenarios,
    )

    results = run_failover_scenarios(**_given(args, "n", "seed"), smoke=args.smoke)
    return results, [format_failover_scenarios(results)]


def _gossip(args: argparse.Namespace) -> _Ran:
    from repro.experiments.gossip_membership import (
        format_gossip_scenarios,
        run_gossip_scenarios,
    )

    results = run_gossip_scenarios(**_given(args, "n", "seed"), smoke=args.smoke)
    return results, [format_gossip_scenarios(results)]


def _no_bar(result: Any) -> List[str]:
    return []


class _Command(NamedTuple):
    #: Runs the experiments: their result objects and the table texts.
    run: Callable[[argparse.Namespace], _Ran]
    #: The ``results/`` stems it writes, in the order ``run`` returns them.
    tables: Tuple[str, ...]
    #: The runs that missed the command's acceptance bar; any ends the
    #: command with an error after its tables are written.
    failed: Callable[[Any], List[str]] = _no_bar
    #: Does ``--smoke`` select its CI variant?
    smoke: bool = False


def _churn_failed(results: Any) -> List[str]:
    return [f"in-band/{mode}" for mode, _, div, _ in results[-1].rows if div["open"]]


def _membership_failed(results: Any) -> List[str]:
    scaling, in_band = results
    return [f"n={s.n}/{s.mode}" for s in scaling.rows if not s.converged] + [
        f"n={s.n}/in-band" for s in in_band.rows if not s.converged or s.div_open
    ]


#: Every command, with the published tables it alone writes.
COMMANDS: Dict[str, _Command] = {
    "ablations": _Command(_ablations, ("table_ablation_quorum", "table_ablation_interval")),
    "adversarial": _Command(_adversarial, ("table_ext_adversarial",)),
    "capacity": _Command(
        _capacity,
        ("table_config", "table_coefficients", "table_capacity", "table_appendix_lower_bound"),
    ),
    "churn": _Command(
        _churn,
        (
            "table_churn_comparison",
            "table_churn_mass_failure",
            "table_churn_flash_crowd",
            "table_churn_in_band",
        ),
        failed=_churn_failed,
    ),
    "deployment": _Command(
        _deployment,
        (
            "fig08_concurrent_failures",
            "fig10_bandwidth_cdf",
            "fig11_double_failures",
            "fig12_freshness_pairs",
            "fig13_freshness_well_connected",
            "fig14_freshness_poorly_connected",
            "table_effectiveness_summary",
        ),
    ),
    "failover": _Command(
        _failover,
        ("table_coordinator_failover",),
        failed=lambda results: [r.name for r in results if not r.passed],
        smoke=True,
    ),
    "fig1": _Command(_fig1, ("fig01_onehop_latency", "fig01_onehop_latency_plot", "fig01_summary")),
    "fig9": _Command(_fig9, ("fig09_bandwidth_scaling",)),
    "gossip": _Command(
        _gossip,
        ("table_gossip_membership",),
        failed=lambda results: [f"{r.name}/{r.plane}" for r in results if not r.passed],
        smoke=True,
    ),
    "membership": _Command(
        _membership,
        ("table_membership_scaling", "table_membership_in_band"),
        failed=_membership_failed,
        smoke=True,
    ),
    "multihop": _Command(_multihop, ("table_multihop_scaling",)),
    "scenarios": _Command(_scenarios, ("fig04_07_failover_scenarios",)),
    "sosr": _Command(_sosr, ("table_related_work_sosr",)),
}


def run_command(name: str, args: argparse.Namespace) -> Tuple[Any, Dict[str, str]]:
    """Run one command: its result objects and its tables by file stem."""
    command = COMMANDS[name]
    result, texts = command.run(args)
    suffix = "_smoke" if args.smoke and command.smoke else ""
    return result, {stem + suffix: text for stem, text in zip(command.tables, texts, strict=True)}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the tables and figures of 'Scaling "
        "All-Pairs Overlay Routing' (CoNEXT 2009).",
    )
    parser.add_argument(
        "command",
        choices=sorted(COMMANDS) + ["all"],
        help="which experiment to run ('all' runs every one)",
    )
    parser.add_argument(
        "--n",
        "--nodes",
        dest="n",
        type=_overlay_size,
        help="overlay/trace size (a size sweep runs this one size)",
    )
    parser.add_argument(
        "--rate",
        type=_positive,
        help="churn: membership events per second",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="membership/failover/gossip: fast CI path (smaller runs)",
    )
    parser.add_argument(
        "--duration",
        type=_positive,
        help="simulated measurement duration in seconds",
    )
    parser.add_argument("--seed", type=int, help="random seed")
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        help="directory to also write the tables into",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    names = sorted(COMMANDS) if args.command == "all" else [args.command]
    for name in names:
        if args.command == "all":
            print(f"##### {name} #####")
        result, tables = run_command(name, args)
        for stem, text in tables.items():
            _write(args.out, stem, text)
        failed = COMMANDS[name].failed(result)
        if failed:
            raise SystemExit(f"{name}: failed its acceptance check: " + ", ".join(failed))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
