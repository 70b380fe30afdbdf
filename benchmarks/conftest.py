"""Shared helper of the published-table checks.

Every ``results/*.txt`` table has one producer, a ``python -m repro``
command (:data:`repro.cli.COMMANDS`), and each module here checks one
command's claims. :func:`published` runs the command at its defaults —
the published parameters, stated once at the experiments' entry points
— once per session, so the 140-node deployment behind Figures 8 and
10-14 runs once for all of them. It compares each table the command
writes with the committed file byte for byte and returns the command's
result objects for the module's assertions. Nothing here writes under
``results/``: a table that legitimately moved is rewritten with
``python -m repro <command> --out results``.
"""

import functools
import pathlib
import sys

from repro.cli import build_parser, run_command

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"

# The kernel guards compare with the tests' reference implementations
# and build the benchmark's own workloads (``bench`` at the repo root).
sys.path.insert(0, str(RESULTS_DIR.parent / "tests" / "overlay"))
sys.path.insert(0, str(RESULTS_DIR.parent / "tests" / "core"))
sys.path.insert(0, str(RESULTS_DIR.parent))


@functools.lru_cache(maxsize=None)
def _run(command: str):
    return run_command(command, build_parser().parse_args([command]))


def published(command: str):
    """``python -m repro <command>``'s result objects, after checking
    that every table it writes equals the committed one."""
    result, tables = _run(command)
    for stem, text in tables.items():
        committed = (RESULTS_DIR / f"{stem}.txt").read_bytes()
        assert (text + "\n").encode() == committed, (
            f"results/{stem}.txt differs from `python -m repro {command}`"
        )
    return result
