"""repro-lint: project-specific static analysis for the reproduction.

The headline guarantee of this repository — every results table is
byte-identical for a given seed — and its scaling roadmap (O(n^1.5)
per-node state, an asyncio-ready simulation core) are invariants of the
*source code*. This package checks them statically:

========  ============================================================
Code      Invariant
========  ============================================================
RL001     Determinism: no ambient randomness (``random``, legacy
          ``np.random`` globals, ``uuid4``) or wall-clock reads
          (``time.time``, ``datetime.now``) under ``src/repro/`` and
          ``examples/`` — all randomness flows through an explicitly
          passed, seeded ``numpy.random.Generator``; all time through
          the simulator clock.
RL002     Memory hygiene: classes in ``repro/overlay/`` and
          ``repro/net/`` (instantiated per-node or per-event) declare
          ``__slots__``.
RL003     Simulator discipline: no blocking calls (``time.sleep``,
          socket/file IO, threads, subprocesses) inside the simulation
          core — everything is an event on the virtual clock.
RL004     Wire accounting: every packet kind in ``net/packet.py`` has a
          byte-size rule backed by a ``wire`` constant, and every
          ``KIND_*`` constant is claimed by a message class.
RL005     No mutable (or ``np.ndarray``) default arguments.
RL006     No unordered-set iteration feeding accumulation or message
          ordering (wrap in ``sorted(...)`` or waive with a proof).
RL000     Waiver hygiene: every inline waiver carries a non-empty
          reason and actually suppresses something.
========  ============================================================

Findings are suppressed inline with::

    offending_line()  # reprolint: disable=RLxxx(why this is sound)

Run ``python -m tools.reprolint src/repro`` (exit code 1 on unwaived
findings). See CONTRIBUTING.md for the rules' rationale.
"""

from tools.reprolint.engine import Finding, lint_paths, main

__all__ = ["Finding", "lint_paths", "main"]
