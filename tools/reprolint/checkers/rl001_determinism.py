"""RL001: all randomness seeded and explicit; all time from the simulator.

The repository's headline guarantee is that every results table is
byte-identical for a given seed. Ambient randomness (the ``random``
module, legacy ``numpy.random`` module-level generators, ``uuid4``) and
wall-clock reads (``time.time``, ``datetime.now``) break that silently:
they make behavior depend on process state or the host clock instead of
the experiment seed and the virtual clock. Randomness must flow through
an explicitly passed ``numpy.random.Generator``; time through
``Simulator.now``.
"""

from __future__ import annotations

import ast
from typing import List, Set, Tuple

from tools.reprolint.checkers.base import Checker, ImportMap, resolve_path
from tools.reprolint.engine import Finding, Module

__all__ = ["DeterminismChecker"]

#: Modules whose very import signals ambient randomness.
BANNED_MODULES = {"random", "secrets"}

#: Wall-clock and ambient-entropy attribute paths (after alias expansion).
BANNED_PATHS: Set[Tuple[str, ...]] = {
    ("time", "time"),
    ("time", "time_ns"),
    ("time", "monotonic"),
    ("time", "monotonic_ns"),
    ("time", "perf_counter"),
    ("time", "perf_counter_ns"),
    ("datetime", "datetime", "now"),
    ("datetime", "datetime", "utcnow"),
    ("datetime", "datetime", "today"),
    ("datetime", "date", "today"),
    ("uuid", "uuid1"),
    ("uuid", "uuid4"),
    ("os", "urandom"),
    ("os", "getrandom"),
}

#: ``numpy.random`` names that construct explicit, seedable generators —
#: everything else on that module is the hidden global RNG.
NUMPY_RANDOM_ALLOWED = {
    "default_rng",
    "Generator",
    "RandomState",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "SFC64",
    "MT19937",
}


def _outermost_chains(tree: ast.AST) -> List[ast.AST]:
    """Attribute/Name nodes that head a dotted chain (not mid-chain)."""
    inner = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            inner.add(id(node.value))
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.Attribute, ast.Name)) and id(node) not in inner
    ]


class DeterminismChecker(Checker):
    code = "RL001"
    description = (
        "no ambient randomness or wall-clock reads under src/repro/ or "
        "examples/ — seeded numpy Generators and the simulator clock only"
    )

    def applies(self, module: Module) -> bool:
        return module.in_package("src/repro", "examples")

    def check(self, module: Module) -> List[Finding]:
        findings: List[Finding] = []
        imports = ImportMap(module.tree)

        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in BANNED_MODULES:
                        findings.append(
                            self.finding(
                                module,
                                node,
                                f"import of `{alias.name}` (module-level RNG); "
                                "thread a seeded numpy.random.Generator instead",
                            )
                        )
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                root = node.module.split(".")[0]
                if root in BANNED_MODULES:
                    findings.append(
                        self.finding(
                            module,
                            node,
                            f"import from `{node.module}` (module-level RNG); "
                            "thread a seeded numpy.random.Generator instead",
                        )
                    )

        for node in _outermost_chains(module.tree):
            path = resolve_path(node, imports)
            if path is None:
                continue
            if path in BANNED_PATHS:
                dotted = ".".join(path)
                hint = (
                    "read the virtual clock (Simulator.now)"
                    if path[0] in ("time", "datetime")
                    else "derive it from the experiment seed"
                )
                findings.append(
                    self.finding(module, node, f"`{dotted}` is non-deterministic; {hint}")
                )
            elif (
                len(path) >= 3
                and path[:2] == ("numpy", "random")
                and path[2] not in NUMPY_RANDOM_ALLOWED
            ):
                findings.append(
                    self.finding(
                        module,
                        node,
                        f"legacy global RNG `{'.'.join(path)}`; use an explicitly "
                        "passed numpy.random.Generator (np.random.default_rng(seed))",
                    )
                )
        return findings
