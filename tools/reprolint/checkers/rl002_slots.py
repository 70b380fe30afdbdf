"""RL002: per-node / per-event classes must declare ``__slots__``.

``repro/overlay/`` and ``repro/net/`` hold the state that exists once
per overlay node or once per simulator event — the O(n) and O(events)
object populations that dominate memory at n >= 4096 (the first n=4096
scale run, recorded in CHANGES.md, peaked at 89.5 GB RSS, almost all of
it per-node Python objects). A ``__dict__``
costs ~100+ bytes per instance; ``__slots__`` removes it. Classes in
these packages must declare ``__slots__`` directly or via
``@dataclass(slots=True)``; genuine singletons (one per experiment, not
per node) carry an inline waiver saying so.
"""

from __future__ import annotations

import ast
from typing import List, Optional

from tools.reprolint.checkers.base import Checker, dotted_path
from tools.reprolint.engine import Finding, Module

__all__ = ["SlotsChecker"]

#: Base classes that manage their own storage (or are definitionally
#: exempt): enums, exceptions, typing constructs.
EXEMPT_BASES = {
    "Enum",
    "IntEnum",
    "StrEnum",
    "Flag",
    "IntFlag",
    "Exception",
    "BaseException",
    "Protocol",
    "NamedTuple",
    "TypedDict",
}


def _has_slots_assignment(cls: ast.ClassDef) -> bool:
    for stmt in cls.body:
        if isinstance(stmt, ast.Assign):
            if any(
                isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets
            ):
                return True
        elif isinstance(stmt, ast.AnnAssign):
            if isinstance(stmt.target, ast.Name) and stmt.target.id == "__slots__":
                return True
    return False


def _dataclass_slots(cls: ast.ClassDef) -> Optional[bool]:
    """None if not a dataclass; else whether ``slots=True`` is set."""
    for deco in cls.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        path = dotted_path(target)
        if path is None or path[-1] != "dataclass":
            continue
        if isinstance(deco, ast.Call):
            for kw in deco.keywords:
                if kw.arg == "slots":
                    return isinstance(kw.value, ast.Constant) and kw.value.value is True
        return False
    return None


def _is_exempt(cls: ast.ClassDef) -> bool:
    if cls.name.endswith(("Error", "Exception", "Warning")):
        return True
    for base in cls.bases:
        path = dotted_path(base)
        if path is not None and path[-1] in EXEMPT_BASES:
            return True
    return False


class SlotsChecker(Checker):
    code = "RL002"
    description = (
        "classes in repro/overlay/ and repro/net/ (per-node / per-event "
        "state) must declare __slots__ or @dataclass(slots=True)"
    )

    def applies(self, module: Module) -> bool:
        return module.in_package("repro/overlay", "repro/net")

    def check(self, module: Module) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef) or _is_exempt(node):
                continue
            if _has_slots_assignment(node):
                continue
            dc_slots = _dataclass_slots(node)
            if dc_slots:
                continue
            if dc_slots is False:
                message = (
                    f"dataclass `{node.name}` lacks slots; use "
                    "@dataclass(slots=True) (per-node/per-event instances "
                    "each pay for a __dict__ otherwise)"
                )
            else:
                message = (
                    f"class `{node.name}` lacks __slots__; per-node/per-event "
                    "classes must declare them (waive with a reason if this "
                    "is a genuine per-experiment singleton)"
                )
            findings.append(self.finding(module, node, message))
        return findings
