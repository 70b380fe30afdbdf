"""RL004: wire accounting must stay closed.

The paper's bandwidth tables are computed from per-message byte sizes,
not from serialized bytes on a real wire — so the accounting lives in
two places that must agree: every ``Message`` subclass in
``repro/net/packet.py`` reports a ``kind`` and a ``wire_size``, and the
size constants and formulas live in ``repro/overlay/wire.py``. This
checker is a cross-file pass that keeps that contract closed:

* every concrete Message subclass defines both ``kind`` and
  ``wire_size``;
* every ``wire.X`` name that packet.py references actually exists in
  wire.py;
* every ``KIND_*`` constant is returned by some ``kind`` property, so
  no packet kind exists without a class that claims it.

That each size is the size of real bytes is not a lint question: the
byte layouts are ``tests/overlay/reference_wire.py``, and
``tests/overlay/test_wire_tap.py`` holds every datagram of a run of each
membership plane to them (and every ``Message`` class to a codec).
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set

from tools.reprolint.checkers.base import Checker, ImportMap, resolve_path
from tools.reprolint.engine import Finding, Module

__all__ = ["WireAccountingChecker"]

PACKET_SUFFIX = "repro/net/packet.py"
WIRE_SUFFIX = "repro/overlay/wire.py"


def _top_level_names(tree: ast.Module) -> Set[str]:
    names: Set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(stmt.name)
        elif isinstance(stmt, ast.Assign):
            for t in stmt.targets:
                if isinstance(t, ast.Name):
                    names.add(t.id)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            names.add(stmt.target.id)
    return names


def _message_classes(tree: ast.Module) -> Dict[str, ast.ClassDef]:
    """Concrete Message subclasses by name (transitive, within the file)."""
    classes = {
        stmt.name: stmt for stmt in tree.body if isinstance(stmt, ast.ClassDef)
    }
    out: Dict[str, ast.ClassDef] = {}

    def derives_from_message(cls: ast.ClassDef, seen: Set[str]) -> bool:
        for base in cls.bases:
            if isinstance(base, ast.Name):
                if base.id == "Message":
                    return True
                parent = classes.get(base.id)
                if parent is not None and parent.name not in seen:
                    seen.add(parent.name)
                    if derives_from_message(parent, seen):
                        return True
        return False

    for name, cls in classes.items():
        if name != "Message" and derives_from_message(cls, {name}):
            out[name] = cls
    return out


def _methods(cls: ast.ClassDef) -> Dict[str, ast.FunctionDef]:
    return {
        stmt.name: stmt
        for stmt in cls.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


class WireAccountingChecker(Checker):
    code = "RL004"
    description = (
        "every packet kind carries byte accounting: kind/wire_size on each "
        "Message, backed by size constants in wire.py"
    )

    def _find(self, modules: Sequence[Module], suffix: str) -> Optional[Module]:
        for mod in modules:
            if ("/" + mod.posix_path).endswith("/" + suffix):
                return mod
        return None

    def finalize(self, modules: Sequence[Module]) -> List[Finding]:
        packet = self._find(modules, PACKET_SUFFIX)
        wire = self._find(modules, WIRE_SUFFIX)
        findings: List[Finding] = []

        if packet is not None:
            findings.extend(self._check_packet(packet, wire))
        return findings

    def _check_packet(
        self, packet: Module, wire: Optional[Module]
    ) -> List[Finding]:
        findings: List[Finding] = []
        imports = ImportMap(packet.tree)
        wire_names = _top_level_names(wire.tree) if wire is not None else None

        kinds_defined: Dict[str, ast.AST] = {}
        for stmt in packet.tree.body:
            if isinstance(stmt, ast.Assign):
                for t in stmt.targets:
                    if isinstance(t, ast.Name) and t.id.startswith("KIND_"):
                        kinds_defined[t.id] = stmt

        kinds_returned: Set[str] = set()
        for name, cls in _message_classes(packet.tree).items():
            methods = _methods(cls)
            for required in ("kind", "wire_size"):
                if required not in methods:
                    findings.append(
                        self.finding(
                            packet,
                            cls,
                            f"Message subclass `{name}` does not define "
                            f"`{required}`; every packet type must report its "
                            "kind and on-wire size",
                        )
                    )
            kind_fn = methods.get("kind")
            if kind_fn is not None:
                for node in ast.walk(kind_fn):
                    if isinstance(node, ast.Name) and node.id.startswith("KIND_"):
                        kinds_returned.add(node.id)

        for const, stmt in kinds_defined.items():
            if const not in kinds_returned:
                findings.append(
                    self.finding(
                        packet,
                        stmt,
                        f"packet kind `{const}` is declared but no Message "
                        "subclass returns it from `kind`; orphaned kinds "
                        "break bandwidth accounting by category",
                    )
                )

        if wire_names is not None:
            for node in ast.walk(packet.tree):
                if isinstance(node, ast.Attribute):
                    path = resolve_path(node, imports)
                    if (
                        path is not None
                        and len(path) >= 2
                        and path[-2] == "wire"
                        and "overlay" in path
                        and path[-1] not in wire_names
                    ):
                        findings.append(
                            self.finding(
                                packet,
                                node,
                                f"packet.py references `wire.{path[-1]}` but "
                                "wire.py does not define it",
                            )
                        )
        return findings
