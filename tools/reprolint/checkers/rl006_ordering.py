"""RL006: unordered iteration must not feed order-sensitive sinks.

Set iteration order depends on element hashes and insertion history.
When such an iteration feeds float accumulation (sum order changes the
rounding) or decides the order messages hit the wire (send order changes
every downstream RNG draw and queue interleaving), the run is only
reproducible by accident. Dicts are exempt: insertion order is a
language guarantee since 3.7.

The checker is scope-aware: it tracks names bound to set expressions per
function scope (plus ``self.X`` attributes per class, shared across that
class's methods) and flags ``for``/comprehension iteration over them and
direct ``list()/tuple()/sum()`` materialization. ``sorted(...)`` is the
canonical fix; sites that are provably order-independent (or where
sorting would re-baseline published tables) carry a waiver saying so.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, List, Set

from tools.reprolint.checkers.base import Checker
from tools.reprolint.engine import Finding, Module

__all__ = ["UnorderedIterationChecker"]

SET_METHODS = {
    "union",
    "intersection",
    "difference",
    "symmetric_difference",
    "copy",
}

ORDER_SENSITIVE_CALLS = {"list", "tuple", "sum"}

_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def _scope_walk(stmts: Iterable[ast.AST]) -> Iterator[ast.AST]:
    """Walk nodes without descending into nested function/class scopes."""
    stack = list(stmts)
    while stack:
        node = stack.pop()
        if isinstance(node, _SCOPE_NODES):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _nested_scopes(stmts: Iterable[ast.AST]) -> Iterator[ast.AST]:
    """Scope nodes reachable from ``stmts`` without crossing other scopes."""
    stack = list(stmts)
    while stack:
        node = stack.pop()
        if isinstance(node, _SCOPE_NODES):
            yield node
            continue
        stack.extend(ast.iter_child_nodes(node))


def _is_set_expr(node: ast.AST, known: Set[str]) -> bool:
    """Whether ``node`` evaluates to a set, given known set-typed names."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_set_expr(node.left, known) and _is_set_expr(node.right, known)
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return True
        if isinstance(func, ast.Attribute) and func.attr in SET_METHODS:
            return _names_set(func.value, known)
    return _names_set(node, known)


def _names_set(node: ast.AST, known: Set[str]) -> bool:
    if isinstance(node, ast.Name):
        return node.id in known
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        if node.value.id == "self":
            return f"self.{node.attr}" in known
    return False


def _is_set_annotation(node: ast.AST) -> bool:
    target = node
    if isinstance(target, ast.Subscript):
        target = target.value
    if isinstance(target, ast.Name):
        return target.id in ("set", "frozenset", "Set", "FrozenSet", "AbstractSet")
    if isinstance(target, ast.Attribute):
        return target.attr in ("Set", "FrozenSet", "AbstractSet")
    return False


def _add_target(target: ast.AST, known: Set[str]) -> None:
    if isinstance(target, ast.Name):
        known.add(target.id)
    elif isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name):
        if target.value.id == "self":
            known.add(f"self.{target.attr}")


def _collect_bindings(
    stmts: Iterable[ast.AST], seed: Set[str], passes: int = 2
) -> Set[str]:
    """Names bound to sets within one scope (no nested-scope descent).

    Two passes so ``a = set(); b = a`` resolves ``b`` as well.
    """
    known = set(seed)
    for _ in range(passes):
        for node in _scope_walk(stmts):
            if isinstance(node, ast.Assign):
                if _is_set_expr(node.value, known):
                    for t in node.targets:
                        _add_target(t, known)
            elif isinstance(node, ast.AnnAssign):
                if (node.value is not None and _is_set_expr(node.value, known)) or (
                    _is_set_annotation(node.annotation)
                ):
                    _add_target(node.target, known)
    return known


def _function_args(fn: ast.AST) -> Set[str]:
    out: Set[str] = set()
    if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        a = fn.args
        for arg in [*a.posonlyargs, *a.args, *a.kwonlyargs]:
            ann = getattr(arg, "annotation", None)
            if ann is not None and _is_set_annotation(ann):
                out.add(arg.arg)
    return out


class UnorderedIterationChecker(Checker):
    code = "RL006"
    description = (
        "no iteration over sets feeding float accumulation or wire/send "
        "order — wrap in sorted(...) or waive with a determinism argument"
    )

    def applies(self, module: Module) -> bool:
        return module.in_package("src/repro", "examples")

    def check(self, module: Module) -> List[Finding]:
        findings: List[Finding] = []
        self._check_scope(module, module.tree.body, set(), findings)
        return findings

    def _class_attrs(self, cls: ast.ClassDef) -> Set[str]:
        """``self.X`` names bound to sets anywhere in this class's methods."""
        attrs: Set[str] = set()
        methods = [
            s
            for s in cls.body
            if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for _ in range(2):
            for m in methods:
                attrs = _collect_bindings(m.body, attrs | _function_args(m))
        # Keep only self.X entries: plain locals don't cross methods.
        return {a for a in attrs if a.startswith("self.")}

    def _check_scope(
        self,
        module: Module,
        stmts: Iterable[ast.AST],
        inherited: Set[str],
        findings: List[Finding],
    ) -> None:
        known = _collect_bindings(stmts, inherited)
        for node in _scope_walk(stmts):
            self._check_sinks(module, node, known, findings)
        for scope in _nested_scopes(stmts):
            if isinstance(scope, ast.ClassDef):
                self._check_scope(
                    module, scope.body, self._class_attrs(scope), findings
                )
            elif isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # Closures read outer locals, so pass the full known set.
                self._check_scope(
                    module, scope.body, known | _function_args(scope), findings
                )
            elif isinstance(scope, ast.Lambda):
                self._check_scope(
                    module, [scope.body], known | _function_args(scope), findings
                )

    def _check_sinks(
        self,
        module: Module,
        node: ast.AST,
        known: Set[str],
        findings: List[Finding],
    ) -> None:
        if isinstance(node, (ast.For, ast.AsyncFor)):
            if _is_set_expr(node.iter, known):
                findings.append(
                    self.finding(
                        module,
                        node.iter,
                        "for-loop over a set: iteration order is hash-"
                        "dependent; iterate sorted(...) or waive with a "
                        "determinism argument",
                    )
                )
        elif isinstance(
            node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            for comp in node.generators:
                if _is_set_expr(comp.iter, known):
                    findings.append(
                        self.finding(
                            module,
                            comp.iter,
                            "comprehension over a set: iteration order is "
                            "hash-dependent; iterate sorted(...) or waive "
                            "with a determinism argument",
                        )
                    )
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Name)
                and func.id in ORDER_SENSITIVE_CALLS
                and len(node.args) >= 1
                and _is_set_expr(node.args[0], known)
            ):
                findings.append(
                    self.finding(
                        module,
                        node,
                        f"`{func.id}()` over a set materializes hash-"
                        "dependent order; use sorted(...) or waive with a "
                        "determinism argument",
                    )
                )
