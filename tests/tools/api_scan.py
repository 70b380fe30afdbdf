"""An AST scan of the public API of ``src/repro`` and of who reaches it.

Two guards read it (CONTRIBUTING, "The Options rule"):
``test_parameter_values.py`` asks which defaulted parameters the
callers set to one value only, ``test_public_names_used.py`` which
public names no caller reaches. Callers are ``src/repro``, ``bench/``
and the ``benchmarks/`` modules that publish a table, plus ``examples/``
for a use; tests do not count, since a test can call and set anything.

The scan matches by name, not by type: a call ``x.tick(...)`` counts as
a call of every public ``tick``, and a reference ``x.stats`` as a use of
every public ``stats``. That errs towards leniency (two classes sharing
a method name pool their callers) and never flags a name a caller does
reach.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Tuple

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"


def py_files(*dirs: Path) -> List[Path]:
    return [path for d in dirs for path in sorted(d.rglob("*.py"))]


def _publishes(path: Path) -> bool:
    """A ``benchmarks/`` module that writes a table under ``results/``
    (through ``conftest.emit``) is a run like any CLI command."""
    return any(
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "emit"
        for node in ast.walk(ast.parse(path.read_text()))
    )


SRC_FILES = py_files(SRC)
#: Callers whose arguments count as settings.
CALLERS = [
    *SRC_FILES,
    *py_files(ROOT / "bench"),
    *filter(_publishes, py_files(ROOT / "benchmarks")),
]
#: Code whose references count as a use.
USERS = [*CALLERS, *py_files(ROOT / "examples")]


def _public(name: str) -> bool:
    return not name.startswith("_")


@dataclass(frozen=True)
class Defined:
    """A public function, class or method: ``qualname`` is
    ``module:Class.method`` or ``module:function``."""

    qualname: str
    node: ast.AST

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1].rsplit(":", 1)[-1]


def _module(path: Path) -> str:
    rel = path.relative_to(SRC.parent).with_suffix("")
    parts = [p for p in rel.parts if p != "__init__"]
    return ".".join(parts)


def definitions(paths: Iterable[Path]) -> Iterator[Defined]:
    """Every public top-level function and class, and the public methods
    and constructor of every public class."""
    for path in paths:
        module = _module(path) if SRC in path.parents else path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and _public(node.name):
                yield Defined(f"{module}:{node.name}", node)
            elif isinstance(node, ast.ClassDef) and _public(node.name):
                yield Defined(f"{module}:{node.name}", node)
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and (
                        _public(item.name) or item.name == "__init__"
                    ):
                        yield Defined(f"{module}:{node.name}.{item.name}", item)


# ----------------------------------------------------------------------
# Uses
# ----------------------------------------------------------------------
def referenced_names(paths: Iterable[Path]) -> set:
    """Every name read as a bare name or an attribute. An import is not a
    use (a re-export in a package ``__init__`` reaches nothing), and
    neither is the ``def`` or ``class`` statement itself."""
    names: set = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def unreached(defined: Iterable[Defined], users: Iterable[Path]) -> List[str]:
    """Qualified names of the definitions no user references."""
    names = referenced_names(users)
    return sorted(d.qualname for d in defined if d.name not in names and d.name != "__init__")


# ----------------------------------------------------------------------
# Parameter values
# ----------------------------------------------------------------------
def _value(expr: ast.expr) -> object:
    """A literal's value; any other expression is a value of its own
    (a loop variable or a parameter varies at run time)."""
    try:
        return ast.literal_eval(expr)
    except ValueError:
        return ast.dump(expr)


def _called_name(func: ast.expr) -> str:
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else ""


def defaulted_parameters(d: Defined) -> List[Tuple[int, str, object]]:
    """``(position, name, default)`` of each defaulted parameter; the
    position is ``-1`` for a keyword-only one and counts from the first
    parameter after ``self`` / ``cls`` on a method."""
    node = d.node
    if not isinstance(node, ast.FunctionDef):
        return []
    args = node.args
    positional = [*args.posonlyargs, *args.args]
    is_method = "." in d.qualname.split(":", 1)[1]
    static = any(_called_name(dec) == "staticmethod" for dec in node.decorator_list)
    skip = 1 if is_method and not static else 0
    out = []
    first_default = len(positional) - len(args.defaults)
    for i, (arg, default) in enumerate(zip(positional[first_default:], args.defaults)):
        out.append((first_default + i - skip, arg.arg, _value(default)))
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            out.append((-1, arg.arg, _value(default)))
    return out


def passed_values(paths: Iterable[Path]) -> Dict[str, List[ast.Call]]:
    """Called name -> the calls made by that name (a class is called by
    its own name, by ``cls(...)`` in its own body, and its constructor
    also through ``super().__init__``)."""
    calls: Dict[str, List[ast.Call]] = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                calls.setdefault(_called_name(node.func), []).append(node)
            elif isinstance(node, ast.ClassDef):
                calls.setdefault(node.name, []).extend(
                    call
                    for call in ast.walk(node)
                    if isinstance(call, ast.Call) and _called_name(call.func) == "cls"
                )
    return calls


def _values_for(calls: List[ast.Call], position: int, name: str) -> List[object]:
    values: List[object] = []
    for call in calls:
        starred = any(isinstance(a, ast.Starred) for a in call.args)
        if any(k.arg is None for k in call.keywords) or (starred and position >= 0):
            values.append(f"<unpacked at {call.lineno}>")
            continue
        if 0 <= position < len(call.args):
            values.append(_value(call.args[position]))
        values.extend(_value(k.value) for k in call.keywords if k.arg == name)
    return values


def _constructed_as(paths: Iterable[Path]) -> Dict[str, List[str]]:
    """Class name -> the names that construct it through its own
    ``__init__``: itself and every subclass that does not define one."""
    bases: Dict[str, List[str]] = {}
    own_init = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = [_called_name(b) for b in node.bases]
                if any(isinstance(i, ast.FunctionDef) and i.name == "__init__" for i in node.body):
                    own_init.add(node.name)

    def inherits(cls: str, owner: str) -> bool:
        return cls == owner or (
            cls not in own_init and any(inherits(b, owner) for b in bases.get(cls, []))
        )

    return {owner: [cls for cls in bases if inherits(cls, owner)] for owner in bases}


def single_valued(defined: Iterable[Defined], callers: Iterable[Path]) -> List[str]:
    """``qualname(param)`` for every defaulted parameter that the callers
    pass no second value for (the default is one value)."""
    calls = passed_values(callers)
    constructed_as = _constructed_as(SRC_FILES)
    flagged = []
    for d in defined:
        params = defaulted_parameters(d)
        if not params:
            continue
        if d.name == "__init__":
            owner = d.qualname.split(":", 1)[1].split(".")[0]
            reaching = [c for cls in constructed_as.get(owner, [owner]) for c in calls.get(cls, [])]
            reaching += calls.get("__init__", [])
        else:
            reaching = calls.get(d.name, [])
        for position, name, default in params:
            if len({repr(v) for v in [default, *_values_for(reaching, position, name)]}) < 2:
                flagged.append(f"{d.qualname}({name})")
    return sorted(flagged)
