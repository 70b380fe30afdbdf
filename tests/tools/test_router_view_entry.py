"""Routers are handed views through one entry point, and it must stay one.

``RouterBase.on_view_change`` installs every view, whole or derived from
a delta on the wire; ``forget_view`` drops the held one on a reboot.
Outside the router modules, ``src/repro`` calls no other router view
method (the carry hook ``on_view_delta`` and ``_rebuild_for_view`` are
the router's own business), and no router or gossip module handles a
``ViewDelta``: deltas are a membership wire format.
"""

import ast
from pathlib import Path

from repro.overlay.router_base import RouterBase

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
ROUTER_MODULES = sorted((SRC / "overlay").glob("router_*.py"))
GUARDED = [p for p in sorted(SRC.rglob("*.py")) if p not in ROUTER_MODULES]
VIEW_METHODS = {
    "on_view_change",
    "forget_view",
    "on_view_delta",
    "_rebuild_for_view",
    "rebrand_view",
}
ENTRY_POINTS = {"on_view_change", "forget_view"}


def _violations(path: Path) -> list:
    tree = ast.parse(path.read_text())
    return [
        f"{path.name}:{node.lineno}: calls {node.func.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in VIEW_METHODS - ENTRY_POINTS
    ]


def _names(path: Path) -> set:
    """Every identifier and attribute name in ``path``, imports included."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.asname or node.name)
    return found


def test_only_the_entry_points_are_called_outside_the_routers():
    assert len(GUARDED) > 40 and ROUTER_MODULES
    found = [v for path in GUARDED for v in _violations(path)]
    assert found == [], "\n".join(found)


def test_no_router_or_gossip_module_handles_a_view_delta():
    for path in [*ROUTER_MODULES, SRC / "overlay" / "gossip.py"]:
        assert "ViewDelta" not in _names(path), path.name


def test_rebrand_view_is_gone():
    assert not hasattr(RouterBase, "rebrand_view")
    assert [p.name for p in SRC.rglob("*.py") if "rebrand_view" in _names(p)] == []


def test_the_check_can_fail(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from repro.overlay.membership import ViewDelta\n"
        "def install(router, view, delta):\n"
        "    router.forget_view()\n"
        "    router.on_view_change(view)\n"
        "    router.on_view_delta(view, delta)\n"
        "    node.router.rebrand_view(view)\n"
    )
    assert len(_violations(bad)) == 2
    assert {"ViewDelta", "rebrand_view"} <= _names(bad)
