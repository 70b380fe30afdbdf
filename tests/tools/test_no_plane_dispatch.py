"""The membership dispatch must not grow back.

The harness, the node and the experiments talk to a membership plane and
a per-node client through two interfaces
(:class:`repro.overlay.membership.MembershipPlane` / ``MembershipClient``)
and never ask which implementation they got. Which plane a config names
is read in exactly one function, ``harness._build_membership``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
GUARDED = [
    SRC / "overlay" / "harness.py",
    SRC / "overlay" / "node.py",
    *sorted((SRC / "experiments").glob("*.py")),
]
FACTORY = "_build_membership"

#: Planes, clients, the authority behind three of the planes, and the
#: config variants that name a plane.
PLANE_CLASSES = {
    "MembershipPlane",
    "OutOfBandPlane",
    "InBandPlane",
    "CoordinatorGroup",
    "GossipMembershipPlane",
    "MembershipService",
    "MembershipClient",
    "CoordinatorClient",
    "CallbackClient",
    "WireClient",
    "RingClient",
    "GossipMembershipNode",
    "OutOfBand",
    "InBand",
    "Replicated",
    "Gossip",
    "MembershipConfig",
}


def _names(node: ast.AST) -> set:
    """Every bare or dotted-tail name under ``node`` (``a.b.C`` -> ``C``)."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
    return found


def _violations(path: Path) -> list:
    tree = ast.parse(path.read_text())
    factory_lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == FACTORY:
            factory_lines = set(range(node.lineno, node.end_lineno + 1))
    out = []
    for node in ast.walk(tree):
        if getattr(node, "lineno", None) in factory_lines:
            continue
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("isinstance", "issubclass")
            and len(node.args) == 2
            and _names(node.args[1]) & PLANE_CLASSES
        ):
            out.append(f"{path.name}:{node.lineno}: isinstance on a plane class")
        # ``config.membership`` / ``self.config.membership`` / ``cfg.membership``:
        # the variant, as opposed to ``overlay.membership`` (the plane)
        # and ``node.membership`` (the client).
        if isinstance(node, ast.Attribute) and node.attr == "membership":
            owner = node.value
            owner_name = owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", "")
            if owner_name in ("config", "cfg"):
                out.append(f"{path.name}:{node.lineno}: reads the config's plane variant")
    return out


def test_no_plane_dispatch_outside_the_factory():
    found = [v for path in GUARDED for v in _violations(path)]
    assert found == [], "\n".join(found)


def test_the_factory_exists_and_the_check_can_fail(tmp_path):
    harness = (SRC / "overlay" / "harness.py").read_text()
    assert f"def {FACTORY}(" in harness
    bad = tmp_path / "bad.py"
    bad.write_text(
        "def join(self):\n"
        "    if isinstance(self.membership, GossipMembershipPlane):\n"
        "        return self.config.membership.fanout\n"
    )
    assert len(_violations(bad)) == 2
