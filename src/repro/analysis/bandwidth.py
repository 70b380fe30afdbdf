"""Closed-form bandwidth models (§6.1).

All formulas are *derived* from the wire constants and the §5 intervals —
nothing is hard-coded — and reproduce the coefficients printed in the
paper:

* probing (in+out):           ``49.1 n`` bps
* full-mesh routing (in+out): ``1.6 n^2 + 24.5 n`` bps
* quorum routing (in+out):    ``6.4 n sqrt(n) + 17.1 n + 196.3 sqrt(n)`` bps

The models use the paper's large-n approximations (``n`` messages rather
than ``n - 1``; ``2 sqrt(n)`` rendezvous rather than ``2 (sqrt(n) - 1)``),
so measured emulation traffic lands slightly below them, exactly as the
paper reports for its deployment (13.5 vs 15.3 Kbps at n = 140).
"""

from __future__ import annotations

import math
from typing import Dict

from repro.errors import ConfigError
from repro.overlay import wire
from repro.overlay.config import (
    PROBE_INTERVAL_S,
    ROUTING_INTERVAL_FULL_S,
    ROUTING_INTERVAL_QUORUM_S,
    RouterKind,
)

__all__ = [
    "probing_bps",
    "fullmesh_routing_bps",
    "quorum_routing_bps",
    "routing_bps",
    "total_bps",
    "paper_coefficients",
]


def probing_bps(n: float) -> float:
    """Per-node probing traffic, incoming plus outgoing, bits/second.

    Each probed pair exchanges four 46-byte packets per interval
    (request out/in, reply out/in).
    """
    if n < 0:
        raise ConfigError("bad probing model arguments")
    return 4 * wire.PROBE_BYTES * 8 * n / PROBE_INTERVAL_S


def fullmesh_routing_bps(n: float, routing_interval_s: float = ROUTING_INTERVAL_FULL_S) -> float:
    """RON's link-state broadcast: ``2 n`` messages of ``3n + 46`` bytes
    per interval (n sent + n received), per node."""
    if n < 0 or routing_interval_s <= 0:
        raise ConfigError("bad full-mesh model arguments")
    return 2 * n * (3 * n + wire.HEADER_BYTES) * 8 / routing_interval_s


def quorum_routing_bps(n: float, routing_interval_s: float = ROUTING_INTERVAL_QUORUM_S) -> float:
    """Quorum routing: per interval a node sends and receives ``2 sqrt(n)``
    link-state messages (``3n + 46`` B) and ``2 sqrt(n)`` recommendation
    messages (``8 sqrt(n) + 46`` B)."""
    if n < 0 or routing_interval_s <= 0:
        raise ConfigError("bad quorum model arguments")
    s = math.sqrt(n)
    per_interval_bytes = 4 * s * (3 * n + wire.HEADER_BYTES) + 4 * s * (
        8 * s + wire.HEADER_BYTES
    )
    return per_interval_bytes * 8 / routing_interval_s


def routing_bps(n: float, kind: RouterKind) -> float:
    """Routing traffic for either algorithm at its §5 interval."""
    if kind is RouterKind.FULL_MESH:
        return fullmesh_routing_bps(n)
    return quorum_routing_bps(n)


def total_bps(n: float, kind: RouterKind) -> float:
    """Probing + routing traffic (the §1 capacity arithmetic)."""
    return probing_bps(n) + routing_bps(n, kind)


def paper_coefficients() -> Dict[str, float]:
    """The §6.1 closed-form coefficients implied by the wire constants.

    Keys: ``probing_linear`` (49.1), ``fullmesh_quadratic`` (1.6),
    ``fullmesh_linear`` (24.5), ``quorum_n15`` (6.4), ``quorum_linear``
    (17.1), ``quorum_sqrt`` (196.3).
    """
    h = wire.HEADER_BYTES
    return {
        "probing_linear": 4 * wire.PROBE_BYTES * 8 / PROBE_INTERVAL_S,
        "fullmesh_quadratic": 2 * 3 * 8 / ROUTING_INTERVAL_FULL_S,
        "fullmesh_linear": 2 * h * 8 / ROUTING_INTERVAL_FULL_S,
        "quorum_n15": 4 * 3 * 8 / ROUTING_INTERVAL_QUORUM_S,
        "quorum_linear": 4 * 8 * 8 / ROUTING_INTERVAL_QUORUM_S,
        "quorum_sqrt": 8 * h * 8 / ROUTING_INTERVAL_QUORUM_S,
    }
