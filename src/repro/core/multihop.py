"""Multi-hop extension (§3, "Multi-hop routes").

The two-round protocol generalizes to optimal routes of length ≤ l by
iterating ``ceil(log2 l)`` times. At iteration ``t`` each node announces a
*modified* link state: for each destination, the cost of the best path of
length ≤ 2^(t-1) found so far, together with ``Sec`` — the identity of the
second node (the next hop) on that path. The rendezvous combines two such
rows exactly as in the one-hop case, which squares the reachable path
length each iteration, and returns ``(cost, Sec)`` so forwarding state is
maintained without ever shipping full paths.

This module provides:

* a centralized reference (:func:`shortest_paths_bounded_hops`) via
  min-plus matrix powers,
* the quorum-based distributed emulation (:func:`run_multihop`) with a
  per-node communication ledger demonstrating the Θ(n sqrt(n) log n)
  bound,
* :func:`walk_path` which follows Sec pointers hop by hop and verifies
  that forwarding actually realizes the promised cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.core.onehop import validate_cost_matrix
from repro.core.quorum import QuorumSystem
from repro.errors import RoutingError
from repro.overlay import wire

__all__ = [
    "minplus",
    "shortest_paths_bounded_hops",
    "MultiHopResult",
    "run_multihop",
    "walk_path",
]


def minplus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Min-plus (tropical) matrix product: ``c[i,j] = min_k a[i,k]+b[k,j]``."""
    n = a.shape[0]
    out = np.empty_like(a)
    for i in range(n):
        out[i] = np.min(a[i][:, None] + b, axis=0)
    return out


def shortest_paths_bounded_hops(w: np.ndarray, max_hops: int) -> np.ndarray:
    """Cost of the best path with at most ``max_hops`` edges, per pair.

    Exact for any ``max_hops`` (repeated relaxation, not squaring); used
    as the oracle for the distributed algorithm.
    """
    w = validate_cost_matrix(w)
    if max_hops < 1:
        raise RoutingError("max_hops must be >= 1")
    d = w.copy()
    np.fill_diagonal(d, 0.0)
    for _ in range(max_hops - 1):
        nxt = minplus(d, w)
        np.fill_diagonal(nxt, 0.0)
        if np.array_equal(nxt, d):
            break
        d = nxt
    return d


@dataclass
class MultiHopResult:
    """Outcome of the iterated quorum protocol.

    Attributes
    ----------
    costs:
        ``(n, n)`` best cost over paths of length ≤ 2^iterations.
    next_hop:
        The ``Sec`` table: ``next_hop[i, j]`` is the second node on the
        best known path i -> j (equals ``j`` for direct; ``-1`` if
        unreachable).
    iterations:
        Number of two-round iterations executed.
    bytes_per_node:
        Total (in+out) communication per node across all iterations,
        using the §5 wire sizes extended with the 2-byte Sec field in
        round 1 and the 2-byte cost field in round 2.
    """

    costs: np.ndarray
    next_hop: np.ndarray
    iterations: int
    bytes_per_node: Dict[int, int]


def run_multihop(
    w: np.ndarray,
    quorum: QuorumSystem,
    max_hops: int,
) -> MultiHopResult:
    """Run ``ceil(log2 max_hops)`` iterations of the two-round protocol.

    Nodes are assumed loss-free and synchronized (the §3 algorithm
    statement); the event-driven overlay only implements the one-hop
    instance, as in the paper's deployment.

    The distributed computation is emulated faithfully at the data-flow
    level: each rendezvous only ever combines rows it would have received,
    and a node's next-iteration row is the element-wise best over the
    recommendations returned by its own rendezvous servers.
    """
    w = validate_cost_matrix(w)
    members = quorum.members
    n = len(members)
    if sorted(members) != list(range(n)):
        raise RoutingError("run_multihop requires members 0..n-1")
    if w.shape[0] != n:
        raise RoutingError("matrix size must match quorum membership")
    if max_hops < 1:
        raise RoutingError("max_hops must be >= 1")

    iterations = max(1, math.ceil(math.log2(max_hops))) if max_hops > 1 else 0

    # Iteration state: D[i] = best-cost row of node i, S[i] = Sec row.
    d = w.copy()
    np.fill_diagonal(d, 0.0)
    sec = np.tile(np.arange(n), (n, 1))
    sec[~np.isfinite(d)] = -1
    np.fill_diagonal(sec, np.arange(n))

    bytes_per_node = {m: 0 for m in members}
    ls_bytes = wire.linkstate_message_bytes(n, multihop=True)

    for _ in range(iterations):
        # Round 1: rows travel to rendezvous servers.
        for m in members:
            for s in quorum.servers(m, include_self=False):
                bytes_per_node[m] += ls_bytes
                bytes_per_node[s] += ls_bytes

        new_d = d.copy()
        new_sec = sec.copy()
        # Round 2: every rendezvous combines each client pair.
        for r in members:
            clients = list(quorum.clients(r, include_self=True))
            if len(clients) < 2:
                continue
            rows = d[clients]  # (m, n) — rows the rendezvous holds
            rec_bytes = wire.recommendation_message_bytes(
                len(clients) - 1, multihop=True
            )
            for a_pos, a in enumerate(clients):
                totals = rows[a_pos][None, :] + rows  # (m, n) over hop h
                best_h = np.argmin(totals, axis=1)
                best_cost = totals[np.arange(len(clients)), best_h]
                for b_pos, b in enumerate(clients):
                    if b == a:
                        continue
                    cost = best_cost[b_pos]
                    if cost < new_d[a, b]:
                        new_d[a, b] = cost
                        # Sec of the combined path = Sec of its prefix.
                        k = int(best_h[b_pos])
                        new_sec[a, b] = sec[a, k] if k != a else sec[a, b]
                if a != r:
                    bytes_per_node[r] += rec_bytes
                    bytes_per_node[a] += rec_bytes
        d = new_d
        sec = new_sec

    sec = np.where(np.isfinite(d), sec, -1)
    np.fill_diagonal(sec, np.arange(n))
    return MultiHopResult(
        costs=d, next_hop=sec, iterations=iterations, bytes_per_node=bytes_per_node
    )


def walk_path(
    next_hop: np.ndarray,
    w: np.ndarray,
    src: int,
    dst: int,
) -> Tuple[List[int], float]:
    """Forward a packet from ``src`` to ``dst`` following Sec pointers.

    Each node on the way consults *its own* row of the Sec table, exactly
    as §3 describes ("all we need to know is what node to forward a packet
    to"). Returns the realized ``(path, cost)``.

    Raises :class:`RoutingError` on a forwarding loop (a path longer
    than ``n + 1`` nodes) or missing pointer
    (cannot happen for consistent tables over positive weights, which the
    tests verify).
    """
    max_steps = next_hop.shape[0] + 1
    path = [src]
    cost = 0.0
    current = src
    while current != dst:
        nxt = int(next_hop[current, dst])
        if nxt < 0:
            raise RoutingError(f"no forwarding entry at {current} for {dst}")
        if not np.isfinite(w[current, nxt]):
            raise RoutingError(f"forwarding over a dead link {current}->{nxt}")
        cost += float(w[current, nxt])
        current = nxt
        path.append(current)
        if len(path) > max_steps:
            raise RoutingError(f"forwarding loop walking {src}->{dst}: {path}")
    return path, cost
