"""Synchronous executor of the two-round routing protocol (Theorem 1).

This module runs the paper's §3 algorithm as a pure computation over a
cost matrix and a quorum system, with an explicit communication ledger.
It is the algorithmic heart shared by tests (Theorem 1: the protocol
finds *all* optimal one-hop routes with ≤ 4 sqrt(n) messages and Θ(n
sqrt(n)) bits per node) and the quorum-construction ablation.

The event-driven overlay in :mod:`repro.overlay` runs the same logic
asynchronously over a lossy transport; this executor is the loss-free,
perfectly synchronized reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.core.onehop import validate_cost_matrix
from repro.core.quorum import QuorumSystem
from repro.errors import RoutingError
from repro.overlay import wire

__all__ = [
    "CommunicationLedger",
    "TwoRoundResult",
    "run_two_round",
]


@dataclass
class CommunicationLedger:
    """Per-node message and byte accounting for one protocol execution.

    ``sent`` / ``received`` count messages; byte counters use the §5
    compact wire sizes. ``total_bytes(x)`` is the in+out sum the paper's
    per-node communication bounds refer to.
    """

    messages_sent: Dict[int, int] = field(default_factory=dict)
    messages_received: Dict[int, int] = field(default_factory=dict)
    bytes_sent: Dict[int, int] = field(default_factory=dict)
    bytes_received: Dict[int, int] = field(default_factory=dict)

    def record(self, src: int, dst: int, nbytes: int) -> None:
        self.messages_sent[src] = self.messages_sent.get(src, 0) + 1
        self.messages_received[dst] = self.messages_received.get(dst, 0) + 1
        self.bytes_sent[src] = self.bytes_sent.get(src, 0) + nbytes
        self.bytes_received[dst] = self.bytes_received.get(dst, 0) + nbytes

    def total_bytes(self, node: int) -> int:
        return self.bytes_sent.get(node, 0) + self.bytes_received.get(node, 0)

    def total_messages(self, node: int) -> int:
        return self.messages_sent.get(node, 0) + self.messages_received.get(node, 0)

    def max_total_bytes(self) -> int:
        nodes = set(self.bytes_sent) | set(self.bytes_received)
        return max((self.total_bytes(x) for x in sorted(nodes)), default=0)

    def max_total_messages(self) -> int:
        nodes = set(self.messages_sent) | set(self.messages_received)
        return max((self.total_messages(x) for x in sorted(nodes)), default=0)


@dataclass
class TwoRoundResult:
    """Outcome of one synchronous two-round execution.

    Attributes
    ----------
    costs:
        ``(n, n)`` best one-hop cost known to the source after round 2;
        ``inf`` where the pair had no rendezvous coverage.
    hops:
        ``(n, n)`` recommended intermediate (destination itself = direct);
        ``-1`` where uncovered.
    covered:
        Boolean matrix: pair had at least one shared rendezvous.
    ledger:
        Communication accounting.
    """

    costs: np.ndarray
    hops: np.ndarray
    covered: np.ndarray
    ledger: CommunicationLedger

    def coverage_fraction(self) -> float:
        n = self.covered.shape[0]
        off = ~np.eye(n, dtype=bool)
        return float(self.covered[off].mean()) if n > 1 else 1.0


def run_two_round(
    w: np.ndarray,
    quorum: QuorumSystem,
) -> TwoRoundResult:
    """Execute rounds 1 and 2 of the routing algorithm synchronously.

    Parameters
    ----------
    w:
        Symmetric cost matrix indexed by member id; the members must be
        exactly ``0..n-1`` (in any order).
    quorum:
        The rendezvous construction to use.

    Returns the per-source routing tables and the communication ledger.
    """
    w = validate_cost_matrix(w)
    members = quorum.members
    n = len(members)
    if w.shape[0] != n:
        raise RoutingError(f"matrix is {w.shape[0]}x{w.shape[0]}, quorum has {n}")
    if sorted(members) != list(range(n)):
        raise RoutingError("members must be 0..n-1")

    ledger = CommunicationLedger()
    ls_bytes = wire.linkstate_message_bytes(n)

    # Round 1: every node sends its link-state row to its servers.
    # received[r] = list of member ids whose rows r now holds.
    received: Dict[int, List[int]] = {m: [] for m in members}
    for m in members:
        for s in quorum.servers(m, include_self=False):
            ledger.record(m, s, ls_bytes)
            received[s].append(m)
        received[m].append(m)  # a node trivially holds its own row

    costs = np.full((n, n), np.inf)
    hops = np.full((n, n), -1, dtype=np.int64)
    covered = np.zeros((n, n), dtype=bool)
    np.fill_diagonal(costs, 0.0)
    np.fill_diagonal(covered, True)

    # Round 2: each rendezvous computes, per client pair, the best
    # one-hop and sends each client one recommendation message covering
    # its other clients.
    for r in members:
        held = set(received[r])
        client_ids = [c for c in quorum.clients(r, include_self=True) if c in held]
        if len(client_ids) < 2:
            continue
        rows = np.stack([w[c] for c in client_ids])
        idxs = np.array(client_ids)
        for a_pos, a in enumerate(client_ids):
            # totals[b_pos, h] = w[a, h] + w[b, h]
            totals = rows[a_pos][None, :] + rows
            best_h = np.argmin(totals, axis=1)
            best_cost = totals[np.arange(len(client_ids)), best_h]
            ia = idxs[a_pos]
            better = best_cost < costs[ia, idxs]
            if np.any(better):
                sel = np.where(better)[0]
                costs[ia, idxs[sel]] = best_cost[sel]
                hops[ia, idxs[sel]] = best_h[sel]
            covered[ia, idxs] = True
            covered[ia, ia] = True
        # Message accounting: r -> each client, one message whose entry
        # count is the number of *other* clients covered.
        rec_bytes = wire.recommendation_message_bytes(len(client_ids) - 1)
        for a in client_ids:
            if a != r:
                ledger.record(r, a, rec_bytes)

    # Normalize: hop == source or hop == destination both mean "direct".
    idx = np.arange(n)
    direct_like = (hops == idx[:, None]) | (hops == idx[None, :])
    hops = np.where(direct_like & covered, np.broadcast_to(idx[None, :], (n, n)), hops)
    np.fill_diagonal(hops, idx)
    hops[~covered] = -1
    costs[~covered] = np.inf

    return TwoRoundResult(costs=costs, hops=hops, covered=covered, ledger=ledger)
