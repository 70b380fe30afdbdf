"""The §3 footnote-2 variant for asymmetric (directed) link costs.

No experiment runs it: the overlay measures symmetric RTTs. It is kept
as a reference model of what the footnote claims: round 1 ships both
directions of each node's links in 5-byte entries, and the two rounds
then still find every optimal directed one-hop route
(``test_asymmetric.py``).
"""

from typing import Dict, List, Tuple

import numpy as np

from reference_onehop import normalize_hop
from repro.core.onehop import _all_pairs, validate_cost_matrix
from repro.core.protocol import CommunicationLedger, TwoRoundResult
from repro.core.quorum import QuorumSystem
from repro.errors import RoutingError
from repro.overlay import wire

#: Asymmetric link state carries both directions' latency (§3 footnote
#: 2): 2 B outgoing + 2 B incoming + 1 B liveness/loss per entry.
ASYMMETRIC_LS_ENTRY_BYTES = wire.LINKSTATE_ENTRY_BYTES + 2


def validate_asymmetric_cost_matrix(w: np.ndarray) -> np.ndarray:
    """Validate a directed cost matrix (zero diagonal, non-negative).

    §3's footnote 2: with asymmetric link costs, round 1 transmits both
    directions; :func:`validate_cost_matrix` never required symmetry, so
    it validates a directed matrix as it is.
    """
    return validate_cost_matrix(w)


def best_one_hop_asymmetric(
    out_row_i: np.ndarray, in_row_j: np.ndarray, i: int, j: int
) -> Tuple[int, float]:
    """Best directed one-hop ``i -> h -> j`` from the rows round 1 ships.

    With asymmetric costs, node ``i`` announces its *outgoing* costs
    ``w[i, .]`` and node ``j`` its *incoming* costs ``w[., j]`` (each node
    measures both directions of its links); their element-wise sum over
    ``h`` is exactly the directed one-hop total.
    """
    out_row_i = np.asarray(out_row_i, dtype=float)
    in_row_j = np.asarray(in_row_j, dtype=float)
    if out_row_i.shape != in_row_j.shape:
        raise RoutingError("link-state rows must have equal length")
    totals = out_row_i + in_row_j
    hop = int(np.argmin(totals))
    cost = float(totals[hop])
    if not np.isfinite(cost):
        return j, np.inf
    return normalize_hop(hop, i, j), cost


def best_one_hop_all_pairs_asymmetric(
    w: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """All-pairs optimal directed one-hop routes for directed costs."""
    return _all_pairs(validate_asymmetric_cost_matrix(w))


def run_two_round_asymmetric(
    w: np.ndarray,
    quorum: QuorumSystem,
) -> TwoRoundResult:
    """The §3 footnote-2 variant for asymmetric (directed) link costs.

    Each node's round-1 message carries *both* directions of its links —
    its outgoing row ``w[i, .]`` and its incoming column ``w[., i]`` — in
    5-byte entries. A rendezvous holding clients ``i`` and ``j`` combines
    ``i``'s outgoing row with ``j``'s incoming column to find the optimal
    directed one-hop ``i -> h -> j``; routes are no longer symmetric.
    """
    w = validate_asymmetric_cost_matrix(w)
    members = quorum.members
    n = len(members)
    if w.shape[0] != n:
        raise RoutingError(f"matrix is {w.shape[0]}x{w.shape[0]}, quorum has {n}")
    if sorted(members) != list(range(n)):
        raise RoutingError("run_two_round_asymmetric requires members 0..n-1")

    ledger = CommunicationLedger()
    ls_bytes = wire.HEADER_BYTES + ASYMMETRIC_LS_ENTRY_BYTES * n

    received: Dict[int, List[int]] = {m: [] for m in members}
    for m in members:
        for s in quorum.servers(m, include_self=False):
            ledger.record(m, s, ls_bytes)
            received[s].append(m)
        received[m].append(m)

    costs = np.full((n, n), np.inf)
    hops = np.full((n, n), -1, dtype=np.int64)
    covered = np.zeros((n, n), dtype=bool)
    np.fill_diagonal(costs, 0.0)
    np.fill_diagonal(covered, True)

    for r in members:
        held = set(received[r])
        client_ids = [c for c in quorum.clients(r, include_self=True) if c in held]
        if len(client_ids) < 2:
            continue
        out_rows = np.stack([w[c] for c in client_ids])      # w[c, .]
        in_rows = np.stack([w[:, c] for c in client_ids])    # w[., c]
        idxs = np.array(client_ids)
        for a_pos, a in enumerate(client_ids):
            # totals[b_pos, h] = w[a, h] + w[h, b]
            totals = out_rows[a_pos][None, :] + in_rows
            best_h = np.argmin(totals, axis=1)
            best_cost = totals[np.arange(len(client_ids)), best_h]
            better = best_cost < costs[a, idxs]
            if np.any(better):
                sel = np.where(better)[0]
                costs[a, idxs[sel]] = best_cost[sel]
                hops[a, idxs[sel]] = best_h[sel]
            covered[a, idxs] = True
        rec_bytes = wire.recommendation_message_bytes(len(client_ids) - 1)
        for a in client_ids:
            if a != r:
                ledger.record(r, a, rec_bytes)

    idx = np.arange(n)
    direct_like = (hops == idx[:, None]) | (hops == idx[None, :])
    hops = np.where(direct_like & covered, np.broadcast_to(idx[None, :], (n, n)), hops)
    np.fill_diagonal(hops, idx)
    hops[~covered] = -1
    costs[~covered] = np.inf

    return TwoRoundResult(costs=costs, hops=hops, covered=covered, ledger=ledger)
