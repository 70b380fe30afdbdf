"""RON's original full-mesh link-state router (the baseline).

Every routing interval (30 s) each node broadcasts its link-state row to
all ``n - 1`` peers, so everyone holds the full ``n x n`` table and
computes optimal one-hop routes locally. Per-node communication is
Θ(n^2) — the scaling wall the paper's algorithm removes.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.net.packet import LinkStateMessage, RecommendationMessage
from repro.overlay.config import RouterKind
from repro.overlay.linkstate import LinkStateTable, RowBlock
from repro.overlay.membership import MembershipView
from repro.overlay.router_base import (
    SOURCE_DIRECT,
    SOURCE_LINKSTATE,
    Route,
    RouterBase,
)

__all__ = ["FullMeshRouter"]


class FullMeshRouter(RouterBase):
    """Link-state broadcast routing, as in the original RON."""

    kind = RouterKind.FULL_MESH

    __slots__ = ()

    def _rebuild_for_view(self, view: MembershipView) -> None:
        # Every row is expected here; one not yet received reads as dead.
        self.table = LinkStateTable(view.n)
        self._refresh_own_row()

    def on_view_delta(self, old_to_new: np.ndarray) -> None:
        """Surviving members' rows move to their new positions; a joiner's
        row, and every row's column for a joiner, read as dead until its
        owner broadcasts under the new view."""
        survivors_old = np.nonzero(old_to_new >= 0)[0]
        self.table = self.table.remap(
            survivors_old, old_to_new[survivors_old], self.view.n
        )
        self._refresh_own_row()

    # ------------------------------------------------------------------
    # Protocol
    # ------------------------------------------------------------------
    def tick(self) -> None:
        """Broadcast this node's link state to every other member."""
        self._require_view()
        self._refresh_own_row()
        peers = np.delete(self.view.member_ids, self.me_idx)
        self.transport.send_many(self.me, peers, self._own_linkstate())

    def on_linkstate(self, msg: LinkStateMessage, src: int) -> None:
        src_idx = self._require_view().position(src)
        if src_idx < 0 or msg.view_version != self.wire_view_version():
            self._note_dropped_message(msg.view_version)
            return
        self.table.update_row(src_idx, msg.row, self.sim.now)

    def on_recommendation(self, msg: RecommendationMessage, src: int) -> None:
        # The full-mesh system has no round 2; ignore silently (can occur
        # transiently when an overlay is reconfigured between algorithms).
        del msg, src

    # ------------------------------------------------------------------
    # Route queries
    # ------------------------------------------------------------------
    def _gathered(self) -> RowBlock:
        """The overlay's row block, brought to this router's table."""
        self._refresh_own_row()
        block = self.row_block
        if block is None:  # built alone, outside build_overlay
            block = self.row_block = RowBlock()
        self.table.gather_into(block)
        return block

    def route_to(self, dst_idx: int) -> Route:
        """Best one-hop route from the local full table."""
        block = self._gathered()
        own = self.table.cost_row(self.me_idx)  # effective latency
        # cost via h: own[h] + L[h, dst]; rows never received are inf.
        hop_costs = own + block.costs[dst_idx]
        hop_costs[self.me_idx] = np.inf
        hop_costs[dst_idx] = own[dst_idx]  # the direct path
        hop = int(np.argmin(hop_costs))
        cost = float(hop_costs[hop])
        if not np.isfinite(cost):
            return Route(dst=dst_idx, hop=-1, cost_ms=np.inf, source=SOURCE_DIRECT, age_s=np.inf)
        age = self.sim.now - float(self.table.row_time[dst_idx])
        source = SOURCE_DIRECT if hop == dst_idx else SOURCE_LINKSTATE
        return Route(dst=dst_idx, hop=hop, cost_ms=cost, source=source, age_s=age)

    def route_vector(self) -> Tuple[np.ndarray, np.ndarray]:
        """All destinations at once: one ``(n, n)`` min-plus instead of
        ``n`` Python calls. Row ``d`` of the sums reproduces
        :meth:`route_to`'s ``hop_costs`` exactly, so hops and usability
        are identical. The sums go into the block's scratch: nothing
        larger than ``n`` is allocated here."""
        self._require_view()
        block = self._gathered()
        own = self.table.cost_row(self.me_idx)
        sums, idx = block.sums, block.idx
        np.add(block.costs, own, out=sums)  # sums[d, h] = L[h, d] + own[h]
        sums[:, self.me_idx] = np.inf
        sums[idx, idx] = own  # the direct path per destination
        hops = sums.argmin(axis=1)
        usable = np.isfinite(sums[idx, hops])
        return np.where(usable, hops, -1), usable

    def last_rec_times(self) -> np.ndarray:
        """Freshness analogue for the baseline: link-state row ages."""
        return self.table.row_time.copy()
