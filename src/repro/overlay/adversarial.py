"""Adversarial rendezvous behavior (§7, "Challenges for larger overlays").

The paper's future-work discussion asks how the routing mechanism can
resist malicious rendezvous nodes once overlays outgrow mutually trusting
deployments. This module provides the attack side for experiments:

* :class:`MaliciousQuorumRouter` — a rendezvous that runs the protocol
  faithfully except that every recommendation names *itself* as the
  one-hop, attracting its clients' traffic (a classic traffic-attraction
  attack). Its link-state announcements stay honest, which models a
  participant that cannot forge measurements (they are verifiable by
  probing) but fully controls its own recommendation computation.

The defense is in the standard :class:`~repro.overlay.router_quorum.
QuorumRouter`: with ``OverlayConfig(verify_recommendations=True)`` a node
keeps the latest recommendation from *two* distinct rendezvous per
destination and, at lookup time, locally evaluates both candidate hops
against the link-state tables it already holds — the pair redundancy of
the grid quorum is exactly what makes one lying rendezvous survivable.
"""

from __future__ import annotations

import numpy as np

from repro.net.packet import RecommendationMessage
from repro.overlay.router_quorum import QuorumRouter

__all__ = ["MaliciousQuorumRouter"]


class MaliciousQuorumRouter(QuorumRouter):
    """A rendezvous that recommends itself as every pair's best hop."""

    __slots__ = ()

    def _send_recommendations(self) -> None:
        self._require_view()
        fresh = self._fresh_client_indices()
        if fresh.size < 2:
            return
        covered = fresh[self._links_up_view_many(fresh)]
        if covered.size < 2:
            return
        # Every destination, always via me; each recipient gets the rows
        # for everyone but itself.
        lie = np.stack((covered, np.full_like(covered, self.me_idx)), axis=1)
        msgs = [
            RecommendationMessage(
                origin=self.me,
                entries=lie[covered != a_idx],
                view_version=self.wire_view_version(),
            )
            for a_idx in covered.tolist()
        ]
        self.transport.send_many(self.me, self.view.member_ids[covered], msgs)
