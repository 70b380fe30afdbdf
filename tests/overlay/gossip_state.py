"""Gossip engines outside an overlay: stub nodes and the plane's bootstrap.

The engine touches a slice of :class:`~repro.overlay.node.OverlayNode`
(its clock, id, registration and router) and a transport's ``send``;
the stubs here hold exactly that, and :func:`stub_plane` bootstraps a
plane of them.
"""

import numpy as np

from repro.overlay.gossip import GossipMembershipPlane


class StubRouter:
    """Holds whatever view the engine installs."""

    view = None

    def on_view_change(self, view):
        self.view = view


class StubNode:
    """The slice of OverlayNode the engine touches."""

    def __init__(self, sim, node_id):
        self.sim = sim
        self.id = node_id
        self.registered = True
        self.router = StubRouter()

    def start_if_armed(self):
        pass


class StubTransport:
    def __init__(self):
        self.sent = []

    def send(self, src, dst, msg):
        self.sent.append((src, dst, msg))


def stub_plane(sim, n, members, transport=None, rng_seed=0, timeout_s=30.0):
    """A plane of ``n`` engines on stub nodes, bootstrapped with
    ``members``; returns the plane and its nodes."""
    plane = GossipMembershipPlane(
        StubTransport() if transport is None else transport, timeout_s
    )
    nodes = [StubNode(sim, i) for i in range(n)]
    rng = np.random.default_rng(rng_seed)
    for node in nodes:
        plane.attach(node, rng)
    member_set = set(members)
    plane.bootstrap([node for node in nodes if node.id in member_set])
    return plane, nodes
