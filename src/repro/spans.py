"""The instrumentation boundaries: which functions a profiler wraps.

Nothing in the simulation calls into this module. It names, for an
out-of-process tracer such as ``bench/tracing.py``, the methods at each
layer boundary as ``(owner, attribute, span name)``: the owner is the
class (or module) whose attribute is replaced by a wrapper, and the span
name is ``<layer>.<boundary>``, the layer being the owning module.

A wrapper is installed per owner, so an attribute a class inherits
(``QuorumRouter.on_view_change`` is ``RouterBase``'s) gets its own
subclass's span name. For the same reason no two entries with one
attribute may have owners where one is, or derives from, the other:
the second wrapper would wrap the first and count every call twice.
``LinkStateTable`` and ``SparseLinkStateTable`` are siblings over one
private base, so their shared ``update_row`` / ``remap`` are wrapped
once per class. ``tests/tools/test_spans.py`` checks the table.
"""

from __future__ import annotations

from typing import Tuple

from repro.core.failover import FailoverManager
from repro.core.grid import GridQuorum
from repro.net.transport import DatagramTransport
from repro.overlay import harness
from repro.overlay.coordination import Coordinator
from repro.overlay.gossip import GossipMembershipNode
from repro.overlay.linkstate import LinkStateTable, SparseLinkStateTable
from repro.overlay.membership import MembershipService
from repro.overlay.monitor import LinkMonitor
from repro.overlay.node import OverlayNode
from repro.overlay.router_fullmesh import FullMeshRouter
from repro.overlay.router_quorum import QuorumRouter

__all__ = ["SPANS"]

SPANS: Tuple[Tuple[object, str, str], ...] = (
    (DatagramTransport, "send", "transport.send"),
    (DatagramTransport, "send_many", "transport.send_many"),
    (OverlayNode, "on_message", "node.on_message"),
    (OverlayNode, "on_view", "node.on_view"),
    (LinkMonitor, "probe_round", "monitor.probe_round"),
    (QuorumRouter, "tick", "router_quorum.tick"),
    (QuorumRouter, "on_linkstate", "router_quorum.on_linkstate"),
    (QuorumRouter, "on_recommendation", "router_quorum.on_recommendation"),
    (QuorumRouter, "route_vector", "router_quorum.route_vector"),
    (QuorumRouter, "on_view_change", "router_quorum.on_view_change"),
    (QuorumRouter, "on_view_delta", "router_quorum.on_view_delta"),
    (FullMeshRouter, "tick", "router_fullmesh.tick"),
    (FullMeshRouter, "on_linkstate", "router_fullmesh.on_linkstate"),
    (FullMeshRouter, "route_vector", "router_fullmesh.route_vector"),
    (FailoverManager, "poll", "failover.poll"),
    (FailoverManager, "set_grid", "failover.set_grid"),
    (FailoverManager, "note_recommendations", "failover.note_recommendations"),
    (GridQuorum, "__init__", "grid.init"),
    (GridQuorum, "insert_member", "grid.insert_member"),
    (GridQuorum, "remove_member", "grid.remove_member"),
    (LinkStateTable, "update_row", "linkstate.update_row"),
    (LinkStateTable, "remap", "linkstate.remap"),
    (SparseLinkStateTable, "update_row", "linkstate.update_row"),
    (SparseLinkStateTable, "remap", "linkstate.remap"),
    (MembershipService, "handle_message", "membership.handle_message"),
    (Coordinator, "handle_message", "coordination.handle_message"),
    (GossipMembershipNode, "on_message", "gossip.on_message"),
    (harness.Overlay, "route_ok_matrix", "harness.route_ok_matrix"),
    (harness.Overlay, "join_node", "harness.join_node"),
    (harness.Overlay, "leave_node", "harness.leave_node"),
    (harness.Overlay, "fail_node", "harness.fail_node"),
    (harness, "build_overlay", "harness.build_overlay"),
)
