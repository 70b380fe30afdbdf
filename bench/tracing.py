"""Per-layer spans, counts and memory, recorded from outside the program.

Nothing under ``src/`` knows about tracing. :meth:`Tracer.install`
replaces, on the classes themselves and before the overlay is built
(timers and transport handlers capture bound methods when nodes are
constructed), the public methods at each layer boundary with wrappers
that record a span: name, start, end and the span that was open when it
started. Two wrappers on the simulator make every dispatched callback a
root span named after the module that owns the callback, so host time is
attributed to a layer even where no listed method is called.

Spans stay in memory as four parallel lists and are summarised after the
run: a span's self time is its duration minus its children's durations.
Layers are this repository's modules (``repro.overlay.monitor`` is layer
``monitor``).
"""

from __future__ import annotations

import functools
import gc
import json
import sys
import types
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.failover import FailoverManager
from repro.core.grid import GridQuorum
from repro.net.simulator import Simulator
from repro.net.transport import DatagramTransport
from repro.overlay import harness
from repro.overlay.coordination import Coordinator, CoordinatorGroup
from repro.overlay.gossip import GossipMembershipNode, GossipMembershipPlane
from repro.overlay.linkstate import LinkStateTable, SparseLinkStateTable
from repro.overlay.membership import MembershipService
from repro.overlay.monitor import LinkMonitor
from repro.overlay.node import OverlayNode
from repro.overlay.router_fullmesh import FullMeshRouter
from repro.overlay.router_quorum import QuorumRouter
from repro.overlay.stats import GOSSIP_KINDS, ROUTING_KINDS

#: (class or module holding the function, its attribute name, span name).
#: ``on_view_change`` is inherited from ``RouterBase``; patching it on the
#: subclass gives each router's spans their own layer name.
_SPANS: Tuple[Tuple[object, str, str], ...] = (
    (DatagramTransport, "send", "transport.send"),
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

_POLL_SPAN = "failover.poll"

#: Summed ``QuorumRouter.counters`` reported per run (the relay and
#: cross-validation counters belong to extensions no workload enables).
_ROUTER_COUNTERS = ("link_down_events", "failover_adoptions", "failover_suppressed_polls")
_MEMBERSHIP_COUNTERS = (
    "views_published",
    "view_delta_msgs",
    "view_full_msgs",
    "expiries",
    "promotions",
)
_GOSSIP_COUNTERS = ("pushes", "pulls", "snapshots", "refutes", "expiries")

#: Shared per-interpreter objects the memory walk does not charge to a layer.
_SHARED_TYPES = (
    type,
    types.ModuleType,
    types.FunctionType,
    types.BuiltinFunctionType,
    types.MethodDescriptorType,
    types.WrapperDescriptorType,
    types.CodeType,
)


_MISSING = object()


class Tracer:
    """Span store plus the patches that feed it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._root_ids: Dict[str, int] = {}
        # One entry per span, in start order.
        self._name: List[int] = []
        self._parent: List[int] = []
        self._start: List[float] = []
        self._end: List[float] = []
        self._open = [-1]  # index of the innermost open span
        self._saved: List[Tuple[object, str, object]] = []
        self._run_first_span = 0
        self._stop_span: Optional[int] = None
        self.failover_adopted = 0

    # ------------------------------------------------------------------
    # Span recording
    # ------------------------------------------------------------------
    def _name_id(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return name_id

    def _wrap(self, fn: Callable, span_name: str, on_result: Optional[Callable] = None) -> Callable:
        name_id = self._name_id(span_name)
        name, parent, start, end, open_ = (
            self._name,
            self._parent,
            self._start,
            self._end,
            self._open,
        )

        def traced(*args, **kwargs):
            idx = len(start)
            name.append(name_id)
            parent.append(open_[0])
            end.append(0.0)
            open_[0] = idx
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                open_[0] = parent[idx]
            if on_result is not None:
                on_result(result)
            return result

        return functools.wraps(fn)(traced)

    def _root_id(self, fn: Callable) -> int:
        """Name id of the root span for a simulator callback: the layer
        (module) that owns the callback, ``<layer>.events``."""
        try:
            module = fn.__self__.__class__.__module__
        except AttributeError:
            module = getattr(fn, "__module__", None) or "unknown"
        root_id = self._root_ids.get(module)
        if root_id is None:
            layer = module.rsplit(".", 1)[-1]
            root_id = self._root_ids[module] = self._name_id(f"{layer}.events")
        return root_id

    def _note_poll(self, poll) -> None:
        self.failover_adopted += len(poll.adopted) + len(poll.adopted_via_relay)

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def _patch(self, holder: object, attr: str, replacement: object) -> None:
        # vars() so an inherited method is removed again, not copied down.
        self._saved.append((holder, attr, vars(holder).get(attr, _MISSING)))
        setattr(holder, attr, replacement)

    def install(self) -> None:
        for holder, attr, span_name in _SPANS:
            self._patch(holder, attr, self._wrap(getattr(holder, attr), span_name))
        self._patch(
            FailoverManager,
            "poll",
            self._wrap(FailoverManager.poll, _POLL_SPAN, on_result=self._note_poll),
        )

        name, parent, start, end, open_ = (
            self._name,
            self._parent,
            self._start,
            self._end,
            self._open,
        )

        def dispatch(name_id, fn, *args):
            idx = len(start)
            name.append(name_id)
            parent.append(open_[0])
            end.append(0.0)
            open_[0] = idx
            start.append(perf_counter())
            try:
                fn(*args)
            finally:
                end[idx] = perf_counter()
                open_[0] = parent[idx]

        schedule_at = Simulator.schedule_at
        periodic = Simulator.periodic
        root_id = self._root_id

        def traced_schedule_at(sim, time, fn, *args):
            return schedule_at(sim, time, dispatch, root_id(fn), fn, *args)

        def traced_periodic(sim, period, fn, *args, phase=0.0):
            return periodic(sim, period, dispatch, root_id(fn), fn, *args, phase=phase)

        self._patch(Simulator, "schedule_at", traced_schedule_at)
        self._patch(Simulator, "periodic", traced_periodic)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._saved):
            if original is _MISSING:
                delattr(holder, attr)
            else:
                setattr(holder, attr, original)
        self._saved.clear()

    def mark_run_start(self) -> None:
        """Spans from here on belong to ``Overlay.run``, earlier ones to set-up."""
        self._run_first_span = len(self._start)

    def stop(self) -> None:
        """Spans recorded after this (output checks) are not summarised."""
        self._stop_span = len(self._start)

    # ------------------------------------------------------------------
    # Summary
    # ------------------------------------------------------------------
    def _span_count(self) -> int:
        """Spans to summarise: those started before :meth:`stop`."""
        return self._stop_span if self._stop_span is not None else len(self._start)

    def _arrays(self):
        stop = self._span_count()
        name = np.array(self._name[:stop], dtype=np.int64)
        parent = np.array(self._parent[:stop], dtype=np.int64)
        duration = np.array(self._end[:stop]) - np.array(self._start[:stop])
        has_parent = parent >= 0
        child_time = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=stop
        )
        return name, parent, duration, duration - child_time

    def summary(self, overlay, run_wall_s: float) -> Dict[str, float]:
        name, parent, duration, self_time = self._arrays()
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        self_s = np.bincount(name, weights=self_time, minlength=k)
        out: Dict[str, float] = {}
        for name_id, span_name in enumerate(self.names):
            out[f"{span_name}.calls"] = int(calls[name_id])
            out[f"{span_name}.self_s"] = float(self_s[name_id])

        # Run phase: what the spans cover of Overlay.run, and what is
        # left for the simulator's own heap and dispatch loop.
        first = self._run_first_span
        roots = parent[first:] < 0
        covered = float(duration[first:][roots].sum())
        out["simulator.dispatch.self_s"] = run_wall_s - covered
        out["span_coverage_frac"] = covered / run_wall_s
        out["spans"] = int(name.size)

        out.update(_counts(overlay, self))
        out.update(_memory(overlay))
        return out

    def dump_jsonl(self, path: str) -> None:
        """One span per line: name, start, end, parent (index of the
        span that caused it, -1 for a root), in start order."""
        with open(path, "w") as fh:
            for i in range(self._span_count()):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": self.names[self._name[i]],
                            "start": self._start[i],
                            "end": self._end[i],
                            "parent": self._parent[i],
                        }
                    )
                )
                fh.write("\n")



def _built_routers(overlay) -> list:
    """Routers that have ever held a view: only they own a table (and,
    for the quorum router, a grid and a failover manager)."""
    return [node.router for node in overlay.nodes if hasattr(node.router, "table")]


def _counts(overlay, tracer: Tracer) -> Dict[str, float]:
    """Work counts at the layer boundaries (simulated, repeat exactly)."""
    sim, transport = overlay.sim, overlay.transport
    t1 = sim.now
    out: Dict[str, float] = {
        "simulator.events_run": sim.events_run,
        "simulator.compactions": sim.compactions,
        "transport.sent": transport.sent_count,
        "transport.delivered": transport.delivered_count,
        "transport.coalesced": transport.coalesced_count,
        "transport.dropped": transport.dropped_count,
        "failover.adopted": tracer.failover_adopted,
        "linkstate.table_mb": sum(r.table.nbytes() for r in _built_routers(overlay)) / 2**20,
    }

    def kbps(kinds) -> float:
        return float(overlay.bandwidth.bps_per_node(kinds, 0.0, t1).mean()) / 1000.0

    out["monitor.probe_kbps_node"] = kbps(("probe",))
    out["router.routing_kbps_node"] = kbps(ROUTING_KINDS)
    out["membership.kbps_node"] = kbps(("member", "member-ctl"))
    out["gossip.kbps_node"] = kbps(GOSSIP_KINDS)

    quorum = [r for r in _built_routers(overlay) if isinstance(r, QuorumRouter)]
    for counter in _ROUTER_COUNTERS:
        out[f"router_quorum.{counter}"] = sum(r.counters.get(counter) for r in quorum)

    membership = overlay.membership
    if isinstance(membership, GossipMembershipPlane):
        plane, wanted, stats = "gossip", _GOSSIP_COUNTERS, membership.merged_stats().as_dict()
    elif isinstance(membership, CoordinatorGroup):
        plane, wanted, stats = "membership", _MEMBERSHIP_COUNTERS, membership.merged_stats()
    else:
        plane, wanted, stats = "membership", _MEMBERSHIP_COUNTERS, membership.stats.as_dict()
    for counter in wanted:
        out[f"{plane}.{counter}"] = int(stats.get(counter, 0))
    return out


def _memory(overlay) -> Dict[str, float]:
    """Deep size of each layer's long-lived objects, MiB.

    A walk over ``gc.get_referents`` from each layer's root objects, in a
    fixed order with one shared seen-set, so an object is charged to the
    first layer that reaches it. Every root is a boundary: a walk never
    crosses into another layer's root (a router does not own the
    simulator it holds a reference to).
    """
    nodes = overlay.nodes
    routers = [node.router for node in nodes]
    built = _built_routers(overlay)
    quorum = [r for r in built if isinstance(r, QuorumRouter)]
    membership: List[object] = [overlay.membership]
    membership += [node.gossip for node in nodes if node.gossip is not None]
    layers: Tuple[Tuple[str, List[object]], ...] = (
        ("failover", [r.failover for r in quorum]),
        ("grid", [r.grid for r in quorum]),
        ("linkstate", [r.table for r in built]),
        ("monitor", [node.monitor for node in nodes]),
        ("router", list(routers)),
        ("node", list(nodes)),
        ("membership", membership),
        ("transport", [overlay.transport, overlay.topology]),
        ("simulator", [overlay.sim]),
        ("stats", [overlay.bandwidth, overlay.disruption]),
    )
    boundary = {id(overlay), id(overlay.config)}
    for _, roots in layers:
        boundary.update(id(root) for root in roots)
    seen = set(boundary)
    out: Dict[str, float] = {}
    for layer, roots in layers:
        total = 0
        stack = [root for root in roots if root is not None]
        while stack:
            obj = stack.pop()
            total += sys.getsizeof(obj)
            for ref in gc.get_referents(obj):
                if id(ref) in seen or isinstance(ref, _SHARED_TYPES):
                    continue
                seen.add(id(ref))
                stack.append(ref)
        out[f"mem.{layer}_mb"] = total / 2**20
    return out
