"""Membership scaling: view-change cost and convergence at n >= 1000.

ROADMAP follow-up to the PR-1 churn workloads: the §5 membership service
only needs nodes to *converge* on a consistent view, yet the full-view
protocol ships the complete member list — O(n) bytes — to every
subscriber on every single join/leave/expiry, an O(n^2) broadcast. This
experiment drives the membership service alone (no routing/probing, so
n = 2048 stays cheap) under identical PR-1 Poisson churn traces in three
delivery modes and measures what each view change costs:

* ``full``        — the legacy protocol: a full view per change;
* ``delta``       — versioned :class:`~repro.overlay.membership.ViewDelta`
  updates, full view only on version gaps (joins/reboots);
* ``delta-batch`` — deltas plus a coalescing window
  (``NOTIFY_BATCH_S``), so a burst of changes costs one version bump
  and one broadcast.

The three modes above deliver out-of-band (reliable simulator
callbacks, wire cost accounted). :func:`run_membership_in_band` puts the
same trace on the *wire* instead: the coordinator is a transport
endpoint on a lossy underlay (``IN_BAND_LOSS`` per-packet), members
heartbeat with version piggybacks, and lost updates are detected and
repaired (nack on an unappliable delta, plus the periodic heartbeat as
backstop). Besides cost, it measures the **view divergence** the loss
creates: windows during which live members held different versions.

Every member is a membership-only stand-in node running the overlay's
own coordinator client: :class:`~repro.overlay.membership.CallbackClient`
out-of-band, :class:`~repro.overlay.membership.WireClient` in-band. Both
modes replay the trace through one driver. Convergence is checked
literally: every live member must end the run holding exactly the
coordinator's final ``(version, members)``; out-of-band, where delivery
is reliable, no client may have dropped a delta either.

All quantities are deterministic per seed — the tables are regenerated
byte-identically by the ``membership`` CLI subcommand and the
``benchmarks/test_membership_scaling.py`` benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.tables import render_table
from repro.errors import ConfigError
from repro.net.simulator import Simulator
from repro.net.topology import Topology
from repro.net.trace import planetlab_like
from repro.net.transport import DatagramTransport
from repro.overlay import wire
from repro.overlay.membership import (
    CallbackClient,
    CoordinatorClient,
    MembershipService,
    MembershipView,
    ViewUpdate,
    WireClient,
)
from repro.overlay.stats import DisruptionRecorder
from repro.workloads.trace import (
    ACTION_JOIN,
    ACTION_LEAVE,
    ChurnEvent,
    ChurnTrace,
)

__all__ = [
    "IN_BAND_LOSS",
    "MembershipRunStats",
    "MembershipScalingResult",
    "InBandMembershipStats",
    "InBandScalingResult",
    "run_membership_mode",
    "run_membership_scaling",
    "run_membership_in_band",
    "run_in_band_scaling",
    "churn_trace_for",
]

#: Delivery modes compared per overlay size.
MODES: Tuple[str, ...] = ("full", "delta", "delta-batch")

#: Coalescing window used by the ``delta-batch`` mode.
NOTIFY_BATCH_S = 5.0

#: Short refresh timeout so crashes expire within a run (the paper's 30
#: minutes would outlive the whole trace).
TIMEOUT_S = 240.0

EXPIRY_CHECK_S = 30.0

#: Heartbeat cadence (a third of the timeout, like the overlay nodes').
HEARTBEAT_S = TIMEOUT_S / 3.0

#: Per-packet loss probability of the in-band runs (the §6-style "1%
#: loss" regime the reliability layer is stressed under).
IN_BAND_LOSS = 0.01

#: Poisson churn rate of the traces every membership mode replays.
CHURN_RATE_PER_S = 0.2

#: View-divergence sampling period of the in-band runs.
DIVERGENCE_SAMPLE_S = 5.0


class _StandIn:
    """A membership-only stand-in for :class:`~repro.overlay.node.OverlayNode`.

    It carries what a :class:`~repro.overlay.membership.CoordinatorClient`
    reads of a node (``id``, ``transport``, ``registered``, ``armed``,
    ``start_if_armed``, ``stop``) and of its router (``view``,
    ``view_epoch``, ``on_view_change``). It has no routing and no
    probing, so n = 2048 stays cheap. The client's "you are out" calls
    :meth:`stop`, which only sets ``out``: the member heartbeats no more.
    """

    __slots__ = ("id", "transport", "membership", "router", "view", "view_epoch", "out")

    #: The replay, not the client, handles a crash (off the wire, out of
    #: the heartbeat loop); out-of-band updates still reach a crashed
    #: stand-in until the coordinator expires it.
    registered = True
    armed = False

    def __init__(self, node_id: int, transport: Optional[DatagramTransport]):
        self.id = node_id
        self.transport = transport
        self.membership: Optional[CoordinatorClient] = None
        self.router = self  # the client installs views here
        self.view: Optional[MembershipView] = None
        self.view_epoch = 0
        self.out = False

    def on_view_change(self, view: MembershipView) -> None:
        self.view = view

    def start_if_armed(self) -> None:
        pass

    def stop(self) -> None:
        self.out = True

    def on_view(self, update: ViewUpdate, epoch: int = 0) -> None:
        self.membership.on_view(update, epoch)


def _replay(
    trace: ChurnTrace,
    sim: Simulator,
    service: MembershipService,
    client: Callable[[_StandIn], CoordinatorClient],
    settle_s: float,
    drain_s: float,
    transport: Optional[DatagramTransport] = None,
    sample: Optional[Callable[[Dict[int, _StandIn]], None]] = None,
) -> Tuple[bool, List[CoordinatorClient]]:
    """Replay ``trace`` against ``service``, one stand-in per member.

    A join is a fresh process whose ``client(node)`` subscribes; a
    rejoin of a crashed node the service still lists evicts it first
    (the reboot path, as the harness does). A leave or a crash takes
    the member off ``transport`` and out of the heartbeat loop; a
    crashed member then expires on its refresh timeout. Every
    ``HEARTBEAT_S`` each live member that is not out heartbeats through
    its client. ``sample(live)``, if given, runs every
    ``DIVERGENCE_SAMPLE_S`` and once after the drain.

    Returns whether every live member ended holding the coordinator's
    exact final view, and every client the run attached.
    """
    live: Dict[int, _StandIn] = {}
    clients: List[CoordinatorClient] = []

    def admit(m: int) -> _StandIn:
        node = _StandIn(m, transport)
        node.membership = client(node)
        clients.append(node.membership)
        if transport is not None:
            transport.register(m, node.membership.on_message)
        live[m] = node
        return node

    def apply(ev: ChurnEvent) -> None:
        if ev.action == ACTION_JOIN:
            if service.is_member(ev.node):
                service.evict(ev.node)  # reboot of a not-yet-expired crash
            service.join(ev.node, admit(ev.node).on_view)
            return
        if ev.action == ACTION_LEAVE:
            service.leave(ev.node)
        live.pop(ev.node)  # a crashed member expires on its refresh timeout
        if transport is not None:
            transport.unregister(ev.node)

    # Events are created in a fixed order (trace, heartbeat, sampler,
    # bootstrap): the simulator breaks time ties by creation order, and
    # the tables depend on it (CONTRIBUTING, "The order rule").
    for ev in trace.events:
        sim.schedule_at(ev.time, apply, ev)

    def heartbeat() -> None:
        for m in sorted(live):
            if not live[m].out:
                live[m].membership.heartbeat()

    sim.periodic(HEARTBEAT_S, heartbeat, phase=HEARTBEAT_S)
    if sample is not None:
        sim.periodic(DIVERGENCE_SAMPLE_S, sample, live, phase=DIVERGENCE_SAMPLE_S)
    for m in trace.initial_active:
        admit(m)
    service.bootstrap({m: live[m].on_view for m in trace.initial_active})
    sim.run_until(trace.duration_s + settle_s)
    # Deterministic close: flush pending batches, then give the final
    # updates (and, on a lossy wire, their repairs) time to land.
    service.quiesce()
    sim.run_until(sim.now + drain_s)
    if sample is not None:
        sample(live)
    converged = all(
        live[m].view == service.view for m in sorted(live) if service.is_member(m)
    )
    return converged, clients


@dataclass
class MembershipRunStats:
    """Summary of one (n, delivery mode) membership run."""

    n: int
    mode: str
    num_events: int
    views_published: int
    updates_sent: int
    full_updates: int
    delta_updates: int
    total_bytes: int
    gap_fallbacks: int
    final_members: int
    converged: bool

    @property
    def bytes_per_update(self) -> float:
        return self.total_bytes / self.updates_sent if self.updates_sent else 0.0

    @property
    def bytes_per_view_change(self) -> float:
        return (
            self.total_bytes / self.views_published
            if self.views_published
            else 0.0
        )

    @property
    def single_change_full_bytes(self) -> int:
        """Wire cost of telling one subscriber about one change, full-view."""
        return wire.membership_message_bytes(self.final_members)

    @property
    def single_change_delta_bytes(self) -> int:
        """Wire cost of telling one subscriber about one change, delta."""
        return wire.membership_delta_message_bytes(1, 0)

    @property
    def single_change_ratio(self) -> float:
        """Delta/full byte ratio for a single-member view change."""
        return self.single_change_delta_bytes / self.single_change_full_bytes


def run_membership_mode(
    trace: ChurnTrace,
    mode: str,
    settle_s: float = 90.0,
) -> MembershipRunStats:
    """Replay one churn trace against a fresh out-of-band service.

    Only the membership machinery runs: each member is a stand-in node
    whose :class:`~repro.overlay.membership.CallbackClient` installs the
    updates it is called with. Out-of-band delivery is reliable, so a
    client that dropped a delta (one that did not chain onto its held
    view) fails convergence just as a wrong final view does.
    """
    if mode not in MODES:
        raise ConfigError(f"unknown membership delivery mode {mode!r}")
    sim = Simulator()
    service = MembershipService(
        sim,
        timeout_s=TIMEOUT_S,
        expiry_check_s=EXPIRY_CHECK_S,
        deltas=mode != "full",
        notify_batch_s=NOTIFY_BATCH_S if mode == "delta-batch" else 0.0,
    )
    converged, clients = _replay(
        trace,
        sim,
        service,
        lambda node: CallbackClient(node, service),
        settle_s=settle_s,
        drain_s=1.0,
    )
    stats = service.stats
    return MembershipRunStats(
        n=trace.n,
        mode=mode,
        num_events=trace.num_events,
        views_published=stats.get("views_published"),
        updates_sent=stats.get("view_full_msgs") + stats.get("view_delta_msgs"),
        full_updates=stats.get("view_full_msgs"),
        delta_updates=stats.get("view_delta_msgs"),
        total_bytes=stats.get("view_full_bytes") + stats.get("view_delta_bytes"),
        gap_fallbacks=stats.get("view_gap_fallbacks"),
        final_members=service.view.n,
        converged=converged
        and not any(c.dropped_unappliable_deltas for c in clients),
    )


@dataclass
class MembershipScalingResult:
    """All (n, mode) runs plus the trace parameters that produced them."""

    sizes: Tuple[int, ...]
    rate_per_s: float
    duration_s: float
    seed: int
    rows: List[MembershipRunStats]

    def format_table(self) -> str:
        rows = []
        for s in self.rows:
            rows.append(
                [
                    s.n,
                    s.mode,
                    s.num_events,
                    s.views_published,
                    s.updates_sent,
                    f"{s.total_bytes / 1024.0:.1f}",
                    f"{s.bytes_per_update:.1f}",
                    f"{s.bytes_per_view_change / 1024.0:.2f}",
                    (
                        f"{100.0 * s.single_change_ratio:.1f}%"
                        if s.mode != "full"
                        else "-"
                    ),
                    s.gap_fallbacks if s.mode != "full" else "-",
                    "yes" if s.converged else "NO",
                ]
            )
        return render_table(
            [
                "n",
                "mode",
                "events",
                "views",
                "updates",
                "KiB_total",
                "B/update",
                "KiB/view_change",
                "1-change_ratio",
                "gap_fallbacks",
                "converged",
            ],
            rows,
            title=(
                "Membership scaling — view-change cost under identical "
                f"Poisson churn (rate {self.rate_per_s:g}/s over "
                f"{self.duration_s:g}s, seed {self.seed}); full views are "
                "O(n) per update, deltas O(changes); 1-change_ratio = "
                "delta/full bytes for a single-member change"
            ),
        )


def run_membership_scaling(
    sizes: Sequence[int] = (256, 1024, 2048),
    duration_s: float = 300.0,
    seed: int = 42,
) -> MembershipScalingResult:
    """Compare all delivery modes at each overlay size.

    Each size replays one identical churn trace through every mode, so
    byte totals are directly comparable within a size.
    """
    rows: List[MembershipRunStats] = []
    for n in sizes:
        trace = churn_trace_for(n, duration_s, seed)
        for mode in MODES:
            rows.append(run_membership_mode(trace, mode))
    return MembershipScalingResult(
        sizes=tuple(sizes),
        rate_per_s=CHURN_RATE_PER_S,
        duration_s=duration_s,
        seed=seed,
        rows=rows,
    )


def churn_trace_for(n: int, duration_s: float = 300.0, seed: int = 42) -> ChurnTrace:
    """The Poisson churn trace every membership mode (out-of-band and
    in-band) replays for a given size, so byte totals are comparable."""
    return ChurnTrace.poisson(
        n=n,
        rate_per_s=CHURN_RATE_PER_S,
        duration_s=duration_s,
        seed=seed,
        warmup_s=30.0,
    )


# ----------------------------------------------------------------------
# In-band delivery: the same trace, but on a lossy wire
# ----------------------------------------------------------------------
@dataclass
class InBandMembershipStats:
    """Summary of one in-band (lossy wire) membership run."""

    n: int
    loss: float
    num_events: int
    views_published: int
    updates_sent: int
    full_updates: int
    delta_updates: int
    update_bytes: int
    repairs: int
    gap_fallbacks: int
    parting_notices: int
    transport_dropped: int
    div_windows: int
    div_total_s: float
    div_max_s: float
    div_open: bool
    converged: bool


def run_membership_in_band(
    trace: ChurnTrace,
    settle_s: float = 90.0,
    seed: int = 42,
) -> InBandMembershipStats:
    """Replay one churn trace with view updates on a lossy wire.

    The coordinator is a transport endpoint co-located at node 0 of a
    PlanetLab-like underlay with uniform per-packet loss
    (:data:`IN_BAND_LOSS`); every view
    update and refresh is a datagram subject to that loss and to real
    delivery delay. Each member is a stand-in node running the
    overlay's :class:`~repro.overlay.membership.WireClient`. The run
    reports, besides the usual cost counters, the view divergence the
    loss created and whether every live member reconverged to the
    coordinator's exact final view.
    """
    rng = np.random.default_rng(seed)
    loss = IN_BAND_LOSS
    net = planetlab_like(trace.n, rng, base_loss=loss, lossy_fraction=0.0)
    sim = Simulator()
    transport = DatagramTransport(
        sim, Topology.from_trace(net), np.random.default_rng(rng.integers(2**63))
    )
    service = MembershipService(
        sim,
        timeout_s=TIMEOUT_S,
        expiry_check_s=EXPIRY_CHECK_S,
        deltas=True,
    )
    coordinator = trace.n
    service.attach_transport(transport, address=coordinator, host=0)
    recorder = DisruptionRecorder(trace.n)

    # Members that received the "you are out" notice (``out``) behave
    # like a stopped overlay node: they leave the live population the
    # divergence metric is computed over.
    def sample_views(members: Dict[int, _StandIn]) -> None:
        versions = np.full(trace.n, -1, dtype=np.int64)
        live = np.zeros(trace.n, dtype=bool)
        for m in sorted(members):
            node = members[m]
            if node.out:
                continue
            live[m] = True
            if node.view is not None:
                versions[m] = node.view.version
        recorder.sample_views(sim.now, versions, live)

    # The drain leaves time for the final updates and, where those were
    # lost, for heartbeat repairs.
    converged, _ = _replay(
        trace,
        sim,
        service,
        lambda node: WireClient(node, coordinator),
        settle_s=settle_s,
        drain_s=2.0 * HEARTBEAT_S + 5.0,
        transport=transport,
        sample=sample_views,
    )
    stats = service.stats
    divergence = recorder.view_divergence_summary()
    return InBandMembershipStats(
        n=trace.n,
        loss=loss,
        num_events=trace.num_events,
        views_published=stats.get("views_published"),
        updates_sent=stats.get("view_full_msgs") + stats.get("view_delta_msgs"),
        full_updates=stats.get("view_full_msgs"),
        delta_updates=stats.get("view_delta_msgs"),
        update_bytes=stats.get("view_full_bytes") + stats.get("view_delta_bytes"),
        repairs=stats.get("refresh_repairs"),
        gap_fallbacks=stats.get("view_gap_fallbacks"),
        parting_notices=stats.get("parting_notices"),
        transport_dropped=transport.dropped_count,
        div_windows=int(divergence["windows"]),
        div_total_s=divergence["total_s"],
        div_max_s=divergence["max_s"],
        div_open=bool(divergence["open"]),
        converged=converged,
    )


@dataclass
class InBandScalingResult:
    """In-band runs across sizes, plus the shared trace parameters."""

    sizes: Tuple[int, ...]
    rate_per_s: float
    duration_s: float
    seed: int
    loss: float
    rows: List[InBandMembershipStats]

    def format_table(self) -> str:
        rows = []
        for s in self.rows:
            rows.append(
                [
                    s.n,
                    s.num_events,
                    s.views_published,
                    s.updates_sent,
                    f"{s.update_bytes / 1024.0:.1f}",
                    s.repairs,
                    s.gap_fallbacks,
                    s.div_windows,
                    f"{s.div_max_s:.0f}",
                    f"{s.div_total_s:.0f}",
                    "yes" if s.converged and not s.div_open else "NO",
                ]
            )
        return render_table(
            [
                "n",
                "events",
                "views",
                "updates",
                "upd_KiB",
                "repairs",
                "fallbacks",
                "div_windows",
                "div_max_s",
                "div_total_s",
                "converged",
            ],
            rows,
            title=(
                "Membership scaling, IN-BAND delivery — view updates as "
                "real wire messages (coordinator endpoint at node 0, "
                f"{100.0 * self.loss:g}% per-packet loss) under identical "
                f"Poisson churn (rate {self.rate_per_s:g}/s over "
                f"{self.duration_s:g}s, seed {self.seed}); lost updates "
                "are repaired via refresh piggybacks/nacks; div_* = view-"
                "divergence windows among live members; converged = all "
                "live members ended on the coordinator's exact view with "
                "no open divergence window"
            ),
        )


def run_in_band_scaling(
    sizes: Sequence[int] = (256, 1024),
    duration_s: float = 300.0,
    seed: int = 42,
) -> InBandScalingResult:
    """In-band runs at each size, on the same traces as the out-of-band
    modes (so update-byte totals are directly comparable)."""
    rows = [
        run_membership_in_band(churn_trace_for(n, duration_s, seed), seed=seed)
        for n in sizes
    ]
    return InBandScalingResult(
        sizes=tuple(sizes),
        rate_per_s=CHURN_RATE_PER_S,
        duration_s=duration_s,
        seed=seed,
        loss=IN_BAND_LOSS,
        rows=rows,
    )
