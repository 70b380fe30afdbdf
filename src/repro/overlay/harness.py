"""Overlay construction and experiment driving.

:func:`build_overlay` assembles the full stack — simulator, topology,
transport, bandwidth/freshness instrumentation, membership, and ``n``
overlay nodes with staggered timer phases — and returns an
:class:`Overlay` handle with the measurement accessors the §6 experiments
(and downstream users) need.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.net.failures import FailureTable
from repro.net.simulator import Simulator
from repro.net.topology import Topology
from repro.net.trace import SyntheticTrace
from repro.net.transport import DatagramTransport
from repro.overlay.config import (
    BANDWIDTH_BUCKET_S,
    FRESHNESS_SAMPLE_S,
    PROBE_INTERVAL_S,
    Gossip,
    InBand,
    OverlayConfig,
    Replicated,
    RouterKind,
)
from repro.overlay.coordination import CoordinatorGroup, coordinator_hosts
from repro.overlay.gossip import GossipMembershipPlane
from repro.overlay.linkstate import RowBlock
from repro.overlay.membership import (
    IN_BAND_EXPIRY_GRACE,
    InBandPlane,
    MembershipPlane,
    MembershipService,
    OutOfBandPlane,
)
from repro.overlay.node import OverlayNode
from repro.overlay.router_quorum import QuorumRouter
from repro.overlay.stats import (
    ROUTING_KINDS,
    BandwidthRecorder,
    DisruptionRecorder,
    FreshnessRecorder,
)

__all__ = ["Overlay", "build_overlay"]


class Overlay:  # reprolint: disable=RL002(one harness object per experiment; never instantiated per node)
    """A running overlay plus its instrumentation.

    Use :func:`build_overlay` to construct one. ``run(duration)`` advances
    virtual time; accessors expose the measured quantities of §6.
    """

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        transport: DatagramTransport,
        nodes: List[OverlayNode],
        config: OverlayConfig,
        router_kind: RouterKind,
        bandwidth: BandwidthRecorder,
        freshness: Optional[FreshnessRecorder],
        membership: MembershipPlane,
        active: Iterable[int],
        lifecycle_rng: np.random.Generator,
        row_block: RowBlock,
    ):
        self.sim = sim
        self.topology = topology
        self.transport = transport
        self.nodes = nodes
        self.config = config
        self.router_kind = router_kind
        self.bandwidth = bandwidth
        self.freshness = freshness
        self.membership = membership
        #: Node IDs currently participating (joined and not left/failed).
        self.active: Set[int] = set(active)
        self._lifecycle_rng = lifecycle_rng
        #: The gathered link-state block every router of this overlay
        #: patches in turn (and the sampler's scratch); lives and dies
        #: with the overlay, empty until a full-mesh route query.
        self.row_block = row_block
        self.disruption: Optional[DisruptionRecorder] = None

    @property
    def n(self) -> int:
        return len(self.nodes)

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def run(self, duration_s: float) -> None:
        """Advance the simulation by ``duration_s`` seconds."""
        self.sim.run_until(self.sim.now + duration_s)

    # ------------------------------------------------------------------
    # Dynamic membership lifecycle
    # ------------------------------------------------------------------
    def join_node(self, node_id: int) -> None:
        """Admit an inactive node into the overlay (first join or rejoin).

        The node must exist in the underlay topology (it was built with
        ``active_members`` excluding it, or has since left). Its monitor
        state is reset, it is re-bound to the transport, and its timers
        start — with randomly staggered phases, like the bootstrap
        population's — right after the membership view reaches it.
        """
        node = self.nodes[node_id]
        if node_id in self.active:
            raise ConfigError(f"node {node_id} is already active")
        node.prepare_join()
        phases = _draw_phases(self._lifecycle_rng, self.config, self.router_kind)
        self.membership.admit(node, *phases)
        self.active.add(node_id)

    def leave_node(self, node_id: int) -> None:
        """Gracefully remove a node: it announces its departure, all
        timers are cancelled, and its transport binding is released."""
        node = self.nodes[node_id]
        if node_id not in self.active:
            raise ConfigError(f"node {node_id} is not active")
        self.membership.depart(node)
        self.active.discard(node_id)

    def fail_node(self, node_id: int) -> None:
        """Crash a node: it goes silent without telling the membership
        service, which only learns via refresh expiry. Peers must detect
        the failure through probing and route around it."""
        node = self.nodes[node_id]
        if node_id not in self.active:
            raise ConfigError(f"node {node_id} is not active")
        node.teardown()
        self.active.discard(node_id)

    def start_freshness_sampling(self) -> None:
        """Begin periodic route-freshness snapshots (§6.2.2's 30 s)."""
        if self.freshness is None:
            raise ConfigError("overlay built without a freshness recorder")
        self.sim.periodic(
            FRESHNESS_SAMPLE_S, self._sample_freshness, phase=FRESHNESS_SAMPLE_S
        )

    def _sample_freshness(self) -> None:
        assert self.freshness is not None
        n = self.n
        mat = np.stack(
            [node.router.last_rec_times_by_member(n) for node in self.nodes]
        )
        self.freshness.sample(self.sim.now, mat)

    def attach_disruption(self, period_s: float = 5.0) -> DisruptionRecorder:
        """Begin periodic route-availability sampling (churn workloads).

        Every ``period_s`` the overlay checks, for each active pair,
        whether the source's chosen route works on the ground-truth
        underlay, and feeds the result to a :class:`DisruptionRecorder`.
        """
        if self.disruption is not None:
            raise ConfigError("disruption recorder already attached")
        self.disruption = DisruptionRecorder(self.n)
        self.sim.periodic(period_s, self._sample_disruption, phase=period_s)
        return self.disruption

    def _sample_disruption(self) -> None:
        assert self.disruption is not None
        ok, mask = self.route_ok_matrix()
        self.disruption.sample(self.sim.now, ok, mask, versions=self.view_versions())

    def view_versions(self) -> np.ndarray:
        """Per-node held membership view version (-1 = no view / down).

        Feeds the :class:`DisruptionRecorder` view-divergence metric:
        with in-band (lossy) membership delivery, live nodes transiently
        hold different versions until the reliability layer repairs the
        gap. With replicated coordinators the coordinator epoch is
        packed into the high bits — two nodes agree only when they hold
        the same ``(epoch, version)`` pair; epoch 0 leaves legacy
        values untouched.
        """
        versions = np.full(self.n, -1, dtype=np.int64)
        for i in np.flatnonzero(self.started_mask()):
            versions[i] = self.nodes[i].router.wire_view_version()
        return versions

    # ------------------------------------------------------------------
    # Measurements
    # ------------------------------------------------------------------
    def routing_bps(self, t0: float, t1: float) -> np.ndarray:
        """Per-node routing traffic (in+out), bits/second, over [t0, t1)."""
        return self.bandwidth.bps_per_node(ROUTING_KINDS, t0, t1)

    def probing_bps(self, t0: float, t1: float) -> np.ndarray:
        """Per-node probing traffic (in+out), bits/second."""
        return self.bandwidth.bps_per_node(("probe",), t0, t1)

    def max_minute_routing_bps(self, t0: float, t1: float) -> np.ndarray:
        """Per-node max routing rate over any 1-minute window (Fig 10)."""
        return self.bandwidth.max_window_bps(ROUTING_KINDS, t0, t1)

    def route_hops(self) -> np.ndarray:
        """Current route table: ``hops[src, dst]`` in underlay indices.

        ``-1`` marks pairs with no route (or inactive members).
        """
        n = self.n
        hops = np.full((n, n), -1, dtype=np.int64)
        np.fill_diagonal(hops, np.arange(n))
        for node in self.nodes:
            view = node.router.view
            if view is None or not node.started:
                continue
            members = node.router.member_ids
            hops_v, _ = node.router.route_vector()
            hops[node.id, members] = np.where(
                hops_v >= 0, members[np.clip(hops_v, 0, None)], -1
            )
        return hops

    def started_mask(self) -> np.ndarray:
        """Boolean mask of nodes that are active with running timers and
        a membership view (the measurable overlay population)."""
        mask = np.zeros(self.n, dtype=bool)
        for i in sorted(self.active):
            node = self.nodes[i]
            if node.started and node.router.view is not None:
                mask[i] = True
        return mask

    def route_ok_matrix(self) -> Tuple[np.ndarray, np.ndarray]:
        """Ground-truth check of every active pair's chosen route.

        Returns ``(ok, mask)``: ``mask`` is :meth:`started_mask`, and
        ``ok[s, d]`` is True iff ``s``'s router currently answers a
        usable route to ``d`` whose path actually works on the underlay
        — the direct link is up, or the one-hop intermediary is a live
        overlay node with both legs up. Pairs routed through a crashed
        (but not yet detected) node therefore show as disrupted. The
        ground truth is one :meth:`Topology.up_matrix` call: every
        source's link state from one pass over the failure table.
        """
        mask = self.started_mask()
        ok = np.zeros((self.n, self.n), dtype=bool)
        ids = np.nonzero(mask)[0]
        up = self.topology.up_matrix(self.sim.now)
        for s in ids:
            s = int(s)
            node = self.nodes[s]
            members = node.router.member_ids
            hops_v, usable_v = node.router.route_vector()
            sel = usable_v & mask[members]
            sel[node.router.me_idx] = False
            dsts = members[sel]
            hop_ids = members[hops_v[sel]]
            direct = (hop_ids == dsts) | (hop_ids == s)
            ok[s, dsts] = np.where(
                direct,
                up[s, dsts],
                mask[hop_ids] & up[s, hop_ids] & up[hop_ids, dsts],
            )
        return ok, mask

    def double_failure_counts(self) -> np.ndarray:
        """Per-node count of destinations with a double rendezvous
        failure right now (Figure 11's sampled quantity)."""
        counts = np.zeros(self.n, dtype=np.int64)
        for i, node in enumerate(self.nodes):
            router = node.router
            if isinstance(router, QuorumRouter):
                counts[i] = router.double_failure_count()
        return counts

    def monitor_down_counts(self) -> np.ndarray:
        """Per-node count of destinations the monitor currently marks
        down (Figure 8's "concurrent link failures")."""
        # alive[me] is always True, so ~alive counts failed peers only.
        return np.array([int((~node.monitor.alive).sum()) for node in self.nodes])


def _draw_phases(
    rng: np.random.Generator, config: OverlayConfig, router: RouterKind
) -> Tuple[float, float]:
    """Uniformly random (monitor, router) timer phases for one node,
    reproducing the paper's unsynchronized recommendation arrivals
    (§6.2.2)."""
    monitor_phase = float(rng.uniform(0.05, PROBE_INTERVAL_S * 0.2))
    router_phase = float(
        rng.uniform(PROBE_INTERVAL_S * 0.2, config.routing_interval_s(router))
    )
    return monitor_phase, router_phase


def _build_membership(
    config: OverlayConfig,
    sim: Simulator,
    transport: DatagramTransport,
    bandwidth: BandwidthRecorder,
    n: int,
) -> MembershipPlane:
    """The one place that reads which membership plane the config names."""
    variant = config.membership
    if isinstance(variant, Gossip):
        return GossipMembershipPlane(transport, config.membership_timeout_s)

    # Only a coordinator on the wire can look partitioned from its members.
    expiry_grace = IN_BAND_EXPIRY_GRACE if isinstance(variant, InBand) else 1.0

    def make_service() -> MembershipService:
        return MembershipService(
            sim,
            timeout_s=config.membership_timeout_s,
            deltas=variant.deltas,
            notify_batch_s=variant.notify_batch_s,
            bandwidth=bandwidth,
            expiry_grace=expiry_grace,
        )

    if isinstance(variant, Replicated):
        # k coordinator endpoints at addresses n..n+k-1, hosted on a
        # spread of underlay nodes. Index 0 is the initial primary; the
        # others mirror its view log.
        k = variant.coordinators
        return CoordinatorGroup(
            sim,
            transport,
            addresses=tuple(n + i for i in range(k)),
            hosts=coordinator_hosts(n, k),
            service_factory=make_service,
            tunables=variant,
        )
    if isinstance(variant, InBand):
        # The coordinator answers at address n (one past the node ids)
        # and shares node 0's links.
        service = make_service()
        service.attach_transport(transport, address=n, host=0)
        return InBandPlane(service)
    return OutOfBandPlane(make_service())


def build_overlay(
    trace: SyntheticTrace,
    router: RouterKind = RouterKind.QUORUM,
    rng: Optional[np.random.Generator] = None,
    failures: Optional[FailureTable] = None,
    config: Optional[OverlayConfig] = None,
    with_freshness: bool = True,
    active_members: Optional[Sequence[int]] = None,
    malicious: Sequence[int] = (),
) -> Overlay:
    """Assemble a ready-to-run overlay.

    Node IDs are ``0..n-1`` for the ``n`` hosts of ``trace`` (with
    ``failures``' outage windows on its links); all nodes are
    bootstrapped into the same membership view before start, and
    their probe/routing timers get uniformly random phases, reproducing
    the paper's unsynchronized recommendation arrivals (§6.2.2).
    """
    if rng is None:
        rng = np.random.default_rng(0)
    config = config or OverlayConfig()

    topology = Topology.from_trace(trace, failures)
    n = topology.n

    sim = Simulator()
    bandwidth = BandwidthRecorder(n, bucket_s=BANDWIDTH_BUCKET_S)
    freshness = FreshnessRecorder(n) if with_freshness else None
    transport = DatagramTransport(
        sim, topology, np.random.default_rng(rng.integers(2**63)), bandwidth
    )
    membership = _build_membership(config, sim, transport, bandwidth, n)

    malicious_set = set(malicious)
    if malicious_set and router is not RouterKind.QUORUM:
        raise ConfigError("malicious nodes are modeled for the quorum router")
    if malicious_set:
        from repro.overlay.adversarial import MaliciousQuorumRouter
    row_block = RowBlock()
    nodes = [
        OverlayNode(
            node_id=i,
            sim=sim,
            transport=transport,
            topology=topology,
            config=config,
            router_kind=router,
            rng=np.random.default_rng(rng.integers(2**63)),
            bandwidth=bandwidth,
            router_cls=MaliciousQuorumRouter if i in malicious_set else None,
            row_block=row_block,
        )
        for i in range(n)
    ]
    active = set(range(n)) if active_members is None else set(active_members)
    if not active <= set(range(n)):
        raise ConfigError("active_members must be topology indices")

    for node in nodes:
        membership.attach(node, rng)
    membership.bootstrap([node for node in nodes if node.id in active])

    for node in nodes:
        if node.id in active:
            node.start(*_draw_phases(rng, config, router))

    overlay = Overlay(
        sim=sim,
        topology=topology,
        transport=transport,
        nodes=nodes,
        config=config,
        router_kind=router,
        bandwidth=bandwidth,
        freshness=freshness,
        membership=membership,
        active=active,
        # Drawn after every pre-existing draw so static (no-churn) runs
        # keep byte-identical results for a given seed.
        lifecycle_rng=np.random.default_rng(rng.integers(2**63)),
        row_block=row_block,
    )
    if with_freshness:
        overlay.start_freshness_sampling()
    return overlay
