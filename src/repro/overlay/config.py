"""Overlay configuration (§5's parameter table).

The paper's deployment parameters::

    Configuration parameter   Full-mesh (RON)   Quorum system
    routing interval (r)      30 s              15 s
    probing interval (p)      30 s              30 s
    #probes for failure       5                 5

The quorum system runs its routing interval at half the full-mesh value
because, absent rendezvous failures, it takes two routing intervals to
propagate fresh probing data into optimal routes (§4, "Comparison to n^2
link-state failover"). Bandwidth scales linearly with both frequencies, so
the *relative* cost of the two algorithms is interval-independent (§5).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Optional, Union

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

__all__ = [
    "RouterKind",
    "RetryBackoff",
    "OutOfBand",
    "InBand",
    "Replicated",
    "Gossip",
    "MembershipConfig",
    "OverlayConfig",
]


class RouterKind(Enum):
    """Which routing algorithm an overlay runs."""

    FULL_MESH = "full-mesh"  # RON's original link-state broadcast
    QUORUM = "quorum"  # this paper's two-round grid-quorum protocol


def _require_positive(**values: float) -> None:
    for name, value in values.items():
        if value <= 0:
            raise ConfigError(f"{name} must be positive, got {value}")


@dataclass(frozen=True, slots=True)
class RetryBackoff:
    """Jittered exponential backoff: ``base_s * 2**attempt`` capped at
    ``max_s``, stretched by a uniform factor in ``[1, 1 + jitter]`` so
    correlated failures do not make every retrier fire in lockstep.
    Shared by the coordinator ring walk and the gossip plane's pulls."""

    base_s: float = 2.0
    max_s: float = 30.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        _require_positive(retry_base_s=self.base_s, retry_max_s=self.max_s)
        if self.max_s < self.base_s:
            raise ConfigError("retry max_s must be >= base_s")
        if self.jitter < 0:
            raise ConfigError("retry jitter must be non-negative")

    def delay(self, attempt: int, rng: Optional[np.random.Generator]) -> float:
        """The delay before (0-based) retry ``attempt``."""
        delay = min(self.base_s * (2.0**attempt), self.max_s)
        if rng is not None and self.jitter > 0:
            delay *= 1.0 + self.jitter * float(rng.random())
        return delay


@dataclass(frozen=True, slots=True)
class OutOfBand:
    """The §5 coordinator delivering views by simulator callback — the
    plane every paper-parameter run uses (reliable by construction, off
    the transport, so the §6 bandwidth accounting matches the paper's)."""

    #: Put versioned view *deltas* on the wire (full view on version
    #: gaps) instead of full member lists. A wire format only: a node
    #: applies a delta to its held view and its router is handed views
    #: either way, so on a lossless wire this moves the ``member`` bytes
    #: and nothing else (on a lossy one, a lost delta also waits for a
    #: repair where the next full view would have bridged the gap).
    deltas: bool = False
    #: Batching window for view publication: all changes inside it
    #: coalesce into one version bump and one broadcast. ``0`` publishes
    #: every change immediately.
    notify_batch_s: float = 0.0

    def __post_init__(self) -> None:
        if self.notify_batch_s < 0:
            raise ConfigError("notify_batch_s must be non-negative")


@dataclass(frozen=True, slots=True)
class InBand(OutOfBand):
    """The same single (epoch-0) coordinator as an endpoint on the
    overlay transport, co-located at node 0: views are wire messages
    subject to loss, outages and delay, and nodes heartbeat with
    refreshes piggybacking their held version so lost updates are
    detected and repaired."""

    #: While the coordinator itself looks partitioned (it heard *no*
    #: member heartbeat for over one heartbeat interval) or is freshly
    #: promoted, the refresh timeout is stretched by this factor so a
    #: coordinator outage cannot mass-expire healthy members. 1.0
    #: disables the grace.
    expiry_grace: float = 4.0

    def __post_init__(self) -> None:
        OutOfBand.__post_init__(self)
        if self.expiry_grace < 1.0:
            raise ConfigError("expiry_grace must be >= 1")


@dataclass(frozen=True, slots=True)
class Replicated(InBand):
    """``coordinators`` in-band endpoints: a primary publishes views
    while the others mirror its log over the wire and take over, with an
    epoch bump, when it goes silent."""

    coordinators: int = 3
    #: A node that has heard nothing from its coordinator (view pushes
    #: or refresh acks) for this long fails over to the next address in
    #: the ring, retrying with ``retry``.
    failover_timeout_s: float = 30.0
    retry: RetryBackoff = RetryBackoff()
    #: Primary-to-replica heartbeat period.
    heartbeat_s: float = 10.0
    #: A replica that heard nothing from the primary for ``rank * this``
    #: promotes itself (rank = its ring distance after the primary, so
    #: the first live replica wins without an election).
    promote_timeout_s: float = 30.0

    def __post_init__(self) -> None:
        InBand.__post_init__(self)
        if self.coordinators < 2:
            raise ConfigError("a replicated plane needs coordinators >= 2")
        _require_positive(
            failover_timeout_s=self.failover_timeout_s,
            heartbeat_s=self.heartbeat_s,
            promote_timeout_s=self.promote_timeout_s,
        )


@dataclass(frozen=True, slots=True)
class Gossip:
    """No coordinator: joins, leaves and crash expiries are locally
    originated ops, version-vector-ordered and spread by periodic digest
    push plus anti-entropy pull over the overlay transport."""

    #: Period of each node's digest push round.
    interval_s: float = 10.0
    #: Number of random live peers a digest push targets.
    fanout: int = 3
    #: Per-origin op-log retention for range replay; pulls reaching past
    #: it fall back to a full resolved-state snapshot.
    log_ops: int = 128
    #: Backoff of the anti-entropy and join pulls.
    retry: RetryBackoff = RetryBackoff()

    def __post_init__(self) -> None:
        _require_positive(interval_s=self.interval_s)
        if self.fanout < 1:
            raise ConfigError("gossip fanout must be >= 1")
        if self.log_ops < 1:
            raise ConfigError("gossip log_ops must be >= 1")


#: The membership plane an overlay runs, with that plane's tunables.
MembershipConfig = Union[OutOfBand, InBand, Replicated, Gossip]


@dataclass(frozen=True, slots=True)
class OverlayConfig:
    """All tunables of the overlay, defaulting to the paper's values."""

    #: Probing interval p (seconds); full link monitoring each interval.
    probe_interval_s: float = 30.0
    #: Consecutive failed probes before a link is declared down.
    probes_to_fail: int = 5
    #: Interval between the rapid follow-up probes sent after a first
    #: loss; chosen so that 5 losses are observable within one probing
    #: interval ("detects failures within 1 probing period", §5).
    rapid_probe_interval_s: float = 6.0
    #: Routing interval r for the full-mesh (RON) router.
    routing_interval_full_s: float = 30.0
    #: Routing interval r for the quorum router (half of full mesh, §5).
    routing_interval_quorum_s: float = 15.0
    #: EWMA weight of a new latency sample.
    ewma_alpha: float = 0.5
    #: A rendezvous uses client link state received within this many
    #: routing intervals when computing recommendations (§6.2.2: 3).
    rec_memory_intervals: float = 3.0
    #: Remote-failure timeout, in routing intervals (backstop for lost
    #: recommendation messages; affirmative omissions act immediately).
    remote_timeout_intervals: float = 2.5
    #: Membership timeout (30 minutes, §5).
    membership_timeout_s: float = 1800.0
    #: Which membership plane delivers the view, and its tunables.
    membership: MembershipConfig = OutOfBand()
    #: Freshness sampling period used by the evaluation (§6.2.2: 30 s).
    freshness_sample_s: float = 30.0
    #: Bandwidth accounting bucket width (seconds).
    bandwidth_bucket_s: float = 10.0
    #: §7 future-work extension: keep recommendations from two distinct
    #: rendezvous per destination and locally cross-validate them at
    #: lookup time, surviving a lying (malicious) rendezvous.
    verify_recommendations: bool = False

    def __post_init__(self) -> None:
        _require_positive(
            probe_interval_s=self.probe_interval_s,
            rapid_probe_interval_s=self.rapid_probe_interval_s,
            routing_interval_full_s=self.routing_interval_full_s,
            routing_interval_quorum_s=self.routing_interval_quorum_s,
            rec_memory_intervals=self.rec_memory_intervals,
            remote_timeout_intervals=self.remote_timeout_intervals,
            membership_timeout_s=self.membership_timeout_s,
            freshness_sample_s=self.freshness_sample_s,
            bandwidth_bucket_s=self.bandwidth_bucket_s,
        )
        if self.probes_to_fail < 1:
            raise ConfigError("probes_to_fail must be >= 1")
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ConfigError("ewma_alpha must be in (0, 1]")
        if self.rapid_probe_interval_s * (self.probes_to_fail - 1) > self.probe_interval_s:
            raise ConfigError(
                "rapid probing must fit the detection budget: "
                f"{self.probes_to_fail - 1} follow-ups at "
                f"{self.rapid_probe_interval_s}s exceed one probe interval"
            )

    def routing_interval_s(self, kind: RouterKind) -> float:
        """The routing interval for a router kind."""
        if kind is RouterKind.FULL_MESH:
            return self.routing_interval_full_s
        return self.routing_interval_quorum_s

    def rec_memory_s(self) -> float:
        """Age limit on client link state used in recommendations (3r)."""
        return self.rec_memory_intervals * self.routing_interval_quorum_s

    def remote_timeout_s(self) -> float:
        """Remote rendezvous failure timeout in seconds."""
        return self.remote_timeout_intervals * self.routing_interval_quorum_s
