"""Overlay configuration (§5's parameter table).

The paper's deployment parameters::

    Configuration parameter   Full-mesh (RON)   Quorum system
    routing interval (r)      30 s              15 s
    probing interval (p)      30 s              30 s
    #probes for failure       5                 5

are this module's ``ROUTING_INTERVAL_FULL_S`` and
``ROUTING_INTERVAL_QUORUM_S`` (r), ``PROBE_INTERVAL_S`` (p) and
``PROBES_TO_FAIL``. The values the paper derives from them are constants
too: ``RAPID_PROBE_INTERVAL_S`` fits the follow-up probes of a first
loss into one probing interval, ``REC_MEMORY_INTERVALS`` and
``REMOTE_TIMEOUT_INTERVALS`` count quorum routing intervals, and
``EWMA_ALPHA``, ``FRESHNESS_SAMPLE_S`` and ``BANDWIDTH_BUCKET_S`` are the
monitor's and the evaluation's.

The quorum system runs its routing interval at half the full-mesh value
because, absent rendezvous failures, it takes two routing intervals to
propagate fresh probing data into optimal routes (§4, "Comparison to n^2
link-state failover"). Bandwidth scales linearly with both frequencies, so
the *relative* cost of the two algorithms is interval-independent (§5).

A value is a field of :class:`OverlayConfig` or of a membership variant
only when two runs set it differently (the interval ablation runs the
quorum router at 15 s and 30 s; the experiments pick the plane and its
timeout). Every other value is a named constant beside the code that
reads it, so no config can mis-set one.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Optional, Union

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

__all__ = [
    "PROBE_INTERVAL_S",
    "PROBES_TO_FAIL",
    "RAPID_PROBE_INTERVAL_S",
    "ROUTING_INTERVAL_FULL_S",
    "ROUTING_INTERVAL_QUORUM_S",
    "EWMA_ALPHA",
    "REC_MEMORY_INTERVALS",
    "REMOTE_TIMEOUT_INTERVALS",
    "FRESHNESS_SAMPLE_S",
    "BANDWIDTH_BUCKET_S",
    "RouterKind",
    "RetryBackoff",
    "OutOfBand",
    "InBand",
    "Replicated",
    "Gossip",
    "MembershipConfig",
    "OverlayConfig",
]

#: Probing interval p (seconds); full link monitoring each interval.
PROBE_INTERVAL_S = 30.0
#: Consecutive failed probes before a link is declared down.
PROBES_TO_FAIL = 5
#: Interval between the rapid follow-up probes sent after a first loss;
#: the ``PROBES_TO_FAIL - 1`` follow-ups fit inside one probing interval
#: ("detects failures within 1 probing period", §5).
RAPID_PROBE_INTERVAL_S = 6.0
#: Routing interval r of the full-mesh (RON) router.
ROUTING_INTERVAL_FULL_S = 30.0
#: Routing interval r of the quorum router (half of full mesh, §5).
ROUTING_INTERVAL_QUORUM_S = 15.0
#: EWMA weight of a new latency sample.
EWMA_ALPHA = 0.5
#: A rendezvous uses client link state received within this many
#: routing intervals when computing recommendations (§6.2.2: 3).
REC_MEMORY_INTERVALS = 3.0
#: Remote-failure timeout, in routing intervals (backstop for lost
#: recommendation messages; affirmative omissions act immediately).
REMOTE_TIMEOUT_INTERVALS = 2.5
#: Freshness sampling period used by the evaluation (§6.2.2: 30 s).
FRESHNESS_SAMPLE_S = 30.0
#: Bandwidth accounting bucket width (seconds).
BANDWIDTH_BUCKET_S = 10.0


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
    The coordinator ring walk and the gossip plane's pulls each hold one
    as a module constant (``coordination.RING_RETRY``,
    ``gossip.PULL_RETRY``)."""

    base_s: float = 2.0
    max_s: float = 30.0
    jitter: float = 0.5

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
    detected and repaired. Its expiry grace is
    :data:`repro.overlay.membership.IN_BAND_EXPIRY_GRACE`."""


@dataclass(frozen=True, slots=True)
class Replicated(InBand):
    """``coordinators`` in-band endpoints: a primary publishes views
    while the others mirror its log over the wire and take over, with an
    epoch bump, when it goes silent. The ring and replica timings are
    :mod:`repro.overlay.coordination`'s constants."""

    coordinators: int = 3

    def __post_init__(self) -> None:
        OutOfBand.__post_init__(self)
        if self.coordinators < 2:
            raise ConfigError("a replicated plane needs coordinators >= 2")


@dataclass(frozen=True, slots=True)
class Gossip:
    """No coordinator: joins, leaves and crash expiries are locally
    originated ops, version-vector-ordered and spread by periodic digest
    push plus anti-entropy pull over the overlay transport. Its round,
    fanout, log and backoff are :mod:`repro.overlay.gossip`'s constants."""


#: The membership plane an overlay runs, with that plane's tunables.
MembershipConfig = Union[OutOfBand, InBand, Replicated, Gossip]


@dataclass(frozen=True, slots=True)
class OverlayConfig:
    """What one run of the overlay sets differently from another; the
    defaults are the paper's values."""

    #: Routing interval r of the quorum router (the interval ablation
    #: runs 15 s and 30 s).
    routing_interval_quorum_s: float = ROUTING_INTERVAL_QUORUM_S
    #: Membership timeout (30 minutes, §5).
    membership_timeout_s: float = 1800.0
    #: Which membership plane delivers the view, and its tunables.
    membership: MembershipConfig = OutOfBand()
    #: §7 future-work extension: keep recommendations from two distinct
    #: rendezvous per destination and locally cross-validate them at
    #: lookup time, surviving a lying (malicious) rendezvous.
    verify_recommendations: bool = False

    def __post_init__(self) -> None:
        _require_positive(
            routing_interval_quorum_s=self.routing_interval_quorum_s,
            membership_timeout_s=self.membership_timeout_s,
        )

    def routing_interval_s(self, kind: RouterKind) -> float:
        """The routing interval for a router kind."""
        if kind is RouterKind.FULL_MESH:
            return ROUTING_INTERVAL_FULL_S
        return self.routing_interval_quorum_s

    def rec_memory_s(self) -> float:
        """Age limit on client link state used in recommendations (3r)."""
        return REC_MEMORY_INTERVALS * self.routing_interval_quorum_s

    def remote_timeout_s(self) -> float:
        """Remote rendezvous failure timeout in seconds."""
        return REMOTE_TIMEOUT_INTERVALS * self.routing_interval_quorum_s
