"""Exception hierarchy for the overlay-routing reproduction.

All library-specific errors derive from :class:`ReproError` so callers can
catch one base class. Modules raise the most specific subclass available.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigError(ReproError):
    """A configuration value is missing, malformed, or inconsistent."""


class SimulationError(ReproError):
    """The discrete-event simulator was used incorrectly."""


class TopologyError(ReproError):
    """A topology matrix or failure schedule is malformed."""


class QuorumError(ReproError):
    """A quorum system construction or query is invalid."""


class MembershipError(ReproError):
    """A membership operation (join/leave/view) is invalid."""


class RoutingError(ReproError):
    """A routing-layer operation failed (unknown destination, no route)."""


class WorkloadError(ReproError):
    """A churn trace or workload is malformed or infeasible."""
