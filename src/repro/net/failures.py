"""Link and node failure injection.

The paper's PlanetLab deployment (§6) experienced a wide mix of link
failures: most nodes saw fewer than 40 concurrent failed links on average,
while a few poorly connected nodes saw ~44 on average with peaks over 120
(Figure 8). We reproduce that environment with an alternating-renewal
outage process per link: outage episodes arrive at a Poisson rate and last
a log-normally distributed time. Per-node "quality classes" set the rates
so that a small minority of nodes is poorly connected.

An :class:`OutageSchedule` is an immutable sorted list of ``[start, end)``
intervals; queries are O(log k) by bisection. A :class:`FailureTable`
aggregates schedules for all links of an overlay and answers vectorized
per-source queries used by the probing fast path.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import TopologyError

__all__ = [
    "NodeClass",
    "NodeClassParams",
    "DEFAULT_CLASS_PARAMS",
    "OutageSchedule",
    "FailureTable",
    "assign_node_classes",
    "build_failure_table",
    "build_partition_table",
    "schedule_from_episodes",
]


class NodeClass(Enum):
    """Connectivity-quality class of a node, mirroring the paper's
    observation that PlanetLab mixes well- and poorly-connected hosts."""

    GOOD = "good"
    MEDIOCRE = "mediocre"
    POOR = "poor"


@dataclass(frozen=True, slots=True)
class NodeClassParams:
    """Failure-process parameters for one node class.

    Attributes
    ----------
    duty_cycle:
        Long-run fraction of time a link is down *due to this endpoint*.
        A link's total downtime duty cycle is approximately the sum of its
        endpoints' duty cycles.
    mean_outage_s:
        Mean duration of one outage episode in seconds.
    sigma_outage:
        Log-normal sigma of the outage duration.
    """

    duty_cycle: float
    mean_outage_s: float
    sigma_outage: float = 0.8

    def __post_init__(self) -> None:
        if not 0.0 <= self.duty_cycle < 1.0:
            raise TopologyError(f"duty_cycle must be in [0, 1), got {self.duty_cycle}")
        if self.mean_outage_s <= 0:
            raise TopologyError("mean_outage_s must be positive")


#: Calibrated so a 140-node overlay reproduces Figure 8's shape: most
#: nodes < 40 concurrent link failures; ~5% of nodes around 40-60.
DEFAULT_CLASS_PARAMS: Dict[NodeClass, NodeClassParams] = {
    NodeClass.GOOD: NodeClassParams(duty_cycle=0.010, mean_outage_s=60.0),
    NodeClass.MEDIOCRE: NodeClassParams(duty_cycle=0.080, mean_outage_s=90.0),
    NodeClass.POOR: NodeClassParams(duty_cycle=0.300, mean_outage_s=120.0),
}

#: Default class mix (GOOD, MEDIOCRE, POOR).
DEFAULT_CLASS_MIX: Tuple[float, float, float] = (0.80, 0.15, 0.05)


class OutageSchedule:
    """Sorted, non-overlapping ``[start, end)`` outage intervals for a link.

    The empty schedule means "always up".
    """

    __slots__ = ("_starts", "_ends")

    def __init__(self, intervals: Sequence[Tuple[float, float]] = ()):
        merged = _merge_intervals(intervals)
        self._starts = [s for s, _ in merged]
        self._ends = [e for _, e in merged]

    @property
    def intervals(self) -> List[Tuple[float, float]]:
        """The merged outage intervals."""
        return list(zip(self._starts, self._ends))

    def is_down(self, t: float) -> bool:
        """True if the link is in an outage at time ``t``."""
        idx = bisect.bisect_right(self._starts, t) - 1
        return idx >= 0 and t < self._ends[idx]

    def is_up(self, t: float) -> bool:
        return not self.is_down(t)

    def next_transition(self, t: float) -> Optional[float]:
        """Time of the next up/down edge strictly after ``t``, or None."""
        idx = bisect.bisect_right(self._starts, t) - 1
        if idx >= 0 and t < self._ends[idx]:
            return self._ends[idx]
        nxt = bisect.bisect_right(self._starts, t)
        if nxt < len(self._starts):
            return self._starts[nxt]
        return None

    def downtime(self, t0: float, t1: float) -> float:
        """Total outage seconds within ``[t0, t1]``."""
        if t1 < t0:
            raise TopologyError(f"bad window [{t0}, {t1}]")
        total = 0.0
        for s, e in zip(self._starts, self._ends):
            lo = max(s, t0)
            hi = min(e, t1)
            if hi > lo:
                total += hi - lo
        return total

    def __bool__(self) -> bool:
        return bool(self._starts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<OutageSchedule {len(self._starts)} intervals>"


def _merge_intervals(
    intervals: Iterable[Tuple[float, float]]
) -> List[Tuple[float, float]]:
    """Sort and merge possibly-overlapping intervals; drop empty ones."""
    cleaned = []
    for s, e in intervals:
        if e < s:
            raise TopologyError(f"interval end {e} before start {s}")
        if e > s:
            cleaned.append((float(s), float(e)))
    cleaned.sort()
    merged: List[Tuple[float, float]] = []
    for s, e in cleaned:
        if merged and s <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], e))
        else:
            merged.append((s, e))
    return merged


def schedule_from_episodes(
    rng: np.random.Generator,
    horizon: float,
    duty_cycle: float,
    mean_outage_s: float,
    sigma: float = 0.8,
) -> OutageSchedule:
    """Draw an alternating-renewal outage schedule over ``[0, horizon]``.

    Episodes arrive Poisson with rate ``duty_cycle / mean_outage_s`` and
    last ``LogNormal`` with the requested mean. Overlapping episodes merge.
    """
    if duty_cycle <= 0.0:
        return OutageSchedule()
    rate = duty_cycle / mean_outage_s
    # Log-normal parameterized to have the requested mean.
    mu = np.log(mean_outage_s) - sigma * sigma / 2.0
    intervals = []
    t = float(rng.exponential(1.0 / rate))
    while t < horizon:
        duration = float(rng.lognormal(mu, sigma))
        intervals.append((t, min(t + duration, horizon)))
        t += duration + float(rng.exponential(1.0 / rate))
    return OutageSchedule(intervals)


def assign_node_classes(
    n: int,
    rng: np.random.Generator,
    mix: Tuple[float, float, float] = DEFAULT_CLASS_MIX,
) -> List[NodeClass]:
    """Randomly assign connectivity classes to ``n`` nodes.

    Guarantees at least one GOOD node, and (for n >= 20) at least one POOR
    node so the Figure 13/14 well-vs-poorly-connected comparison is always
    possible.
    """
    if n <= 0:
        raise TopologyError("n must be positive")
    if abs(sum(mix) - 1.0) > 1e-9:
        raise TopologyError(f"class mix must sum to 1, got {mix}")
    classes = list(
        rng.choice(
            [NodeClass.GOOD, NodeClass.MEDIOCRE, NodeClass.POOR], size=n, p=list(mix)
        )
    )
    if NodeClass.GOOD not in classes:
        classes[0] = NodeClass.GOOD
    if n >= 20 and NodeClass.POOR not in classes:
        classes[-1] = NodeClass.POOR
    return classes


@dataclass(slots=True)
class FailureTable:
    """Outage schedules for every link of an ``n``-node full mesh.

    Only links that have at least one outage are stored; all other links
    are permanently up. Node crash intervals may be layered on top: a
    crashed node brings down all of its links.
    """

    n: int
    link_schedules: Dict[Tuple[int, int], OutageSchedule] = field(default_factory=dict)
    node_schedules: Dict[int, OutageSchedule] = field(default_factory=dict)
    # Per-source index (peer -> schedule) built in __post_init__;
    # declared so slots covers it.
    _by_source: List[Dict[int, OutageSchedule]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        for (i, j) in self.link_schedules:
            if not (0 <= i < j < self.n):
                raise TopologyError(f"bad link key ({i}, {j}) for n={self.n}")
        for i in self.node_schedules:
            if not 0 <= i < self.n:
                raise TopologyError(f"bad node key {i} for n={self.n}")
        # Per-source index for vectorized queries.
        self._by_source: List[Dict[int, OutageSchedule]] = [
            {} for _ in range(self.n)
        ]
        for (i, j), sched in self.link_schedules.items():
            self._by_source[i][j] = sched
            self._by_source[j][i] = sched

    @staticmethod
    def _key(i: int, j: int) -> Tuple[int, int]:
        return (i, j) if i < j else (j, i)

    def node_is_up(self, i: int, t: float) -> bool:
        sched = self.node_schedules.get(i)
        return sched is None or sched.is_up(t)

    def link_is_up(self, i: int, j: int, t: float) -> bool:
        """True if the (bidirectional) link i<->j is usable at time t."""
        if i == j:
            return True
        if not (self.node_is_up(i, t) and self.node_is_up(j, t)):
            return False
        sched = self.link_schedules.get(self._key(i, j))
        return sched is None or sched.is_up(t)

    def up_vector(self, i: int, t: float) -> np.ndarray:
        """Boolean vector ``v`` with ``v[j]`` true iff link i<->j is up.

        ``v[i]`` is always True. Used by the vectorized probing fast path.
        """
        v = np.ones(self.n, dtype=bool)
        if not self.node_is_up(i, t):
            v[:] = False
            v[i] = True
            return v
        for j, sched in self._by_source[i].items():
            if sched.is_down(t):
                v[j] = False
        for j, sched in self.node_schedules.items():
            if j != i and sched.is_down(t):
                v[j] = False
        return v

    def up_many(self, i: int, js: np.ndarray, t: float) -> np.ndarray:
        """:meth:`link_is_up` for every destination in ``js`` at once.

        Only the addressed destinations' schedules are consulted (a
        fan-out to ~2 sqrt(n) rendezvous servers does not pay for the
        source's whole row, as :meth:`up_vector` would).
        """
        if not self.node_is_up(i, t):
            return js == i
        up = np.ones(js.shape[0], dtype=bool)
        links = self._by_source[i]
        nodes = self.node_schedules
        if not links and not nodes:
            return up
        for pos, j in enumerate(js.tolist()):
            if j == i:
                continue
            sched = links.get(j)
            if sched is not None and sched.is_down(t):
                up[pos] = False
            elif nodes:
                sched = nodes.get(j)
                if sched is not None and sched.is_down(t):
                    up[pos] = False
        return up

    def concurrent_failures(self, i: int, t: float) -> int:
        """Number of destinations unreachable from ``i`` at time ``t``."""
        return int(self.n - 1 - (self.up_vector(i, t).sum() - 1))


def build_failure_table(
    n: int,
    horizon: float,
    rng: np.random.Generator,
    node_classes: Optional[Sequence[NodeClass]] = None,
    class_params: Optional[Dict[NodeClass, NodeClassParams]] = None,
    base_duty_cycle: float = 0.002,
    base_mean_outage_s: float = 45.0,
) -> FailureTable:
    """Build a failure table whose statistics mirror the paper's Figure 8.

    Each link (i, j) gets an outage process whose duty cycle is the sum of
    a small background term and both endpoints' class terms: outages are
    mostly "caused" by a node's poor access connectivity, which is what
    makes a few nodes see very many concurrent failures.
    """
    if node_classes is None:
        node_classes = assign_node_classes(n, rng)
    if len(node_classes) != n:
        raise TopologyError("node_classes length must equal n")
    params = class_params or DEFAULT_CLASS_PARAMS

    link_schedules: Dict[Tuple[int, int], OutageSchedule] = {}
    for i in range(n):
        for j in range(i + 1, n):
            pi = params[node_classes[i]]
            pj = params[node_classes[j]]
            duty = base_duty_cycle + pi.duty_cycle + pj.duty_cycle
            mean_s = max(pi.mean_outage_s, pj.mean_outage_s, base_mean_outage_s)
            sched = schedule_from_episodes(
                rng, horizon, duty, mean_s, sigma=max(pi.sigma_outage, pj.sigma_outage)
            )
            if sched:
                link_schedules[(i, j)] = sched
    return FailureTable(n=n, link_schedules=link_schedules)


def build_partition_table(
    n: int,
    cuts: Sequence[Tuple[float, float, Sequence[int], Sequence[int]]],
) -> FailureTable:
    """A failure table injecting network partitions.

    Each cut is ``(start, end, side_a, side_b)``: during ``[start, end)``
    every link with one endpoint in ``side_a`` and the other in
    ``side_b`` is down (links within one side stay up). Sides need not
    exhaust the nodes, and multiple cuts may overlap — each cross link
    accumulates the union of its cut windows. The coordinator-failover
    scenarios use this to sever coordinators from node subsets and to
    split the membership plane into conflicting halves.
    """
    windows: Dict[Tuple[int, int], List[Tuple[float, float]]] = {}
    for start, end, side_a, side_b in cuts:
        if end <= start:
            raise TopologyError(f"bad cut window [{start}, {end})")
        a = sorted(set(side_a))
        b = sorted(set(side_b))
        if set(a) & set(b):
            raise TopologyError("cut sides must be disjoint")
        for i in a:
            for j in b:
                if not (0 <= i < n and 0 <= j < n):
                    raise TopologyError(f"cut node out of range for n={n}")
                key = (i, j) if i < j else (j, i)
                windows.setdefault(key, []).append((float(start), float(end)))
    return FailureTable(
        n=n,
        link_schedules={
            key: OutageSchedule(intervals) for key, intervals in windows.items()
        },
    )
