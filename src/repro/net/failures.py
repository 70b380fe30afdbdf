"""Link and node failure injection.

The paper's PlanetLab deployment (§6) experienced a wide mix of link
failures: most nodes saw fewer than 40 concurrent failed links on average,
while a few poorly connected nodes saw ~44 on average with peaks over 120
(Figure 8). We reproduce that environment with an alternating-renewal
outage process per link: outage episodes arrive at a Poisson rate and last
a log-normally distributed time. Per-node "quality classes" set the rates
so that a small minority of nodes is poorly connected.

A :class:`FailureTable` holds the whole environment as flat arrays of
``[start, end)`` windows. Link windows are grouped by source: source
``i``'s windows sit at positions ``off[i]:off[i + 1]`` of the peer /
start / end arrays, sorted by peer and then start, and every link is
stored under both of its endpoints. Node windows (a down node brings
all of its links down) are grouped by node the same way. The table has
one constructor, over window rows already merged per link and per node
(disjoint and ascending). Scalar queries bisect those arrays from
Python; vector queries compare a source's slice in numpy, and
:meth:`FailureTable.up_matrix` answers every source in one pass.

Two things build one. :func:`build_failure_table` draws the Fig. 8
process, every link's windows in one pass over the link pairs.
:class:`~repro.workloads.faults.FaultPlan` is the one writer of a
targeted fault — the §4.1 scenarios' failed links, partitions and node
outages — and :meth:`~repro.workloads.faults.FaultPlan.failure_table`
merges its windows into a table.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import TopologyError

__all__ = [
    "NodeClass",
    "NodeClassParams",
    "DEFAULT_CLASS_PARAMS",
    "FailureTable",
    "assign_node_classes",
    "build_failure_table",
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

#: Background duty cycle every link carries on top of its endpoints'.
BASE_DUTY_CYCLE = 0.002
#: Floor on a link's mean outage duration, seconds.
BASE_MEAN_OUTAGE_S = 45.0

Window = Tuple[float, float]
#: One link window ``(i, j, start, end)`` with ``i < j``.
LinkRow = Tuple[int, int, float, float]
#: One node window ``(node, start, end)``.
NodeRow = Tuple[int, float, float]


def _episode_params(
    duty_cycle: float, mean_outage_s: float, sigma: float
) -> Tuple[float, float]:
    """``(scale, mu)`` of one link's process: the mean gap between
    episode arrivals, and the log-normal ``mu`` that gives episodes the
    requested mean."""
    rate = duty_cycle / mean_outage_s
    return 1.0 / rate, float(np.log(mean_outage_s) - sigma * sigma / 2.0)


def _episodes(
    rng: np.random.Generator,
    t: float,
    horizon: float,
    scale: float,
    mu: float,
    sigma: float,
) -> List[Window]:
    """One link's merged outage windows, from its first arrival ``t`` on.

    The caller draws ``t`` (``scale * rng.standard_exponential()``, the
    same value as ``rng.exponential(scale)``), so a link whose first
    arrival is past the horizon costs that one draw. Each episode then
    lasts ``LogNormal(mu, sigma)`` and the next arrives an exponential
    gap after it ends. Starts only grow, so one pass merges overlapping
    and touching episodes.
    """
    windows: List[Window] = []
    lognormal = rng.lognormal
    gap = rng.standard_exponential
    while t < horizon:
        duration = float(lognormal(mu, sigma))
        end = min(t + duration, horizon)
        if end > t:
            if windows and t <= windows[-1][1]:
                windows[-1] = (windows[-1][0], max(windows[-1][1], end))
            else:
                windows.append((t, end))
        t += duration + scale * gap()
    return windows


def assign_node_classes(n: int, rng: np.random.Generator) -> List[NodeClass]:
    """Randomly assign connectivity classes to ``n`` nodes in the
    proportions of :data:`DEFAULT_CLASS_MIX`.

    Guarantees at least one GOOD node, and (for n >= 20) at least one POOR
    node so the Figure 13/14 well-vs-poorly-connected comparison is always
    possible.
    """
    if n <= 0:
        raise TopologyError("n must be positive")
    classes = list(
        rng.choice(
            [NodeClass.GOOD, NodeClass.MEDIOCRE, NodeClass.POOR], size=n, p=list(DEFAULT_CLASS_MIX)
        )
    )
    if NodeClass.GOOD not in classes:
        classes[0] = NodeClass.GOOD
    if n >= 20 and NodeClass.POOR not in classes:
        classes[-1] = NodeClass.POOR
    return classes


class FailureTable:
    """Outage windows for every link and node of an ``n``-node full mesh.

    Links without a window are permanently up. A node window brings
    down all of that node's links. ``links`` holds ``(i, j, start,
    end)`` rows with ``i < j`` and ``nodes`` ``(node, start, end)``
    rows, each link's and each node's windows merged (disjoint) and in
    start order: :func:`build_failure_table` and
    :meth:`~repro.workloads.faults.FaultPlan.failure_table` write them.

    Queries at time ``t`` agree with one another: ``link_is_up(i, j,
    t)`` is ``up_vector(i, t)[j]`` is ``up_matrix(t)[i, j]``. The matrix
    is symmetric with a true diagonal, and a down node's row is false
    except at itself.
    """

    __slots__ = (
        "n",
        "_off",
        "_peer",
        "_start",
        "_end",
        "_node_off",
        "_node_start",
        "_node_end",
        "_links",
        "_nodes",
        "_outage_nodes",
        "_node_edges",
        "_nodes_up_at",
    )

    def __init__(self, n: int, links: List[LinkRow], nodes: List[NodeRow]):
        self.n = n
        rows = np.array(links, dtype=np.float64).reshape(-1, 4)
        i, j = rows[:, 0].astype(np.int32), rows[:, 1].astype(np.int32)
        start, end = rows[:, 2], rows[:, 3]
        # Every link under both endpoints, grouped by source and then
        # peer; the stable sort keeps each link's windows in start order.
        src = np.concatenate([i, j])
        peer = np.concatenate([j, i])
        start = np.concatenate([start, start])
        end = np.concatenate([end, end])
        order = np.argsort(src.astype(np.int64) * n + peer, kind="stable")
        self._off = _offsets(src, n)
        self._peer = peer[order]
        self._start = start[order]
        self._end = end[order]

        rows = np.array(nodes, dtype=np.float64).reshape(-1, 3)
        node = rows[:, 0].astype(np.int32)
        order = np.argsort(node, kind="stable")
        self._node_off = _offsets(node, n)
        self._node_start = rows[order, 1]
        self._node_end = rows[order, 2]

        # Python-level views of the same memory for the scalar queries:
        # indexing a memoryview yields plain ints and floats.
        self._links = tuple(
            memoryview(a) for a in (self._off, self._peer, self._start, self._end)
        )
        self._nodes = tuple(
            memoryview(a) for a in (self._node_off, self._node_start, self._node_end)
        )
        #: Nodes with an outage window: the scalar queries skip the rest
        #: with one set lookup.
        self._outage_nodes = frozenset(np.flatnonzero(np.diff(self._node_off)).tolist())
        self._node_edges = memoryview(np.sort(np.concatenate([self._node_start, self._node_end])))
        # (lo, hi, up): which nodes are up anywhere in [lo, hi); NaN
        # bounds hold for no time.
        lo = np.nan if self._outage_nodes else -np.inf
        self._nodes_up_at = (lo, -lo, np.ones(n, dtype=bool))

    def _node_down(self, i: int, t: float) -> bool:
        """Whether node ``i``, one of ``_outage_nodes``, is down at ``t``."""
        off, start, end = self._nodes
        lo = off[i]
        k = bisect_right(start, t, lo, off[i + 1]) - 1
        return k >= lo and t < end[k]

    def node_is_up(self, i: int, t: float) -> bool:
        return not (i in self._outage_nodes and self._node_down(i, t))

    def link_is_up(self, i: int, j: int, t: float) -> bool:
        """True if the (bidirectional) link i<->j is usable at time t."""
        if i == j:
            return True
        nodes = self._outage_nodes
        if nodes and (
            (i in nodes and self._node_down(i, t)) or (j in nodes and self._node_down(j, t))
        ):
            return False
        off, peer, start, end = self._links
        lo, hi = off[i], off[i + 1]
        if lo == hi:
            return True
        first = bisect_left(peer, j, lo, hi)
        if first == hi or peer[first] != j:
            return True
        last = bisect_right(peer, j, first, hi)
        k = bisect_right(start, t, first, last) - 1
        return k < first or t >= end[k]

    def _nodes_up(self, t: float) -> np.ndarray:
        """Which nodes are outside their outage windows at ``t`` (shared:
        do not write). No window opens or closes between two adjacent
        window edges, so the vector is kept for that span."""
        lo, hi, up = self._nodes_up_at
        if not lo <= t < hi:
            edges = self._node_edges
            k = bisect_right(edges, t)
            lo = edges[k - 1] if k else -np.inf
            hi = edges[k] if k < len(edges) else np.inf
            hit = np.flatnonzero((self._node_start <= t) & (t < self._node_end))
            up = np.ones(self.n, dtype=bool)
            up[np.searchsorted(self._node_off, hit, side="right") - 1] = False
            self._nodes_up_at = (lo, hi, up)
        return up

    def up_vector(self, i: int, t: float) -> np.ndarray:
        """Boolean vector ``v`` with ``v[j]`` true iff link i<->j is up.

        ``v[i]`` is always True. Used by the vectorized probing fast path.
        """
        up = self._nodes_up(t)
        if not up[i]:  # a down node reaches only itself
            v = np.zeros(self.n, dtype=bool)
            v[i] = True
            return v
        v = up.copy()
        off = self._links[0]
        lo, hi = off[i], off[i + 1]
        if hi > lo:
            hit = (self._start[lo:hi] <= t) & (t < self._end[lo:hi])
            v[self._peer[lo:hi][hit]] = False
        return v

    def up_many(self, i: int, js: np.ndarray, t: float) -> np.ndarray:
        """:meth:`link_is_up` for every destination in ``js`` at once."""
        return self.up_vector(i, t)[js]

    def up_matrix(self, t: float) -> np.ndarray:
        """``m[i, j]`` is ``up_vector(i, t)[j]`` for every source at once,
        from one comparison over all windows instead of ``n`` per-source
        queries."""
        up = self._nodes_up(t)
        m = np.logical_and.outer(up, up)
        np.fill_diagonal(m, True)
        hit = np.flatnonzero((self._start <= t) & (t < self._end))
        if hit.size:
            src = np.searchsorted(self._off, hit, side="right") - 1
            m[src, self._peer[hit]] = False
        return m

    def concurrent_failures(self, i: int, t: float) -> int:
        """Number of destinations unreachable from ``i`` at time ``t``."""
        return int(self.n - 1 - (self.up_vector(i, t).sum() - 1))


def _offsets(owner: np.ndarray, n: int) -> np.ndarray:
    """``off`` with ``off[i]:off[i + 1]`` the positions of owner ``i``
    once rows are sorted by owner."""
    off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner, minlength=n), out=off[1:])
    return off


def build_failure_table(
    n: int,
    horizon: float,
    rng: np.random.Generator,
    node_classes: Optional[Sequence[NodeClass]] = None,
) -> FailureTable:
    """Build a failure table whose statistics mirror the paper's Figure 8.

    Each link (i, j) gets an outage process whose duty cycle is the sum of
    a small background term (:data:`BASE_DUTY_CYCLE`) and both endpoints'
    class terms (:data:`DEFAULT_CLASS_PARAMS`): outages are
    mostly "caused" by a node's poor access connectivity, which is what
    makes a few nodes see very many concurrent failures. Links are drawn
    in ``(i, j)`` order, each a first arrival and then :func:`_episodes`'
    draws (``tests/net/reference_failures.py`` draws one link alone).
    """
    if node_classes is None:
        node_classes = assign_node_classes(n, rng)
    if len(node_classes) != n:
        raise TopologyError("node_classes length must equal n")
    params = DEFAULT_CLASS_PARAMS

    # Each ordered class pair's process, worked out once; None draws
    # nothing (a zero duty cycle).
    code: Dict[NodeClass, int] = {}
    for c in node_classes:
        code.setdefault(c, len(code))
    kinds = [params[c] for c in code]
    process: List[List[Optional[Tuple[float, float, float]]]] = []
    for pi in kinds:
        row: List[Optional[Tuple[float, float, float]]] = []
        for pj in kinds:
            duty = BASE_DUTY_CYCLE + pi.duty_cycle + pj.duty_cycle
            if duty <= 0.0:
                row.append(None)
                continue
            mean_s = max(pi.mean_outage_s, pj.mean_outage_s, BASE_MEAN_OUTAGE_S)
            sigma = max(pi.sigma_outage, pj.sigma_outage)
            row.append((*_episode_params(duty, mean_s, sigma), sigma))
        process.append(row)
    codes = [code[c] for c in node_classes]
    # The hot loop reads only the scale: most links end at their first
    # draw, past the horizon.
    scales = [[None if p is None else p[0] for p in row] for row in process]

    links: List[LinkRow] = []
    draw = rng.standard_exponential
    for i in range(n):
        scale_row = scales[codes[i]]
        for j, scale in enumerate([scale_row[c] for c in codes[i + 1 :]], i + 1):
            if scale is None:
                continue
            first = scale * draw()
            if first < horizon:
                _, mu, sigma = process[codes[i]][codes[j]]
                links += [(i, j, s, e) for s, e in _episodes(rng, first, horizon, scale, mu, sigma)]
    return FailureTable(n, links, [])
