"""Underlay network model: latency, loss, and failures over time.

A :class:`Topology` answers, for any ordered node pair and virtual time:
is the link up, what is its RTT, and what is its loss probability. It is
the single source of truth consumed by the transport (per-message loss and
delay) and by the link monitor's vectorized probing fast path.

Links are bidirectional with identical cost, per the paper's §3 model.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import TopologyError
from repro.net.failures import FailureTable
from repro.net.trace import SyntheticTrace

__all__ = ["Topology"]


class Topology:  # reprolint: disable=RL002(one Topology per experiment; holds O(n^2) arrays, not O(n) instances)
    """Full-mesh underlay with optional failure injection.

    Parameters
    ----------
    rtt_ms:
        Symmetric ``(n, n)`` RTT matrix in milliseconds, zero diagonal.
    loss:
        Symmetric ``(n, n)`` per-packet loss probability matrix, or None
        for a lossless network. A lossless topology keeps no matrix (an
        all-zero one is dropped after validation): every link reads loss
        0 and no packet draws from the random stream.
    failures:
        Optional :class:`FailureTable`; links in an outage drop all
        packets.
    """

    def __init__(
        self,
        rtt_ms: np.ndarray,
        loss: Optional[np.ndarray] = None,
        failures: Optional[FailureTable] = None,
    ):
        rtt_ms = np.asarray(rtt_ms, dtype=float)
        if rtt_ms.ndim != 2 or rtt_ms.shape[0] != rtt_ms.shape[1]:
            raise TopologyError("rtt_ms must be a square matrix")
        if not np.allclose(rtt_ms, rtt_ms.T):
            raise TopologyError("rtt_ms must be symmetric")
        if np.any(np.diag(rtt_ms) != 0):
            raise TopologyError("rtt_ms diagonal must be zero")
        n = rtt_ms.shape[0]
        off_diag = rtt_ms[~np.eye(n, dtype=bool)]
        if off_diag.size and off_diag.min() <= 0:
            raise TopologyError("off-diagonal RTTs must be positive")

        if loss is not None:
            loss = np.asarray(loss, dtype=float)
            if loss.shape != rtt_ms.shape:
                raise TopologyError("loss matrix shape must match rtt_ms")
            if np.any(loss < 0) or np.any(loss > 1):
                raise TopologyError("loss entries must be probabilities")
            if not loss.any():
                loss = None

        if failures is not None and failures.n != n:
            raise TopologyError(
                f"failure table is for n={failures.n}, topology has n={n}"
            )

        self._rtt_ms = rtt_ms
        #: None for a lossless network.
        self._loss: Optional[np.ndarray] = loss
        self._failures = failures

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_trace(
        cls, trace: SyntheticTrace, failures: Optional[FailureTable] = None
    ) -> "Topology":
        """Build a topology from a synthetic trace snapshot."""
        return cls(trace.rtt_ms, trace.loss, failures)

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of nodes."""
        return self._rtt_ms.shape[0]

    @property
    def rtt_matrix_ms(self) -> np.ndarray:
        """The static base RTT matrix (read-only view)."""
        v = self._rtt_ms.view()
        v.flags.writeable = False
        return v

    @property
    def failures(self) -> Optional[FailureTable]:
        return self._failures

    # ------------------------------------------------------------------
    # Scalar queries
    # ------------------------------------------------------------------
    def _check_pair(self, i: int, j: int) -> None:
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise TopologyError(f"node pair ({i}, {j}) out of range for n={self.n}")

    def rtt_ms(self, i: int, j: int) -> float:
        """Base RTT between i and j in milliseconds."""
        self._check_pair(i, j)
        return float(self._rtt_ms[i, j])

    def one_way_delay_s(self, i: int, j: int) -> float:
        """One-way propagation delay in seconds (RTT / 2)."""
        return self.rtt_ms(i, j) / 2000.0

    def loss_probability(self, i: int, j: int) -> float:
        """Per-packet loss probability on the i->j link (excl. outages)."""
        self._check_pair(i, j)
        return 0.0 if self._loss is None else float(self._loss[i, j])

    def link_is_up(self, i: int, j: int, t: float) -> bool:
        """Whether the link is up (not in an injected outage) at time t."""
        self._check_pair(i, j)
        if self._failures is None:
            return True
        return self._failures.link_is_up(i, j, t)

    def packet_delivered(
        self, i: int, j: int, t: float, rng: np.random.Generator
    ) -> bool:
        """Sample whether one packet sent i->j at time ``t`` arrives."""
        if i == j:
            return True
        if not self.link_is_up(i, j, t):
            return False
        if self._loss is None:
            return True
        p = self._loss[i, j]
        return p <= 0.0 or rng.random() >= p

    # ------------------------------------------------------------------
    # Vector queries (datagram fan-out and probing fast paths)
    # ------------------------------------------------------------------
    def deliver_many(
        self, i: int, js: np.ndarray, t: float, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One packet from ``i`` to each of ``js`` at time ``t``.

        Returns ``(delivered, delay_s)``: ``delivered[k]`` is what
        :meth:`packet_delivered` ``(i, js[k], t, rng)`` would have
        sampled and ``delay_s[k]`` is :meth:`one_way_delay_s`
        ``(i, js[k])``. Loss is drawn with a single ``rng.random(m)``
        over exactly the destinations whose link is up and lossy, in
        ``js`` order — the same ``Generator`` stream as ``m`` scalar
        draws in a loop over ``js``.
        """
        in_range = 0 <= i < self.n and (js.size == 0 or js.min() >= 0)
        if in_range:
            try:
                delay_s = self._rtt_ms[i, js] / 2000.0
            except IndexError:  # numpy checks the upper bound
                in_range = False
        if not in_range:
            raise TopologyError(
                f"fan-out from {i} to {js} out of range for n={self.n}"
            )
        if self._failures is None:
            delivered = np.ones(js.shape[0], dtype=bool)
        else:
            delivered = self._failures.up_many(i, js, t)
        if self._loss is not None:
            p = self._loss[i, js]
            lossy = np.flatnonzero(delivered & ~(p <= 0.0) & (js != i))
            if lossy.size:
                delivered[lossy] = rng.random(lossy.size) >= p[lossy]
        return delivered, delay_s

    def up_vector(self, i: int, t: float) -> np.ndarray:
        """Boolean vector over destinations: link i<->j currently up."""
        self._check_pair(i, i)
        if self._failures is None:
            return np.ones(self.n, dtype=bool)
        return self._failures.up_vector(i, t)

    def up_matrix(self, t: float) -> np.ndarray:
        """Ground-truth link state of every pair at time ``t``.

        ``m[i]`` is :meth:`up_vector` ``(i, t)`` for every source, built
        in one pass over the failure table's windows rather than by
        ``n`` per-source queries. The matrix is symmetric with a true
        diagonal; a node in an outage has a false row and column except
        at itself.
        """
        if self._failures is None:
            return np.ones((self.n, self.n), dtype=bool)
        return self._failures.up_matrix(t)

    def rtt_vector_ms(self, i: int) -> np.ndarray:
        """RTT from i to every node (copy)."""
        self._check_pair(i, i)
        return self._rtt_ms[i].copy()

    def loss_vector(self, i: int) -> np.ndarray:
        """Loss probability from i to every node (copy)."""
        self._check_pair(i, i)
        return np.zeros(self.n) if self._loss is None else self._loss[i].copy()

    def concurrent_failures(self, i: int, t: float) -> int:
        """Ground-truth count of destinations unreachable from ``i``."""
        return int(self.n - 1 - (int(self.up_vector(i, t).sum()) - 1))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        failed = "none" if self._failures is None else "injected"
        return f"<Topology n={self.n} failures={failed}>"
