"""Measurement instrumentation: bandwidth accounting and freshness.

The evaluation quantities of §6 are all derived from two instruments:

* :class:`BandwidthRecorder` — per-node, per-kind, per-direction byte
  counters bucketed in fixed-width time bins. Mean rates (Figure 9/10)
  and worst 1-minute windows (Figure 10) are computed from the bins.
* :class:`FreshnessRecorder` — snapshots, every 30 s, of each node's
  "time since last recommendation received" per destination (Figures
  12-14).

Both are passive: the overlay calls ``record_*``; experiment drivers read
aggregates afterwards.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.net.packet import (
    KIND_GOSSIP,
    KIND_LINKSTATE,
    KIND_MEMBERSHIP,
    KIND_MEMBERSHIP_CTRL,
    KIND_RECOMMENDATION,
)

__all__ = [
    "KIND_PROBE",
    "ROUTING_KINDS",
    "MEMBERSHIP_KINDS",
    "GOSSIP_KINDS",
    "ALL_KINDS",
    "BandwidthRecorder",
    "DisruptionRecorder",
    "FreshnessRecorder",
    "CounterSet",
]

#: Probing traffic. The link monitor sends no probe messages: it accounts
#: each probe's bytes (``wire.PROBE_BYTES``) under this kind, so no class
#: in ``net/packet.py`` claims it.
KIND_PROBE = "probe"

#: Message kinds that count as "routing traffic" in Figures 9 and 10.
ROUTING_KINDS: Tuple[str, ...] = (KIND_LINKSTATE, KIND_RECOMMENDATION)

#: Membership view-change traffic (full views and deltas). Kept out of
#: ROUTING_KINDS so the §6 bandwidth figures stay exactly comparable to
#: the paper's; the membership-scaling experiment queries it directly.
#: Refresh heartbeats (``member-ctl``) are excluded on purpose: with
#: in-band delivery the coordinator host receives every member's
#: heartbeat, which would otherwise drown its view-update numbers.
MEMBERSHIP_KINDS: Tuple[str, ...] = (KIND_MEMBERSHIP,)

#: Coordinator-free membership traffic (the whole gossip plane: digest
#: pushes, anti-entropy pulls, op replays, snapshots). Its byte cost is
#: compared against ``member`` + ``member-ctl`` — the coordinator
#: plane's *total* cost including heartbeats, since gossip subsumes
#: liveness tracking too.
GOSSIP_KINDS: Tuple[str, ...] = (KIND_GOSSIP,)

ALL_KINDS: Tuple[str, ...] = (
    KIND_PROBE,
    KIND_LINKSTATE,
    KIND_RECOMMENDATION,
    KIND_MEMBERSHIP,
    KIND_MEMBERSHIP_CTRL,
    KIND_GOSSIP,
)

#: Figure 10's "max" series: the highest rate over any aligned window of
#: this many seconds.
RATE_WINDOW_S = 60.0


class BandwidthRecorder:  # reprolint: disable=RL002(one recorder per experiment aggregating all nodes)
    """Per-node byte counters in fixed-width time buckets.

    State layout: one ``(n, buckets)`` int64 array per ``(direction,
    kind)`` written, allocated at its first write with just the columns
    that write needs and doubled on demand, so an array holds at most
    twice the buckets written (a 45-s run at 10-s buckets: 5 columns).
    With ``t1=None`` the queries run through the last bucket holding
    any bytes.

    Parameters
    ----------
    n:
        Number of nodes.
    bucket_s:
        Bucket width in seconds. Must evenly divide the window lengths
        you later query (60 s windows with the default 10 s buckets).
    """

    def __init__(self, n: int, bucket_s: float = 10.0):
        if n <= 0:
            raise ConfigError("n must be positive")
        if bucket_s <= 0:
            raise ConfigError("bucket_s must be positive")
        self.n = n
        self.bucket_s = float(bucket_s)
        # (direction, kind) -> array of shape (n, buckets), grown lazily.
        self._bins: Dict[Tuple[str, str], np.ndarray] = {}

    def _bucket(self, t: float) -> int:
        return int(t // self.bucket_s)

    def grow_to(self, n: int) -> None:
        """Grow the node axis so ids up to ``n - 1`` are recordable.

        Flash-crowd joiners may carry ids beyond the population the
        recorder was sized for; growing (rather than silently skipping
        them) keeps per-member byte totals equal to the aggregate
        counters. Existing counts are preserved; queries simply return
        longer per-node arrays afterwards.
        """
        if n <= self.n:
            return
        for key, arr in list(self._bins.items()):
            grown = np.zeros((n, arr.shape[1]), dtype=np.int64)
            grown[: arr.shape[0]] = arr
            self._bins[key] = grown
        self.n = n

    def _array(self, direction: str, kind: str, bucket: int) -> np.ndarray:
        arr = self._bins.get((direction, kind))
        if arr is None:
            arr = np.zeros((self.n, bucket + 1), dtype=np.int64)
            self._bins[(direction, kind)] = arr
        elif bucket >= arr.shape[1]:
            new_cols = max(bucket + 1, arr.shape[1] * 2)
            grown = np.zeros((self.n, new_cols), dtype=np.int64)
            grown[:, : arr.shape[1]] = arr
            self._bins[(direction, kind)] = grown
            arr = grown
        return arr

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    # The two scalar recorders run once per datagram sent and once per
    # datagram delivered: the bucket is computed once and the growth
    # check (:meth:`_array`) is left to the first write into a new bin.
    def record_out(self, node: int, kind: str, nbytes: int, t: float) -> None:
        """Count ``nbytes`` sent by ``node`` at time ``t``."""
        bucket = int(t // self.bucket_s)
        arr = self._bins.get(("out", kind))
        if arr is None or bucket >= arr.shape[1]:
            arr = self._array("out", kind, bucket)
        arr[node, bucket] += nbytes

    def record_in(self, node: int, kind: str, nbytes: int, t: float) -> None:
        """Count ``nbytes`` received by ``node`` at time ``t``."""
        bucket = int(t // self.bucket_s)
        arr = self._bins.get(("in", kind))
        if arr is None or bucket >= arr.shape[1]:
            arr = self._array("in", kind, bucket)
        arr[node, bucket] += nbytes

    def record_out_many(
        self, mask: np.ndarray, kind: str, nbytes_each: int, t: float
    ) -> None:
        """Count ``nbytes_each`` sent by every node selected by ``mask``.

        Used by the vectorized probing fast path (one call per probe
        round instead of one per destination).
        """
        bucket = self._bucket(t)
        self._array("out", kind, bucket)[mask, bucket] += nbytes_each

    def record_in_many(
        self, mask: np.ndarray, kind: str, nbytes_each: int, t: float
    ) -> None:
        """Count ``nbytes_each`` received by every node selected by ``mask``."""
        bucket = self._bucket(t)
        self._array("in", kind, bucket)[mask, bucket] += nbytes_each

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _slice(self, t0: float, t1: float) -> Tuple[int, int]:
        if t1 <= t0:
            raise ConfigError(f"bad window [{t0}, {t1})")
        return self._bucket(t0), self._bucket(t1 - 1e-9) + 1

    def _filled_buckets(self) -> int:
        """Buckets through the last one holding any bytes (0 before the
        first): where ``t1=None`` ends the queries."""
        filled = 0
        for arr in self._bins.values():
            cols = np.flatnonzero(arr.any(axis=0))
            if cols.size:
                filled = max(filled, int(cols[-1]) + 1)
        return filled

    def bytes_per_node(
        self,
        kinds: Optional[Iterable[str]] = None,
        t0: float = 0.0,
        t1: Optional[float] = None,
        directions: Tuple[str, ...] = ("in", "out"),
    ) -> np.ndarray:
        """Total bytes per node over ``[t0, t1)`` for the given kinds.

        Both directions are summed by default, matching the paper's
        "incoming and outgoing" accounting. ``t1=None`` sums through the
        last bucket holding any bytes (zeros if none follows ``t0``).
        """
        kinds = tuple(kinds) if kinds is not None else ALL_KINDS
        if t1 is None:
            b0, b1 = self._bucket(t0), self._filled_buckets()
        else:
            b0, b1 = self._slice(t0, t1)
        total = np.zeros(self.n, dtype=np.int64)
        for (direction, kind), arr in self._bins.items():
            if direction in directions and kind in kinds:
                hi = min(b1, arr.shape[1])
                if hi > b0:
                    total += arr[:, b0:hi].sum(axis=1)
        return total

    def bps_per_node(
        self,
        kinds: Optional[Iterable[str]] = None,
        t0: float = 0.0,
        t1: Optional[float] = None,
    ) -> np.ndarray:
        """Mean bits/second per node (in+out) over ``[t0, t1)``.

        The rate is computed over the bucket-aligned window actually
        summed, so unaligned ``t0``/``t1`` do not skew it. ``t1=None``
        ends the window with the last bucket holding any bytes.
        """
        if t1 is None:
            t1 = self._filled_buckets() * self.bucket_s
        b0, b1 = self._slice(t0, t1)
        duration = (b1 - b0) * self.bucket_s
        return self.bytes_per_node(kinds, t0, t1) * 8.0 / duration

    def max_window_bps(
        self,
        kinds: Optional[Iterable[str]] = None,
        t0: float = 0.0,
        t1: Optional[float] = None,
    ) -> np.ndarray:
        """Per-node maximum rate over any aligned :data:`RATE_WINDOW_S`
        window.

        This is Figure 10's "max (any 1-min window)" series. ``t1=None``
        ends the period with the last bucket holding any bytes.
        """
        window_s = RATE_WINDOW_S
        if t1 is None:
            t1 = self._filled_buckets() * self.bucket_s
        per_window = round(window_s / self.bucket_s)
        if per_window < 1 or abs(per_window * self.bucket_s - window_s) > 1e-9:
            raise ConfigError(
                f"window {window_s}s must be a multiple of bucket {self.bucket_s}s"
            )
        kinds = tuple(kinds) if kinds is not None else ALL_KINDS
        b0, b1 = self._slice(t0, t1)
        summed = np.zeros((self.n, b1 - b0), dtype=np.int64)
        for (_direction, kind), arr in self._bins.items():
            if kind in kinds:
                hi = min(b1, arr.shape[1])
                if hi > b0:
                    summed[:, : hi - b0] += arr[:, b0:hi]
        usable = (summed.shape[1] // per_window) * per_window
        if usable == 0:
            raise ConfigError("window longer than measurement period")
        windows = summed[:, :usable].reshape(self.n, -1, per_window).sum(axis=2)
        return windows.max(axis=1) * 8.0 / window_s


class FreshnessRecorder:  # reprolint: disable=RL002(one recorder per experiment aggregating all nodes)
    """Periodic snapshots of per-(src, dst) recommendation age.

    ``sample(now, last_rec_times)`` appends one ``(n, n)`` age matrix.
    Figures 12-14 reduce over the sample axis (median / mean / 97% / max)
    of the samples taken at or after a warm-up cut ``t0``.
    """

    def __init__(self, n: int):
        if n <= 0:
            raise ConfigError("n must be positive")
        self.n = n
        self._samples: List[np.ndarray] = []
        self._times: List[float] = []

    def sample(self, now: float, last_rec_time: np.ndarray) -> None:
        """Record ages ``now - last_rec_time`` (matrix of shape (n, n)).

        Entries that never received a recommendation (``-inf`` in
        ``last_rec_time``) record as ``inf`` age; the diagonal records 0.
        """
        if last_rec_time.shape != (self.n, self.n):
            raise ConfigError(
                f"last_rec_time must be ({self.n}, {self.n}), "
                f"got {last_rec_time.shape}"
            )
        age = (now - last_rec_time).astype(np.float32)
        np.fill_diagonal(age, 0.0)
        self._samples.append(age)
        self._times.append(now)

    def ages(self, t0: float = 0.0) -> np.ndarray:
        """The samples taken at or after ``t0`` stacked, shape
        ``(samples, n, n)``."""
        kept = [age for t, age in zip(self._times, self._samples) if t >= t0]
        if not kept:
            raise ConfigError(f"no freshness samples recorded at or after {t0}")
        return np.stack(kept)

    def per_pair_stats(self, t0: float = 0.0) -> Dict[str, np.ndarray]:
        """Per-(src, dst) median / average / 97th-percentile / max ages
        over the samples taken at or after ``t0``.

        Returns a dict of ``(n, n)`` matrices. The diagonal is zero and
        should be excluded by callers.
        """
        ages = self.ages(t0)
        finite = np.where(np.isfinite(ages), ages, np.nan)
        with np.errstate(invalid="ignore"):
            stats = {
                "median": np.nanmedian(finite, axis=0),
                "average": np.nanmean(finite, axis=0),
                "p97": np.nanpercentile(finite, 97, axis=0),
                "max": ages.max(axis=0),
            }
        for key, mat in stats.items():
            stats[key] = np.where(np.isnan(mat), np.inf, mat)
        return stats


class DisruptionRecorder:  # reprolint: disable=RL002(one recorder per experiment aggregating all nodes)
    """Per-(src, dst) route availability across membership transitions.

    The churn workloads sample, at a fixed period, whether each active
    node's *chosen* route to each other active node actually works on
    the current ground-truth underlay (direct link up, or the selected
    one-hop intermediary alive and both legs up). This recorder turns
    those samples into the §6-style quantities the churn evaluation
    reports:

    * an **availability time series** — fraction of measured (both
      endpoints active) pairs whose route works at each sample;
    * **disruption events** — maximal ``[start, end)`` intervals during
      which a pair's route was continuously broken (pairs that stop
      being measured mid-disruption, because an endpoint left or died,
      are censored rather than recorded);
    * **recovery times** — for a given instant (a mass-failure event,
      say), how long until availability first returns above a threshold;
    * **view divergence** — with in-band (lossy) membership delivery,
      live nodes can transiently hold *different* view versions. The
      recorder tracks maximal time windows during which more than one
      version was held, and the routing disagreement inside them (the
      fraction of measured pairs whose endpoints held different versions
      and whose route was broken).

    Like the other recorders this one is passive and deterministic:
    identical event sequences produce byte-identical series.

    State layout: a pair's open window is the int32 index into the
    sample times of the sample that opened it (``-1``: none open), 4 B
    per ordered pair. A sample that closes windows keeps one chunk of
    int32 flat pair indices (``src * n + dst``) and int32 start indices
    beside its own time, 8 B per closed pair; bootstrap closes nearly
    every pair's first window in one sample, and tuples are only made
    for whoever asks (:meth:`events`). Flat indices bound ``n`` to
    :data:`MAX_N`.
    """

    #: Largest ``n`` whose ``n * n`` flat pair indices fit in int32.
    MAX_N = 46_340

    def __init__(self, n: int):
        if n <= 0:
            raise ConfigError("n must be positive")
        if n > self.MAX_N:
            raise ConfigError(
                f"n = {n} exceeds {self.MAX_N}: flat pair indices are int32"
            )
        self.n = n
        self._down_since = np.full((n, n), -1, dtype=np.int32)
        #: Closed disruptions, one ``(pair, start, end)`` chunk per sample
        #: that closed any: flat pair indices, the opening samples'
        #: indices into ``_times`` and the closing sample's time.
        self._closed: List[Tuple[np.ndarray, np.ndarray, float]] = []
        self._times: List[float] = []
        self._avail: List[float] = []
        self._measured_pairs: List[int] = []
        # View-divergence bookkeeping (in-band membership).
        self._div_open_since: Optional[float] = None
        self._div_windows: List[Tuple[float, float]] = []
        self._div_samples = 0
        self._view_samples = 0
        self._div_pair_measured = 0
        self._div_pair_broken = 0
        # Per-member divergence: for each node, time windows during
        # which it (while live) held something other than the reference
        # version — the version most live nodes held, ties to the
        # newest. Bounded per-member windows are the coordinator-failover
        # acceptance metric: every member individually reconverges.
        self._member_div_since = np.full(n, np.nan)
        self._member_div_windows: List[Tuple[int, float, float]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def sample(
        self,
        now: float,
        ok: np.ndarray,
        active: np.ndarray,
        versions: Optional[np.ndarray] = None,
    ) -> None:
        """Record one availability snapshot.

        Parameters
        ----------
        ok:
            ``(n, n)`` boolean matrix; ``ok[s, d]`` means ``s``'s current
            route to ``d`` works on the ground-truth underlay. Only
            entries where both endpoints are active are read.
        active:
            ``(n,)`` boolean mask of nodes that are overlay members with
            running timers at ``now``.
        versions:
            Optional ``(n,)`` integer vector of each node's held
            membership view version (``-1`` = no view / not live).
            When provided, view-divergence windows and the routing
            disagreement among divergent pairs are tracked too.
        """
        if ok.shape != (self.n, self.n) or active.shape != (self.n,):
            raise ConfigError(
                f"expected ok ({self.n}, {self.n}) and active ({self.n},), "
                f"got {ok.shape} and {active.shape}"
            )
        measured = active[:, None] & active[None, :]
        np.fill_diagonal(measured, False)
        broken = measured & ~ok

        # Measured pairs join live nodes: only a divergent sample has
        # pairs holding different versions.
        if versions is not None and self.sample_views(now, versions, active):
            held = versions >= 0
            differ = versions[:, None] != versions[None, :]
            differ &= held[:, None]
            differ &= held[None, :]
            self._div_pair_measured += int(np.count_nonzero(differ & measured))
            differ &= broken
            self._div_pair_broken += int(np.count_nonzero(differ))

        down_since = self._down_since
        tracking = down_since >= 0
        # Close disruptions that healed; censor ones whose pair vanished.
        recovered = tracking & measured & ok
        pair = np.flatnonzero(recovered)
        if pair.size:
            start = down_since.ravel()[pair]
            self._closed.append((pair.astype(np.int32), start, float(now)))
        tracking &= ~measured
        down_since[recovered | tracking] = -1
        # Open new disruptions at this sample's index.
        broken &= down_since < 0
        down_since[broken] = len(self._times)

        pairs = int(measured.sum())
        self._times.append(float(now))
        self._measured_pairs.append(pairs)
        self._avail.append(
            float(ok[measured].sum()) / pairs if pairs else 1.0
        )

    def sample_views(
        self, now: float, versions: np.ndarray, live: np.ndarray
    ) -> bool:
        """Record one view-version snapshot (divergence tracking only)
        and return whether it was divergent.

        Callable on its own for membership-layer experiments that never
        compute a route matrix; :meth:`sample` delegates here when given
        ``versions``. A sample is *divergent* when live nodes hold more
        than one distinct version (nodes with no view yet, version
        ``-1``, count as a version of their own: a joiner still waiting
        for its first view genuinely disagrees with everyone).
        """
        versions = np.asarray(versions)
        live = np.asarray(live, dtype=bool)
        if versions.shape != (self.n,) or live.shape != (self.n,):
            raise ConfigError(
                f"expected versions and live of shape ({self.n},), "
                f"got {versions.shape} and {live.shape}"
            )
        held = versions[live]
        divergent = held.size > 1 and bool((held != held[0]).any())
        self._view_samples += 1
        if divergent:
            self._div_samples += 1
            if self._div_open_since is None:
                self._div_open_since = float(now)
        elif self._div_open_since is not None:
            self._div_windows.append((self._div_open_since, float(now)))
            self._div_open_since = None
        # Per-member windows against the sample's reference version:
        # the modal version among live nodes, ties to the newest (during
        # a failover the new primary's higher tag wins the tie, so nodes
        # already converged on it are not the ones marked divergent).
        if held.size:
            vals, counts = np.unique(held, return_counts=True)
            ref = vals[counts == counts.max()].max()
        else:
            ref = -1
        diverged = live & (versions != ref)
        tracking = ~np.isnan(self._member_div_since)
        closed = tracking & live & ~diverged
        for m in np.nonzero(closed)[0]:
            self._member_div_windows.append(
                (int(m), float(self._member_div_since[m]), float(now))
            )
        # A member that stopped being live mid-window is censored, not
        # recorded — mirroring the pair-disruption convention.
        self._member_div_since[closed | (tracking & ~live)] = np.nan
        newly = diverged & np.isnan(self._member_div_since)
        self._member_div_since[newly] = now
        return divergent

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def availability_series(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(times, availability)`` arrays, one entry per sample."""
        return np.array(self._times), np.array(self._avail)

    def events(self) -> List[Tuple[int, int, float, float]]:
        """Closed disruption intervals as ``(src, dst, start, end)``."""
        times = np.array(self._times)
        n = self.n
        return [
            event
            for pair, start, end in self._closed
            for event in zip(
                (pair // n).tolist(),
                (pair % n).tolist(),
                times[start].tolist(),
                repeat(end),
            )
        ]

    def open_disruptions(self) -> int:
        """Pairs currently mid-disruption (no recovery sampled yet)."""
        return int(np.count_nonzero(self._down_since >= 0))

    def disruption_durations(self, t0: float = 0.0) -> np.ndarray:
        """Durations (s) of closed disruptions that *started* at or after
        ``t0``."""
        times = np.array(self._times)
        durations = []
        for _, index, end in self._closed:
            start = times[index]
            durations.append(end - start[t0 <= start])
        return np.concatenate(durations) if durations else np.array([], dtype=float)

    def min_availability(self, t0: float = 0.0) -> float:
        """Lowest sampled availability from ``t0`` on (1.0 if no samples)."""
        vals = [a for t, a in zip(self._times, self._avail) if t0 <= t]
        return min(vals) if vals else 1.0

    def view_divergence_windows(self) -> List[Tuple[float, float]]:
        """Closed ``[start, end)`` windows during which live nodes held
        more than one view version (end = first re-converged sample)."""
        return list(self._div_windows)

    def open_divergence_since(self) -> Optional[float]:
        """Start of a still-open divergence window, or None if the last
        sample saw all live nodes on one version."""
        return self._div_open_since

    def view_divergence_summary(self) -> Dict[str, float]:
        """The divergence quantities the in-band experiments report.

        ``windows`` / ``total_s`` / ``max_s`` describe closed divergence
        windows; ``open`` flags a window still unresolved at the last
        sample; ``divergent_sample_frac`` is the fraction of view
        samples taken mid-divergence; ``disagreement`` is the fraction
        of measured divergent-version pairs whose route was broken
        (``nan`` if no such pair was ever sampled).
        """
        durations = [e - s for s, e in self._div_windows]
        return {
            "windows": float(len(self._div_windows)),
            "total_s": float(sum(durations)),
            "max_s": float(max(durations)) if durations else 0.0,
            "open": float(self._div_open_since is not None),
            "divergent_sample_frac": (
                self._div_samples / self._view_samples
                if self._view_samples
                else 0.0
            ),
            "disagreement": (
                self._div_pair_broken / self._div_pair_measured
                if self._div_pair_measured
                else math.nan
            ),
        }

    def member_divergence_windows(self) -> List[Tuple[int, float, float]]:
        """Closed per-member divergence windows ``(member, start, end)``.

        A window opens when a live member's held version first differs
        from the sample's reference version and closes at the first
        sample where it matches again (members that stop being live
        mid-window are censored).
        """
        return list(self._member_div_windows)

    def member_divergence_summary(self) -> Dict[str, float]:
        """Aggregates of the per-member divergence windows.

        ``open_members`` counts members still divergent at the last
        sample — a converged run must report 0; ``member_max_s`` bounds
        the longest any single member spent off the reference version.
        """
        durations = [e - s for _, s, e in self._member_div_windows]
        return {
            "windows": float(len(self._member_div_windows)),
            "members_affected": float(
                len({m for m, _, _ in self._member_div_windows})
            ),
            "member_total_s": float(sum(durations)),
            "member_max_s": float(max(durations)) if durations else 0.0,
            "open_members": float(
                (~np.isnan(self._member_div_since)).sum()
            ),
        }

    def recovery_time_after(self, t_event: float) -> Optional[float]:
        """Seconds from ``t_event`` until availability first dipped and
        then returned to 1 (every measured pair routes); ``None`` if it
        never recovered within the samples, ``0.0`` if it never dipped."""
        dipped = False
        for t, a in zip(self._times, self._avail):
            if t < t_event:
                continue
            if a < 1.0:
                dipped = True
            elif dipped:
                return t - t_event
        return 0.0 if not dipped else None


class CounterSet:
    """Named integer counters (failovers, suppressions, retries, ...)."""

    __slots__ = ("_counts",)

    def __init__(self) -> None:
        self._counts: Dict[str, int] = {}

    def incr(self, name: str, amount: int = 1) -> None:
        self._counts[name] = self._counts.get(name, 0) + amount

    def get(self, name: str) -> int:
        return self._counts.get(name, 0)

    def as_dict(self) -> Dict[str, int]:
        return dict(self._counts)
