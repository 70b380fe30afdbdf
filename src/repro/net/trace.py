"""Synthetic Internet latency traces.

The paper's measurements use two datasets we cannot access: the Stribling
all-pairs-pings matrix over 359 PlanetLab hosts (Figure 1, Nov 2005) and a
live 140-node PlanetLab deployment (March 2008). This module synthesizes
RTT matrices with the structural properties those figures depend on:

* geographic clustering (continental regions with realistic base RTTs),
* per-host access-link penalties with a heavy tail (loaded PlanetLab
  hosts),
* *policy inflation* on a fraction of inter-region paths — circuitous BGP
  routes that make the direct path much slower than geography requires.
  These are what make one-hop detours profitable (Figure 1): an inflated
  direct path can be beaten by relaying through a well-connected host.
* a small population of well-provisioned *hub* hosts whose links are never
  inflated; only detours through such hosts help much, which reproduces
  the paper's observation that ~97% of random intermediaries do not fix a
  high-latency path.

All generators are deterministic given a :class:`numpy.random.Generator`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.errors import TopologyError

__all__ = [
    "REGIONS",
    "REGION_WEIGHTS",
    "REGION_BASE_RTT_MS",
    "SyntheticTrace",
    "planetlab_like",
    "uniform_random_metric",
]

#: Continental regions used by the geographic model.
REGIONS: Tuple[str, ...] = (
    "na-east",
    "na-west",
    "europe",
    "asia-east",
    "asia-south",
    "s-america",
    "oceania",
    "africa",
)

#: Approximate share of PlanetLab sites per region.
REGION_WEIGHTS: Tuple[float, ...] = (0.25, 0.15, 0.30, 0.15, 0.04, 0.04, 0.04, 0.03)

#: Typical inter-region round-trip times in milliseconds (symmetric).
REGION_BASE_RTT_MS: np.ndarray = np.array(
    [
        #  naE  naW   eu  asE  asS   sa   oc   af
        [30.0, 70, 90, 180, 220, 150, 210, 180],  # na-east
        [70, 30, 150, 130, 230, 190, 160, 250],  # na-west
        [90, 150, 30, 250, 160, 220, 300, 120],  # europe
        [180, 130, 250, 40, 120, 320, 140, 300],  # asia-east
        [220, 230, 160, 120, 40, 350, 220, 260],  # asia-south
        [150, 190, 220, 320, 350, 40, 320, 300],  # s-america
        [210, 160, 300, 140, 220, 320, 30, 350],  # oceania
        [180, 250, 120, 300, 260, 300, 350, 50],  # africa
    ]
)


@dataclass(slots=True)
class SyntheticTrace:
    """A generated latency/loss snapshot for ``n`` hosts.

    Attributes
    ----------
    rtt_ms:
        Symmetric ``(n, n)`` matrix of round-trip times in milliseconds,
        zero diagonal.
    loss:
        Symmetric ``(n, n)`` matrix of per-packet loss probabilities.
    regions:
        Region index per host (into :data:`REGIONS`).
    access_ms:
        Per-host access-link penalty (already folded into ``rtt_ms``).
    is_hub:
        Boolean per host: well-provisioned host whose links were exempt
        from policy inflation.
    inflated:
        Boolean ``(n, n)`` matrix marking which paths were policy-inflated.
    """

    rtt_ms: np.ndarray
    loss: np.ndarray
    regions: np.ndarray
    access_ms: np.ndarray
    is_hub: np.ndarray
    inflated: np.ndarray

    @property
    def n(self) -> int:
        return self.rtt_ms.shape[0]

    def validate(self) -> None:
        """Raise :class:`TopologyError` if any invariant is broken."""
        r = self.rtt_ms
        if r.ndim != 2 or r.shape[0] != r.shape[1]:
            raise TopologyError("rtt_ms must be square")
        if not np.allclose(r, r.T):
            raise TopologyError("rtt_ms must be symmetric")
        if np.any(np.diag(r) != 0):
            raise TopologyError("rtt_ms diagonal must be zero")
        off = r[~np.eye(self.n, dtype=bool)]
        if off.size and off.min() <= 0:
            raise TopologyError("off-diagonal RTTs must be positive")
        if np.any(self.loss < 0) or np.any(self.loss > 1):
            raise TopologyError("loss must be a probability")


# planetlab_like's shape, calibrated so that, at n = 359, a few percent of
# host pairs exceed 400 ms RTT, the best one-hop rescues roughly half of
# them, and random intermediates almost never do (Figure 1's regime).
#: Probability that a long-haul region pair is a congested corridor.
CORRIDOR_PROB = 0.30
#: Share of a congested corridor's paths that are inflated.
CONGESTION_RANGE: Tuple[float, float] = (0.85, 0.98)
#: Region pairs at least this far apart (base RTT) are long-haul.
LONG_HAUL_THRESHOLD_MS = 150.0
#: Policy-inflation factor of an inflated path.
INFLATION_RANGE: Tuple[float, float] = (1.8, 4.0)
#: Share of well-provisioned hub hosts (at least one is drawn).
HUB_FRACTION = 0.02
#: Median of the log-normal per-host access penalty.
ACCESS_MEAN_MS = 32.0
#: Share of overloaded hosts with a 60-250 ms access penalty on top.
HEAVY_ACCESS_FRACTION = 0.12
#: Per-packet loss of a lossy link.
LOSSY_LOSS = 0.05

#: uniform_random_metric's RTT range.
UNIFORM_LOW_MS = 10.0
UNIFORM_HIGH_MS = 500.0


def _draw_regions(n: int, rng: np.random.Generator) -> np.ndarray:
    return rng.choice(len(REGIONS), size=n, p=np.asarray(REGION_WEIGHTS))


def planetlab_like(
    n: int,
    rng: np.random.Generator,
    base_loss: float = 0.003,
    lossy_fraction: float = 0.03,
) -> SyntheticTrace:
    """Generate a PlanetLab-like RTT/loss matrix for ``n`` hosts.

    Policy inflation is modeled at the *corridor* (region-pair) level:
    with probability :data:`CORRIDOR_PROB`, a long-haul region pair is
    "congested" and a large fraction (the congestion level) of individual
    paths crossing it are inflated. This correlation is what makes good
    detours scarce, as in the paper's 2005 measurement: a detour must
    dodge the congested corridor *and* go through a lightly loaded host
    with favorable geography — roughly the top few percent of candidates.

    Every link loses ``base_loss`` of its packets, except a
    ``lossy_fraction`` of them that lose :data:`LOSSY_LOSS`.
    """
    if n < 2:
        raise TopologyError("need at least 2 hosts")
    regions = _draw_regions(n, rng)

    # Per-host access penalty: log-normal with a small heavy tail of
    # overloaded hosts contributing 60-250 ms.
    access = rng.lognormal(np.log(ACCESS_MEAN_MS), 0.6, size=n)
    heavy = rng.random(n) < HEAVY_ACCESS_FRACTION
    access = np.where(heavy, access + rng.uniform(60.0, 250.0, size=n), access)

    # Hubs: well-provisioned hosts. Their access penalty is small and
    # their links are exempt from policy inflation.
    is_hub = rng.random(n) < HUB_FRACTION
    if not is_hub.any():
        is_hub[int(rng.integers(n))] = True
    access = np.where(is_hub, rng.uniform(1.0, 4.0, size=n), access)

    base = REGION_BASE_RTT_MS[np.ix_(regions, regions)]
    jitter = rng.uniform(0.9, 1.15, size=(n, n))
    jitter = np.triu(jitter, 1)
    jitter = jitter + jitter.T + np.eye(n)
    geo = base * jitter

    # Corridor-level congestion: pick congested long-haul region pairs.
    num_regions = len(REGIONS)
    congestion = np.zeros((num_regions, num_regions))
    for a in range(num_regions):
        for b in range(a + 1, num_regions):
            if REGION_BASE_RTT_MS[a, b] < LONG_HAUL_THRESHOLD_MS:
                continue
            if rng.random() < CORRIDOR_PROB:
                level = rng.uniform(*CONGESTION_RANGE)
                congestion[a, b] = congestion[b, a] = level

    # Per-link inflation draw within congested corridors; hubs exempt.
    link_congestion = congestion[np.ix_(regions, regions)]
    infl_mask = rng.random((n, n)) < np.triu(link_congestion, 1)
    infl_mask = infl_mask | infl_mask.T
    infl_mask[is_hub, :] = False
    infl_mask[:, is_hub] = False
    factor = rng.uniform(*INFLATION_RANGE, size=(n, n))
    factor = np.triu(factor, 1)
    factor = factor + factor.T
    geo = np.where(infl_mask, geo * factor, geo)

    rtt = geo + access[:, None] + access[None, :]
    np.fill_diagonal(rtt, 0.0)
    rtt = (rtt + rtt.T) / 2.0  # enforce exact symmetry

    loss = np.full((n, n), base_loss)
    lossy = rng.random((n, n)) < lossy_fraction
    lossy = np.triu(lossy, 1)
    lossy = lossy | lossy.T
    loss = np.where(lossy, LOSSY_LOSS, loss)
    np.fill_diagonal(loss, 0.0)

    trace = SyntheticTrace(
        rtt_ms=rtt,
        loss=loss,
        regions=regions,
        access_ms=access,
        is_hub=is_hub,
        inflated=infl_mask,
    )
    trace.validate()
    return trace


def uniform_random_metric(n: int, rng: np.random.Generator) -> SyntheticTrace:
    """Independent uniform RTTs (no structure; triangle violations common).

    Useful for property tests of the routing algorithms, where we only
    need *some* symmetric positive cost matrix.
    """
    if n < 2:
        raise TopologyError("need at least 2 hosts")
    r = rng.uniform(UNIFORM_LOW_MS, UNIFORM_HIGH_MS, size=(n, n))
    r = np.triu(r, 1)
    rtt = r + r.T
    trace = SyntheticTrace(
        rtt_ms=rtt,
        loss=np.zeros((n, n)),
        regions=np.zeros(n, dtype=int),
        access_ms=np.zeros(n),
        is_hub=np.zeros(n, dtype=bool),
        inflated=np.zeros((n, n), dtype=bool),
    )
    trace.validate()
    return trace
