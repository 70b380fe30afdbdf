"""One link's Fig. 8 outage process, drawn alone: the reference
``build_failure_table`` is held to.

``repro.net.failures.build_failure_table`` draws every link of the mesh
in one pass and skips the work a link past the horizon does not need;
:func:`schedule_from_episodes` draws one link as the process states it.
``test_failures.py`` checks that the builder's windows for every link
are exactly the ones this function draws from the same stream.
"""

from typing import List, Tuple

import numpy as np

Window = Tuple[float, float]


def schedule_from_episodes(
    rng: np.random.Generator,
    horizon: float,
    duty_cycle: float,
    mean_outage_s: float,
    sigma: float = 0.8,
) -> List[Window]:
    """One link's merged outage windows over ``[0, horizon]``.

    Episodes arrive Poisson with rate ``duty_cycle / mean_outage_s``:
    the first after an exponential gap, each next one an exponential gap
    after the previous episode ends. An episode lasts ``LogNormal(mu,
    sigma)`` with ``mu`` chosen for the requested mean, and is clipped
    at the horizon. Overlapping or touching episodes merge; empty ones
    are dropped. A zero duty cycle draws nothing.
    """
    if duty_cycle <= 0.0:
        return []
    scale = 1.0 / (duty_cycle / mean_outage_s)
    mu = float(np.log(mean_outage_s) - sigma * sigma / 2.0)
    episodes = []
    t = rng.exponential(scale)
    while t < horizon:
        duration = float(rng.lognormal(mu, sigma))
        episodes.append((t, min(t + duration, horizon)))
        t += duration + rng.exponential(scale)
    merged: List[Window] = []
    for start, end in sorted(episodes):
        if end <= start:
            continue
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged
