"""Reproduction of *Scaling All-Pairs Overlay Routing* (CoNEXT 2009).

The package is organized as:

* :mod:`repro.core` — the paper's contribution: grid-quorum rendezvous
  construction, optimal one-hop route computation, the multi-hop
  extension, failover logic, and the Appendix A lower bound.
* :mod:`repro.net` — the substrate: deterministic discrete-event
  simulator, synthetic Internet topologies, failure injection, and a
  lossy datagram transport with wire-accurate byte accounting.
* :mod:`repro.overlay` — a simplified RON: membership service, link
  monitoring, the full-mesh (baseline) and quorum routers, and the
  instrumentation used by the evaluation.
* :mod:`repro.analysis` — closed-form bandwidth/capacity models and
  helpers for the figures.
* :mod:`repro.experiments` — runnable reproductions of every table and
  figure in the paper's evaluation.
* :mod:`repro.workloads` — dynamic-membership workloads: deterministic
  churn traces (Poisson join/leave/crash, mass failure, flash crowd)
  and the engine that replays them against a running overlay.

Quickstart::

    import numpy as np
    from repro import build_overlay, OverlayConfig, RouterKind
    from repro.net.trace import planetlab_like

    rng = np.random.default_rng(7)
    trace = planetlab_like(25, rng)
    overlay = build_overlay(trace=trace, router=RouterKind.QUORUM, rng=rng)
    overlay.run(600.0)                       # 10 simulated minutes
    route = overlay.nodes[0].route_to(17)    # optimal one-hop route
"""

from repro.core.grid import GridQuorum
from repro.core.onehop import best_one_hop_all_pairs
from repro.overlay.config import OverlayConfig, RouterKind
from repro.overlay.harness import Overlay, build_overlay

__version__ = "1.0.0"

__all__ = [
    "GridQuorum",
    "Overlay",
    "OverlayConfig",
    "RouterKind",
    "best_one_hop_all_pairs",
    "build_overlay",
    "__version__",
]
