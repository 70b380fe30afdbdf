"""The §5 parameter table is constants; a config holds only what runs vary.

``OverlayConfig`` and the membership variants keep a field only when two
runs set it to different values (``tests/tools/test_config_fields.py``
checks that on the callers). Everything else is a named constant beside
the code that reads it, so the checks a settable value needed become
checks on the constants, and the old keywords are gone.
"""

import dataclasses
import inspect

import pytest

from repro.core import failover
from repro.overlay.config import (
    PROBE_INTERVAL_S,
    PROBES_TO_FAIL,
    RAPID_PROBE_INTERVAL_S,
    Gossip,
    InBand,
    OutOfBand,
    OverlayConfig,
    Replicated,
)
from repro.overlay.monitor import LinkMonitor

#: Every value a run can set, across the config and its four variants.
SETTABLE = {
    "routing_interval_quorum_s",
    "membership_timeout_s",
    "membership",
    "verify_recommendations",
    "deltas",
    "notify_batch_s",
    "coordinators",
}


def test_rapid_probes_fit_one_probe_interval():
    # The §5 detection budget: after a first loss, the remaining
    # PROBES_TO_FAIL - 1 follow-ups land within one probing interval.
    assert RAPID_PROBE_INTERVAL_S * (PROBES_TO_FAIL - 1) <= PROBE_INTERVAL_S


def test_seven_settable_values():
    names = set()
    for cls in (OverlayConfig, OutOfBand, InBand, Replicated, Gossip):
        names.update(f.name for f in dataclasses.fields(cls))
    assert names == SETTABLE


@pytest.mark.parametrize(
    "name",
    [
        "probe_interval_s",
        "probes_to_fail",
        "rapid_probe_interval_s",
        "routing_interval_full_s",
        "ewma_alpha",
        "rec_memory_intervals",
        "remote_timeout_intervals",
        "freshness_sample_s",
        "bandwidth_bucket_s",
    ],
)
def test_overlay_config_rejects_a_section_5_constant(name):
    with pytest.raises(TypeError):
        OverlayConfig(**{name: 1})


@pytest.mark.parametrize(
    "variant, name",
    [
        (InBand, "expiry_grace"),
        (Replicated, "expiry_grace"),
        (Replicated, "failover_timeout_s"),
        (Replicated, "retry"),
        (Replicated, "heartbeat_s"),
        (Replicated, "promote_timeout_s"),
        (Gossip, "interval_s"),
        (Gossip, "fanout"),
        (Gossip, "log_ops"),
        (Gossip, "retry"),
    ],
    ids=lambda value: getattr(value, "__name__", value),
)
def test_a_variant_rejects_a_plane_constant(variant, name):
    with pytest.raises(TypeError):
        variant(**{name: 1})


def test_failover_timeout_is_a_float_argument():
    assert not hasattr(failover, "FailoverConfig")
    assert "remote_timeout_s" in inspect.signature(failover.FailoverManager).parameters


def test_link_monitor_takes_no_config():
    assert "config" not in inspect.signature(LinkMonitor).parameters
