"""A config field exists only when two runs set it differently.

Every field of :class:`repro.overlay.config.OverlayConfig` and of each
membership variant must take at least two distinct values across the
calls of :data:`api_scan.CALLERS` (``src/repro``, ``bench/`` and the
``benchmarks/`` modules that check a published table): its default is
one value, each keyword a call passes is another, and a keyword bound
to a name or an expression (a loop variable, a parameter) counts as a
value of its own. The deployment settings on :data:`DEPLOYMENT` are
exempt. A value every run shares is a named constant beside the code
that reads it (CONTRIBUTING, "The Options rule"); tests and examples do
not count as callers, since a test can set anything.
"""

import dataclasses

from api_scan import CALLERS, passed_values, values_for

from repro.overlay.config import Gossip, InBand, OutOfBand, OverlayConfig, Replicated

CONFIGS = (OverlayConfig, OutOfBand, InBand, Replicated, Gossip)
#: What a deployment chooses rather than tunes: which membership plane,
#: and how many coordinators the replicated one runs.
DEPLOYMENT = {"membership", "coordinators"}


def _config_fields() -> dict:
    """Field name -> default, over the config and every variant (an
    inherited field is one field)."""
    return {
        f.name: f.default
        for cls in CONFIGS
        for f in dataclasses.fields(cls)
        if f.name not in DEPLOYMENT
    }


def _single_valued(fields: dict, paths) -> list:
    calls = passed_values(paths)
    config_calls = [call for cls in CONFIGS for call in calls.get(cls.__name__, [])]
    return sorted(
        name
        for name, default in fields.items()
        if len({default, *values_for(config_calls, -1, name)}) < 2
    )


def test_every_config_field_is_set_to_two_values():
    assert _single_valued(_config_fields(), CALLERS) == []


def test_the_check_fails_on_a_single_valued_field(tmp_path):
    caller = tmp_path / "caller.py"
    caller.write_text("config = OverlayConfig(probe_interval_s=30.0)\n")
    fields = {**_config_fields(), "probe_interval_s": 30.0}
    assert _single_valued(fields, [*CALLERS, caller]) == ["probe_interval_s"]
    caller.write_text("config = OverlayConfig(probe_interval_s=20.0)\n")
    assert _single_valued(fields, [*CALLERS, caller]) == []
