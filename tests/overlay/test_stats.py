"""Tests for bandwidth, freshness and disruption instrumentation."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro

from repro.errors import ConfigError
from repro.overlay.stats import (
    BandwidthRecorder,
    CounterSet,
    DisruptionRecorder,
    FreshnessRecorder,
)


class TestBandwidthRecorder:
    def test_basic_bucket_accounting(self):
        bw = BandwidthRecorder(2, bucket_s=10.0)
        bw.record_out(0, "ls", 100, 5.0)
        bw.record_in(1, "ls", 100, 5.1)
        assert bw.bytes_per_node()[0] == 100
        assert bw.bytes_per_node()[1] == 100
        assert bw.bytes_per_node(directions=("out",))[1] == 0

    def test_window_filtering(self):
        bw = BandwidthRecorder(1, bucket_s=10.0)
        bw.record_out(0, "ls", 100, 5.0)
        bw.record_out(0, "ls", 200, 25.0)
        assert bw.bytes_per_node(t0=0.0, t1=10.0)[0] == 100
        assert bw.bytes_per_node(t0=20.0, t1=30.0)[0] == 200
        assert bw.bytes_per_node(t0=0.0, t1=30.0)[0] == 300

    def test_kind_filtering(self):
        bw = BandwidthRecorder(1)
        bw.record_out(0, "ls", 100, 0.0)
        bw.record_out(0, "probe", 50, 0.0)
        assert bw.bytes_per_node(kinds=("ls",))[0] == 100
        assert bw.bytes_per_node(kinds=("probe",))[0] == 50
        assert bw.bytes_per_node()[0] == 150

    def test_bps_conversion(self):
        bw = BandwidthRecorder(1, bucket_s=10.0)
        bw.record_out(0, "ls", 1000, 5.0)  # 8000 bits over 100 s
        assert bw.bps_per_node(t0=0.0, t1=100.0)[0] == pytest.approx(80.0)

    def test_max_window(self):
        bw = BandwidthRecorder(1, bucket_s=10.0)
        # quiet minute, then a burst minute
        bw.record_out(0, "ls", 100, 30.0)
        bw.record_out(0, "ls", 10_000, 70.0)
        peak = bw.max_window_bps(t0=0.0, t1=120.0)[0]
        assert peak == pytest.approx(10_000 * 8 / 60.0)

    def test_max_window_requires_alignment(self):
        bw = BandwidthRecorder(1, bucket_s=7.0)
        bw.record_out(0, "ls", 1, 0.0)
        with pytest.raises(ConfigError):
            bw.max_window_bps(t0=0.0, t1=70.0)

    def test_bucket_growth(self):
        bw = BandwidthRecorder(1, bucket_s=1.0)
        bw.record_out(0, "ls", 5, 10_000.0)  # far beyond initial buckets
        assert bw.bytes_per_node(t0=9_999.0, t1=10_001.0)[0] == 5

    def test_default_window_ends_with_the_last_bucket_written(self):
        """``t1=None`` runs through the last bucket holding bytes: a 45-s
        record's default rate is over its 5 buckets, not a fixed horizon."""
        bw = BandwidthRecorder(2, bucket_s=10.0)
        for second in range(45):
            bw.record_out(0, "ls", 100, float(second))
            bw.record_in(1, "ls", 100, second + 0.5)
        assert bw.bytes_per_node().tolist() == [4500, 4500]
        assert np.array_equal(bw.bytes_per_node(t0=20.0), bw.bytes_per_node(t0=20.0, t1=1e6))
        assert bw.bps_per_node()[0] == pytest.approx(4500 * 8 / 50.0)
        assert np.array_equal(bw.bps_per_node(), bw.bps_per_node(t0=0.0, t1=50.0))
        assert np.array_equal(bw.bps_per_node(t0=20.0), bw.bps_per_node(t0=20.0, t1=50.0))
        with pytest.raises(ConfigError, match="longer than"):
            bw.max_window_bps()
        bw.record_out(0, "probe", 1000, 119.0)
        assert np.array_equal(bw.max_window_bps(), bw.max_window_bps(t0=0.0, t1=120.0))
        assert BandwidthRecorder(3).bytes_per_node().tolist() == [0, 0, 0]

    def test_vectorized_recording(self):
        bw = BandwidthRecorder(4)
        mask = np.array([True, False, True, False])
        bw.record_in_many(mask, "probe", 46, 0.0)
        bw.record_out_many(mask, "probe", 46, 0.0)
        assert list(bw.bytes_per_node()) == [92, 0, 92, 0]

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigError):
            BandwidthRecorder(0)
        with pytest.raises(ConfigError):
            BandwidthRecorder(1, bucket_s=0.0)
        bw = BandwidthRecorder(1)
        with pytest.raises(ConfigError):
            bw.bytes_per_node(t0=10.0, t1=5.0)


class TestFreshnessRecorder:
    def test_sample_and_ages(self):
        fr = FreshnessRecorder(2)
        last = np.array([[0.0, 10.0], [5.0, 0.0]])
        fr.sample(30.0, last)
        ages = fr.ages()
        assert ages.shape == (1, 2, 2)
        assert ages[0, 0, 1] == 20.0
        assert ages[0, 1, 0] == 25.0
        assert ages[0, 0, 0] == 0.0  # diagonal zeroed

    def test_never_received_is_inf(self):
        fr = FreshnessRecorder(2)
        last = np.array([[0.0, -np.inf], [-np.inf, 0.0]])
        fr.sample(10.0, last)
        assert np.isinf(fr.ages()[0, 0, 1])

    def test_per_pair_stats(self):
        fr = FreshnessRecorder(2)
        for now, age in ((30.0, 5.0), (60.0, 10.0), (90.0, 30.0)):
            last = np.array([[0.0, now - age], [now - age, 0.0]])
            fr.sample(now, last)
        stats = fr.per_pair_stats()
        assert stats["median"][0, 1] == 10.0
        assert stats["average"][0, 1] == pytest.approx(15.0)
        assert stats["max"][0, 1] == 30.0
        assert 10.0 < stats["p97"][0, 1] <= 30.0

    def test_no_samples_raises(self):
        fr = FreshnessRecorder(2)
        with pytest.raises(ConfigError):
            fr.ages()

    def test_shape_mismatch_rejected(self):
        fr = FreshnessRecorder(2)
        with pytest.raises(ConfigError):
            fr.sample(0.0, np.zeros((3, 3)))


class TestCounterSet:
    def test_incr_get(self):
        c = CounterSet()
        c.incr("a")
        c.incr("a", 4)
        assert c.get("a") == 5
        assert c.get("missing") == 0
        assert c.as_dict() == {"a": 5}


class TestDisruptionRecorder:
    def test_closed_events_match_the_per_pair_loop(self):
        """The recorder keeps closed disruptions as per-sample array
        chunks; ``events()`` / ``disruption_durations()`` must hand out
        what the one-tuple-per-pair loop did, in its order. Given
        ``versions`` (live nodes holding 1, 2 or 3 distinct versions),
        the divergence counts, windows and per-member windows must be
        the per-pair / per-member loop's too."""
        for held_versions in (None, 1, 2, 3):
            self.replay_against_the_loops(held_versions)

    @staticmethod
    def replay_against_the_loops(held_versions):
        n = 9
        rng = np.random.default_rng(3)
        version_rng = np.random.default_rng(11)
        recorder = DisruptionRecorder(n)
        down_since = np.full((n, n), np.nan)
        expected = []
        div_measured = div_broken = 0
        div_open, div_windows = None, []
        member_since, member_windows = [None] * n, []
        assert recorder.events() == []
        assert recorder.disruption_durations().shape == (0,)
        for step in range(40):
            now = 5.0 * (step + 1)
            active = rng.random(n) < 0.85
            # Bootstrap: nothing routes; then most pairs do, so the first
            # working sample closes a window for nearly every pair at once.
            ok = rng.random((n, n)) < (0.0 if step < 2 else 0.8)
            versions = None
            if held_versions is not None:
                # Every fourth sample the live nodes agree, closing the
                # windows; half the nodes that are not live hold no view,
                # the others a stale version no measured pair may count.
                choices = [7, 3, 12][: 1 if step % 4 == 3 else held_versions]
                held = version_rng.choice(choices, n)
                stale = version_rng.random(n) < 0.5
                versions = np.where(active | stale, held, -1).astype(np.int64)
            recorder.sample(now, ok, active, versions=versions)
            measured = active[:, None] & active[None, :]
            np.fill_diagonal(measured, False)
            for s in range(n):
                for d in range(n):
                    tracking = not np.isnan(down_since[s, d])
                    if tracking and measured[s, d] and ok[s, d]:
                        expected.append((s, d, float(down_since[s, d]), now))
                    if tracking and (not measured[s, d] or ok[s, d]):
                        down_since[s, d] = np.nan
                    if measured[s, d] and not ok[s, d] and np.isnan(down_since[s, d]):
                        down_since[s, d] = now
            if versions is None:
                continue
            live_versions = [int(versions[m]) for m in range(n) if active[m]]
            if len(set(live_versions)) > 1:
                div_open = now if div_open is None else div_open
            elif div_open is not None:
                div_windows.append((div_open, now))
                div_open = None
            counts = {v: live_versions.count(v) for v in live_versions}
            ref = max((v for v, c in counts.items() if c == max(counts.values())), default=-1)
            for m in range(n):
                diverged = bool(active[m]) and versions[m] != ref
                if member_since[m] is not None and (not active[m] or not diverged):
                    if active[m]:
                        member_windows.append((m, member_since[m], now))
                    member_since[m] = None
                if diverged and member_since[m] is None:
                    member_since[m] = now
            for s in range(n):
                for d in range(n):
                    vs, vd = versions[s], versions[d]
                    if measured[s, d] and vs >= 0 and vd >= 0 and vs != vd:
                        div_measured += 1
                        div_broken += int(not ok[s, d])
        events = recorder.events()
        assert len(events) > n * n
        assert events == expected
        assert all(
            [type(v) for v in event] == [int, int, float, float] for event in events
        )
        for t0 in (0.0, 20.0, 1e6):
            durations = recorder.disruption_durations(t0)
            loop = np.array([e - s for _, _, s, e in expected if t0 <= s], dtype=float)
            assert durations.dtype == loop.dtype and np.array_equal(durations, loop)
        assert recorder.open_disruptions() == int((~np.isnan(down_since)).sum())
        assert recorder._div_pair_measured == div_measured
        assert recorder._div_pair_broken == div_broken
        assert recorder.view_divergence_windows() == div_windows
        assert recorder.open_divergence_since() == div_open
        assert recorder.member_divergence_windows() == member_windows
        assert all(
            [type(v) for v in window] == [int, float, float] for window in member_windows
        )
        if held_versions == 1:
            assert div_measured == 0 and not div_windows and not member_windows
        elif held_versions is not None:
            assert div_broken > 0 and div_windows and member_windows

    def test_sampling_imports_no_numpy_ma(self):
        """The divergence test compares against the first held version:
        ``np.unique`` without counts imports ``numpy.ma`` (about 0.6 MiB)
        in the middle of a run."""
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from repro.net.trace import uniform_random_metric\n"
            "from repro.overlay.harness import build_overlay\n"
            "rng = np.random.default_rng(1)\n"
            "ov = build_overlay(trace=uniform_random_metric(12, rng), rng=rng, with_freshness=False)\n"
            "recorder = ov.attach_disruption(5.0)\n"
            "ov.run(15.0)\n"
            "times, _ = recorder.availability_series()\n"
            "assert len(times) == 3, times\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"
