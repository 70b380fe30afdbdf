"""Tests for the compact wire sizes (§5), the bandwidth calibration and the
reference byte layouts (``reference_wire.py``) that those sizes stand for."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_wire as ref
from reference_wire import WireFormatError
from repro.net.packet import LinkStateMessage, RecommendationMessage
from repro.overlay import wire
from repro.overlay.linkstate import LinkStateRow


class TestMessageSizes:
    def test_linkstate_is_3n_plus_header(self):
        assert wire.linkstate_message_bytes(140) == 46 + 3 * 140

    def test_multihop_linkstate_adds_sec_field(self):
        assert wire.linkstate_message_bytes(100, multihop=True) == 46 + 5 * 100

    def test_recommendation_is_4_per_entry(self):
        # §5: "a recommendation message is 4 * (2 sqrt(n)) bytes".
        assert wire.recommendation_message_bytes(24) == 46 + 4 * 24

    def test_multihop_recommendation_adds_cost(self):
        assert wire.recommendation_message_bytes(10, multihop=True) == 46 + 6 * 10

    def test_recommendation_message_costs_4_per_entry(self):
        assert RecommendationMessage(origin=0, entries=[]).wire_size() == 46
        msg = RecommendationMessage(origin=0, entries=[(1, 2)] * 10)
        assert msg.wire_size() == wire.recommendation_message_bytes(10) == 46 + 4 * 10

    def test_linkstate_message_costs_3_per_entry(self):
        row = LinkStateRow(0, np.zeros(10), np.ones(10, dtype=bool))
        assert LinkStateMessage(origin=0, row=row).wire_size() == 46 + 3 * 10

    def test_probe_is_bare_header(self):
        assert wire.PROBE_BYTES == wire.HEADER_BYTES == 46

    def test_membership_message(self):
        assert wire.membership_message_bytes(50) == 46 + 100

    def test_calibration_reproduces_paper_formulas(self):
        """The §6.1 closed forms fall out of the wire constants."""
        # probing: 4 packets of 46 B per pair per 30 s -> 49.1 n bps
        probing_coeff = 4 * wire.PROBE_BYTES * 8 / 30.0
        assert probing_coeff == pytest.approx(49.1, abs=0.05)
        # full mesh: 2n messages of (3n+46) B per 30 s
        n = 1000.0
        full = 2 * n * (3 * n + wire.HEADER_BYTES) * 8 / 30.0
        assert full == pytest.approx(1.6 * n**2 + 24.5 * n, rel=0.002)
        # quorum: 4 sqrt(n) LS + 4 sqrt(n) rec messages per 15 s
        s = np.sqrt(n)
        quorum = (
            4 * s * (3 * n + wire.HEADER_BYTES) + 4 * s * (8 * s + wire.HEADER_BYTES)
        ) * 8 / 15.0
        assert quorum == pytest.approx(
            6.4 * n * s + 17.1 * n + 196.3 * s, rel=0.002
        )


class TestLinkStateCodec:
    def encode_decode(self, latency, alive, loss):
        data = ref.encode_linkstate(latency, alive, loss)
        return ref.decode_linkstate(data, len(latency))

    def test_round_trip_simple(self):
        latency = np.array([0.0, 120.0, 65000.0, 3.0])
        alive = np.array([True, True, True, False])
        loss = np.array([0.0, 0.25, 0.99, 0.5])
        lat2, alive2, loss2 = self.encode_decode(latency, alive, loss)
        assert lat2[0] == 0.0 and lat2[1] == 120.0 and lat2[2] == 65000.0
        assert np.isinf(lat2[3])  # dead entries decode to inf
        assert list(alive2) == [True, True, True, False]
        assert loss2[1] == pytest.approx(0.25, abs=0.005)

    def test_infinite_latency_keeps_the_alive_bit(self):
        # A link presumed up but not yet measured: no latency, still alive.
        lat, alive, _ = self.encode_decode(
            np.array([np.inf, np.inf]), np.array([True, False]), np.array([0.0, 0.0])
        )
        assert np.isinf(lat).all()
        assert list(alive) == [True, False]

    def test_latency_clamped_to_16_bits(self):
        lat, alive, _ = self.encode_decode(
            np.array([1e9]), np.array([True]), np.array([0.0])
        )
        assert lat[0] == ref.MAX_ENCODABLE_LATENCY_MS
        assert alive[0]

    def test_payload_size_is_3n(self):
        n = 37
        data = ref.encode_linkstate(
            np.zeros(n), np.ones(n, dtype=bool), np.zeros(n)
        )
        assert len(data) == 3 * n

    def test_wrong_length_decode_rejected(self):
        with pytest.raises(WireFormatError):
            ref.decode_linkstate(b"\x00" * 7, 2)

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(WireFormatError):
            ref.encode_linkstate(np.zeros(3), np.ones(2, dtype=bool), np.zeros(3))

    def test_bad_loss_rejected(self):
        with pytest.raises(WireFormatError):
            ref.encode_linkstate(
                np.zeros(1), np.ones(1, dtype=bool), np.array([1.2])
            )

    @given(
        st.integers(min_value=1, max_value=60),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_round_trip_property(self, n, seed):
        rng = np.random.default_rng(seed)
        latency = rng.uniform(0, 60000, n)
        alive = rng.random(n) < 0.8
        loss = rng.uniform(0, 1, n)
        lat2, alive2, loss2 = self.encode_decode(latency, alive, loss)
        assert np.array_equal(alive2, alive)
        # alive entries: latency survives within rounding
        live = alive
        assert np.allclose(lat2[live], np.rint(latency[live]), atol=0.5)
        assert np.all(np.isinf(lat2[~live]))
        assert np.allclose(loss2, np.rint(loss * 100) / 100, atol=0.005)


class TestRecommendationCodec:
    def test_round_trip(self):
        entries = [(3, 7), (10, 10), (65535, 0)]
        data = ref.encode_recommendations(entries)
        assert len(data) == 4 * len(entries)
        assert ref.decode_recommendations(data) == entries

    def test_round_trip_array_form(self):
        # RecommendationMessage.entries is a (k, 2) int64 array.
        entries = RecommendationMessage(origin=0, entries=[(3, 7), (10, 10), (65535, 0)]).entries
        assert entries.shape == (3, 2) and entries.dtype == np.int64
        data = ref.encode_recommendations(entries)
        assert len(data) == 4 * len(entries)
        assert np.array_equal(ref.decode_recommendations(data), entries)

    def test_empty(self):
        assert ref.decode_recommendations(b"") == []

    def test_id_overflow_rejected(self):
        with pytest.raises(WireFormatError):
            ref.encode_recommendations([(70000, 1)])

    def test_bad_length_rejected(self):
        with pytest.raises(WireFormatError):
            ref.decode_recommendations(b"\x00" * 6)

    @given(
        st.lists(
            st.tuples(st.integers(0, 65535), st.integers(0, 65535)), max_size=50
        )
    )
    def test_round_trip_property(self, entries):
        data = ref.encode_recommendations(entries)
        assert ref.decode_recommendations(data) == entries


class TestMembershipDeltaWire:
    def test_delta_message_is_o_changes_not_o_n(self):
        # header + 2x4B versions + 2x2B counts + 2B per changed member.
        assert wire.membership_delta_message_bytes(1, 0) == 46 + 8 + 4 + 2
        assert wire.membership_delta_message_bytes(3, 2) == 46 + 8 + 4 + 10
        # Single change at n=1024: far below 10% of the full view.
        full = wire.membership_message_bytes(1024)
        delta = wire.membership_delta_message_bytes(1, 0)
        assert delta <= 0.10 * full

    def test_round_trip(self):
        data = ref.encode_view_delta(41, 43, (3, 9), (7,))
        fixed = 2 * wire.VIEW_VERSION_BYTES + 2 * wire.DELTA_COUNT_BYTES
        assert len(data) == fixed + 3 * wire.NODE_ID_BYTES
        assert ref.decode_view_delta(data) == (41, 43, (3, 9), (7,))

    def test_empty_delta_round_trip(self):
        data = ref.encode_view_delta(5, 6, (), ())
        assert ref.decode_view_delta(data) == (5, 6, (), ())

    def test_version_overflow_rejected(self):
        with pytest.raises(WireFormatError):
            ref.encode_view_delta(2**32, 2**32 + 1, (), ())

    def test_member_overflow_rejected(self):
        with pytest.raises(WireFormatError):
            ref.encode_view_delta(1, 2, (70000,), ())

    def test_truncated_payload_rejected(self):
        data = ref.encode_view_delta(1, 2, (3,), (4,))
        with pytest.raises(WireFormatError):
            ref.decode_view_delta(data[:-1])
        with pytest.raises(WireFormatError):
            ref.decode_view_delta(b"\x00\x01")

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(0, 2**32 - 1),
        st.lists(st.integers(0, 65535), max_size=40),
        st.lists(st.integers(0, 65535), max_size=40),
    )
    def test_round_trip_property(self, v_from, v_to, joined, left):
        data = ref.encode_view_delta(v_from, v_to, joined, left)
        assert ref.decode_view_delta(data) == (
            v_from,
            v_to,
            tuple(joined),
            tuple(left),
        )


class TestGossipDigestWire:
    def test_digest_size_is_6_per_entry(self):
        # header + 2x2B counts + 6B per vv entry + 6B per hb entry.
        assert wire.gossip_digest_message_bytes(0, 0) == 46 + 4
        assert wire.gossip_digest_message_bytes(3, 2) == 46 + 4 + 18 + 12

    def test_round_trip(self):
        vv = ((0, 5), (7, 1), (65535, 2**32 - 1))
        hb = ((0, 9), (7, 12))
        data = ref.encode_gossip_digest(vv, hb)
        assert len(data) == 4 + 6 * 5
        assert ref.decode_gossip_digest(data) == (vv, hb)

    def test_empty_round_trip(self):
        assert ref.decode_gossip_digest(ref.encode_gossip_digest((), ())) == (
            (),
            (),
        )

    def test_id_overflow_rejected(self):
        with pytest.raises(WireFormatError):
            ref.encode_gossip_digest(((70000, 1),), ())

    def test_seq_overflow_rejected(self):
        with pytest.raises(WireFormatError):
            ref.encode_gossip_digest(((1, 2**32),), ())

    def test_truncated_payload_rejected(self):
        data = ref.encode_gossip_digest(((1, 2), (3, 4)), ((1, 9),))
        with pytest.raises(WireFormatError):
            ref.decode_gossip_digest(data[:-1])
        with pytest.raises(WireFormatError):
            ref.decode_gossip_digest(data + b"\x00")
        with pytest.raises(WireFormatError):
            ref.decode_gossip_digest(b"\x00")

    def test_garbage_counts_rejected(self):
        # Counts claiming more entries than the payload carries.
        with pytest.raises(WireFormatError):
            ref.decode_gossip_digest(b"\x00\x09\x00\x00" + b"\x00" * 6)

    @given(
        st.lists(
            st.tuples(st.integers(0, 65535), st.integers(0, 2**32 - 1)),
            max_size=40,
        ),
        st.lists(
            st.tuples(st.integers(0, 65535), st.integers(0, 2**32 - 1)),
            max_size=40,
        ),
    )
    def test_round_trip_property(self, vv, hb):
        data = ref.encode_gossip_digest(vv, hb)
        assert ref.decode_gossip_digest(data) == (tuple(vv), tuple(hb))


class TestGossipOpsWire:
    def test_ops_size_is_13_per_op(self):
        # header + 2B count + 13B per (origin, seq, action, target, stamp).
        assert wire.gossip_ops_message_bytes(0) == 46 + 2
        assert wire.gossip_ops_message_bytes(4) == 46 + 2 + 52

    def test_round_trip(self):
        ops = ((3, 1, 1, 3, 1), (3, 2, 3, 9, 4), (65535, 2**32 - 1, 2, 0, 0))
        data = ref.encode_gossip_ops(ops)
        assert len(data) == 2 + 13 * 3
        assert ref.decode_gossip_ops(data) == ops

    def test_empty_round_trip(self):
        assert ref.decode_gossip_ops(ref.encode_gossip_ops(())) == ()

    def test_bad_action_rejected_on_encode(self):
        with pytest.raises(WireFormatError):
            ref.encode_gossip_ops(((1, 1, 0, 2, 1),))
        with pytest.raises(WireFormatError):
            ref.encode_gossip_ops(((1, 1, 4, 2, 1),))

    def test_bad_action_rejected_on_decode(self):
        import struct

        # A syntactically valid payload carrying an unknown action byte:
        # a forged or corrupted op must not reach the engine.
        data = struct.pack(">H", 1) + struct.pack(">HIBHI", 1, 1, 7, 2, 1)
        with pytest.raises(WireFormatError):
            ref.decode_gossip_ops(data)

    def test_id_overflow_rejected(self):
        with pytest.raises(WireFormatError):
            ref.encode_gossip_ops(((70000, 1, 1, 2, 1),))
        with pytest.raises(WireFormatError):
            ref.encode_gossip_ops(((1, 1, 1, 70000, 1),))

    def test_seq_overflow_rejected(self):
        with pytest.raises(WireFormatError):
            ref.encode_gossip_ops(((1, 2**32, 1, 2, 1),))

    def test_truncated_payload_rejected(self):
        data = ref.encode_gossip_ops(((1, 1, 1, 2, 1),))
        with pytest.raises(WireFormatError):
            ref.decode_gossip_ops(data[:-1])
        with pytest.raises(WireFormatError):
            ref.decode_gossip_ops(data + b"\x00")
        with pytest.raises(WireFormatError):
            ref.decode_gossip_ops(b"\x00")

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 65535),
                st.integers(0, 2**32 - 1),
                st.integers(1, 3),
                st.integers(0, 65535),
                st.integers(0, 2**32 - 1),
            ),
            max_size=30,
        )
    )
    def test_round_trip_property(self, ops):
        data = ref.encode_gossip_ops(ops)
        assert ref.decode_gossip_ops(data) == tuple(ops)
