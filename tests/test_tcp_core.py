"""Sequence arithmetic, flag canonicalization and segment invariants."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from smart_tcp.tcp_core import (
    AgentState,
    LocalAction,
    ActionKind,
    MAX_PAYLOAD_LEN,
    Role,
    SEQ_MOD,
    Segment,
    TcpFlags,
    TcpState,
    flags_parse,
    parse_state,
    segment_consumes,
    seq_add,
    seq_lt,
)

from wire_reference import state_to_wire

u32 = st.integers(min_value=0, max_value=SEQ_MOD - 1)


class TestSeqAdd:
    def test_identity(self):
        assert seq_add(0, 0) == 0

    def test_wraparound(self):
        # Oracle: 64-bit addition then mod 2^32.
        assert seq_add(4294967295, 2) == (4294967295 + 2) % SEQ_MOD == 1

    def test_isn_lower_bound(self):
        assert seq_add(8388608, 1) == 8388609

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            seq_add(SEQ_MOD, 0)
        with pytest.raises(ValueError):
            seq_add(0, SEQ_MOD)

    @given(u32, u32, u32)
    def test_associative_with_wide_oracle(self, a, n1, n2):
        assert seq_add(seq_add(a, n1), n2) == (a + n1 + n2) % SEQ_MOD

    def test_randomized_against_wide_oracle_bulk(self):
        rng = random.Random(1234)
        for _ in range(20_000):
            a, n = rng.getrandbits(32), rng.getrandbits(32)
            assert seq_add(a, n) == (a + n) % SEQ_MOD


class TestSeqLt:
    def test_small_positive_distance(self):
        assert seq_lt(5, 10)

    def test_wraparound_distance(self):
        # Signed 32-bit difference oracle: 3 - 4294967290 wraps to +9.
        assert seq_lt(4294967290, 3)

    def test_irreflexive(self):
        assert not seq_lt(7, 7)

    def test_half_distance_ties_not_less_both_ways(self):
        a = 100
        b = (a + 2**31) % SEQ_MOD
        assert not seq_lt(a, b) and not seq_lt(b, a)

    @given(u32, u32)
    def test_antisymmetric_off_half_distance(self, a, b):
        if a == b or (b - a) % SEQ_MOD == 2**31:
            return
        assert seq_lt(a, b) != seq_lt(b, a)


class TestFlags:
    def test_canonicalization(self):
        assert flags_parse("ack|syn").render() == "SYN|ACK"

    def test_round_trip_stable(self):
        f = flags_parse("FIN|ACK")
        assert f.fin and f.ack and not f.syn
        assert f.render() == "ACK|FIN"
        assert flags_parse(f.render()) == f

    @pytest.mark.parametrize(
        "bad", ["SIN", "", "  ", "SYN|SYN", "SYN|", "SYN|XXX", 5, ["SYN"], None, b"SYN"]
    )
    def test_parse_errors(self, bad):
        # Errors are never memoized: every call raises, not only the first.
        for _ in range(3):
            with pytest.raises(ValueError):
                flags_parse(bad)

    def test_every_flag_set_round_trips(self):
        sets = [TcpFlags(*bits) for bits in itertools.product((False, True), repeat=6)]
        nonempty = [f for f in sets if f.any()]
        assert len(nonempty) == 63
        for f in nonempty:
            text = f.render()
            assert flags_parse(text) == f
            assert flags_parse(text.lower()) == f

    def test_case_insensitive_any_order(self):
        assert flags_parse("psh|Ack") == TcpFlags(ack=True, psh=True)

    @given(
        st.builds(
            TcpFlags,
            syn=st.booleans(),
            ack=st.booleans(),
            fin=st.booleans(),
            rst=st.booleans(),
            psh=st.booleans(),
            urg=st.booleans(),
        )
    )
    def test_round_trip_property(self, f):
        if not f.any():
            with pytest.raises(ValueError):
                f.render()
            return
        assert flags_parse(f.render()) == f


class TestTcpState:
    def test_closed_vocabulary(self):
        assert parse_state("ESTABLISHED") is TcpState.ESTABLISHED
        with pytest.raises(ValueError):
            parse_state("OPEN")


class TestSegment:
    def test_consumes_pure_ack(self):
        seg = Segment(seq=1, ack=2, flags=flags_parse("ACK"))
        assert segment_consumes(seg) == 0

    def test_consumes_syn(self):
        seg = Segment(seq=1, ack=0, flags=flags_parse("SYN"))
        assert segment_consumes(seg) == 1

    def test_consumes_fin_with_data(self):
        seg = Segment(seq=1, ack=2, flags=flags_parse("FIN|ACK"), payload=b"x" * 100)
        assert segment_consumes(seg) == 101

    def test_consumes_additive_in_payload(self):
        f = flags_parse("ACK|PSH")
        for n in (0, 1, 7, 100):
            base = segment_consumes(Segment(seq=0, ack=0, flags=f))
            seg = Segment(seq=0, ack=0, flags=f, payload=b"y" * n)
            assert segment_consumes(seg) == base + n

    def test_empty_flags_invalid(self):
        with pytest.raises(ValueError):
            Segment(seq=0, ack=0, flags=TcpFlags())

    def test_non_ack_segment_normalizes_ack_to_zero(self):
        seg = Segment(seq=5, ack=999, flags=flags_parse("SYN"))
        assert seg.ack == 0

    def test_wire_round_trip(self):
        seg = Segment(seq=10, ack=20, flags=flags_parse("ACK|PSH"), payload=b"abc")
        obj = seg.to_wire()
        assert Segment.from_wire(obj) == Segment(seq=10, ack=20, flags=seg.flags, payload=b"\0" * 3)
        # A payload_b64 key is ignored: the payload is payload_len zero bytes.
        b64 = dict(obj, payload_len=5, payload_b64="YWJj")
        assert Segment.from_wire(b64) == Segment(seq=10, ack=20, flags=seg.flags, payload=b"\0" * 5)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("payload_len", -3),
            ("payload_len", MAX_PAYLOAD_LEN + 1),
            ("payload_len", 10**30),
        ],
    )
    def test_from_wire_rejects_bad_field(self, field, value):
        obj = {"seq": 1, "ack": 0, "flags": "SYN", "payload_len": 0}
        obj[field] = value
        with pytest.raises(ValueError):
            Segment.from_wire(obj)


class TestAgentState:
    def test_initial_closed_invariant(self):
        s = AgentState(role=Role.CLIENT, state=TcpState.CLOSED, iss=1000, snd_nxt=1000)
        assert s.snd_nxt == s.iss and s.irs is None and s.rcv_nxt is None

    def test_wire_round_trip(self):
        s = AgentState(
            role=Role.SERVER,
            state=TcpState.ESTABLISHED,
            iss=1,
            snd_nxt=2,
            irs=3,
            rcv_nxt=4,
        )
        assert AgentState.from_wire(state_to_wire(s)) == s

    def test_range_validation(self):
        with pytest.raises(ValueError):
            AgentState(role=Role.CLIENT, state=TcpState.CLOSED, iss=SEQ_MOD, snd_nxt=0)


class TestLocalAction:
    def test_send_requires_data(self):
        with pytest.raises(ValueError):
            LocalAction(ActionKind.SEND)
        with pytest.raises(ValueError):
            LocalAction(ActionKind.SEND, b"")

    def test_non_send_rejects_data(self):
        with pytest.raises(ValueError):
            LocalAction(ActionKind.CLOSE, b"x")
