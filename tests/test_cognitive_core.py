"""Oracle state machine, decision schema and prompt/remote plumbing."""

import itertools
import json
import time
from typing import Optional

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from smart_tcp.alu import AluTask
from smart_tcp.cognitive_core import (
    _extract_json_object,
    CognitiveDecision,
    CognitiveInput,
    MalformedDecision,
    OracleCore,
    PERSONA,
    RemoteConfig,
    RemoteCore,
    Verdict,
    build_prompt,
    decode_stripped,
    oracle_transition,
    parse_decision,
    serialize_decision,
    serialize_input,
)
from smart_tcp.tcp_core import (
    ACTION_NONE,
    ActionKind,
    AgentState,
    FLAGS_PSH_ACK,
    LocalAction,
    MAX_PAYLOAD_LEN,
    Role,
    SEQ_MOD,
    Segment,
    TcpFlags,
    TcpState,
    flags_parse,
)

from wire_reference import reference_serialize_input


def state(role=Role.CLIENT, st=TcpState.ESTABLISHED, iss=1000, snd_nxt=None, irs=2000, rcv_nxt=None):
    return AgentState(
        role=role,
        state=st,
        iss=iss,
        snd_nxt=iss + 1 if snd_nxt is None else snd_nxt,
        irs=irs,
        rcv_nxt=irs + 1 if rcv_nxt is None else rcv_nxt,
    )


def seg(seq, flags, ack=0, payload=b""):
    return Segment(seq=seq, ack=ack, flags=flags_parse(flags), payload=payload)


class TestOracleLifecycle:
    def test_active_open(self):
        s = AgentState(role=Role.CLIENT, state=TcpState.CLOSED, iss=5000, snd_nxt=5000)
        d = oracle_transition(s, None, LocalAction(ActionKind.OPEN_ACTIVE))
        assert d.next_state is TcpState.SYN_SENT
        assert d.flags == flags_parse("SYN")
        assert d.payload_len == 0
        assert d.t_task is AluTask.INIT_SYN
        assert d.verdict is Verdict.NORMAL

    def test_passive_open(self):
        s = AgentState(role=Role.SERVER, state=TcpState.CLOSED, iss=5000, snd_nxt=5000)
        d = oracle_transition(s, None, LocalAction(ActionKind.OPEN_PASSIVE))
        assert d.next_state is TcpState.LISTEN and d.t_task is None

    def test_listen_receives_syn(self):
        s = AgentState(role=Role.SERVER, state=TcpState.LISTEN, iss=9000, snd_nxt=9000)
        d = oracle_transition(s, seg(777, "SYN"), ACTION_NONE)
        assert d.next_state is TcpState.SYN_RCVD
        assert d.flags == flags_parse("SYN|ACK")
        assert d.t_task is AluTask.CALCULATE_SEQ_ACK

    def test_syn_sent_receives_synack(self):
        s = AgentState(role=Role.CLIENT, state=TcpState.SYN_SENT, iss=100, snd_nxt=101)
        d = oracle_transition(s, seg(888, "SYN|ACK", ack=101), ACTION_NONE)
        assert d.next_state is TcpState.ESTABLISHED
        assert d.flags == flags_parse("ACK")
        assert d.t_task is AluTask.CALCULATE_ACK

    def test_syn_rcvd_third_ack_no_reply(self):
        s = AgentState(
            role=Role.SERVER, state=TcpState.SYN_RCVD, iss=100, snd_nxt=101, irs=50, rcv_nxt=51
        )
        d = oracle_transition(s, seg(51, "ACK", ack=101), ACTION_NONE)
        assert d.next_state is TcpState.ESTABLISHED
        assert d.t_task is None and d.flags is None

    def test_established_send(self):
        d = oracle_transition(state(), None, LocalAction(ActionKind.SEND, b"hello"))
        assert d.next_state is TcpState.ESTABLISHED
        assert d.flags == flags_parse("PSH|ACK")
        assert d.payload_len == 5
        assert d.t_task is AluTask.CALCULATE_SEQ_ACK

    def test_established_data_receive(self):
        s = state()
        d = oracle_transition(s, seg(s.rcv_nxt, "ACK|PSH", ack=s.snd_nxt, payload=b"xy"), ACTION_NONE)
        assert d.next_state is TcpState.ESTABLISHED
        assert d.flags == flags_parse("ACK")
        assert d.t_task is AluTask.CALCULATE_ACK

    def test_established_close(self):
        d = oracle_transition(state(), None, LocalAction(ActionKind.CLOSE))
        assert d.next_state is TcpState.FIN_WAIT_1
        assert d.flags == flags_parse("FIN|ACK")
        assert d.t_task is AluTask.CALCULATE_SEQ_ACK

    def test_established_receives_fin(self):
        s = state()
        d = oracle_transition(s, seg(s.rcv_nxt, "FIN|ACK", ack=s.snd_nxt), ACTION_NONE)
        assert d.next_state is TcpState.CLOSE_WAIT
        assert d.flags == flags_parse("ACK")

    def test_fin_wait_1_ack_of_fin(self):
        s = state(st=TcpState.FIN_WAIT_1)
        d = oracle_transition(s, seg(s.rcv_nxt, "ACK", ack=s.snd_nxt), ACTION_NONE)
        assert d.next_state is TcpState.FIN_WAIT_2 and d.t_task is None

    def test_fin_wait_1_simultaneous_close(self):
        s = state(st=TcpState.FIN_WAIT_1)
        # Peer FIN that does not acknowledge our FIN.
        d = oracle_transition(s, seg(s.rcv_nxt, "FIN|ACK", ack=s.snd_nxt - 1), ACTION_NONE)
        assert d.next_state is TcpState.CLOSING
        assert d.flags == flags_parse("ACK")

    def test_fin_wait_1_piggyback_fin_ack(self):
        s = state(st=TcpState.FIN_WAIT_1)
        d = oracle_transition(s, seg(s.rcv_nxt, "FIN|ACK", ack=s.snd_nxt), ACTION_NONE)
        assert d.next_state is TcpState.TIME_WAIT

    def test_fin_wait_2_receives_fin(self):
        s = state(st=TcpState.FIN_WAIT_2)
        d = oracle_transition(s, seg(s.rcv_nxt, "FIN|ACK", ack=s.snd_nxt), ACTION_NONE)
        assert d.next_state is TcpState.TIME_WAIT
        assert d.flags == flags_parse("ACK")

    def test_close_wait_close(self):
        d = oracle_transition(state(st=TcpState.CLOSE_WAIT), None, LocalAction(ActionKind.CLOSE))
        assert d.next_state is TcpState.LAST_ACK
        assert d.flags == flags_parse("FIN|ACK")

    def test_last_ack_to_closed(self):
        s = state(st=TcpState.LAST_ACK)
        d = oracle_transition(s, seg(s.rcv_nxt, "ACK", ack=s.snd_nxt), ACTION_NONE)
        assert d.next_state is TcpState.CLOSED

    def test_closing_to_time_wait(self):
        s = state(st=TcpState.CLOSING)
        d = oracle_transition(s, seg(s.rcv_nxt, "ACK", ack=s.snd_nxt), ACTION_NONE)
        assert d.next_state is TcpState.TIME_WAIT


class TestOracleErrorPaths:
    def test_syn_in_established_is_flag_error(self):
        s = state()
        d = oracle_transition(s, seg(s.rcv_nxt, "SYN"), ACTION_NONE)
        assert d.verdict is Verdict.FLAG_ERROR
        assert d.t_task is None

    def test_syn_fin_combo_is_flag_error_anywhere(self):
        for st_ in (TcpState.ESTABLISHED, TcpState.SYN_SENT, TcpState.FIN_WAIT_1):
            s = state(st=st_)
            d = oracle_transition(s, seg(s.rcv_nxt, "SYN|FIN"), ACTION_NONE)
            assert d.verdict is Verdict.FLAG_ERROR

    def test_syn_rst_combo_is_flag_error(self):
        s = state()
        d = oracle_transition(s, seg(s.rcv_nxt, "SYN|RST"), ACTION_NONE)
        assert d.verdict is Verdict.FLAG_ERROR

    def test_fin_without_ack_after_sync_is_flag_error(self):
        s = state()
        d = oracle_transition(s, seg(s.rcv_nxt, "FIN"), ACTION_NONE)
        assert d.verdict is Verdict.FLAG_ERROR

    def test_sequence_gap_is_order_error(self):
        s = state()
        d = oracle_transition(
            s, seg(s.rcv_nxt + 512, "ACK|PSH", ack=s.snd_nxt, payload=b"d"), ACTION_NONE
        )
        assert d.verdict is Verdict.ORDER_ERROR

    def test_ack_of_unsent_data_is_order_error(self):
        s = state()
        d = oracle_transition(s, seg(s.rcv_nxt, "ACK", ack=s.snd_nxt + 10_000), ACTION_NONE)
        assert d.verdict is Verdict.ORDER_ERROR

    def test_segment_with_no_transition_is_order_error(self):
        s = AgentState(role=Role.SERVER, state=TcpState.LISTEN, iss=1, snd_nxt=1)
        d = oracle_transition(s, seg(5, "ACK", ack=0), ACTION_NONE)
        assert d.verdict is Verdict.ORDER_ERROR

    def test_error_decision_keeps_state(self):
        s = state()
        d = oracle_transition(s, seg(s.rcv_nxt, "SYN"), ACTION_NONE)
        assert d.next_state is s.state

    def test_requires_trigger(self):
        with pytest.raises(ValueError):
            oracle_transition(state(), None, ACTION_NONE)


class TestDecisionSchema:
    def test_valid_decision(self):
        raw = (
            '{"next_state":"ESTABLISHED","flags":"ACK","payload_len":0,'
            '"t_task":"CALCULATE_ACK","verdict":"NORMAL"}'
        )
        d = parse_decision(raw)
        assert d.next_state is TcpState.ESTABLISHED
        assert d.t_task is AluTask.CALCULATE_ACK

    def test_unknown_state_and_missing_keys(self):
        with pytest.raises(MalformedDecision):
            parse_decision('{"next_state":"OPEN"}')

    def test_unknown_keys_rejected(self):
        raw = (
            '{"next_state":"ESTABLISHED","flags":null,"payload_len":0,'
            '"t_task":null,"verdict":"NORMAL","extra":1}'
        )
        with pytest.raises(MalformedDecision):
            parse_decision(raw)

    @pytest.mark.parametrize(
        "obj, message",
        [
            ({"next_state": "OPEN", "zeta": 1, "alpha": 2}, "unknown keys: ['alpha', 'zeta']"),
            # Five keys, one of them misspelt; and all five plus one more.
            (dict.fromkeys(["next_state", "flags", "payload_len", "t_task", "verdikt"]), "unknown keys: ['verdikt']"),
            (dict.fromkeys(["next_state", "flags", "payload_len", "t_task", "verdict", "extra"]), "unknown keys: ['extra']"),
            ({"next_state": "OPEN", "verdict": "NORMAL"}, "missing keys: ['flags', 'payload_len', 't_task']"),
            ({}, "missing keys: ['flags', 'next_state', 'payload_len', 't_task', 'verdict']"),
        ],
    )
    def test_key_check_messages(self, obj, message):
        # Remote transcripts carry the message in halt_reason; unknown keys
        # are reported before missing ones.
        with pytest.raises(MalformedDecision) as exc:
            parse_decision(json.dumps(obj))
        assert str(exc.value) == message

    def test_prose_wrapped_object_extracted(self):
        raw = (
            "Sure! Here is my decision:\n"
            '{"next_state":"ESTABLISHED","flags":"ACK","payload_len":0,'
            '"t_task":"CALCULATE_ACK","verdict":"NORMAL"}\nHope that helps.'
        )
        d = parse_decision(raw)
        assert d.flags == flags_parse("ACK")

    def test_garbage_rejected(self):
        with pytest.raises(MalformedDecision):
            parse_decision("no json here at all")

    @pytest.mark.parametrize("flags", [5, ["ACK"], {"ACK": True}, True])
    def test_non_string_flags_malformed(self, flags):
        raw = json.dumps(
            {"next_state": "ESTABLISHED", "flags": flags, "payload_len": 0,
             "t_task": None, "verdict": "NORMAL"}
        )
        with pytest.raises(MalformedDecision):
            parse_decision(raw)

    def test_integer_past_digit_limit_malformed(self):
        # json.loads raises a plain ValueError for it, not JSONDecodeError.
        raw = (
            '{"next_state":"ESTABLISHED","flags":"ACK","payload_len":'
            + "1" * 5000
            + ',"t_task":null,"verdict":"NORMAL"}'
        )
        with pytest.raises(MalformedDecision):
            parse_decision(raw)

    def test_parse_serialize_identity(self):
        s = state()
        decisions = [
            oracle_transition(s, seg(s.rcv_nxt, "ACK|PSH", ack=s.snd_nxt, payload=b"q"), ACTION_NONE),
            oracle_transition(s, None, LocalAction(ActionKind.CLOSE)),
            oracle_transition(s, seg(s.rcv_nxt, "SYN"), ACTION_NONE),
        ]
        for d in decisions:
            assert parse_decision(serialize_decision(d)) == d


def quadratic_extract_json_object(text: str) -> Optional[str]:
    """The reference lenient scan: a fresh scan from every '{' in turn, each
    to the end of the text if it does not close."""
    start = text.find("{")
    while start != -1:
        depth = 0
        in_str = False
        escaped = False
        for i in range(start, len(text)):
            c = text[i]
            if in_str:
                if escaped:
                    escaped = False
                elif c == "\\":
                    escaped = True
                elif c == '"':
                    in_str = False
            elif c == '"':
                in_str = True
            elif c == "{":
                depth += 1
            elif c == "}":
                depth -= 1
                if depth == 0:
                    return text[start : i + 1]
        start = text.find("{", start + 1)
    return None


class TestLenientScan:
    @settings(deadline=None, max_examples=500)
    @given(st.one_of(st.text(alphabet='{}"\\x', max_size=40), st.text(max_size=40)))
    @example('{"a":"}"} {}')
    @example('"{"}{"\\"}"}')
    @example('{\\"{"}')
    # The one string of length <= 8 over {}"\\ whose answer needs a merge to
    # keep the smaller lane's starts.
    @example('{"{{\\""}')
    def test_same_result_as_the_reference(self, text):
        assert _extract_json_object(text) == quadratic_extract_json_object(text)

    def test_every_short_string_matches_the_reference(self):
        # All 87,381 strings of length <= 8 over the scan's special characters.
        for size in range(9):
            for chars in itertools.product('{}"\\', repeat=size):
                text = "".join(chars)
                assert _extract_json_object(text) == quadratic_extract_json_object(text), text

    def test_many_open_braces_parse_in_linear_time(self):
        # The reference scan takes seconds on this input.
        t0 = time.perf_counter()
        with pytest.raises(MalformedDecision, match="no JSON object found"):
            parse_decision("{" * 20_000)
        assert time.perf_counter() - t0 < 0.5

    def test_many_merges_parse_in_linear_time(self):
        # Each escaped quote merges the lane inside the string with the one
        # outside it; merging the larger into the smaller takes seconds.
        t0 = time.perf_counter()
        with pytest.raises(MalformedDecision, match="no JSON object found"):
            parse_decision('{"' + "{" * 20_000 + '\\"' + '{"\\"' * 20_000)
        assert time.perf_counter() - t0 < 0.5


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
# Whole documents, JSON-ish fragments and any text, joined by whitespace or
# nothing, sometimes after a BOM: concatenated values and trailing junk.
json_fragments = st.one_of(
    json_values.map(json.dumps),
    st.text(alphabet='{}[]",:-+.0123456789eEtrufalsnIiNy \t\\', max_size=16),
    st.text(max_size=8),
)
json_lines = st.builds(
    lambda bom, sep, parts: ("\ufeff" if bom else "") + sep.join(parts),
    st.booleans(),
    st.sampled_from(["", " ", "\t", "\r\n", " \n "]),
    st.lists(json_fragments, min_size=1, max_size=3),
)


class TestDecodeStripped:
    """`decode_stripped` is `json.loads` for a line that `str.strip()` has
    trimmed: the same value, or a JSONDecodeError with the same message."""

    @settings(deadline=None, max_examples=500)
    @given(json_lines)
    @example("\ufeff{}")
    @example('{"a":1} {"b":2}')
    @example("[1]\t \r\n[2]")
    @example('{"a":1}x')
    @example("")
    @example("NaN")
    @example("1 2")
    def test_same_result_as_json_loads(self, text):
        line = text.strip()
        try:
            want = json.loads(line)
        except json.JSONDecodeError as exc:
            with pytest.raises(json.JSONDecodeError) as got:
                decode_stripped(line)
            assert (str(got.value), got.value.pos) == (str(exc), exc.pos)
        else:
            # repr tells 1 from 1.0 and True, and shows NaN as itself.
            assert repr(decode_stripped(line)) == repr(want)


# Every non-empty flag set, and the sequence values at the edges of the space.
ALL_FLAGS = [f for f in itertools.starmap(TcpFlags, itertools.product((False, True), repeat=6)) if f.any()]
SEQ_EDGES = (0, 1, 2**31, SEQ_MOD - 1)

seq_numbers = st.one_of(st.sampled_from(SEQ_EDGES), st.integers(0, SEQ_MOD - 1))
payloads = st.integers(0, MAX_PAYLOAD_LEN).map(lambda n: b"\x00" * n)
segments = st.builds(Segment, seq_numbers, seq_numbers, st.sampled_from(ALL_FLAGS), payloads)
actions = st.sampled_from(ActionKind).flatmap(
    lambda kind: st.integers(1, MAX_PAYLOAD_LEN).map(lambda n: LocalAction(kind, b"\x00" * n))
    if kind is ActionKind.SEND
    else st.just(LocalAction(kind))
)
agent_states = st.builds(
    AgentState,
    st.sampled_from(Role),
    st.sampled_from(TcpState),
    seq_numbers,
    seq_numbers,
    st.none() | seq_numbers,
    st.none() | seq_numbers,
)


class TestSerializeInput:
    """`serialize_input` writes what `json` wrote for the reference dict form,
    and `CognitiveInput.from_wire` reads it back. Payloads are zero bytes, as
    `from_wire` rebuilds them from their lengths."""

    @staticmethod
    def check(i):
        text = serialize_input(i)
        assert text == reference_serialize_input(i)
        assert CognitiveInput.from_wire(json.loads(text)) == i

    @settings(deadline=None, max_examples=500)
    @given(agent_states, st.none() | segments, actions)
    def test_same_text_as_the_reference(self, s, r, a):
        assume(r is not None or a.kind is not ActionKind.NONE)
        self.check(CognitiveInput(s, r, a))

    def test_every_role_state_action_and_flag_set(self):
        # Every role x state x action kind, with no segment and with each of
        # the 63 flag sets; the sequence fields and irs/rcv_nxt (None
        # included) cycle through the edge values.
        options = (None,) + SEQ_EDGES
        n = 0
        for role, tcp_state, kind in itertools.product(Role, TcpState, ActionKind):
            a = LocalAction(kind, b"\x00" * (1 + n % MAX_PAYLOAD_LEN) if kind is ActionKind.SEND else None)
            for flags in (None, *ALL_FLAGS):
                n += 1
                edge = SEQ_EDGES[n % 4]
                s = AgentState(role, tcp_state, edge, SEQ_EDGES[-1 - n % 4], options[n % 5], options[(n + 2) % 5])
                r = None if flags is None else Segment(edge, SEQ_EDGES[(n + 1) % 4], flags, b"\x00" * (n % 3))
                if r is None and kind is ActionKind.NONE:
                    continue
                self.check(CognitiveInput(s, r, a))

    def test_largest_lengths(self):
        s = AgentState(Role.SERVER, TcpState.ESTABLISHED, SEQ_MOD - 1, 0, None, None)
        big = b"\x00" * MAX_PAYLOAD_LEN
        self.check(CognitiveInput(s, Segment(SEQ_MOD - 1, SEQ_MOD - 1, FLAGS_PSH_ACK, big), ACTION_NONE))
        self.check(CognitiveInput(s, None, LocalAction(ActionKind.SEND, big)))


class TestPrompting:
    def example_input(self):
        s = AgentState(role=Role.CLIENT, state=TcpState.CLOSED, iss=10, snd_nxt=10)
        return CognitiveInput(s=s, a=LocalAction(ActionKind.OPEN_ACTIVE))

    def test_persona_then_input(self):
        inp = self.example_input()
        assert build_prompt(inp) == [
            {"role": "system", "content": PERSONA},
            {"role": "user", "content": serialize_input(inp)},
        ]

    def test_deterministic_bytes(self):
        inp = self.example_input()
        assert json.dumps(build_prompt(inp)) == json.dumps(build_prompt(inp))


class FakeRemote(RemoteCore):
    """RemoteCore with the transport stubbed out."""

    def __init__(self, outputs):
        super().__init__(RemoteConfig(endpoint="http://example.invalid"))
        self.outputs = list(outputs)

    def _complete(self, messages):
        return self.outputs.pop(0)


class TestRemoteCore:
    def make_input(self):
        s = AgentState(role=Role.CLIENT, state=TcpState.CLOSED, iss=10, snd_nxt=10)
        return CognitiveInput(s=s, a=LocalAction(ActionKind.OPEN_ACTIVE))

    def test_valid_response(self):
        good = serialize_decision(
            CognitiveDecision(TcpState.SYN_SENT, flags_parse("SYN"), 0, AluTask.INIT_SYN)
        )
        core = FakeRemote([good])
        d = core.decide(self.make_input())
        assert d.next_state is TcpState.SYN_SENT

    def test_malformed_then_valid_retries_once(self):
        good = serialize_decision(
            CognitiveDecision(TcpState.SYN_SENT, flags_parse("SYN"), 0, AluTask.INIT_SYN)
        )
        core = FakeRemote(["garbage", good])
        assert core.decide(self.make_input()).next_state is TcpState.SYN_SENT
        assert core.malformed_count == 0

    def test_persistently_malformed_raises_and_counts(self):
        core = FakeRemote(["garbage", "more garbage"])
        with pytest.raises(MalformedDecision):
            core.decide(self.make_input())
        assert core.malformed_count == 1

    @pytest.mark.parametrize(
        "shape",
        [
            lambda text: {"choices": [{"message": {"role": "assistant", "content": text}}]},
            lambda text: {"choices": [{"text": text}]},
            lambda text: {"content": text},
            lambda text: {"text": text},
        ],
        ids=["choices-message", "choices-text", "content", "text"],
    )
    def test_each_reply_shape_carries_the_decision(self, shape):
        decision = CognitiveDecision(TcpState.SYN_SENT, flags_parse("SYN"), 0, AluTask.INIT_SYN)
        core = RemoteCore(RemoteConfig(endpoint="http://example.invalid"))
        core.endpoint.post = lambda payload: json.dumps(shape(serialize_decision(decision))).encode()
        assert core.decide(self.make_input()) == decision
