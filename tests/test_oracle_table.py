"""The oracle is two tables, `ACTION_TRANSITIONS` and `TRANSITIONS`, behind a
flag check and an order check. It must decide exactly as the per-state
if-chain it replaced, kept below as the reference, on every cell of the
finite key space; and the table must keep the RFC 9293 state diagram
(§3.3.2) and SEGMENT ARRIVES rules (§3.10.7)."""

import itertools
from typing import Optional

import pytest

from smart_tcp.alu import AluTask
from smart_tcp.cognitive_core import (
    ACTION_TRANSITIONS,
    TRANSITIONS,
    CognitiveDecision,
    Verdict,
    oracle_transition,
)
from smart_tcp.tcp_core import (
    ACTION_NONE,
    FLAGS_ACK,
    FLAGS_FIN_ACK,
    FLAGS_PSH_ACK,
    FLAGS_SYN,
    FLAGS_SYN_ACK,
    SEQ_HALF,
    SEQ_MOD,
    SYNCHRONIZED_STATES,
    ActionKind,
    AgentState,
    LocalAction,
    Role,
    Segment,
    TcpFlags,
    TcpState,
    seq_lt,
)

# ---------------------------------------------------------------------------
# The reference: the oracle as it was, one if-chain per state.
# ---------------------------------------------------------------------------


def _verdict(s: AgentState, kind: Verdict) -> CognitiveDecision:
    return CognitiveDecision(s.state, None, 0, None, kind)


def _reply(next_state, flags, payload_len=0, t_task=None) -> CognitiveDecision:
    return CognitiveDecision(next_state, flags, payload_len, t_task, Verdict.NORMAL)


def _check_flags(s: AgentState, r: Segment) -> Optional[CognitiveDecision]:
    f = r.flags
    if f.syn and f.fin:
        return _verdict(s, Verdict.FLAG_ERROR)
    if f.syn and f.rst:
        return _verdict(s, Verdict.FLAG_ERROR)
    if s.state in SYNCHRONIZED_STATES:
        if f.syn:
            return _verdict(s, Verdict.FLAG_ERROR)
        if f.fin and not f.ack:
            return _verdict(s, Verdict.FLAG_ERROR)
    return None


def _check_order(s: AgentState, r: Segment) -> Optional[CognitiveDecision]:
    if s.state in SYNCHRONIZED_STATES:
        if s.rcv_nxt is not None and r.seq != s.rcv_nxt:
            return _verdict(s, Verdict.ORDER_ERROR)
    if r.flags.ack and seq_lt(s.snd_nxt, r.ack):
        return _verdict(s, Verdict.ORDER_ERROR)
    return None


_TO_SYN_SENT_SYN = _reply(TcpState.SYN_SENT, FLAGS_SYN, 0, AluTask.INIT_SYN)
_TO_LISTEN = _reply(TcpState.LISTEN, None)
_TO_FIN_WAIT_1_FIN_ACK = _reply(TcpState.FIN_WAIT_1, FLAGS_FIN_ACK, 0, AluTask.CALCULATE_SEQ_ACK)
_TO_LAST_ACK_FIN_ACK = _reply(TcpState.LAST_ACK, FLAGS_FIN_ACK, 0, AluTask.CALCULATE_SEQ_ACK)
_TO_SYN_RCVD_SYN_ACK = _reply(TcpState.SYN_RCVD, FLAGS_SYN_ACK, 0, AluTask.CALCULATE_SEQ_ACK)
_TO_ESTABLISHED_ACK = _reply(TcpState.ESTABLISHED, FLAGS_ACK, 0, AluTask.CALCULATE_ACK)
_TO_ESTABLISHED = _reply(TcpState.ESTABLISHED, None)
_TO_CLOSE_WAIT_ACK = _reply(TcpState.CLOSE_WAIT, FLAGS_ACK, 0, AluTask.CALCULATE_ACK)
_TO_CLOSE_WAIT = _reply(TcpState.CLOSE_WAIT, None)
_TO_FIN_WAIT_1_ACK = _reply(TcpState.FIN_WAIT_1, FLAGS_ACK, 0, AluTask.CALCULATE_ACK)
_TO_FIN_WAIT_1 = _reply(TcpState.FIN_WAIT_1, None)
_TO_FIN_WAIT_2_ACK = _reply(TcpState.FIN_WAIT_2, FLAGS_ACK, 0, AluTask.CALCULATE_ACK)
_TO_FIN_WAIT_2 = _reply(TcpState.FIN_WAIT_2, None)
_TO_CLOSING_ACK = _reply(TcpState.CLOSING, FLAGS_ACK, 0, AluTask.CALCULATE_ACK)
_TO_TIME_WAIT_ACK = _reply(TcpState.TIME_WAIT, FLAGS_ACK, 0, AluTask.CALCULATE_ACK)
_TO_TIME_WAIT = _reply(TcpState.TIME_WAIT, None)
_TO_CLOSED = _reply(TcpState.CLOSED, None)


def _on_action(s: AgentState, a: LocalAction) -> CognitiveDecision:
    kind = a.kind
    if s.state is TcpState.CLOSED and kind is ActionKind.OPEN_ACTIVE:
        return _TO_SYN_SENT_SYN
    if s.state is TcpState.CLOSED and kind is ActionKind.OPEN_PASSIVE:
        return _TO_LISTEN
    if s.state is TcpState.ESTABLISHED and kind is ActionKind.SEND:
        return _reply(
            TcpState.ESTABLISHED, FLAGS_PSH_ACK, len(a.data or b""), AluTask.CALCULATE_SEQ_ACK
        )
    if s.state is TcpState.ESTABLISHED and kind is ActionKind.CLOSE:
        return _TO_FIN_WAIT_1_FIN_ACK
    if s.state is TcpState.CLOSE_WAIT and kind is ActionKind.CLOSE:
        return _TO_LAST_ACK_FIN_ACK
    raise ValueError(f"action {kind.value} is not valid in state {s.state.value}")


def _on_segment(s: AgentState, r: Segment) -> CognitiveDecision:
    bad = _check_flags(s, r)
    if bad is not None:
        return bad
    bad = _check_order(s, r)
    if bad is not None:
        return bad

    f = r.flags
    state = s.state

    if state is TcpState.LISTEN:
        if f.syn and not f.ack:
            return _TO_SYN_RCVD_SYN_ACK
        return _verdict(s, Verdict.ORDER_ERROR)

    if state is TcpState.SYN_SENT:
        if f.syn and f.ack:
            if r.ack != s.snd_nxt:
                return _verdict(s, Verdict.ORDER_ERROR)
            return _TO_ESTABLISHED_ACK
        return _verdict(s, Verdict.ORDER_ERROR)

    if state is TcpState.SYN_RCVD:
        if f.ack and not f.syn and not f.fin and r.payload_len == 0:
            if r.ack != s.snd_nxt or (s.rcv_nxt is not None and r.seq != s.rcv_nxt):
                return _verdict(s, Verdict.ORDER_ERROR)
            return _TO_ESTABLISHED
        return _verdict(s, Verdict.ORDER_ERROR)

    if state is TcpState.ESTABLISHED:
        if f.fin:
            return _TO_CLOSE_WAIT_ACK
        if r.payload_len > 0:
            return _TO_ESTABLISHED_ACK
        if f.ack:
            return _TO_ESTABLISHED
        return _verdict(s, Verdict.ORDER_ERROR)

    if state is TcpState.FIN_WAIT_1:
        if f.fin:
            if f.ack and r.ack == s.snd_nxt:
                return _TO_TIME_WAIT_ACK
            return _TO_CLOSING_ACK
        if r.payload_len > 0:
            return _TO_FIN_WAIT_1_ACK
        if f.ack:
            if r.ack == s.snd_nxt:
                return _TO_FIN_WAIT_2
            return _TO_FIN_WAIT_1
        return _verdict(s, Verdict.ORDER_ERROR)

    if state is TcpState.FIN_WAIT_2:
        if f.fin:
            return _TO_TIME_WAIT_ACK
        if r.payload_len > 0:
            return _TO_FIN_WAIT_2_ACK
        if f.ack:
            return _TO_FIN_WAIT_2
        return _verdict(s, Verdict.ORDER_ERROR)

    if state is TcpState.CLOSING:
        if f.ack and not f.fin and r.payload_len == 0 and r.ack == s.snd_nxt:
            return _TO_TIME_WAIT
        return _verdict(s, Verdict.ORDER_ERROR)

    if state is TcpState.CLOSE_WAIT:
        if r.payload_len > 0 or f.fin:
            return _verdict(s, Verdict.ORDER_ERROR)
        if f.ack:
            return _TO_CLOSE_WAIT
        return _verdict(s, Verdict.ORDER_ERROR)

    if state is TcpState.LAST_ACK:
        if f.ack and not f.fin and r.payload_len == 0 and r.ack == s.snd_nxt:
            return _TO_CLOSED
        return _verdict(s, Verdict.ORDER_ERROR)

    return _verdict(s, Verdict.ORDER_ERROR)


def reference_transition(s: AgentState, r: Optional[Segment], a: LocalAction) -> CognitiveDecision:
    if a.kind is not ActionKind.NONE:
        return _on_action(s, a)
    if r is None:
        raise ValueError("no trigger: neither segment nor action")
    return _on_segment(s, r)


# ---------------------------------------------------------------------------
# The table against the reference, over the whole finite key space.
# ---------------------------------------------------------------------------

RCV_NXT = 5000
# Every non-empty flag set.
FLAG_SETS = [TcpFlags(*bits) for bits in itertools.product((False, True), repeat=6)][1:]
ACTIONS = [ACTION_NONE] + [
    LocalAction(kind, b"abc" if kind is ActionKind.SEND else None)
    for kind in ActionKind
    if kind is not ActionKind.NONE
]


def outcome(transition, s: AgentState, r: Optional[Segment], a: LocalAction):
    """The decision, or the text of the ValueError raised."""
    try:
        return transition(s, r, a)
    except ValueError as exc:
        return ("ValueError", str(exc))


@pytest.mark.parametrize("state", list(TcpState))
def test_segments_decide_as_the_reference(state):
    cells = 0
    for snd_nxt in (123_456_789, SEQ_MOD - 1):
        acks = [(snd_nxt + d) % SEQ_MOD for d in (0, 1, -1, SEQ_HALF)]
        for rcv_nxt in (RCV_NXT, None):
            s = AgentState(Role.CLIENT, state, 1000, snd_nxt, RCV_NXT - 1, rcv_nxt)
            seqs = (RCV_NXT, RCV_NXT + 1) if rcv_nxt is not None else (RCV_NXT,)
            for flags, payload, seq, ack in itertools.product(FLAG_SETS, (b"", b"x"), seqs, acks):
                r = Segment(seq, ack, flags, payload)
                assert oracle_transition(s, r, ACTION_NONE) == reference_transition(
                    s, r, ACTION_NONE
                ), (s, r)
                cells += 1
    # 2 snd_nxt x (2 seqs at a known rcv_nxt + 1 at an unknown one) x 63
    # flag sets x 2 payloads x 4 acks.
    assert cells == 2 * 3 * 63 * 2 * 4


@pytest.mark.parametrize("state", list(TcpState))
def test_actions_decide_as_the_reference(state):
    s = AgentState(Role.CLIENT, state, 1000, 1001, RCV_NXT - 1, RCV_NXT)
    for r, a in itertools.product((None, Segment(RCV_NXT, 1001, FLAGS_ACK)), ACTIONS):
        expected = outcome(reference_transition, s, r, a)
        assert outcome(oracle_transition, s, r, a) == expected, (state, r, a)
    assert outcome(oracle_transition, s, None, ACTION_NONE) == (
        "ValueError",
        "no trigger: neither segment nor action",
    )


def test_replies_are_shared_instances():
    replies = list(TRANSITIONS.values()) + list(ACTION_TRANSITIONS.values())
    assert len({id(reply) for reply in replies}) == len(set(replies))


# ---------------------------------------------------------------------------
# RFC 9293 over the table.
# ---------------------------------------------------------------------------

REPLIES = list(TRANSITIONS.items()) + list(ACTION_TRANSITIONS.items())


def test_no_syn_is_accepted_in_a_synchronized_state():
    # §3.10.7.4, fourth check: a SYN in a synchronized state is never accepted.
    assert not [
        key for key in TRANSITIONS if key[0] in SYNCHRONIZED_STATES and key[1].startswith("SYN")
    ]
    for state in SYNCHRONIZED_STATES:
        s = AgentState(Role.SERVER, state, 1000, 1001, RCV_NXT - 1, RCV_NXT)
        for flags in FLAG_SETS:
            if flags.syn:
                r = Segment(RCV_NXT, 1001, flags)
                assert oracle_transition(s, r, ACTION_NONE).verdict is Verdict.FLAG_ERROR


def test_every_reply_that_sends_names_a_task():
    for key, reply in REPLIES:
        assert reply.verdict is Verdict.NORMAL, key
        # A task without flags is a step failure, flags without a task send
        # nothing: each reply has both or neither.
        assert (reply.flags is None) == (reply.t_task is None), key


def _edges():
    edges = {(key[0], reply.next_state) for key, reply in REPLIES}
    # The one edge that is not in the table: with no 2MSL timer, `remember`
    # collapses TIME_WAIT into CLOSED as it enters it.
    edges.add((TcpState.TIME_WAIT, TcpState.CLOSED))
    return edges


def _reachable(start: TcpState, edges) -> set:
    seen, todo = {start}, [start]
    while todo:
        here = todo.pop()
        for a, b in edges:
            if a is here and b not in seen:
                seen.add(b)
                todo.append(b)
    return seen


def test_every_state_is_reachable_from_closed_and_back():
    edges = _edges()
    assert _reachable(TcpState.CLOSED, edges) == set(TcpState)
    reversed_edges = {(b, a) for a, b in edges}
    assert _reachable(TcpState.CLOSED, reversed_edges) == set(TcpState)
