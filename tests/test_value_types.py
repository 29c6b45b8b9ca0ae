"""The value-type contract.

Every per-step and per-record value is a tuple: no field can be assigned,
instances have no __dict__, and equal values hash alike. The four types that
check their arguments (`Segment`, `LocalAction`, `AgentState` and
`CognitiveInput`) reject exactly what the frozen dataclasses they replaced
rejected, with the same messages; the reference copies of those dataclasses
below are the old constructors. The other seven types never checked anything.
"""

from dataclasses import dataclass, fields
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from smart_tcp.agent_runtime import StepOutcome
from smart_tcp.alu import AluResult, AluTask
from smart_tcp.cognitive_core import CognitiveDecision, CognitiveInput, Verdict
from smart_tcp.dataset_pipeline import FiveTuple, TraceRecord
from smart_tcp.evaluation import PredictionRecord
from smart_tcp.tcp_core import (
    ACTION_NONE,
    FLAGS_ACK,
    FLAGS_SYN,
    SEQ_MOD,
    ActionKind,
    AgentState,
    LocalAction,
    Role,
    Segment,
    TcpFlags,
    TcpState,
)

# ---------------------------------------------------------------------------
# The constructors as they were, as frozen dataclasses.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class OldSegment:
    seq: int
    ack: int
    flags: TcpFlags
    payload: bytes = b""

    def __post_init__(self):
        if not 0 <= self.seq < SEQ_MOD:
            raise ValueError(f"seq out of range: {self.seq}")
        if not 0 <= self.ack < SEQ_MOD:
            raise ValueError(f"ack out of range: {self.ack}")
        if not self.flags.any():
            raise ValueError("a segment must carry at least one flag")
        # Non-ACK segments carry ack=0 by convention.
        if not self.flags.ack and self.ack != 0:
            object.__setattr__(self, "ack", 0)


@dataclass(frozen=True, slots=True)
class OldLocalAction:
    kind: ActionKind = ActionKind.NONE
    data: Optional[bytes] = None

    def __post_init__(self):
        if self.kind is ActionKind.SEND:
            if not self.data:
                raise ValueError("SEND action requires non-empty data")
        elif self.data is not None:
            raise ValueError(f"{self.kind.value} action carries no data")


@dataclass(frozen=True, slots=True)
class OldAgentState:
    role: Role
    state: TcpState
    iss: int
    snd_nxt: int
    irs: Optional[int] = None
    rcv_nxt: Optional[int] = None

    def __post_init__(self):
        if not 0 <= self.iss < SEQ_MOD or not 0 <= self.snd_nxt < SEQ_MOD:
            raise ValueError(f"sequence variable out of range: iss={self.iss} snd_nxt={self.snd_nxt}")
        if self.irs is not None and not 0 <= self.irs < SEQ_MOD:
            raise ValueError(f"irs out of range: {self.irs}")
        if self.rcv_nxt is not None and not 0 <= self.rcv_nxt < SEQ_MOD:
            raise ValueError(f"rcv_nxt out of range: {self.rcv_nxt}")


@dataclass(frozen=True, slots=True)
class OldCognitiveInput:
    s: AgentState
    r: Optional[Segment] = None
    a: LocalAction = ACTION_NONE

    def __post_init__(self):
        if self.r is None and self.a.kind is ActionKind.NONE:
            raise ValueError("a cognitive step needs a received segment or an action")


def outcome(make, *args):
    """("rejected", message) for a ValueError, else ("built", field values)."""
    try:
        value = make(*args)
    except ValueError as exc:
        return ("rejected", str(exc))
    if isinstance(value, tuple):
        return ("built", tuple(value))
    return ("built", tuple(getattr(value, f.name) for f in fields(value)))


def same_outcome(old, new, *args):
    assert outcome(new, *args) == outcome(old, *args)


# Sequence numbers around and well past both ends of [0, 2^32).
numbers = st.one_of(
    st.integers(0, SEQ_MOD - 1),
    st.sampled_from([-1, 0, SEQ_MOD - 1, SEQ_MOD]),
    st.integers(),
)
flag_sets = st.builds(TcpFlags, *[st.booleans()] * 6)
STATE = AgentState(Role.CLIENT, TcpState.ESTABLISHED, 10, 11, 20, 21)
SEGMENT = Segment(21, 11, FLAGS_ACK, b"xy")
DECISION = CognitiveDecision(TcpState.ESTABLISHED, FLAGS_ACK, 0, AluTask.CALCULATE_ACK, Verdict.NORMAL)

# ---------------------------------------------------------------------------
# Every value type: immutable, slot-only, hashing like its equals.
# ---------------------------------------------------------------------------

# Each factory builds a new, equal instance on every call.
FACTORIES = {
    "TcpFlags": lambda: TcpFlags(syn=True, ack=True),
    "Segment": lambda: Segment(5, 999, FLAGS_SYN, b"a"),
    "LocalAction": lambda: LocalAction(ActionKind.SEND, bytes(3)),
    "AgentState": lambda: AgentState(Role.SERVER, TcpState.SYN_RCVD, 1, 2, 3, 4),
    "AluResult": lambda: AluResult(7, 8),
    "CognitiveInput": lambda: CognitiveInput(STATE, Segment(21, 11, FLAGS_ACK, bytes(2))),
    "CognitiveDecision": lambda: CognitiveDecision(
        TcpState.CLOSE_WAIT, TcpFlags(ack=True), 0, AluTask.CALCULATE_ACK, Verdict.NORMAL
    ),
    "StepOutcome": lambda: StepOutcome(SEGMENT, DECISION),
    "FiveTuple": lambda: FiveTuple("10.0.0.1:1", "10.0.0.2:2"),
    "TraceRecord": lambda: TraceRecord(0.5, FiveTuple("a:1", "b:2"), SEGMENT),
    "PredictionRecord": lambda: PredictionRecord(DECISION, None, (1, 2), None),
}
TYPES = sorted(FACTORIES)


@pytest.mark.parametrize("name", TYPES)
def test_fields_cannot_be_assigned(name):
    value = FACTORIES[name]()
    for field in type(value)._fields:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("name", TYPES)
def test_no_instance_dict(name):
    value = FACTORIES[name]()
    assert not hasattr(value, "__dict__")


@pytest.mark.parametrize("name", TYPES)
def test_equal_values_hash_alike(name):
    a, b = FACTORIES[name](), FACTORIES[name]()
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_a_value_equals_the_plain_tuple_of_its_fields():
    # The documented cost of the idiom: the type is not part of equality.
    assert AluResult(1, 2) == (1, 2) and hash(AluResult(1, 2)) == hash((1, 2))


@settings(deadline=None)
@given(numbers, numbers, flag_sets, st.binary(max_size=3))
def test_equal_segments_hash_alike(seq, ack, flags, payload):
    try:
        a = Segment(seq, ack, flags, payload)
    except ValueError:
        return
    b = Segment(seq, ack, flags, payload)
    assert a == b and hash(a) == hash(b)


# ---------------------------------------------------------------------------
# The checking constructors, against the old ones.
# ---------------------------------------------------------------------------


@settings(deadline=None, max_examples=300)
@given(numbers, numbers, flag_sets, st.binary(max_size=3))
def test_segment_checks_as_before(seq, ack, flags, payload):
    # Also pins the ack of a segment without ACK to 0.
    same_outcome(OldSegment, Segment, seq, ack, flags, payload)


@settings(deadline=None)
@given(st.sampled_from(list(ActionKind)), st.one_of(st.none(), st.binary(max_size=3)))
def test_local_action_checks_as_before(kind, data):
    same_outcome(OldLocalAction, LocalAction, kind, data)


@settings(deadline=None, max_examples=300)
@given(
    st.sampled_from(list(Role)),
    st.sampled_from(list(TcpState)),
    numbers,
    numbers,
    st.one_of(st.none(), numbers),
    st.one_of(st.none(), numbers),
)
def test_agent_state_checks_as_before(role, state, iss, snd_nxt, irs, rcv_nxt):
    same_outcome(OldAgentState, AgentState, role, state, iss, snd_nxt, irs, rcv_nxt)


@settings(deadline=None)
@given(
    st.sampled_from([None, SEGMENT]),
    st.sampled_from(
        [
            ACTION_NONE,
            LocalAction(ActionKind.OPEN_ACTIVE),
            LocalAction(ActionKind.SEND, b"x"),
            LocalAction(ActionKind.CLOSE),
        ]
    ),
)
def test_cognitive_input_checks_as_before(r, a):
    same_outcome(OldCognitiveInput, CognitiveInput, STATE, r, a)


def test_defaults_as_before():
    assert tuple(LocalAction()) == (ActionKind.NONE, None)
    assert Segment(1, 2, FLAGS_ACK).payload == b""
    assert AgentState(Role.CLIENT, TcpState.CLOSED, 1, 1)[4:] == (None, None)
    assert CognitiveInput(STATE, SEGMENT).a is ACTION_NONE
    assert CognitiveDecision(*DECISION[:4]).verdict is Verdict.NORMAL


# ---------------------------------------------------------------------------
# _make and _replace build through the class, so they run its checks.
# ---------------------------------------------------------------------------


def test_replace_keeps_the_ack_of_a_segment_without_ack_zero():
    assert Segment(1, 0, FLAGS_SYN)._replace(ack=7).ack == 0
    assert Segment._make((1, 7, FLAGS_SYN)).ack == 0


@pytest.mark.parametrize(
    "value,change,message",
    [
        (SEGMENT, {"seq": -1}, "seq out of range: -1"),
        (LocalAction(ActionKind.SEND, b"x"), {"data": None}, "SEND action requires non-empty data"),
        (STATE, {"iss": -5}, "sequence variable out of range: iss=-5"),
        (CognitiveInput(STATE, SEGMENT), {"r": None}, "needs a received segment or an action"),
    ],
    ids=["Segment", "LocalAction", "AgentState", "CognitiveInput"],
)
def test_make_and_replace_run_the_checks(value, change, message):
    with pytest.raises(ValueError, match=message):
        value._replace(**change)
    fields_after = [change.get(name, field) for name, field in zip(value._fields, value)]
    with pytest.raises(ValueError, match=message):
        type(value)._make(fields_after)
