"""Core TCP domain types and 32-bit modular sequence arithmetic.

Everything here is an immutable value type; the rest of the package builds
on these primitives. The trace types live here too: `FiveTuple` and
`TraceRecord`, whose `to_wire` is the one trace-line encoder. Session files
(`agent_runtime.SessionTranscript.write`) and test traces are written with
it, and `dataset_pipeline.ingest_trace` reads its lines back. Every wire
form carries a payload's length, never its bytes: `zero_payload` is the one
builder of a payload from a length, for the decoders and the session script.

Value types: the values that every agent step and every trace or prediction
record builds (here `TcpFlags`, `Segment`, `LocalAction` and `AgentState`;
likewise `AluResult`, `CognitiveInput`, `CognitiveDecision`, `StepOutcome`,
`FiveTuple`, `TraceRecord`, `LabeledSample` and `PredictionRecord`) are
`typing.NamedTuple` classes. `==` and `hash` run in C; construction is one
generated Python lambda around `tuple.__new__` (cProfile shows it as
`<string>:1(<lambda>)`), where a dataclass runs an `__init__` that sets
each field. A type that checks its arguments is a subclass of its
NamedTuple with `__slots__ = ()` and does the checks in `__new__`
(`Segment` checks in `__init__`, through `_check_segment`, and zeroes `ack`
in `__new__`). Being tuples has consequences that code using them must keep
in mind:
- a value compares equal to, and hashes like, a plain tuple (or a value of
  another type) with the same fields, so never mix types as keys of one dict
  or set;
- `json` encodes a tuple as a list, so nothing may `json`-encode a value
  directly: a wire form goes through the type's `to_wire`, and
  `cognitive_core.serialize_input` is `CognitiveInput`'s encoder (its state
  and action have no other);
- a checked type lists `CheckedValue` first among its bases, whose `_make`
  calls the class, so `_make` and `_replace` run the same checks as a call;
- values are checked where they enter (the wire decoders and public
  construction), each field once. A reader assembles the records whose
  fields it has checked without running the checks again:
  `Segment.from_wire` builds its segment with `Segment.__new__` alone, and
  `dataset_pipeline.ingest_trace` each `TraceRecord` with `assemble`, one
  `FiveTuple` shared by the records of a direction. The agent step and the
  session assemble every value they derive from checked ones: memory, the
  emitted segment, the step's input and outcome, the ALU's result, the
  oracle's SEND decision and the transcript (`agent_runtime` says why each
  field is checked already).
The same rule holds for every record type, containers too: configuration,
scenarios, grades, reports, `agent_runtime.SessionTranscript` and its
entries, and `dataset_pipeline.Flow` are NamedTuples, built once by the code
that has every field. No module imports `dataclasses`, which would pull
`inspect`, `ast`, `dis` and `tokenize` into every command's start-up.

Hot code reads enum members from module constants bound once beside each
Enum (`CLIENT`, `CLOSED`, `KIND_SEND`, `alu.INIT_SYN`,
`cognitive_core.NORMAL`, ...), never as `Class.MEMBER`. On Python 3.10 and
3.11 `EnumMeta` defines `__getattr__`, so every `Verdict.NORMAL`-style read
runs a Python-level slot hook: ~135-150 ns a read, against ~5 ns for a
module global (Intel Xeon, timeit). 3.12 dropped the hook, and the read
costs ~25-30 ns there. Class-qualified reads cost `trace2sft` ~16 hook
calls per trace line it labels. `tests/test_hot_paths.py` holds the hot
functions to this rule; import-time tables, NamedTuple defaults and error
messages keep the class-qualified spelling.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from typing import NamedTuple, Optional, Tuple

SEQ_MOD = 2**32
SEQ_HALF = 2**31

# High-value random initial sequence numbers.
ISN_MIN = 2**23
ISN_MAX = 2**32 - 1


def seq_add(a: int, n: int) -> int:
    """Add n to sequence number a, wrapping modulo 2^32."""
    if not 0 <= a < SEQ_MOD:
        raise ValueError(f"sequence number out of range: {a}")
    if not 0 <= n < SEQ_MOD:
        raise ValueError(f"increment out of range: {n}")
    return (a + n) % SEQ_MOD


def seq_lt(a: int, b: int) -> bool:
    """Serial-number 'a before b': distance (b-a) mod 2^32 in (0, 2^31).

    A distance of exactly 2^31 compares as not-less in both directions.
    """
    d = (b - a) % SEQ_MOD
    return 0 < d < SEQ_HALF


class TcpState(Enum):
    CLOSED = "CLOSED"
    LISTEN = "LISTEN"
    SYN_SENT = "SYN_SENT"
    SYN_RCVD = "SYN_RCVD"
    ESTABLISHED = "ESTABLISHED"
    FIN_WAIT_1 = "FIN_WAIT_1"
    FIN_WAIT_2 = "FIN_WAIT_2"
    CLOSING = "CLOSING"
    TIME_WAIT = "TIME_WAIT"
    CLOSE_WAIT = "CLOSE_WAIT"
    LAST_ACK = "LAST_ACK"

    # Members are singletons that compare by identity, so the identity hash
    # keeps the hash contract; Enum's own __hash__ runs as Python code on
    # every dict and set lookup.
    __hash__ = object.__hash__


# The states that the step tests (see the module docstring).
CLOSED = TcpState.CLOSED
LISTEN = TcpState.LISTEN
TIME_WAIT = TcpState.TIME_WAIT


# States where the SYN exchange has completed: receiving another SYN here is
# a protocol violation, as is a FIN without ACK.
SYNCHRONIZED_STATES = frozenset(
    {
        TcpState.ESTABLISHED,
        TcpState.FIN_WAIT_1,
        TcpState.FIN_WAIT_2,
        TcpState.CLOSING,
        TcpState.TIME_WAIT,
        TcpState.CLOSE_WAIT,
        TcpState.LAST_ACK,
    }
)


_STATE_BY_TOKEN = {state.value: state for state in TcpState}


def parse_state(token: str) -> TcpState:
    """Exact, case-sensitive match over the state vocabulary. Raises
    ValueError for anything else, including a non-string JSON value."""
    if isinstance(token, str):
        state = _STATE_BY_TOKEN.get(token)
        if state is not None:
            return state
    raise ValueError(f"unknown TCP state token: {token!r}")


class Role(Enum):
    CLIENT = "CLIENT"
    SERVER = "SERVER"

    __hash__ = object.__hash__  # see TcpState


CLIENT = Role.CLIENT
SERVER = Role.SERVER


# Canonical flag order for the text rendering.
_FLAG_ORDER = ("SYN", "ACK", "FIN", "RST", "PSH", "URG")


class TcpFlags(NamedTuple):
    syn: bool = False
    ack: bool = False
    fin: bool = False
    rst: bool = False
    psh: bool = False
    urg: bool = False

    def any(self) -> bool:
        return self.syn or self.ack or self.fin or self.rst or self.psh or self.urg

    # At most 64 flag values exist, so the memo keeps every one of them.
    @lru_cache(maxsize=64)
    def render(self) -> str:
        tokens = [t for t in _FLAG_ORDER if getattr(self, t.lower())]
        if not tokens:
            raise ValueError("cannot render an empty flag set")
        return "|".join(tokens)


# Bound on memoized flag spellings: a trace may spell one flag set in any
# case, order and spacing, and those spellings must not grow the memo.
FLAGS_PARSE_CACHE_SIZE = 256


def flags_parse(text: str) -> TcpFlags:
    """Parse a pipe-separated flag list (any order, case-insensitive).

    Raises ValueError for anything but a valid flag string, including a
    non-string value read from a trace line or a model's JSON.
    """
    # Checked before the memo: an unhashable value would make the cache
    # lookup raise TypeError.
    if not isinstance(text, str):
        raise ValueError(f"flags must be a string, not {type(text).__name__}")
    return _flags_parse_text(text)


@lru_cache(maxsize=FLAGS_PARSE_CACHE_SIZE)
def _flags_parse_text(text: str) -> TcpFlags:
    if not text.strip():
        raise ValueError("empty flag string")
    seen = set()
    for raw in text.split("|"):
        token = raw.strip().upper()
        if token not in _FLAG_ORDER:
            raise ValueError(f"unknown flag token: {raw!r}")
        if token in seen:
            raise ValueError(f"duplicate flag token: {raw!r}")
        seen.add(token)
    return TcpFlags(**{t.lower(): (t in seen) for t in _FLAG_ORDER})


# Common flag sets used throughout the harness.
FLAGS_SYN = TcpFlags(syn=True)
FLAGS_ACK = TcpFlags(ack=True)
FLAGS_SYN_ACK = TcpFlags(syn=True, ack=True)
FLAGS_FIN_ACK = TcpFlags(fin=True, ack=True)
FLAGS_PSH_ACK = TcpFlags(psh=True, ack=True)


def wire_int(key: str, value) -> int:
    """value, read from key of a wire object, if it is an integer. Raises
    ValueError for anything else: type() rather than isinstance, since JSON
    true/false load as bools, and int() would read 1.9 as 1 and " 7 " as 7."""
    if type(value) is not int:
        raise ValueError(f"{key} must be an integer: {value!r}")
    return value


def wire_str(key: str, value) -> str:
    """value, read from key of a wire object, if it is a string. Raises
    ValueError for anything else, which str() would spell as one."""
    if type(value) is not str:
        raise ValueError(f"{key} must be a string: {value!r}")
    return value


# The IPv4 total-length field is 16 bits, so no segment carries more. A
# larger declared length is corrupt input, and zero_payload would otherwise
# allocate a payload of that size.
MAX_PAYLOAD_LEN = 65535


def zero_payload(key: str, value) -> bytes:
    """The payload whose length is the value under key of a wire object:
    that many zero bytes."""
    n = wire_int(key, value)
    if not 0 <= n <= MAX_PAYLOAD_LEN:
        raise ValueError(f"{key} out of range: {n}")
    return bytes(n)


# `assemble(T, fields)` builds a value of type T without T's checks, so it
# must equal `T(*fields)`: only code whose fields are checked already calls it.
assemble = tuple.__new__


class CheckedValue:
    """The first base of each value type that checks its arguments: `_make`,
    and so `_replace`, calls the class and runs its checks."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _SegmentFields(NamedTuple):
    seq: int
    ack: int
    flags: TcpFlags
    payload: bytes = b""


def _check_segment(seq: int, ack: int, flags: TcpFlags) -> None:
    """Segment's range and flag rules. They see the arguments as given, so
    an out-of-range ack is rejected even on a segment whose ack is zeroed."""
    if not 0 <= seq < SEQ_MOD:
        raise ValueError(f"seq out of range: {seq}")
    if not 0 <= ack < SEQ_MOD:
        raise ValueError(f"ack out of range: {ack}")
    if not flags.any():
        raise ValueError("a segment must carry at least one flag")


class Segment(CheckedValue, _SegmentFields):
    """A wire-level TCP segment as modeled here: no options, window or checksum."""

    __slots__ = ()

    def __new__(cls, seq: int, ack: int, flags: TcpFlags, payload: bytes = b""):
        # Non-ACK segments carry ack=0 by convention.
        return tuple.__new__(cls, (seq, ack if flags.ack else 0, flags, payload))

    def __init__(self, seq: int, ack: int, flags: TcpFlags, payload: bytes = b""):
        _check_segment(seq, ack, flags)

    @property
    def payload_len(self) -> int:
        return len(self.payload)

    def to_wire(self) -> dict:
        return {
            "seq": self.seq,
            "ack": self.ack,
            "flags": self.flags.render(),
            "payload_len": self.payload_len,
        }

    @classmethod
    def from_wire(cls, obj: dict) -> "Segment":
        payload = zero_payload("payload_len", obj["payload_len"])
        seq = wire_int("seq", obj["seq"])
        ack = wire_int("ack", obj["ack"])
        flags = flags_parse(obj["flags"])
        _check_segment(seq, ack, flags)
        # __new__ without __init__: the class call would check every field
        # a second time.
        return cls.__new__(cls, seq, ack, flags, payload)


def segment_consumes(seg: Segment) -> int:
    """Sequence-space footprint: payload bytes plus one per SYN and FIN."""
    f = seg.flags
    return len(seg.payload) + f.syn + f.fin


TCP_PROTO = "tcp"


class FiveTuple(NamedTuple):
    """A direction as "addr:port" strings; traces hold TCP alone, so no proto."""

    src: str
    dst: str

    def reversed(self) -> "FiveTuple":
        return FiveTuple(self.dst, self.src)

    def normalized(self) -> Tuple[str, str]:
        return tuple(sorted(self))


class TraceRecord(NamedTuple):
    """One line of a trace: a segment seen on the wire at ts. `to_wire` is
    the one trace-line encoder; `dataset_pipeline.ingest_trace` reads it."""

    ts: float
    five_tuple: FiveTuple
    segment: Segment

    def to_wire(self) -> dict:
        obj = {
            "ts": self.ts,
            "src": self.five_tuple.src,
            "dst": self.five_tuple.dst,
            "proto": TCP_PROTO,
        }
        obj.update(self.segment.to_wire())
        return obj


class ActionKind(Enum):
    OPEN_ACTIVE = "OPEN_ACTIVE"
    OPEN_PASSIVE = "OPEN_PASSIVE"
    SEND = "SEND"
    CLOSE = "CLOSE"
    NONE = "NONE"

    __hash__ = object.__hash__  # see TcpState


KIND_OPEN_ACTIVE = ActionKind.OPEN_ACTIVE
KIND_OPEN_PASSIVE = ActionKind.OPEN_PASSIVE
KIND_SEND = ActionKind.SEND
KIND_CLOSE = ActionKind.CLOSE
KIND_NONE = ActionKind.NONE


class _LocalActionFields(NamedTuple):
    kind: ActionKind = ActionKind.NONE
    data: Optional[bytes] = None


class LocalAction(CheckedValue, _LocalActionFields):
    __slots__ = ()

    def __new__(cls, kind: ActionKind = ActionKind.NONE, data: Optional[bytes] = None):
        if kind is KIND_SEND:
            if not data:
                raise ValueError("SEND action requires non-empty data")
        elif data is not None:
            raise ValueError(f"{kind.value} action carries no data")
        return tuple.__new__(cls, (kind, data))


# Built once: every segment-triggered step takes ACTION_NONE, and the
# session script and the labeler's replay (agent_runtime.implied_action)
# take the other two.
ACTION_NONE = LocalAction(ActionKind.NONE)
ACTION_OPEN_ACTIVE = LocalAction(ActionKind.OPEN_ACTIVE)
ACTION_CLOSE = LocalAction(ActionKind.CLOSE)


class _AgentStateFields(NamedTuple):
    role: Role
    state: TcpState
    iss: int
    snd_nxt: int
    irs: Optional[int] = None
    rcv_nxt: Optional[int] = None


class AgentState(CheckedValue, _AgentStateFields):
    """The agent's protocol memory: role, state and sequence variables.

    irs/rcv_nxt are None until the peer's ISN is learned.
    """

    __slots__ = ()

    def __new__(
        cls,
        role: Role,
        state: TcpState,
        iss: int,
        snd_nxt: int,
        irs: Optional[int] = None,
        rcv_nxt: Optional[int] = None,
    ):
        if not 0 <= iss < SEQ_MOD or not 0 <= snd_nxt < SEQ_MOD:
            raise ValueError(f"sequence variable out of range: iss={iss} snd_nxt={snd_nxt}")
        if irs is not None and not 0 <= irs < SEQ_MOD:
            raise ValueError(f"irs out of range: {irs}")
        if rcv_nxt is not None and not 0 <= rcv_nxt < SEQ_MOD:
            raise ValueError(f"rcv_nxt out of range: {rcv_nxt}")
        return tuple.__new__(cls, (role, state, iss, snd_nxt, irs, rcv_nxt))

    @classmethod
    def from_wire(cls, obj: dict) -> "AgentState":
        return cls(
            role=Role(obj["role"]),
            state=parse_state(obj["state"]),
            iss=wire_int("iss", obj["iss"]),
            snd_nxt=wire_int("snd_nxt", obj["snd_nxt"]),
            irs=None if obj.get("irs") is None else wire_int("irs", obj["irs"]),
            rcv_nxt=None if obj.get("rcv_nxt") is None else wire_int("rcv_nxt", obj["rcv_nxt"]),
        )
