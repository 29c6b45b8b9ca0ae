"""Core TCP domain types and 32-bit modular sequence arithmetic.

Everything here is an immutable value type; the rest of the package builds
on these primitives.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Optional

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


# Canonical flag order for the text rendering.
_FLAG_ORDER = ("SYN", "ACK", "FIN", "RST", "PSH", "URG")


@dataclass(frozen=True, slots=True)
class TcpFlags:
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


# The IPv4 total-length field is 16 bits, so no segment carries more. A
# larger declared length is corrupt input, and from_wire would otherwise
# allocate a filler of that size.
MAX_PAYLOAD_LEN = 65535


@dataclass(frozen=True, slots=True)
class Segment:
    """A wire-level TCP segment as modeled here: no options, window or checksum."""

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
        payload = b""
        if obj.get("payload_b64"):
            payload = base64.b64decode(obj["payload_b64"], validate=True)
        declared = int(obj["payload_len"])
        if not 0 <= declared <= MAX_PAYLOAD_LEN:
            raise ValueError(f"payload_len out of range: {declared}")
        if payload and len(payload) != declared:
            raise ValueError("payload_len does not match payload")
        if not payload and declared:
            # Payload bytes are carried separately in most files; synthesize
            # a deterministic filler of the declared length.
            payload = b"\x00" * declared
        return cls(
            seq=int(obj["seq"]),
            ack=int(obj["ack"]),
            flags=flags_parse(obj["flags"]),
            payload=payload,
        )


def segment_consumes(seg: Segment) -> int:
    """Sequence-space footprint: payload bytes plus one per SYN and FIN."""
    return seg.payload_len + (1 if seg.flags.syn else 0) + (1 if seg.flags.fin else 0)


class ActionKind(Enum):
    OPEN_ACTIVE = "OPEN_ACTIVE"
    OPEN_PASSIVE = "OPEN_PASSIVE"
    SEND = "SEND"
    CLOSE = "CLOSE"
    NONE = "NONE"

    __hash__ = object.__hash__  # see TcpState


@dataclass(frozen=True, slots=True)
class LocalAction:
    kind: ActionKind = ActionKind.NONE
    data: Optional[bytes] = None

    def __post_init__(self):
        if self.kind is ActionKind.SEND:
            if not self.data:
                raise ValueError("SEND action requires non-empty data")
        elif self.data is not None:
            raise ValueError(f"{self.kind.value} action carries no data")

    def to_wire(self) -> dict:
        return {
            "kind": self.kind.value,
            "data_len": len(self.data) if self.data else 0,
        }


ACTION_NONE = LocalAction(ActionKind.NONE)

# The states in which each local action is valid; the oracle raises for an
# action anywhere else.
ACTION_STATES = {
    ActionKind.OPEN_ACTIVE: frozenset({TcpState.CLOSED}),
    ActionKind.OPEN_PASSIVE: frozenset({TcpState.CLOSED}),
    ActionKind.SEND: frozenset({TcpState.ESTABLISHED}),
    ActionKind.CLOSE: frozenset({TcpState.ESTABLISHED, TcpState.CLOSE_WAIT}),
}


@dataclass(frozen=True, slots=True)
class AgentState:
    """The agent's protocol memory: role, state and sequence variables.

    irs/rcv_nxt are None until the peer's ISN is learned.
    """

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

    def to_wire(self) -> dict:
        return {
            "role": self.role.value,
            "state": self.state.value,
            "iss": self.iss,
            "irs": self.irs,
            "snd_nxt": self.snd_nxt,
            "rcv_nxt": self.rcv_nxt,
        }

    @classmethod
    def from_wire(cls, obj: dict) -> "AgentState":
        return cls(
            role=Role(obj["role"]),
            state=parse_state(obj["state"]),
            iss=int(obj["iss"]),
            snd_nxt=int(obj["snd_nxt"]),
            irs=None if obj.get("irs") is None else int(obj["irs"]),
            rcv_nxt=None if obj.get("rcv_nxt") is None else int(obj["rcv_nxt"]),
        )
