"""Pluggable decision core for the TCP agent.

Two implementations of the same contract: a deterministic rule-based oracle
(the reference TCP state machine, also used for labeling and grading) and a
remote chat-model client speaking a strict JSON schema. The runtime only
sees `decide(input) -> decision`.
"""

from __future__ import annotations

import functools
import json
import threading
from enum import Enum
from typing import List, NamedTuple, Optional

from .alu import AluTask, alu_parse_task
from .tcp_core import (
    ACTION_NONE,
    ActionKind,
    AgentState,
    CheckedValue,
    FLAGS_ACK,
    FLAGS_FIN_ACK,
    FLAGS_PSH_ACK,
    FLAGS_SYN,
    FLAGS_SYN_ACK,
    KIND_NONE,
    LocalAction,
    MAX_PAYLOAD_LEN,
    Segment,
    SYNCHRONIZED_STATES,
    TcpFlags,
    TcpState,
    assemble,
    flags_parse,
    parse_state,
    seq_lt,
    zero_payload,
)


class Verdict(Enum):
    NORMAL = "NORMAL"
    ORDER_ERROR = "ORDER_ERROR"
    FLAG_ERROR = "FLAG_ERROR"

    __hash__ = object.__hash__  # see AluTask


# Bound once for the hot path (see tcp_core's docstring).
NORMAL = Verdict.NORMAL
ORDER_ERROR = Verdict.ORDER_ERROR
FLAG_ERROR = Verdict.FLAG_ERROR

_VERDICT_BY_TOKEN = {verdict.value: verdict for verdict in Verdict}


class MalformedDecision(Exception):
    """Model output that does not satisfy the decision schema."""


class TransportError(Exception):
    """Remote endpoint unreachable or persistently failing."""


class _CognitiveInputFields(NamedTuple):
    s: AgentState
    r: Optional[Segment] = None
    a: LocalAction = ACTION_NONE


class CognitiveInput(CheckedValue, _CognitiveInputFields):
    __slots__ = ()

    def __new__(cls, s: AgentState, r: Optional[Segment] = None, a: LocalAction = ACTION_NONE):
        if r is None and a.kind is KIND_NONE:
            raise ValueError("a cognitive step needs a received segment or an action")
        return tuple.__new__(cls, (s, r, a))

    @classmethod
    def from_wire(cls, obj: dict) -> "CognitiveInput":
        """Decode the object that `serialize_input` writes."""
        action = obj.get("action") or {"kind": "NONE", "data_len": 0}
        kind = ActionKind(action["kind"])
        data = None
        if kind is ActionKind.SEND:
            data = zero_payload("data_len", action.get("data_len", 0))
        return cls(
            s=AgentState.from_wire(obj["state"]),
            r=Segment.from_wire(obj["received"]) if obj.get("received") else None,
            a=LocalAction(kind, data),
        )


class CognitiveDecision(NamedTuple):
    next_state: TcpState
    flags: Optional[TcpFlags]
    payload_len: int
    t_task: Optional[AluTask]
    verdict: Verdict = Verdict.NORMAL

    def to_wire(self) -> dict:
        return {
            "next_state": self.next_state.value,
            "flags": self.flags.render() if self.flags is not None else None,
            "payload_len": self.payload_len,
            "t_task": self.t_task.value if self.t_task is not None else None,
            "verdict": self.verdict.value,
        }

    @classmethod
    def from_wire(cls, obj) -> "CognitiveDecision":
        """Decode a decision object; MalformedDecision for anything that does
        not satisfy the schema."""
        if not isinstance(obj, dict):
            raise MalformedDecision("decision must be a JSON object")
        # Five keys, each of them found, make the key set exact; that costs
        # less than comparing obj.keys() with it.
        try:
            if len(obj) != len(_DECISION_KEY_SET):
                raise KeyError
            next_state = obj["next_state"]
            flags = obj["flags"]
            payload_len = obj["payload_len"]
            t_task = obj["t_task"]
            verdict = obj["verdict"]
        except KeyError:
            unknown = set(obj) - _DECISION_KEY_SET
            if unknown:
                raise MalformedDecision(f"unknown keys: {sorted(unknown)}") from None
            raise MalformedDecision(f"missing keys: {sorted(_DECISION_KEY_SET - set(obj))}") from None
        # Only a decision that decodes enters the memo, so every stored key
        # holds str tokens (flags and t_task may be None) and an int
        # payload_len. No other JSON value equals a str or None, but true == 1
        # and 1.0 == 1: a payload_len of another type must not be looked up.
        if type(payload_len) is not int:
            return _decode_decision(next_state, flags, payload_len, t_task, verdict)
        key = (next_state, flags, payload_len, t_task, verdict)
        try:
            decision = _DECISION_MEMO.get(key)
        except TypeError:  # a list or dict token does not hash
            return _decode_decision(next_state, flags, payload_len, t_task, verdict)
        if decision is None:
            decision = _decode_decision(next_state, flags, payload_len, t_task, verdict)
            # A full memo stops growing rather than evicting, so a miss pays
            # no eviction. Threads deciding at once may store an equal
            # decision twice or pass the bound by a few entries, no more.
            if len(_DECISION_MEMO) < DECISION_MEMO_SIZE:
                _DECISION_MEMO[key] = decision
        return decision


DECISION_KEYS = ("next_state", "flags", "payload_len", "t_task", "verdict")
_DECISION_KEY_SET = frozenset(DECISION_KEYS)

# Bound on memoized decisions. Decisions repeat a few dozen token tuples, but
# payload_len alone takes 65,536 values, which must not grow the memo.
DECISION_MEMO_SIZE = 4096
# Decoded decisions by their raw field values. A decision is frozen, so one
# instance serves every record that spells it the same way.
_DECISION_MEMO: dict = {}


def _decode_decision(next_state, flags, payload_len, t_task, verdict) -> CognitiveDecision:
    """Validate the five raw field values of a decision object, in key order."""
    try:
        state = parse_state(next_state)
        reply_flags = flags_parse(flags) if flags is not None else None
        # type() rather than isinstance: JSON true/false load as bools.
        if type(payload_len) is not int or not 0 <= payload_len <= MAX_PAYLOAD_LEN:
            raise ValueError(f"bad payload_len: {payload_len!r}")
        task = alu_parse_task(t_task) if t_task is not None else None
        kind = _VERDICT_BY_TOKEN.get(verdict) if isinstance(verdict, str) else None
        if kind is None:
            # Verdict(token)'s wording: remote transcripts carry it in halt_reason.
            raise ValueError(f"{verdict!r} is not a valid Verdict")
    except ValueError as exc:
        raise MalformedDecision(str(exc)) from None
    return CognitiveDecision(state, reply_flags, payload_len, task, kind)


# Compact JSON, the byte format of prompts, SFT lines, transcripts, traces
# and inject output (serialize_input writes the same format from a
# template). json.dumps with separators builds a new encoder on every call.
encode_compact = json.JSONEncoder(separators=(",", ":")).encode

_raw_decode = json.JSONDecoder().raw_decode
_skip_whitespace = json.decoder.WHITESPACE.match


def check_utf8(line: str) -> None:
    """Raise ValueError for a line read with errors="surrogateescape" whose
    bytes were not UTF-8, which come through as lone surrogates."""
    if not line.isascii():
        try:
            line.encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError("line is not valid UTF-8") from None


def decode_stripped(line: str):
    """`json.loads(line)` for a str that `str.strip()` has already trimmed:
    the same value, or the same JSONDecodeError message ("Unexpected UTF-8
    BOM (decode using utf-8-sig)", "Expecting value", "Extra data", or the
    scanner's own). A trimmed line starts with no JSON whitespace, so this
    skips json.loads's argument checks and its two whitespace scans."""
    if line.startswith("\ufeff"):
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", line, 0)
    obj, end = _raw_decode(line)
    if end != len(line):
        # json.loads reports trailing data after the whitespace that follows
        # the value.
        raise json.JSONDecodeError("Extra data", line, _skip_whitespace(line, end).end())
    return obj


# Equal decisions serialize alike, and a dataset repeats a few dozen of them.
@functools.lru_cache(maxsize=DECISION_MEMO_SIZE)
def serialize_decision(d: CognitiveDecision) -> str:
    return encode_compact(d.to_wire())


def serialize_input(i: CognitiveInput) -> str:
    """`CognitiveInput`'s one encoder, read back by `from_wire`: compact JSON
    written from one template. Roles, states, action kinds and rendered flags
    are ASCII words that JSON writes as they are, and None is null. The
    numbers must be ints, as the library builds them (through int() and
    arithmetic): a bool passes AgentState's range checks, but `json` would
    write it as true where the template writes True."""
    s, r, a = i
    role, state, iss, snd_nxt, irs, rcv_nxt = s
    received = "null" if r is None else (
        f'{{"seq":{r.seq},"ack":{r.ack},"flags":"{r.flags.render()}",'
        f'"payload_len":{len(r.payload)}}}'
    )
    # _value_ is the member's own attribute; .value is a Python-level
    # descriptor in 3.11.
    return (
        f'{{"state":{{"role":"{role._value_}","state":"{state._value_}","iss":{iss},'
        f'"irs":{"null" if irs is None else irs},"snd_nxt":{snd_nxt},'
        f'"rcv_nxt":{"null" if rcv_nxt is None else rcv_nxt}}},'
        f'"received":{received},'
        f'"action":{{"kind":"{a.kind._value_}","data_len":{len(a.data) if a.data else 0}}}}}'
    )


def _extract_json_object(text: str) -> Optional[str]:
    """Return the first balanced {...} block embedded in prose, if any.

    That is the block of the earliest '{' whose own scan, which reads quotes
    and backslash escapes from that '{' on, brings its depth back to zero.
    All scans run in one pass. Scans in the same string state at a position
    agree from there on, so they share a lane, which keeps its running depth
    and, for each depth at which some scan closes, the earliest such scan's
    start. So at most two lanes are open: one outside a string and one
    inside. A backslash escapes the next character for every scan inside a
    string at once, so an escape is a flag on the inside lane, not a third
    lane. An unescaped quote swaps the two lanes; an escaped one takes the
    outside lane into the string that the inside lane stays in, and the two
    merge.
    """
    found = None  # (start, end) of the earliest start that closed so far
    outside = inside = None  # each [depth, {closing depth: start}], or None
    escaped = False  # the inside lane has just read a backslash
    for i, c in enumerate(text):
        if c == "{":
            # A scan starts here, outside any string, and closes when its
            # lane's depth is back where it was before this brace.
            if outside is None:
                outside = [0, {}]
            outside[1].setdefault(outside[0], i)
            outside[0] += 1
        elif c == "}" and outside is not None:
            outside[0] -= 1
            start = outside[1].pop(outside[0], None)
            if start is not None and (found is None or start < found[0]):
                found = (start, i)
            if not outside[1]:
                outside = None  # every scan of the lane has closed
        elif c == '"':
            if escaped:
                inside, outside = _join(outside, inside), None
            else:
                outside, inside = inside, outside
        escaped = c == "\\" and not escaped
    return None if found is None else text[found[0] : found[1] + 1]


def _join(a: Optional[list], b: Optional[list]) -> Optional[list]:
    """The one lane of the scans of lanes `a` and `b`, which have reached the
    same string state; either may be None. The smaller lane's closing depths
    move into the larger's frame: moving the larger would make text with
    many merges take quadratic time."""
    if a is None or b is None:
        return b if a is None else a
    if len(a[1]) < len(b[1]):
        a, b = b, a
    shift = a[0] - b[0]
    closes = a[1]
    for depth, start in b[1].items():
        depth += shift
        if start < closes.get(depth, start + 1):
            closes[depth] = start
    return a


def parse_decision(raw: str) -> CognitiveDecision:
    """Strict schema validation, with one lenient pass over prose-wrapped JSON.
    MalformedDecision for anything else, null or structured content included."""
    if not isinstance(raw, str):
        raise MalformedDecision(f"model output is not text: {type(raw).__name__}")
    # RecursionError: JSON nested past the interpreter's recursion limit, met
    # by json.loads or by the repr in a decode error's message. It is not a
    # ValueError, so output too deep for json.loads skips the lenient pass.
    try:
        # ValueError, not only JSONDecodeError: json.loads also raises it for
        # an integer longer than the interpreter's digit limit.
        try:
            obj = json.loads(raw)
        except ValueError:
            candidate = _extract_json_object(raw)
            if candidate is None:
                raise MalformedDecision("no JSON object found in output") from None
            try:
                obj = json.loads(candidate)
            except ValueError as exc:
                raise MalformedDecision(f"embedded object unparseable: {exc}") from None
        return CognitiveDecision.from_wire(obj)
    except RecursionError:
        raise MalformedDecision("model output nests too deeply") from None


# ---------------------------------------------------------------------------
# Reference oracle: the deterministic TCP state machine.
# ---------------------------------------------------------------------------


def _verdict(s: AgentState, kind: Verdict) -> CognitiveDecision:
    return CognitiveDecision(s.state, None, 0, None, kind)


# A decision is frozen, so equal replies can be one instance that serves
# every step.
@functools.lru_cache(maxsize=None)
def _reply(
    next_state: TcpState, flags: Optional[TcpFlags] = None, t_task: Optional[AluTask] = None
) -> CognitiveDecision:
    return CognitiveDecision(next_state, flags, 0, t_task, Verdict.NORMAL)


_S = TcpState
_CALC_ACK = AluTask.CALCULATE_ACK
_CALC_SEQ_ACK = AluTask.CALCULATE_SEQ_ACK

# The reply to each local action, by (state, action kind). A SEND's reply
# carries the length of its data. Any other pair is not a valid action.
ACTION_TRANSITIONS = {
    (_S.CLOSED, ActionKind.OPEN_ACTIVE): _reply(_S.SYN_SENT, FLAGS_SYN, AluTask.INIT_SYN),
    (_S.CLOSED, ActionKind.OPEN_PASSIVE): _reply(_S.LISTEN),
    (_S.ESTABLISHED, ActionKind.SEND): _reply(_S.ESTABLISHED, FLAGS_PSH_ACK, _CALC_SEQ_ACK),
    (_S.ESTABLISHED, ActionKind.CLOSE): _reply(_S.FIN_WAIT_1, FLAGS_FIN_ACK, _CALC_SEQ_ACK),
    (_S.CLOSE_WAIT, ActionKind.CLOSE): _reply(_S.LAST_ACK, FLAGS_FIN_ACK, _CALC_SEQ_ACK),
}

# The states in which each local action is valid.
ACTION_STATES = {
    kind: frozenset(state for state, k in ACTION_TRANSITIONS if k is kind)
    for kind in ActionKind
    if kind is not ActionKind.NONE
}


def _cells(rows: dict) -> dict:
    """Expand each row whose third key field is None into both of its values."""
    return {
        (state, cls, value): reply
        for (state, cls, acked), reply in rows.items()
        for value in ((False, True) if acked is None else (acked,))
    }


# The reply to each segment that passes the flag and order checks, by
# (state, segment class, whether it acknowledges everything sent). The class
# is the first of SYN|ACK, SYN, FIN, DATA (a payload), ACK and NONE that the
# segment matches. A row with None in that last field holds for both values.
# A segment whose cell is missing is an ORDER_ERROR: in CLOSED and TIME_WAIT
# nothing should arrive, and in CLOSE_WAIT the inbound stream has already
# ended.
TRANSITIONS = _cells({
    (_S.LISTEN, "SYN", False): _reply(_S.SYN_RCVD, FLAGS_SYN_ACK, _CALC_SEQ_ACK),
    (_S.SYN_SENT, "SYN|ACK", True): _reply(_S.ESTABLISHED, FLAGS_ACK, _CALC_ACK),
    (_S.SYN_RCVD, "ACK", True): _reply(_S.ESTABLISHED),
    (_S.ESTABLISHED, "FIN", None): _reply(_S.CLOSE_WAIT, FLAGS_ACK, _CALC_ACK),
    (_S.ESTABLISHED, "DATA", None): _reply(_S.ESTABLISHED, FLAGS_ACK, _CALC_ACK),
    (_S.ESTABLISHED, "ACK", None): _reply(_S.ESTABLISHED),
    # A FIN that also acknowledges ours ends both directions at once.
    (_S.FIN_WAIT_1, "FIN", True): _reply(_S.TIME_WAIT, FLAGS_ACK, _CALC_ACK),
    (_S.FIN_WAIT_1, "FIN", False): _reply(_S.CLOSING, FLAGS_ACK, _CALC_ACK),
    (_S.FIN_WAIT_1, "DATA", None): _reply(_S.FIN_WAIT_1, FLAGS_ACK, _CALC_ACK),
    (_S.FIN_WAIT_1, "ACK", True): _reply(_S.FIN_WAIT_2),
    (_S.FIN_WAIT_1, "ACK", False): _reply(_S.FIN_WAIT_1),
    (_S.FIN_WAIT_2, "FIN", None): _reply(_S.TIME_WAIT, FLAGS_ACK, _CALC_ACK),
    (_S.FIN_WAIT_2, "DATA", None): _reply(_S.FIN_WAIT_2, FLAGS_ACK, _CALC_ACK),
    (_S.FIN_WAIT_2, "ACK", None): _reply(_S.FIN_WAIT_2),
    (_S.CLOSING, "ACK", True): _reply(_S.TIME_WAIT),
    (_S.CLOSE_WAIT, "ACK", None): _reply(_S.CLOSE_WAIT),
    (_S.LAST_ACK, "ACK", True): _reply(_S.CLOSED),
})

# The states that a NORMAL decision may move to from each state: the next
# states of that state's cells in the two tables.
REACHABLE = {
    state: frozenset(
        [reply.next_state for (st, _), reply in ACTION_TRANSITIONS.items() if st is state]
        + [reply.next_state for (st, _, _), reply in TRANSITIONS.items() if st is state]
    )
    for state in TcpState
}

# States whose segments must arrive at rcv_nxt, once it is known.
_SEQ_CHECKED_STATES = SYNCHRONIZED_STATES | {_S.SYN_RCVD}


def oracle_transition(
    s: AgentState, r: Optional[Segment], a: LocalAction
) -> CognitiveDecision:
    """Deterministic reference transition: the full lifecycle state machine.

    Local actions take precedence; a received segment alongside an action is
    context for the ALU, already validated when it arrived.
    """
    kind = a.kind
    if kind is not KIND_NONE:
        reply = ACTION_TRANSITIONS.get((s.state, kind))
        if reply is None:
            raise ValueError(f"action {kind.value} is not valid in state {s.state.value}")
        if a.data is None:
            return reply
        # The decision type checks nothing, and the length is a checked SEND's.
        return assemble(
            CognitiveDecision, (reply.next_state, reply.flags, len(a.data), reply.t_task, NORMAL)
        )
    if r is None:
        raise ValueError("no trigger: neither segment nor action")
    state = s.state
    f = r.flags
    # SYN never goes with FIN or RST, and once synchronized a SYN, or a FIN
    # without ACK, is a violation.
    synchronized = state in SYNCHRONIZED_STATES
    if f.syn and (f.fin or f.rst or synchronized) or synchronized and f.fin and not f.ack:
        return _verdict(s, FLAG_ERROR)
    # Out of sequence, or acknowledges data we never sent.
    if (
        s.rcv_nxt is not None and r.seq != s.rcv_nxt and state in _SEQ_CHECKED_STATES
    ) or (f.ack and seq_lt(s.snd_nxt, r.ack)):
        return _verdict(s, ORDER_ERROR)
    # The segment's class in TRANSITIONS' key.
    if f.syn:
        cls = "SYN|ACK" if f.ack else "SYN"
    elif f.fin:
        cls = "FIN"
    elif r.payload:
        cls = "DATA"
    else:
        cls = "ACK" if f.ack else "NONE"
    reply = TRANSITIONS.get((state, cls, f.ack and r.ack == s.snd_nxt))
    return _verdict(s, ORDER_ERROR) if reply is None else reply


class CognitiveCore:
    """Decision interface: maps (S, R, A) to (S', F, P_L, T_task, verdict)."""

    # How many decide calls one instance can serve at once. Cores that are
    # CPU-bound keep 1: threads would only add switching under the GIL.
    concurrency = 1

    def decide(self, input: CognitiveInput) -> CognitiveDecision:
        raise NotImplementedError

    def close(self) -> None:
        """Release what the core holds open; nothing by default."""


class OracleCore(CognitiveCore):
    def decide(self, input: CognitiveInput) -> CognitiveDecision:
        return oracle_transition(*input)


# ---------------------------------------------------------------------------
# Prompting and the remote-model client.
# ---------------------------------------------------------------------------

PERSONA = (
    "You are the reasoning core of an autonomous TCP endpoint. Given the "
    "endpoint's memory (state), the received segment (received) and the local "
    "action (action), decide the next state, the control flags of any reply, "
    "its payload length, and which arithmetic task the calculator tool must "
    "run. Never compute sequence or acknowledgment numbers yourself. Respond "
    "with exactly one JSON object with keys next_state, flags, payload_len, "
    "t_task, verdict and nothing else. Use verdict ORDER_ERROR or FLAG_ERROR "
    "for segments that violate the protocol, NORMAL otherwise."
)


def build_prompt(input: CognitiveInput) -> List[dict]:
    """The chat messages of one decision: the persona, then the input."""
    return [
        {"role": "system", "content": PERSONA},
        {"role": "user", "content": serialize_input(input)},
    ]


ENDPOINT_ENV = "SMART_TCP_MODEL_ENDPOINT"
KEY_ENV = "SMART_TCP_MODEL_KEY"
# Decisions one RemoteCore keeps in flight, and the size of its connection
# pool. A remote decision is a blocking round trip, so independent sessions
# overlap their waits.
REMOTE_CONCURRENCY = 4
# The model every request names, and its sampling temperature: decisions
# must be reproducible.
MODEL = "smart-tcp"
TEMPERATURE = 0.0
# Socket timeout, in seconds, of each connection to the endpoint.
TIMEOUT = 30.0


class RemoteConfig(NamedTuple):
    endpoint: str
    api_key: Optional[str] = None


class RemoteCore(CognitiveCore):
    """Chat-completion-style client for a trained cognitive model.

    Speaks HTTP/1.1 on plain sockets (TLS for an https endpoint) through
    an `http11.Endpoint`, which keeps its connections alive between
    requests. Malformed output is retried once, then surfaces as
    MalformedDecision so callers can score it as a wrong prediction rather
    than crash.
    """

    concurrency = REMOTE_CONCURRENCY

    def __init__(self, config: RemoteConfig):
        # Imported here, not at module level: no oracle-only command needs
        # sockets or compiles the transport.
        from .http11 import Endpoint

        self.malformed_count = 0
        self.request_count = 0
        self._count_lock = threading.Lock()
        self.endpoint = Endpoint(config.endpoint, config.api_key, TIMEOUT)

    def close(self) -> None:
        """Close the endpoint's idle keep-alive sockets."""
        self.endpoint.close()

    def _complete(self, messages: List[dict]) -> str:
        body = {
            "model": MODEL,
            "messages": messages,
            "temperature": TEMPERATURE,
        }
        try:
            data = json.loads(self.endpoint.post(json.dumps(body).encode()))
        except TransportError:
            raise
        except Exception as exc:
            raise TransportError(f"model endpoint failure: {exc}") from exc
        # Accept common response shapes; parse_decision checks what they carry.
        if isinstance(data, dict):
            choices = data.get("choices")
            if choices:
                first = choices[0] if isinstance(choices, list) else None
                if not isinstance(first, dict):
                    raise TransportError("unrecognized response body from model endpoint")
                msg = first.get("message")
                if isinstance(msg, dict) and "content" in msg:
                    return msg["content"]
                if "text" in first:
                    return first["text"]
            if "content" in data:
                return data["content"]
            if "text" in data:
                return data["text"]
        raise TransportError("unrecognized response body from model endpoint")

    def decide(self, input: CognitiveInput) -> CognitiveDecision:
        messages = build_prompt(input)
        last_error: Optional[Exception] = None
        for _ in range(2):
            with self._count_lock:
                self.request_count += 1
            raw = self._complete(messages)
            try:
                return parse_decision(raw)
            except MalformedDecision as exc:
                last_error = exc
        with self._count_lock:
            self.malformed_count += 1
        raise MalformedDecision(str(last_error))
