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
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Tuple

from .alu import AluTask, alu_parse_task
from .tcp_core import (
    ACTION_NONE,
    ActionKind,
    AgentState,
    FLAGS_ACK,
    FLAGS_FIN_ACK,
    FLAGS_PSH_ACK,
    FLAGS_SYN,
    FLAGS_SYN_ACK,
    LocalAction,
    MAX_PAYLOAD_LEN,
    Segment,
    SYNCHRONIZED_STATES,
    TcpFlags,
    TcpState,
    flags_parse,
    parse_state,
    seq_lt,
)


class Verdict(Enum):
    NORMAL = "NORMAL"
    ORDER_ERROR = "ORDER_ERROR"
    FLAG_ERROR = "FLAG_ERROR"


_VERDICT_BY_TOKEN = {verdict.value: verdict for verdict in Verdict}


class MalformedDecision(Exception):
    """Model output that does not satisfy the decision schema."""


class TransportError(Exception):
    """Remote endpoint unreachable or persistently failing."""


@dataclass(frozen=True, slots=True)
class CognitiveInput:
    s: AgentState
    r: Optional[Segment] = None
    a: LocalAction = ACTION_NONE

    def __post_init__(self):
        if self.r is None and self.a.kind is ActionKind.NONE:
            raise ValueError("a cognitive step needs a received segment or an action")

    def to_wire(self) -> dict:
        return {
            "state": self.s.to_wire(),
            "received": self.r.to_wire() if self.r is not None else None,
            "action": self.a.to_wire(),
        }

    @classmethod
    def from_wire(cls, obj: dict) -> "CognitiveInput":
        action = obj.get("action") or {"kind": "NONE", "data_len": 0}
        kind = ActionKind(action["kind"])
        data = None
        if kind is ActionKind.SEND:
            data = b"\x00" * int(action.get("data_len", 0))
        return cls(
            s=AgentState.from_wire(obj["state"]),
            r=Segment.from_wire(obj["received"]) if obj.get("received") else None,
            a=LocalAction(kind, data),
        )


@dataclass(frozen=True, slots=True)
class CognitiveDecision:
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
        if obj.keys() != _DECISION_KEY_SET:
            unknown = set(obj) - _DECISION_KEY_SET
            if unknown:
                raise MalformedDecision(f"unknown keys: {sorted(unknown)}")
            raise MalformedDecision(f"missing keys: {sorted(_DECISION_KEY_SET - set(obj))}")
        try:
            next_state = parse_state(obj["next_state"])
            flags = flags_parse(obj["flags"]) if obj["flags"] is not None else None
            payload_len = obj["payload_len"]
            # type() rather than isinstance: JSON true/false load as bools.
            if type(payload_len) is not int or not 0 <= payload_len <= MAX_PAYLOAD_LEN:
                raise ValueError(f"bad payload_len: {payload_len!r}")
            t_task = alu_parse_task(obj["t_task"]) if obj["t_task"] is not None else None
            token = obj["verdict"]
            verdict = _VERDICT_BY_TOKEN.get(token) if isinstance(token, str) else None
            if verdict is None:
                # Verdict(token)'s wording: remote transcripts carry it in halt_reason.
                raise ValueError(f"{token!r} is not a valid Verdict")
        except ValueError as exc:
            raise MalformedDecision(str(exc)) from None
        return cls(next_state, flags, payload_len, t_task, verdict)


DECISION_KEYS = ("next_state", "flags", "payload_len", "t_task", "verdict")
_DECISION_KEY_SET = frozenset(DECISION_KEYS)


def serialize_decision(d: CognitiveDecision) -> str:
    return json.dumps(d.to_wire(), separators=(",", ":"))


def serialize_input(i: CognitiveInput) -> str:
    return json.dumps(i.to_wire(), separators=(",", ":"))


def _extract_json_object(text: str) -> Optional[str]:
    """Return the first balanced {...} block embedded in prose, if any."""
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


def parse_decision(raw: str) -> CognitiveDecision:
    """Strict schema validation, with one lenient pass over prose-wrapped JSON.
    MalformedDecision for anything else, null or structured content included."""
    if not isinstance(raw, str):
        raise MalformedDecision(f"model output is not text: {type(raw).__name__}")
    # ValueError, not only JSONDecodeError: json.loads also raises it for an
    # integer longer than the interpreter's digit limit.
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


# ---------------------------------------------------------------------------
# Reference oracle: the deterministic TCP state machine.
# ---------------------------------------------------------------------------


def _verdict(s: AgentState, kind: Verdict) -> CognitiveDecision:
    return CognitiveDecision(
        next_state=s.state, flags=None, payload_len=0, t_task=None, verdict=kind
    )


def _reply(
    next_state: TcpState,
    flags: Optional[TcpFlags],
    payload_len: int = 0,
    t_task: Optional[AluTask] = None,
) -> CognitiveDecision:
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
        # Acknowledges data we never sent.
        return _verdict(s, Verdict.ORDER_ERROR)
    return None


# Every oracle reply that depends on nothing but the transition taken. A
# decision is frozen, so one instance serves every step. _TO_<STATE> moves
# silently; _TO_<STATE>_<FLAGS> also emits a segment.
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
                # Peer's FIN also acknowledges ours.
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
            # The inbound stream already terminated.
            return _verdict(s, Verdict.ORDER_ERROR)
        if f.ack:
            return _TO_CLOSE_WAIT
        return _verdict(s, Verdict.ORDER_ERROR)

    if state is TcpState.LAST_ACK:
        if f.ack and not f.fin and r.payload_len == 0 and r.ack == s.snd_nxt:
            return _TO_CLOSED
        return _verdict(s, Verdict.ORDER_ERROR)

    # CLOSED / TIME_WAIT: nothing should arrive.
    return _verdict(s, Verdict.ORDER_ERROR)


def oracle_transition(
    s: AgentState, r: Optional[Segment], a: LocalAction
) -> CognitiveDecision:
    """Deterministic reference transition: the full lifecycle state machine.

    Local actions take precedence; a received segment alongside an action is
    context for the ALU, already validated when it arrived.
    """
    if a.kind is not ActionKind.NONE:
        return _on_action(s, a)
    if r is None:
        raise ValueError("no trigger: neither segment nor action")
    return _on_segment(s, r)


class CognitiveCore:
    """Decision interface: maps (S, R, A) to (S', F, P_L, T_task, verdict)."""

    name = "base"
    # How many decide calls one instance can serve at once. Cores that are
    # CPU-bound keep 1: threads would only add switching under the GIL.
    concurrency = 1

    def decide(self, input: CognitiveInput) -> CognitiveDecision:
        raise NotImplementedError

    def close(self) -> None:
        """Release what the core holds open; nothing by default."""


class OracleCore(CognitiveCore):
    name = "oracle"

    def decide(self, input: CognitiveInput) -> CognitiveDecision:
        return oracle_transition(input.s, input.r, input.a)


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


@dataclass(frozen=True)
class PromptConfig:
    persona: str = PERSONA
    few_shot: Tuple[Tuple[CognitiveInput, CognitiveDecision], ...] = ()
    fine_tuned: bool = False

    def __post_init__(self):
        if not self.fine_tuned and not self.few_shot:
            raise ValueError("baseline mode requires at least one few-shot pair")


@dataclass(frozen=True)
class PromptBundle:
    system_persona: str
    few_shot_examples: Tuple[Tuple[str, str], ...]
    input_object: str

    def messages(self) -> List[dict]:
        msgs = [{"role": "system", "content": self.system_persona}]
        for inp, out in self.few_shot_examples:
            msgs.append({"role": "user", "content": inp})
            msgs.append({"role": "assistant", "content": out})
        msgs.append({"role": "user", "content": self.input_object})
        return msgs


def build_prompt(input: CognitiveInput, config: PromptConfig) -> PromptBundle:
    shots = tuple(
        (serialize_input(i), serialize_decision(d)) for i, d in config.few_shot
    )
    return PromptBundle(
        system_persona=config.persona,
        few_shot_examples=shots,
        input_object=serialize_input(input),
    )


ENDPOINT_ENV = "SMART_TCP_MODEL_ENDPOINT"
KEY_ENV = "SMART_TCP_MODEL_KEY"
# Decisions one RemoteCore keeps in flight, and the size of its connection
# pool. A remote decision is a blocking round trip, so independent sessions
# overlap their waits.
REMOTE_CONCURRENCY = 4


@dataclass
class RemoteConfig:
    endpoint: str
    model: str = "smart-tcp"
    api_key: Optional[str] = None
    temperature: float = 0.0
    timeout: float = 30.0


class RemoteCore(CognitiveCore):
    """Chat-completion-style client for a trained cognitive model.

    Malformed output is retried once, then surfaces as MalformedDecision so
    callers can score it as a wrong prediction rather than crash.
    """

    name = "remote"
    concurrency = REMOTE_CONCURRENCY

    def __init__(self, config: RemoteConfig, prompt_config: Optional[PromptConfig] = None):
        # Imported here, not at module level: http.client costs ~40 ms to
        # import, which no oracle-only command should pay.
        import http.client
        from urllib.parse import urlsplit

        self.config = config
        self.prompt_config = prompt_config or PromptConfig(fine_tuned=True)
        self.malformed_count = 0
        self.request_count = 0
        self._count_lock = threading.Lock()
        url = urlsplit(config.endpoint)
        try:
            port = url.port
        except ValueError as exc:
            raise TransportError(f"bad model endpoint {config.endpoint!r}: {exc}") from None
        if url.scheme not in ("http", "https") or not url.hostname:
            raise TransportError(f"model endpoint must be an http(s) URL: {config.endpoint!r}")
        kwargs = {"timeout": config.timeout}
        if url.scheme == "https":
            import ssl

            kwargs["context"] = ssl.create_default_context()
            connection = http.client.HTTPSConnection
        else:
            connection = http.client.HTTPConnection
        # Pass the port: given none, http.client takes an IPv6 host's last
        # group for the port.
        self._connect = functools.partial(
            connection, url.hostname, port or connection.default_port, **kwargs
        )
        self._path = (url.path or "/") + (f"?{url.query}" if url.query else "")
        self._headers = {"Content-Type": "application/json"}
        if config.api_key:
            self._headers["Authorization"] = f"Bearer {config.api_key}"
        # Idle keep-alive connections, shared by the threads that call decide.
        # Each thread pops one (or opens one) and pushes it back when done, so
        # no more are ever open than decisions in flight.
        self._idle: List = []
        self._idle_lock = threading.Lock()

    def close(self) -> None:
        """Close the idle keep-alive connections."""
        with self._idle_lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def _post(self, body: bytes) -> bytes:
        """POST `body` to the endpoint and return the whole response body.

        A reused connection that fails before any response arrives is one the
        server closed while it sat idle; the request is resent once on a new
        connection. Any other failure, and a non-2xx status, closes the
        connection and raises.
        """
        with self._idle_lock:
            conn = self._idle.pop() if self._idle else None
        resend = conn is not None
        while True:
            if conn is None:
                conn = self._connect()
            try:
                conn.request("POST", self._path, body, self._headers)
                resp = conn.getresponse()
                break
            except (ConnectionResetError, BrokenPipeError):
                # RemoteDisconnected, an empty reply, is a ConnectionResetError.
                conn.close()
                if not resend:
                    raise
                resend, conn = False, None
            except BaseException:
                conn.close()
                raise
        try:
            data = resp.read()
            if not 200 <= resp.status < 300:
                raise TransportError(f"model endpoint failure: HTTP {resp.status} {resp.reason}")
        except BaseException:
            conn.close()
            raise
        # A reply that ends its connection (will_close) has already closed the
        # socket; the connection object opens a new one when next used.
        with self._idle_lock:
            self._idle.append(conn)
        return data

    def _complete(self, messages: List[dict]) -> str:
        body = {
            "model": self.config.model,
            "messages": messages,
            "temperature": self.config.temperature,
        }
        try:
            data = json.loads(self._post(json.dumps(body).encode()))
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
        bundle = build_prompt(input, self.prompt_config)
        last_error: Optional[Exception] = None
        for _ in range(2):
            with self._count_lock:
                self.request_count += 1
            raw = self._complete(bundle.messages())
            try:
                return parse_decision(raw)
            except MalformedDecision as exc:
                last_error = exc
        with self._count_lock:
            self.malformed_count += 1
        raise MalformedDecision(str(last_error))
