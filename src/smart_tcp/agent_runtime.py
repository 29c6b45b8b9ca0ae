"""Dual-agent session harness.

One agent step aggregates context, asks the cognitive core for a decision,
runs the arithmetic tool when the decision names a task, assembles the
outbound segment and updates protocol memory. The same step functions,
driven by the oracle, label traces and replay injected faults. Sessions run
two agents over a lossless, ordered in-memory duplex channel and are graded
per phase from the transcript alone.
"""

from __future__ import annotations

import json
import random
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Tuple

from .alu import AluError, AluResult, AluTask, alu_execute
from .cognitive_core import (
    CognitiveCore,
    CognitiveDecision,
    CognitiveInput,
    MalformedDecision,
    Verdict,
    oracle_transition,
)
from .evaluation import _pct
from .tcp_core import (
    ACTION_NONE,
    ACTION_STATES,
    ActionKind,
    AgentState,
    FLAGS_ACK,
    FLAGS_SYN,
    FLAGS_SYN_ACK,
    ISN_MAX,
    ISN_MIN,
    LocalAction,
    MAX_PAYLOAD_LEN,
    Role,
    SEQ_MOD,
    Segment,
    TcpFlags,
    TcpState,
    flags_parse,  # noqa: F401  perfbench/tracer.py wraps this name in each module
    seq_add,
    segment_consumes,
)


@dataclass(frozen=True, slots=True)
class StepOutcome:
    emitted: Optional[Segment]
    decision: CognitiveDecision
    alu_result: Optional[AluResult]


class StepFailure(Exception):
    """Cognitive core produced an unusable decision for this step."""


# ---------------------------------------------------------------------------
# The step: sessions, the labeler and fault replay all advance an endpoint's
# memory through these functions.
# ---------------------------------------------------------------------------


def remember(
    s: AgentState,
    next_state: TcpState,
    sent: Optional[Segment] = None,
    received: Optional[Segment] = None,
) -> AgentState:
    """Memory after moving to next_state, sending `sent` and consuming
    `received`: snd_nxt follows the segment sent, irs is learned from the
    first SYN received and rcv_nxt follows the segment consumed."""
    snd_nxt, irs, rcv_nxt = s.snd_nxt, s.irs, s.rcv_nxt
    if sent is not None:
        snd_nxt = seq_add(sent.seq, segment_consumes(sent))
    if received is not None:
        if irs is None and received.flags.syn:
            irs = received.seq
        rcv_nxt = seq_add(received.seq, segment_consumes(received))
    # No 2MSL timer in a lossless ordered simulation.
    if next_state is TcpState.TIME_WAIT:
        next_state = TcpState.CLOSED
    return AgentState(s.role, next_state, s.iss, snd_nxt, irs, rcv_nxt)


def advance(
    cinput: CognitiveInput, decision: CognitiveDecision
) -> Tuple[AgentState, Optional[Segment], Optional[AluResult]]:
    """Apply a decision: run the ALU task it names, assemble the segment it
    emits and update memory; a non-NORMAL verdict changes nothing. A segment
    trigger is consumed, an action's segment is ALU context only. Raises
    StepFailure for a task without flags or one the input cannot feed."""
    s = cinput.s
    if decision.verdict is not Verdict.NORMAL:
        return s, None, None
    emitted: Optional[Segment] = None
    alu_result: Optional[AluResult] = None
    action = cinput.a
    if decision.t_task is not None:
        if decision.flags is None:
            raise StepFailure("decision names a task but no flags to emit")
        alu_r = None if decision.t_task is AluTask.INIT_SYN else cinput.r
        try:
            alu_result = alu_execute(decision.t_task, s, alu_r)
        except AluError as exc:
            # A schema-valid decision can still name a task the inputs
            # cannot feed, e.g. CALCULATE_ACK before any segment arrived.
            raise StepFailure(str(exc)) from exc
        emitted = Segment(
            seq=alu_result.seq,
            ack=alu_result.ack if decision.flags.ack else 0,
            flags=decision.flags,
            payload=action.data if action.kind is ActionKind.SEND else b"",
        )
    received = cinput.r if action.kind is ActionKind.NONE else None
    return remember(s, decision.next_state, emitted, received), emitted, alu_result


def oracle_step(
    s: AgentState, r: Optional[Segment], a: LocalAction = ACTION_NONE
) -> Tuple[CognitiveInput, CognitiveDecision, AgentState, Optional[Segment]]:
    """One step with the reference oracle as the decision core: the input,
    the oracle's decision, the memory after it and the segment emitted."""
    cinput = CognitiveInput(s, r, a)
    decision = oracle_transition(s, r, a)
    new_state, emitted, _ = advance(cinput, decision)
    return cinput, decision, new_state, emitted


def initial_states(client_iss: int, server_iss: int) -> Dict[Role, AgentState]:
    """Both endpoints before the first segment: the client CLOSED, the
    server LISTENing."""
    return {
        Role.CLIENT: AgentState(Role.CLIENT, TcpState.CLOSED, client_iss, client_iss),
        Role.SERVER: AgentState(Role.SERVER, TcpState.LISTEN, server_iss, server_iss),
    }


def implied_action(s: AgentState, seg: Segment) -> Optional[LocalAction]:
    """The local action, valid in s, whose step sends seg, if there is one:
    OPEN_ACTIVE for a pure SYN, CLOSE for a FIN, SEND for data. Every other
    segment is a reply to a received one."""
    f = seg.flags
    if f.syn and not f.ack and s.state in ACTION_STATES[ActionKind.OPEN_ACTIVE]:
        return LocalAction(ActionKind.OPEN_ACTIVE)
    if f.fin:
        if s.state in ACTION_STATES[ActionKind.CLOSE]:
            return LocalAction(ActionKind.CLOSE)
    elif seg.payload_len and not f.syn and s.state in ACTION_STATES[ActionKind.SEND]:
        return LocalAction(ActionKind.SEND, seg.payload)
    return None


class Agent:
    """One TCP endpoint: cognitive core + ALU + protocol memory."""

    def __init__(self, role: Role, core: CognitiveCore, iss: int):
        self.role = role
        self.core = core
        self.state = AgentState(role=role, state=TcpState.CLOSED, iss=iss, snd_nxt=iss)
        self.last_received: Optional[Segment] = None

    def step(
        self, segment: Optional[Segment] = None, action: Optional[LocalAction] = None
    ) -> StepOutcome:
        """Take one step on exactly one trigger: an arrived segment or a
        local action. An action step carries the last segment received, which
        the ALU needs for ack computation."""
        if (segment is None) == (action is None):
            raise ValueError("a step takes exactly one of a segment or an action")
        if segment is not None:
            cinput = CognitiveInput(s=self.state, r=segment, a=ACTION_NONE)
        else:
            cinput = CognitiveInput(s=self.state, r=self.last_received, a=action)
        decision = self.core.decide(cinput)
        self.state, emitted, alu_result = advance(cinput, decision)
        if segment is not None and decision.verdict is Verdict.NORMAL:
            self.last_received = segment
        return StepOutcome(emitted, decision, alu_result)


# ---------------------------------------------------------------------------
# Scenarios, faults, transcripts.
# ---------------------------------------------------------------------------


class FaultKind(Enum):
    NONE = "NONE"
    REORDER_SWAP = "REORDER_SWAP"
    FLAG_MUTATE = "FLAG_MUTATE"


@dataclass(frozen=True)
class FaultSpec:
    kind: FaultKind = FaultKind.NONE
    target_index: Optional[int] = None
    mutation: Optional[TcpFlags] = None

    def __post_init__(self):
        if self.kind is FaultKind.NONE:
            if self.target_index is not None or self.mutation is not None:
                raise ValueError("NONE fault sets no other fields")
        elif self.target_index is None:
            raise ValueError(f"{self.kind.value} requires a target index")
        if self.kind is FaultKind.FLAG_MUTATE and self.mutation is None:
            raise ValueError("FLAG_MUTATE requires a flag override")


@dataclass(frozen=True)
class Scenario:
    data_script: Tuple[Tuple[Role, int], ...] = ((Role.CLIENT, 512), (Role.SERVER, 256))
    closer: Role = Role.CLIENT
    steps_budget: int = 64
    scenario_id: str = "default"

    def to_wire(self) -> dict:
        return {
            "scenario_id": self.scenario_id,
            "data_script": [
                {"side": side.value, "payload_len": n} for side, n in self.data_script
            ],
            "closer": self.closer.value,
            "steps_budget": self.steps_budget,
        }

    @classmethod
    def from_wire(cls, obj: dict) -> "Scenario":
        """Raises ValueError for anything but a valid scenario object."""
        if not isinstance(obj, dict):
            raise ValueError("a scenario must be a JSON object")
        entries = obj.get("data_script", [])
        if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
            raise ValueError("data_script must be a list of objects")
        data_script = []
        for e in entries:
            n = e.get("payload_len")
            # Each scripted send goes out as one segment, which
            # Segment.from_wire must be able to read back from the transcript;
            # a SEND carries at least one byte.
            if type(n) is not int or not 1 <= n <= MAX_PAYLOAD_LEN:
                raise ValueError(
                    f"scripted payload_len must be an integer in [1, {MAX_PAYLOAD_LEN}]: {n!r}"
                )
            data_script.append((Role(e.get("side")), n))
        steps_budget = obj.get("steps_budget", 64)
        if type(steps_budget) is not int or steps_budget < 0:
            raise ValueError(f"steps_budget must be a non-negative integer: {steps_budget!r}")
        return cls(
            data_script=tuple(data_script),
            closer=Role(obj.get("closer", "CLIENT")),
            steps_budget=steps_budget,
            scenario_id=str(obj.get("scenario_id", "unnamed")),
        )

    @classmethod
    def load(cls, path) -> "Scenario":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_wire(json.load(fh))


@dataclass(frozen=True)
class PhaseResult:
    passed: bool
    reason: str = ""

    def to_wire(self) -> dict:
        return {"passed": self.passed, "reason": self.reason}


@dataclass
class TranscriptEntry:
    step: int
    direction: Role  # sender
    segment: Segment
    outcome: Optional[StepOutcome] = None  # sender's step outcome

    def to_wire(self) -> dict:
        obj = {
            "step": self.step,
            "direction": self.direction.value,
            "segment": self.segment.to_wire(),
        }
        if self.outcome is not None:
            obj["decision"] = self.outcome.decision.to_wire()
            if self.outcome.alu_result is not None:
                obj["alu_result"] = {
                    "seq": self.outcome.alu_result.seq,
                    "ack": self.outcome.alu_result.ack,
                }
            obj["verdict"] = self.outcome.decision.verdict.value
        return obj


@dataclass
class SessionTranscript:
    scenario_id: str
    rng_seed: int
    entries: List[TranscriptEntry] = field(default_factory=list)
    phase_results: Dict[str, PhaseResult] = field(default_factory=dict)
    halt_reason: str = ""
    client_iss: int = 0
    server_iss: int = 0

    def all_passed(self) -> bool:
        return all(p.passed for p in self.phase_results.values())

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for e in self.entries:
                fh.write(json.dumps(e.to_wire(), separators=(",", ":")) + "\n")
            trailer = {
                "trailer": {
                    "scenario_id": self.scenario_id,
                    "seed": self.rng_seed,
                    "client_iss": self.client_iss,
                    "server_iss": self.server_iss,
                    "halt_reason": self.halt_reason,
                    "phase_results": {
                        k: v.to_wire() for k, v in self.phase_results.items()
                    },
                }
            }
            fh.write(json.dumps(trailer, separators=(",", ":")) + "\n")

    @classmethod
    def read(cls, path) -> "SessionTranscript":
        """Read what write() wrote. Raises ValueError, naming the line, for
        anything else; the trailer must be there, since a replay starts from
        its ISSs."""
        t = cls(scenario_id="", rng_seed=0)
        has_trailer = False
        with open(path, "rb") as fh:
            for lineno, line in enumerate(fh, start=1):
                try:
                    obj = json.loads(line.decode("utf-8"))
                    if not isinstance(obj, dict):
                        raise ValueError(f"not a JSON object: {type(obj).__name__}")
                    if "trailer" in obj:
                        t._read_trailer(obj["trailer"])
                        has_trailer = True
                        continue
                    if not isinstance(obj["segment"], dict):
                        raise ValueError("segment is not an object")
                    t.entries.append(
                        TranscriptEntry(
                            step=int(obj["step"]),
                            direction=Role(obj["direction"]),
                            segment=Segment.from_wire(obj["segment"]),
                        )
                    )
                except (KeyError, TypeError, ValueError, OverflowError) as exc:
                    detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
                    raise ValueError(f"{path} line {lineno}: bad transcript line: {detail}") from None
        if not has_trailer:
            raise ValueError(f"{path}: no trailer line")
        return t

    def _read_trailer(self, tr) -> None:
        if not isinstance(tr, dict):
            raise ValueError("trailer is not an object")
        phases = tr.get("phase_results", {})
        if not isinstance(phases, dict) or not all(isinstance(v, dict) for v in phases.values()):
            raise ValueError("phase_results is not an object of objects")
        for key in ("client_iss", "server_iss"):
            iss = tr.get(key)
            # type() rather than isinstance: JSON true/false load as bools.
            if type(iss) is not int or not 0 <= iss < SEQ_MOD:
                raise ValueError(f"{key} must be an integer in [0, 2**32): {iss!r}")
        self.scenario_id = tr.get("scenario_id", "")
        self.rng_seed = int(tr.get("seed", 0))
        self.client_iss = tr["client_iss"]
        self.server_iss = tr["server_iss"]
        self.halt_reason = tr.get("halt_reason", "")
        for k, v in phases.items():
            self.phase_results[k] = PhaseResult(v["passed"], v.get("reason", ""))


def inject_fault(
    deliveries: List[Tuple[Role, Segment]], fault: FaultSpec
) -> List[Tuple[Role, Segment]]:
    """Mutate a recorded delivery stream: swap two adjacent deliveries or
    override one segment's flag set (numbers and payload untouched)."""
    if fault.kind is FaultKind.NONE:
        return list(deliveries)
    i = fault.target_index
    if i is None or not 0 <= i < len(deliveries):
        raise IndexError(f"fault target index out of range: {i}")
    out = list(deliveries)
    if fault.kind is FaultKind.REORDER_SWAP:
        if i + 1 >= len(out):
            raise IndexError("REORDER_SWAP needs a segment after the target")
        out[i], out[i + 1] = out[i + 1], out[i]
    else:  # FLAG_MUTATE
        sender, seg = out[i]
        out[i] = (sender, Segment(seq=seg.seq, ack=seg.ack, flags=fault.mutation, payload=seg.payload))
    return out


def replay_deliveries(
    deliveries: List[Tuple[Role, Segment]], client_iss: int, server_iss: int
) -> List[Verdict]:
    """Replay a recorded stream against oracle-tracked receivers.

    A sender's memory follows the segments the stream shows it sending.
    Returns the receiver-side verdict for each delivery; replay stops
    advancing a receiver after its first non-NORMAL verdict.
    """
    states = initial_states(client_iss, server_iss)
    halted = {Role.CLIENT: False, Role.SERVER: False}
    verdicts: List[Verdict] = []
    for sender, seg in deliveries:
        s = states[sender]
        action = implied_action(s, seg)
        next_state = s.state if action is None else oracle_transition(s, None, action).next_state
        states[sender] = remember(s, next_state, sent=seg)

        receiver = Role.SERVER if sender is Role.CLIENT else Role.CLIENT
        if halted[receiver]:
            verdicts.append(Verdict.NORMAL)
            continue
        rs = states[receiver]
        decision = oracle_transition(rs, seg, ACTION_NONE)
        verdicts.append(decision.verdict)
        if decision.verdict is Verdict.NORMAL:
            states[receiver] = remember(rs, decision.next_state, received=seg)
        else:
            halted[receiver] = True
    return verdicts


# ---------------------------------------------------------------------------
# Session driver.
# ---------------------------------------------------------------------------


def run_session(
    client_core: CognitiveCore, server_core: CognitiveCore, scenario: Scenario, seed: int
) -> SessionTranscript:
    rng = random.Random(seed)
    client_iss = rng.randint(ISN_MIN, ISN_MAX)
    server_iss = rng.randint(ISN_MIN, ISN_MAX)

    agents = {
        Role.CLIENT: Agent(Role.CLIENT, client_core, client_iss),
        Role.SERVER: Agent(Role.SERVER, server_core, server_iss),
    }

    transcript = SessionTranscript(
        scenario_id=scenario.scenario_id,
        rng_seed=seed,
        client_iss=client_iss,
        server_iss=server_iss,
    )

    # Scripted local actions in lifecycle order; each is issued once its
    # agent reaches a state where it is valid.
    actions: deque = deque()
    actions.append((Role.SERVER, LocalAction(ActionKind.OPEN_PASSIVE)))
    actions.append((Role.CLIENT, LocalAction(ActionKind.OPEN_ACTIVE)))
    for side, n in scenario.data_script:
        actions.append((side, LocalAction(ActionKind.SEND, rng.randbytes(n))))
    other = Role.SERVER if scenario.closer is Role.CLIENT else Role.CLIENT
    actions.append((scenario.closer, LocalAction(ActionKind.CLOSE)))
    actions.append((other, LocalAction(ActionKind.CLOSE)))

    in_flight: deque = deque()  # (receiver, TranscriptEntry)
    step = 0

    def enqueue(sender: Role, outcome: StepOutcome) -> None:
        if outcome.emitted is not None:
            receiver = Role.SERVER if sender is Role.CLIENT else Role.CLIENT
            entry = TranscriptEntry(step, sender, outcome.emitted, outcome)
            in_flight.append((receiver, entry))

    while step < scenario.steps_budget:
        if in_flight:
            receiver, entry = in_flight.popleft()
            step += 1
            transcript.entries.append(entry)
            try:
                outcome = agents[receiver].step(segment=entry.segment)
            except (MalformedDecision, StepFailure) as exc:
                transcript.halt_reason = f"{receiver.value} step failure: {exc}"
                break
            if outcome.decision.verdict is not Verdict.NORMAL:
                transcript.halt_reason = (
                    f"{receiver.value} verdict {outcome.decision.verdict.value}"
                )
                break
            enqueue(receiver, outcome)
            continue
        if not actions:
            break  # quiescent: session complete
        role, action = actions[0]
        state = agents[role].state.state
        if state not in ACTION_STATES[action.kind]:
            transcript.halt_reason = (
                f"deadlock: {role.value} cannot {action.kind.value} in {state.value}"
            )
            break
        actions.popleft()
        step += 1
        try:
            outcome = agents[role].step(action=action)
        except (MalformedDecision, StepFailure) as exc:
            transcript.halt_reason = f"{role.value} step failure: {exc}"
            break
        enqueue(role, outcome)

    if step >= scenario.steps_budget:
        transcript.halt_reason = transcript.halt_reason or "step budget exhausted"

    both_closed = all(a.state.state is TcpState.CLOSED for a in agents.values())
    transcript.phase_results = grade_session(transcript, scenario, both_closed)
    return transcript


def grade_session(
    transcript: SessionTranscript, scenario: Scenario, both_closed: bool
) -> Dict[str, PhaseResult]:
    """Phase grading from the delivered-segment stream with independent
    counters; never reads agent internals beyond the final-closure flag,
    which itself is cross-checked against the segment stream."""
    segs = [(e.direction, e.segment) for e in transcript.entries]
    results: Dict[str, PhaseResult] = {}

    # Handshake: SYN / SYN|ACK / ACK with exact ISN+1 acknowledgments.
    hs_fail = None
    if len(segs) < 3:
        hs_fail = "fewer than three segments"
    else:
        (d0, s0), (d1, s1), (d2, s2) = segs[0], segs[1], segs[2]
        if d0 is not Role.CLIENT or s0.flags != FLAGS_SYN or s0.payload_len:
            hs_fail = "first segment is not a client SYN"
        elif d1 is not Role.SERVER or s1.flags != FLAGS_SYN_ACK:
            hs_fail = "second segment is not a server SYN|ACK"
        elif s1.ack != seq_add(s0.seq, 1):
            hs_fail = "SYN|ACK does not acknowledge client ISN+1"
        elif d2 is not Role.CLIENT or s2.flags != FLAGS_ACK or s2.payload_len:
            hs_fail = "third segment is not a pure ACK"
        elif s2.ack != seq_add(s1.seq, 1) or s2.seq != seq_add(s0.seq, 1):
            hs_fail = "handshake ACK numbers wrong"
    results["handshake"] = PhaseResult(hs_fail is None, hs_fail or "")
    if hs_fail is not None:
        results["data_transfer"] = PhaseResult(False, "handshake failed")
        results["termination"] = PhaseResult(False, "handshake failed")
        return results

    # Independent byte counters seeded from the observed ISNs.
    expected = {
        Role.CLIENT: seq_add(segs[0][1].seq, 1),
        Role.SERVER: seq_add(segs[1][1].seq, 1),
    }
    fin_seen: Dict[Role, Optional[int]] = {Role.CLIENT: None, Role.SERVER: None}
    fin_acked = {Role.CLIENT: False, Role.SERVER: False}
    script_left = list(scenario.data_script)
    data_fail = None
    term_fail = None

    for sender, seg in segs[3:]:
        peer = Role.SERVER if sender is Role.CLIENT else Role.CLIENT
        if seg.flags.syn:
            term_fail = term_fail or "unexpected SYN after handshake"
            continue
        if seg.payload_len:
            if fin_seen[sender] is not None:
                data_fail = data_fail or "data after FIN"
            if seg.seq != expected[sender]:
                data_fail = data_fail or "data segment out of sequence"
            if script_left and script_left[0] == (sender, seg.payload_len):
                script_left.pop(0)
            else:
                data_fail = data_fail or "data segment does not match script"
            expected[sender] = seq_add(expected[sender], seg.payload_len)
        if seg.flags.fin:
            if fin_seen[sender] is not None:
                term_fail = term_fail or "duplicate FIN"
            else:
                if seg.seq != expected[sender]:
                    term_fail = term_fail or "FIN out of sequence"
                fin_seen[sender] = seg.seq
                expected[sender] = seq_add(expected[sender], 1)
        if seg.flags.ack:
            # Every ACK must acknowledge exactly what the peer has consumed
            # (expected[] already counts the peer's FIN once seen).
            if seg.ack != expected[peer]:
                msg = "acknowledgment does not match bytes received"
                if fin_seen[peer] is not None:
                    term_fail = term_fail or msg
                else:
                    data_fail = data_fail or msg
            elif fin_seen[peer] is not None:
                fin_acked[peer] = True

    if script_left:
        data_fail = data_fail or "scripted data never transferred"
    if transcript.halt_reason and (data_fail is None and term_fail is None):
        # Session halted abnormally; blame the earliest incomplete phase.
        if script_left or fin_seen[scenario.closer] is None:
            data_fail = data_fail or f"halted: {transcript.halt_reason}"
    results["data_transfer"] = PhaseResult(data_fail is None, data_fail or "")

    if term_fail is None:
        closer = scenario.closer
        other = Role.SERVER if closer is Role.CLIENT else Role.CLIENT
        if fin_seen[closer] is None:
            term_fail = "closer never sent FIN"
        elif fin_seen[other] is None:
            term_fail = "peer never sent FIN"
        elif not fin_acked[closer] or not fin_acked[other]:
            term_fail = "FIN not acknowledged"
        elif not both_closed:
            term_fail = "agents did not both reach CLOSED"
    if transcript.halt_reason == "step budget exhausted" and term_fail is None:
        term_fail = "timeout"
    results["termination"] = PhaseResult(term_fail is None, term_fail or "")
    return results


@dataclass
class TrialReport:
    n: int
    handshake: float
    data_transfer: float
    termination: float
    trial_accuracy: float
    transcripts: List[SessionTranscript] = field(default_factory=list)

    def to_wire(self) -> dict:
        return {
            "sessions": self.n,
            "handshake": _pct(self.handshake),
            "data_transfer": _pct(self.data_transfer),
            "termination": _pct(self.termination),
            "trial_accuracy": _pct(self.trial_accuracy),
        }

    def summary(self) -> str:
        w = self.to_wire()
        return (
            f"sessions={self.n} handshake={w['handshake']} "
            f"data_transfer={w['data_transfer']} termination={w['termination']} "
            f"trial={w['trial_accuracy']}"
        )


def derive_seeds(base_seed: int, n: int) -> List[int]:
    rng = random.Random(base_seed)
    return [rng.getrandbits(32) for _ in range(n)]


def run_trials(
    client_core: CognitiveCore,
    server_core: CognitiveCore,
    n: int,
    base_seed: int,
    scenario: Optional[Scenario] = None,
) -> TrialReport:
    """Run n independent full-lifecycle sessions with derived seeds.

    Sessions run on min(n, client_core.concurrency, server_core.concurrency)
    threads; transcripts come back in seed order and are the same as a
    serial run's. The first exception in seed order (a TransportError, say)
    drops the sessions not yet started and is re-raised here."""
    if n < 1:
        raise ValueError("need at least one session")
    scenario = scenario or Scenario()
    seeds = derive_seeds(base_seed, n)

    def session(i: int) -> SessionTranscript:
        return run_session(client_core, server_core, scenario, seeds[i])

    workers = min(n, client_core.concurrency, server_core.concurrency)
    if workers == 1:
        # A one-thread pool cost the CPU-bound oracle ~10% of its sessions/s.
        transcripts = [session(i) for i in range(n)]
    else:
        # Sessions share nothing but the cores, so I/O-bound cores serve
        # several at once; each transcript still depends on its seed alone.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers) as pool:
            transcripts = list(pool.map(session, range(n)))
    phases = ("handshake", "data_transfer", "termination")
    rates = {
        p: sum(1 for t in transcripts if t.phase_results[p].passed) / n for p in phases
    }
    trial = sum(1 for t in transcripts if t.all_passed()) / n
    return TrialReport(
        n=n,
        handshake=rates["handshake"],
        data_transfer=rates["data_transfer"],
        termination=rates["termination"],
        trial_accuracy=trial,
        transcripts=transcripts,
    )
