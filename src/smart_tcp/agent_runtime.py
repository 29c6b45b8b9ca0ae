"""Dual-agent session harness.

One agent step aggregates context, asks the cognitive core for a decision,
runs the arithmetic tool when the decision names a task, assembles the
outbound segment and updates protocol memory. Sessions run two agents over
a lossless, ordered in-memory duplex channel and are graded per phase from
the transcript alone.
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
    OracleCore,
    Verdict,
    oracle_transition,
)
from .tcp_core import (
    ACTION_NONE,
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
    new_state_snapshot: AgentState
    decision: CognitiveDecision
    alu_result: Optional[AluResult]
    input: CognitiveInput


class StepFailure(Exception):
    """Cognitive core produced an unusable decision for this step."""


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
        local action."""
        if (segment is None) == (action is None):
            raise ValueError("a step takes exactly one of a segment or an action")
        # Context aggregation: internal state + trigger (+ last perception
        # for action-driven steps, which the ALU needs for ack computation).
        if segment is not None:
            cinput = CognitiveInput(s=self.state, r=segment, a=ACTION_NONE)
        else:
            cinput = CognitiveInput(s=self.state, r=self.last_received, a=action)

        decision = self.core.decide(cinput)

        if decision.verdict is not Verdict.NORMAL:
            # Anomalous segment: nothing emitted, memory untouched.
            return StepOutcome(None, self.state, decision, None, cinput)

        emitted: Optional[Segment] = None
        alu_result: Optional[AluResult] = None
        if decision.t_task is not None:
            if decision.flags is None:
                raise StepFailure("decision names a task but no flags to emit")
            alu_r = None if decision.t_task is AluTask.INIT_SYN else cinput.r
            try:
                alu_result = alu_execute(decision.t_task, self.state, alu_r)
            except AluError as exc:
                # A schema-valid decision can still name a task the inputs
                # cannot feed, e.g. CALCULATE_ACK before any segment arrived.
                raise StepFailure(str(exc)) from exc
            payload = action.data if action is not None and action.kind is ActionKind.SEND else b""
            emitted = Segment(
                seq=alu_result.seq,
                ack=alu_result.ack if decision.flags.ack else 0,
                flags=decision.flags,
                payload=payload,
            )

        new_state = decision.next_state
        snd_nxt = self.state.snd_nxt
        irs = self.state.irs
        rcv_nxt = self.state.rcv_nxt
        if emitted is not None:
            snd_nxt = seq_add(snd_nxt, segment_consumes(emitted))
        if segment is not None:
            if irs is None and segment.flags.syn:
                irs = segment.seq
            rcv_nxt = seq_add(segment.seq, segment_consumes(segment))
            self.last_received = segment
        # No 2MSL timer in a lossless ordered simulation.
        if new_state is TcpState.TIME_WAIT:
            new_state = TcpState.CLOSED
        self.state = AgentState(
            role=self.role,
            state=new_state,
            iss=self.state.iss,
            snd_nxt=snd_nxt,
            irs=irs,
            rcv_nxt=rcv_nxt,
        )
        return StepOutcome(emitted, self.state, decision, alu_result, cinput)


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


NO_FAULT = FaultSpec()


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


class PhaseResult:
    def __init__(self, passed: bool, reason: str = ""):
        self.passed = passed
        self.reason = reason

    def __repr__(self):
        return "PASS" if self.passed else f"FAIL({self.reason})"

    def to_wire(self):
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
        t = cls(scenario_id="", rng_seed=0)
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                obj = json.loads(line)
                if "trailer" in obj:
                    tr = obj["trailer"]
                    t.scenario_id = tr.get("scenario_id", "")
                    t.rng_seed = int(tr.get("seed", 0))
                    t.client_iss = int(tr.get("client_iss", 0))
                    t.server_iss = int(tr.get("server_iss", 0))
                    t.halt_reason = tr.get("halt_reason", "")
                    for k, v in tr.get("phase_results", {}).items():
                        t.phase_results[k] = PhaseResult(v["passed"], v.get("reason", ""))
                    continue
                t.entries.append(
                    TranscriptEntry(
                        step=int(obj["step"]),
                        direction=Role(obj["direction"]),
                        segment=Segment.from_wire(obj["segment"]),
                    )
                )
        return t


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
    deliveries: List[Tuple[Role, Segment]]
) -> List[Verdict]:
    """Replay a recorded stream against oracle-tracked receivers.

    Returns the receiver-side verdict for each delivery; replay stops
    advancing a receiver after its first non-NORMAL verdict.
    """
    states: Dict[Role, Optional[AgentState]] = {Role.CLIENT: None, Role.SERVER: None}
    halted: Dict[Role, bool] = {Role.CLIENT: False, Role.SERVER: False}
    verdicts: List[Verdict] = []

    def ensure_sender(role: Role, seg: Segment) -> None:
        # Lazily learn each side's ISS from its first segment.
        if states[role] is None:
            init = TcpState.CLOSED if role is Role.CLIENT else TcpState.LISTEN
            states[role] = AgentState(role=role, state=init, iss=seg.seq, snd_nxt=seg.seq)

    for sender, seg in deliveries:
        receiver = Role.SERVER if sender is Role.CLIENT else Role.CLIENT
        ensure_sender(sender, seg)
        s = states[sender]
        # Sender-side bookkeeping: emission advances snd_nxt; a first SYN or
        # FIN implies the corresponding local action's state change.
        new_state = s.state
        if seg.flags.syn and not seg.flags.ack and s.state is TcpState.CLOSED:
            new_state = TcpState.SYN_SENT
        elif seg.flags.fin and s.state is TcpState.ESTABLISHED:
            new_state = TcpState.FIN_WAIT_1
        elif seg.flags.fin and s.state is TcpState.CLOSE_WAIT:
            new_state = TcpState.LAST_ACK
        states[sender] = AgentState(
            role=sender,
            state=new_state,
            iss=s.iss,
            snd_nxt=seq_add(seg.seq, segment_consumes(seg)),
            irs=s.irs,
            rcv_nxt=s.rcv_nxt,
        )

        if states[receiver] is None:
            init = TcpState.LISTEN if receiver is Role.SERVER else TcpState.CLOSED
            states[receiver] = AgentState(
                role=receiver, state=init, iss=0, snd_nxt=0
            )
        if halted[receiver]:
            verdicts.append(Verdict.NORMAL)
            continue
        rs = states[receiver]
        decision = oracle_transition(rs, seg, ACTION_NONE)
        verdicts.append(decision.verdict)
        if decision.verdict is not Verdict.NORMAL:
            halted[receiver] = True
            continue
        irs = rs.irs if rs.irs is not None else (seg.seq if seg.flags.syn else None)
        next_state = decision.next_state
        if next_state is TcpState.TIME_WAIT:
            next_state = TcpState.CLOSED
        states[receiver] = AgentState(
            role=receiver,
            state=next_state,
            iss=rs.iss,
            snd_nxt=rs.snd_nxt,
            irs=irs,
            rcv_nxt=seq_add(seg.seq, segment_consumes(seg)),
        )
    return verdicts


# ---------------------------------------------------------------------------
# Session driver.
# ---------------------------------------------------------------------------


def run_session(
    client_core: CognitiveCore,
    server_core: CognitiveCore,
    scenario: Scenario,
    seed: int,
    client_iss: Optional[int] = None,
    server_iss: Optional[int] = None,
    fault: FaultSpec = NO_FAULT,
) -> SessionTranscript:
    rng = random.Random(seed)
    if client_iss is None:
        client_iss = rng.randint(ISN_MIN, ISN_MAX)
    if server_iss is None:
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
    held: Optional[Tuple[Role, TranscriptEntry]] = None
    emit_index = 0
    step = 0

    def enqueue(sender: Role, outcome: StepOutcome) -> None:
        nonlocal emit_index, held
        seg = outcome.emitted
        if seg is None:
            return
        if fault.kind is FaultKind.FLAG_MUTATE and emit_index == fault.target_index:
            seg = Segment(seq=seg.seq, ack=seg.ack, flags=fault.mutation, payload=seg.payload)
        entry = TranscriptEntry(step=step, direction=sender, segment=seg, outcome=outcome)
        receiver = Role.SERVER if sender is Role.CLIENT else Role.CLIENT
        if fault.kind is FaultKind.REORDER_SWAP and emit_index == fault.target_index:
            held = (receiver, entry)
        else:
            in_flight.append((receiver, entry))
            if held is not None:
                in_flight.append(held)
                held = None
        emit_index += 1

    def action_ready(role: Role, action: LocalAction) -> bool:
        state = agents[role].state.state
        if action.kind in (ActionKind.OPEN_ACTIVE, ActionKind.OPEN_PASSIVE):
            return state is TcpState.CLOSED
        if action.kind is ActionKind.SEND:
            return state is TcpState.ESTABLISHED
        if action.kind is ActionKind.CLOSE:
            return state in (TcpState.ESTABLISHED, TcpState.CLOSE_WAIT)
        return False

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
        if actions and action_ready(*actions[0]):
            role, action = actions.popleft()
            step += 1
            try:
                outcome = agents[role].step(action=action)
            except (MalformedDecision, StepFailure) as exc:
                transcript.halt_reason = f"{role.value} step failure: {exc}"
                break
            enqueue(role, outcome)
            continue
        if held is not None:
            # Nothing else will ever follow; release the held segment.
            in_flight.append(held)
            held = None
            continue
        if actions:
            role, action = actions[0]
            transcript.halt_reason = (
                f"deadlock: {role.value} cannot {action.kind.value} in "
                f"{agents[role].state.state.value}"
            )
            break
        break  # quiescent: session complete

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


def _pct(rate: float) -> str:
    return f"{rate * 100:.2f}%"


def derive_seeds(base_seed: int, n: int) -> List[int]:
    rng = random.Random(base_seed)
    return [rng.getrandbits(32) for _ in range(n)]


def run_trials(
    client_core: CognitiveCore,
    server_core: CognitiveCore,
    n: int,
    base_seed: int,
    scenario: Optional[Scenario] = None,
    session_faults: Optional[Dict[int, FaultSpec]] = None,
) -> TrialReport:
    """Run n independent full-lifecycle sessions with derived seeds.

    session_faults optionally plants a fault in specific sessions (used for
    robustness scenarios and report fixtures). Sessions run on
    min(n, client_core.concurrency, server_core.concurrency) threads;
    transcripts come back in seed order and are the same as a serial run's.
    The first exception in seed order (a TransportError, say) drops the
    sessions not yet started and is re-raised here."""
    if n < 1:
        raise ValueError("need at least one session")
    scenario = scenario or Scenario()
    session_faults = session_faults or {}
    seeds = derive_seeds(base_seed, n)

    def session(i: int) -> SessionTranscript:
        fault = session_faults.get(i, NO_FAULT)
        return run_session(client_core, server_core, scenario, seeds[i], fault=fault)

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
