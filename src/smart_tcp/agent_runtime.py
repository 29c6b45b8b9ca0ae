"""Dual-agent session harness.

One agent step aggregates context, asks the cognitive core for a decision,
runs the arithmetic tool when the decision names a task, assembles the
outbound segment and updates protocol memory. Sessions run two agents over a
lossless, ordered in-memory duplex channel and are graded per phase from the
deliveries alone. A session halts at the first step that fails or whose
decision is not NORMAL, whether a delivery or a scripted action began it; one
that goes quiet before both endpoints are CLOSED gets a `quiescent` reason.
A NORMAL decision may move only to a state that the oracle's tables reach
from the current one. `run_session` builds its `SessionTranscript` once the
deliveries and the halt reason are graded. `run_trials` hands each one to a
sink as the sessions finish, in seed order (`simulate` writes its session
files there), and keeps only the pass counts: on one thread or on several,
a trial's memory does not grow with its session count.
`SessionTranscript.write` records a session as a trace (`trace_records`,
written through `tcp_core.TraceRecord.to_wire`) with a trailer line, so
`trace2sft` and `inject` read a session file as they read any other trace.

Two replays walk a recorded stream through a pair of oracle endpoints, and
they keep different contracts. The labeler (`reconstruct_labels` in
`dataset_pipeline`) runs the step with the oracle: memory follows the
oracle's own replies, and anomalous inbound segments are ignored.
`replay_deliveries` (the `inject` command) judges each delivery when it
arrives: memory follows the recorded stream, and a receiver stops at its
first anomaly. `remember` is the memory update that all three share.
"""

from __future__ import annotations

import json
import random
from collections import deque
from functools import lru_cache
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from .alu import AluError, INIT_SYN, alu_execute
from .cognitive_core import (
    ACTION_STATES,
    CognitiveCore,
    CognitiveDecision,
    CognitiveInput,
    MalformedDecision,
    NORMAL,
    REACHABLE,
    Verdict,
    encode_compact,
    oracle_transition,
)
from .evaluation import pct
from .tcp_core import (
    ACTION_CLOSE,
    ACTION_NONE,
    ACTION_OPEN_ACTIVE,
    AgentState,
    CLIENT,
    CLOSED,
    FLAGS_ACK,
    FLAGS_SYN,
    FLAGS_SYN_ACK,
    FiveTuple,
    ISN_MAX,
    ISN_MIN,
    KIND_CLOSE,
    KIND_NONE,
    KIND_OPEN_ACTIVE,
    KIND_OPEN_PASSIVE,
    KIND_SEND,
    LISTEN,
    LocalAction,
    MAX_PAYLOAD_LEN,
    Role,
    SEQ_MOD,
    SERVER,
    Segment,
    TIME_WAIT,
    TcpState,
    TraceRecord,
    assemble,
    flags_parse,  # noqa: F401  perfbench/tracer.py wraps these names in each module
    seq_add,  # noqa: F401
    segment_consumes,
    wire_str,
    zero_payload,
)


class StepOutcome(NamedTuple):
    emitted: Optional[Segment]
    decision: CognitiveDecision


class StepFailure(Exception):
    """Cognitive core produced an unusable decision for this step."""


# ---------------------------------------------------------------------------
# The step: sessions and the labeler advance an endpoint's memory through
# `advance`; fault replay calls `oracle_transition` and `remember` directly.
# ---------------------------------------------------------------------------

# The step and the session build every value they derive with
# `tcp_core.assemble`, skipping their types' checks, because each field is
# checked already:
# - the memory after a step (`remember`): its sequence numbers are reduced
#   % SEQ_MOD, irs is a checked segment's seq, and the rest is checked memory;
# - the emitted Segment (`advance`): the ALU's numbers come from checked
#   memory and seq_add, the flags are non-empty, and the payload is a checked
#   action's data;
# - a CognitiveInput (`Agent.step`, `oracle_step`): it checks only that a step
#   has a trigger. Agent.step rejects a step without one itself (ACTION_NONE
#   is no action), and oracle_transition rejects an oracle_step without one;
# - StepOutcome, TranscriptEntry and SessionTranscript check nothing, and
#   neither do `alu.AluResult` and the oracle's SEND decision: assembling
#   them skips only their generated Python constructors.
# So `assemble(T, fields)` equals `T(*fields)` here; the checks that a
# decision can fail are StepFailures in `advance`. Values built from outside
# input take the checked constructors, or the checks of the reader that
# assembles them (`dataset_pipeline.ingest_trace` and `reconstruct_labels`).


def remember(
    s: AgentState,
    next_state: TcpState,
    sent: Optional[Segment] = None,
    received: Optional[Segment] = None,
) -> AgentState:
    """Memory after moving to next_state, sending `sent` and consuming
    `received`: snd_nxt follows the segment sent, irs is learned from the
    first SYN received and rcv_nxt follows the segment consumed."""
    role, _, iss, snd_nxt, irs, rcv_nxt = s
    # A segment's seq is in range and a footprint is never negative, so the
    # sums need seq_add's wrap but not its checks.
    if sent is not None:
        snd_nxt = (sent.seq + segment_consumes(sent)) % SEQ_MOD
    if received is not None:
        if irs is None and received.flags.syn:
            irs = received.seq
        rcv_nxt = (received.seq + segment_consumes(received)) % SEQ_MOD
    # No 2MSL timer in a lossless ordered simulation.
    if next_state is TIME_WAIT:
        next_state = CLOSED
    return assemble(AgentState, (role, next_state, iss, snd_nxt, irs, rcv_nxt))


def advance(
    cinput: CognitiveInput, decision: CognitiveDecision
) -> Tuple[AgentState, Optional[Segment]]:
    """Apply a decision: return the memory after it and the segment it emits,
    whose seq (and ack, under ACK) the ALU task it names computes; a non-NORMAL
    verdict changes nothing. A segment trigger is consumed, an action's segment
    is ALU context only. Raises StepFailure for a next_state that no transition
    reaches from the current state, a task without flags or with empty ones,
    flags without a task, a task the input cannot feed, and a payload_len other
    than the length of the payload sent (the action's data for a SEND's
    segment, and 0 for any other segment or none)."""
    s, r, action = cinput
    next_state, flags, payload_len, t_task, verdict = decision
    if verdict is not NORMAL:
        return s, None
    if next_state not in REACHABLE[s.state]:
        raise StepFailure(f"next_state {next_state.value} is not reachable from {s.state.value}")
    emitted: Optional[Segment] = None
    sent_len = 0
    if t_task is not None:
        if flags is None:
            raise StepFailure("decision names a task but no flags to emit")
        if not flags.any():
            raise StepFailure("decision names a task but its flags are empty")
        try:
            seq, ack = alu_execute(t_task, s, None if t_task is INIT_SYN else r)
        except AluError as exc:
            # A schema-valid decision can still name a task the inputs
            # cannot feed, e.g. CALCULATE_ACK before any segment arrived.
            raise StepFailure(str(exc)) from exc
        payload = action.data if action.kind is KIND_SEND else b""
        sent_len = len(payload)
        # Segment's own rule: a segment without ACK carries ack 0.
        emitted = assemble(Segment, (seq, ack if flags.ack else 0, flags, payload))
    elif flags is not None:
        raise StepFailure("decision names flags but no task to run")
    if payload_len != sent_len:
        raise StepFailure(f"decision payload_len {payload_len} but the step sends {sent_len} bytes")
    received = r if action.kind is KIND_NONE else None
    return remember(s, next_state, emitted, received), emitted


def oracle_step(
    s: AgentState, r: Optional[Segment], a: LocalAction = ACTION_NONE
) -> Tuple[CognitiveInput, CognitiveDecision, AgentState, Optional[Segment]]:
    """One step with the reference oracle as the decision core: the input,
    the oracle's decision, the memory after it and the segment emitted."""
    cinput = assemble(CognitiveInput, (s, r, a))
    decision = oracle_transition(s, r, a)
    new_state, emitted = advance(cinput, decision)
    return cinput, decision, new_state, emitted


def initial_states(client_iss: int, server_iss: int) -> Dict[Role, AgentState]:
    """Both endpoints before the first segment: the client CLOSED, the
    server LISTENing."""
    return {
        CLIENT: AgentState(CLIENT, CLOSED, client_iss, client_iss),
        SERVER: AgentState(SERVER, LISTEN, server_iss, server_iss),
    }


def implied_action(s: AgentState, seg: Segment) -> Optional[LocalAction]:
    """The local action, valid in s, whose step sends seg, if there is one:
    OPEN_ACTIVE for a pure SYN, CLOSE for a FIN, SEND for data. Every other
    segment is a reply to a received one."""
    f = seg.flags
    if f.syn and not f.ack and s.state in ACTION_STATES[KIND_OPEN_ACTIVE]:
        return ACTION_OPEN_ACTIVE
    if f.fin:
        if s.state in ACTION_STATES[KIND_CLOSE]:
            return ACTION_CLOSE
    elif seg.payload_len and not f.syn and s.state in ACTION_STATES[KIND_SEND]:
        return LocalAction(KIND_SEND, seg.payload)
    return None


class Agent:
    """One TCP endpoint: cognitive core + ALU + protocol memory."""

    def __init__(self, role: Role, core: CognitiveCore, iss: int):
        self.core = core
        self.state = AgentState(role=role, state=CLOSED, iss=iss, snd_nxt=iss)
        self.last_received: Optional[Segment] = None

    def step(
        self, segment: Optional[Segment] = None, action: Optional[LocalAction] = None
    ) -> StepOutcome:
        """Take one step on exactly one trigger: an arrived segment or a
        local action, which ACTION_NONE is not. An action step carries the
        last segment received, which the ALU needs for ack computation."""
        if (segment is None) == (action is None or action.kind is KIND_NONE):
            raise ValueError("a step takes exactly one of a segment or an action")
        if segment is not None:
            cinput = assemble(CognitiveInput, (self.state, segment, ACTION_NONE))
        else:
            cinput = assemble(CognitiveInput, (self.state, self.last_received, action))
        decision = self.core.decide(cinput)
        self.state, emitted = advance(cinput, decision)
        if segment is not None and decision.verdict is NORMAL:
            self.last_received = segment
        return assemble(StepOutcome, (emitted, decision))


# ---------------------------------------------------------------------------
# Scenarios, transcripts and fault replay.
# ---------------------------------------------------------------------------


class Scenario(NamedTuple):
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
        """Raises ValueError for anything but a valid scenario object. A
        missing key takes its value from `Scenario()`."""
        if not isinstance(obj, dict):
            raise ValueError("a scenario must be a JSON object")
        if unknown := obj.keys() - cls._fields:
            raise ValueError(f"unknown scenario keys: {sorted(unknown)}")
        obj = {**cls().to_wire(), **obj}
        entries = obj["data_script"]
        if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
            raise ValueError("data_script must be a list of objects")
        data_script = []
        for e in entries:
            if unknown := e.keys() - {"side", "payload_len"}:
                raise ValueError(f"unknown data_script keys: {sorted(unknown)}")
            n = e.get("payload_len")
            # Each scripted send goes out as one segment, so zero_payload's
            # bound holds; a SEND carries at least one byte.
            if type(n) is not int or not 1 <= n <= MAX_PAYLOAD_LEN:
                raise ValueError(
                    f"scripted payload_len must be an integer in [1, {MAX_PAYLOAD_LEN}]: {n!r}"
                )
            data_script.append((Role(e.get("side")), n))
        steps_budget = obj["steps_budget"]
        if type(steps_budget) is not int or steps_budget < 0:
            raise ValueError(f"steps_budget must be a non-negative integer: {steps_budget!r}")
        return cls(
            data_script=tuple(data_script),
            closer=Role(obj["closer"]),
            steps_budget=steps_budget,
            scenario_id=wire_str("scenario_id", obj["scenario_id"]),
        )

    @classmethod
    def load(cls, path) -> "Scenario":
        """Raises ValueError for a file that does not hold a valid scenario."""
        with open(path, "r", encoding="utf-8") as fh:
            try:
                return cls.from_wire(json.load(fh))
            except RecursionError:  # JSON nested past the recursion limit
                raise ValueError("JSON nests too deeply") from None


class PhaseResult(NamedTuple):
    passed: bool
    reason: str = ""

    def to_wire(self) -> dict:
        return {"passed": self.passed, "reason": self.reason}


class TranscriptEntry(NamedTuple):
    """A segment that its sender emitted at `step`, with the decision that emitted it."""

    step: int
    direction: Role  # sender
    segment: Segment
    decision: CognitiveDecision


class SessionTranscript(NamedTuple):
    """One session's deliveries, grades and halt reason, as `run_session`
    returns them once the session has ended."""

    scenario_id: str
    rng_seed: int
    entries: List[TranscriptEntry]
    phase_results: Dict[str, PhaseResult]
    halt_reason: str
    client_iss: int
    server_iss: int

    def all_passed(self) -> bool:
        return all(p.passed for p in self.phase_results.values())

    def trace_records(self) -> List[TraceRecord]:
        """The deliveries as a trace: the client speaks from 10.0.0.1:40000
        to the server at 10.0.0.2:80, and delivery i is seen at i ms."""
        client = FiveTuple("10.0.0.1:40000", "10.0.0.2:80")
        server = client.reversed()
        return [
            TraceRecord(i * 0.001, client if e.direction is CLIENT else server, e.segment)
            for i, e in enumerate(self.entries)
        ]

    def write(self, path) -> None:
        """A session file: one trace line per delivery, with the step and
        the sender's decision as extra keys that `ingest_trace` ignores, then
        a trailer line with the scenario id, seed, halt reason and grades."""
        with open(path, "w", encoding="utf-8") as fh:
            for e, rec in zip(self.entries, self.trace_records()):
                obj = rec.to_wire()
                obj["step"] = e.step
                obj["decision"] = e.decision.to_wire()
                fh.write(encode_compact(obj) + "\n")
            trailer = {
                "trailer": {
                    "scenario_id": self.scenario_id,
                    "seed": self.rng_seed,
                    "halt_reason": self.halt_reason,
                    "phase_results": {
                        k: v.to_wire() for k, v in self.phase_results.items()
                    },
                }
            }
            fh.write(encode_compact(trailer) + "\n")


def replay_deliveries(
    deliveries: List[Tuple[Role, Segment]], client_iss: int, server_iss: int
) -> List[Verdict]:
    """Replay a recorded stream against oracle-tracked receivers.

    A sender's memory follows the segments the stream shows it sending.
    Returns the receiver-side verdict for each delivery; replay stops
    advancing a receiver after its first non-NORMAL verdict.
    """
    states = initial_states(client_iss, server_iss)
    halted = {CLIENT: False, SERVER: False}
    verdicts: List[Verdict] = []
    for sender, seg in deliveries:
        s = states[sender]
        action = implied_action(s, seg)
        next_state = s.state if action is None else oracle_transition(s, None, action).next_state
        states[sender] = remember(s, next_state, sent=seg)

        receiver = SERVER if sender is CLIENT else CLIENT
        if halted[receiver]:
            verdicts.append(NORMAL)
            continue
        rs = states[receiver]
        decision = oracle_transition(rs, seg, ACTION_NONE)
        verdicts.append(decision.verdict)
        if decision.verdict is NORMAL:
            states[receiver] = remember(rs, decision.next_state, received=seg)
        else:
            halted[receiver] = True
    return verdicts


# ---------------------------------------------------------------------------
# Session driver.
# ---------------------------------------------------------------------------


@lru_cache
def _scripted_actions(scenario: Scenario) -> Tuple[Tuple[Role, LocalAction], ...]:
    """The scenario's local actions in lifecycle order, each issued once its
    agent reaches a state where it is valid. Built once per scenario, and
    shared by equal ones: a scenario is checked where it enters
    (`Scenario.from_wire`), and an action is immutable."""
    actions = [(SERVER, LocalAction(KIND_OPEN_PASSIVE)), (CLIENT, ACTION_OPEN_ACTIVE)]
    for side, n in scenario.data_script:
        actions.append((side, LocalAction(KIND_SEND, zero_payload("payload_len", n))))
    other = SERVER if scenario.closer is CLIENT else CLIENT
    actions.append((scenario.closer, ACTION_CLOSE))
    actions.append((other, ACTION_CLOSE))
    return tuple(actions)


def run_session(
    client_core: CognitiveCore, server_core: CognitiveCore, scenario: Scenario, seed: int
) -> SessionTranscript:
    rng = random.Random(seed)
    client_iss = rng.randint(ISN_MIN, ISN_MAX)
    server_iss = rng.randint(ISN_MIN, ISN_MAX)
    client = Agent(CLIENT, client_core, client_iss)
    server = Agent(SERVER, server_core, server_iss)
    actions = deque(_scripted_actions(scenario))
    in_flight: deque = deque()  # TranscriptEntry; the sender's peer receives it
    entries: List[TranscriptEntry] = []
    halt_reason = ""
    step = 0

    while step < scenario.steps_budget:
        # The trigger: the oldest delivery in flight, which the sender's peer
        # receives, or else the next scripted action.
        if in_flight:
            entry = in_flight.popleft()
            entries.append(entry)
            role = SERVER if entry.direction is CLIENT else CLIENT
            segment, action = entry.segment, None
        elif actions:
            role, action = actions[0]
            state = (client if role is CLIENT else server).state.state
            if state not in ACTION_STATES[action.kind]:
                halt_reason = f"deadlock: {role.value} cannot {action.kind.value} in {state.value}"
                break
            actions.popleft()
            segment = None
        else:
            break  # quiescent: session complete
        step += 1
        try:
            emitted, decision = (client if role is CLIENT else server).step(segment, action)
        except (MalformedDecision, StepFailure) as exc:
            halt_reason = f"{role.value} step failure: {exc}"
            break
        verdict = decision.verdict
        if verdict is not NORMAL:
            halt_reason = f"{role.value} verdict {verdict.value}"
            break
        if emitted is not None:
            in_flight.append(assemble(TranscriptEntry, (step, role, emitted, decision)))
    else:
        # The budget ran out; a session whose last step used it up is done.
        if in_flight or actions:
            halt_reason = "step budget exhausted"

    client_state, server_state = client.state.state, server.state.state
    both_closed = client_state is CLOSED and server_state is CLOSED
    phase_results = grade_session(entries, halt_reason, scenario, both_closed)
    if not both_closed and not halt_reason:
        # Nothing in flight and every action issued, but not both closed. Set
        # after grading: every action was issued, so no `halted:` blame.
        halt_reason = f"quiescent: CLIENT in {client_state.value}, SERVER in {server_state.value}"
    return assemble(
        SessionTranscript,
        (scenario.scenario_id, seed, entries, phase_results, halt_reason, client_iss, server_iss),
    )


def grade_session(
    entries: List[TranscriptEntry], halt_reason: str, scenario: Scenario, both_closed: bool
) -> Dict[str, PhaseResult]:
    """Phase grading from the delivered-segment stream with independent
    counters; never reads agent internals beyond the final-closure flag,
    which itself is cross-checked against the segment stream. Its counters
    start from segments' seqs, which are in range: they need only the wrap."""
    results: Dict[str, PhaseResult] = {}

    # Handshake: SYN / SYN|ACK / ACK with exact ISN+1 acknowledgments.
    hs_fail = None
    if len(entries) < 3:
        hs_fail = "fewer than three segments"
    else:
        (_, d0, s0, _), (_, d1, s1, _), (_, d2, s2, _) = entries[:3]
        if d0 is not CLIENT or s0.flags != FLAGS_SYN or s0.payload:
            hs_fail = "first segment is not a client SYN"
        elif d1 is not SERVER or s1.flags != FLAGS_SYN_ACK:
            hs_fail = "second segment is not a server SYN|ACK"
        elif s1.ack != (s0.seq + 1) % SEQ_MOD:
            hs_fail = "SYN|ACK does not acknowledge client ISN+1"
        elif d2 is not CLIENT or s2.flags != FLAGS_ACK or s2.payload:
            hs_fail = "third segment is not a pure ACK"
        elif s2.ack != (s1.seq + 1) % SEQ_MOD or s2.seq != (s0.seq + 1) % SEQ_MOD:
            hs_fail = "handshake ACK numbers wrong"
    results["handshake"] = PhaseResult(hs_fail is None, hs_fail or "")
    if hs_fail is not None:
        results["data_transfer"] = PhaseResult(False, "handshake failed")
        results["termination"] = PhaseResult(False, "handshake failed")
        return results

    # Independent byte counters seeded from the observed ISNs.
    expected = {
        CLIENT: (s0.seq + 1) % SEQ_MOD,
        SERVER: (s1.seq + 1) % SEQ_MOD,
    }
    fin_seen = set()  # the roles that have sent a FIN
    fin_acked = {CLIENT: False, SERVER: False}
    script_left = list(scenario.data_script)
    data_fail = None
    term_fail = None

    for _, sender, seg, _ in entries[3:]:
        peer = SERVER if sender is CLIENT else CLIENT
        if seg.flags.syn:
            term_fail = term_fail or "unexpected SYN after handshake"
            continue
        n = len(seg.payload)
        if n:
            if sender in fin_seen:
                data_fail = data_fail or "data after FIN"
            if seg.seq != expected[sender]:
                data_fail = data_fail or "data segment out of sequence"
            if script_left and script_left[0] == (sender, n):
                script_left.pop(0)
            else:
                data_fail = data_fail or "data segment does not match script"
            expected[sender] = (expected[sender] + n) % SEQ_MOD
        if seg.flags.fin:
            if sender in fin_seen:
                term_fail = term_fail or "duplicate FIN"
            else:
                if seg.seq != expected[sender]:
                    term_fail = term_fail or "FIN out of sequence"
                fin_seen.add(sender)
                expected[sender] = (expected[sender] + 1) % SEQ_MOD
        if seg.flags.ack:
            # Every ACK must acknowledge exactly what the peer has consumed
            # (expected[] already counts the peer's FIN once seen).
            if seg.ack != expected[peer]:
                msg = "acknowledgment does not match bytes received"
                if peer in fin_seen:
                    term_fail = term_fail or msg
                else:
                    data_fail = data_fail or msg
            elif peer in fin_seen:
                fin_acked[peer] = True

    if script_left:
        data_fail = data_fail or "scripted data never transferred"
    if halt_reason and data_fail is None and term_fail is None:
        # Session halted abnormally; blame the earliest incomplete phase. All
        # scripted data went through, or data_fail would say so.
        if scenario.closer not in fin_seen:
            data_fail = f"halted: {halt_reason}"
    results["data_transfer"] = PhaseResult(data_fail is None, data_fail or "")

    if term_fail is None:
        closer = scenario.closer
        other = SERVER if closer is CLIENT else CLIENT
        if closer not in fin_seen:
            term_fail = "closer never sent FIN"
        elif other not in fin_seen:
            term_fail = "peer never sent FIN"
        elif not fin_acked[closer] or not fin_acked[other]:
            term_fail = "FIN not acknowledged"
        elif not both_closed:
            term_fail = "agents did not both reach CLOSED"
    if halt_reason == "step budget exhausted" and term_fail is None:
        term_fail = "timeout"
    results["termination"] = PhaseResult(term_fail is None, term_fail or "")
    return results


class TrialReport(NamedTuple):
    n: int
    handshake: float
    data_transfer: float
    termination: float
    trial_accuracy: float

    def to_wire(self) -> dict:
        return {
            "sessions": self.n,
            "handshake": pct(self.handshake),
            "data_transfer": pct(self.data_transfer),
            "termination": pct(self.termination),
            "trial_accuracy": pct(self.trial_accuracy),
        }

    def summary(self) -> str:
        w = self.to_wire()
        return (
            f"sessions={self.n} handshake={w['handshake']} "
            f"data_transfer={w['data_transfer']} termination={w['termination']} "
            f"trial={w['trial_accuracy']}"
        )


def run_trials(
    client_core: CognitiveCore,
    server_core: CognitiveCore,
    n: int,
    base_seed: int,
    scenario: Optional[Scenario] = None,
    sink: Optional[Callable[[SessionTranscript], None]] = None,
) -> TrialReport:
    """Run n independent full-lifecycle sessions with derived seeds.

    Sessions run on min(n, client_core.concurrency, server_core.concurrency)
    threads; `sink` gets each transcript, the same as a serial run's, in seed
    order. The first exception in seed order (a TransportError, or the
    sink's own) drops the sessions not yet started and is re-raised here."""
    if n < 1:
        raise ValueError("need at least one session")
    scenario = scenario or Scenario()
    rng = random.Random(base_seed)
    seeds = (rng.getrandbits(32) for _ in range(n))

    def session(seed: int) -> SessionTranscript:
        return run_session(client_core, server_core, scenario, seed)

    def tally(transcripts) -> TrialReport:
        passed = dict.fromkeys(("handshake", "data_transfer", "termination"), 0)
        trials = 0
        for t in transcripts:
            for phase in passed:
                passed[phase] += t.phase_results[phase].passed
            trials += t.all_passed()
            if sink is not None:
                sink(t)
        return TrialReport(n, *(k / n for k in passed.values()), trials / n)

    workers = min(n, client_core.concurrency, server_core.concurrency)
    if workers == 1:
        # A one-thread pool cost the CPU-bound oracle ~10% of its sessions/s.
        return tally(map(session, seeds))
    # Sessions share nothing but the cores, so I/O-bound cores serve several
    # at once. At most 2 * workers of them are submitted ahead of the sink,
    # so the pending sessions do not grow with n.
    from concurrent.futures import ThreadPoolExecutor

    window = deque()  # submitted sessions, in seed order

    def transcripts(pool):
        for seed in seeds:
            window.append(pool.submit(session, seed))
            if len(window) == 2 * workers:
                yield window.popleft().result()
        while window:
            yield window.popleft().result()

    with ThreadPoolExecutor(workers) as pool:
        try:
            return tally(transcripts(pool))
        finally:
            # Otherwise, after an exception, the pool's exit waits for all of them.
            for future in window:
                future.cancel()
