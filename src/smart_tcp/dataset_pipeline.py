"""Trace-to-training-data pipeline.

Ingests newline-delimited trace records, groups them into 5-tuple flows,
replays complete flows through the reference oracle to recover each sender's
pre-decision context, and emits supervised (context, decision) pairs plus a
mutated error dataset for anomaly training.
"""

from __future__ import annotations

import json
import logging
import math
import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Tuple

from .agent_runtime import SessionTranscript, implied_action, initial_states, oracle_step
from .alu import alu_execute
from .cognitive_core import (
    CognitiveDecision,
    CognitiveInput,
    PERSONA,
    Verdict,
    serialize_decision,
    serialize_input,
)
from .tcp_core import (
    ActionKind,
    Role,
    SYNCHRONIZED_STATES,
    Segment,
    flags_parse,
    seq_add,
    segment_consumes,
)

log = logging.getLogger(__name__)

TCP_PROTO = "tcp"


@dataclass(frozen=True, slots=True)
class FiveTuple:
    src: str  # "addr:port"
    dst: str
    proto: str = TCP_PROTO

    def reversed(self) -> "FiveTuple":
        return FiveTuple(src=self.dst, dst=self.src, proto=self.proto)

    def normalized(self) -> Tuple[str, str, str]:
        a, b = sorted((self.src, self.dst))
        return (a, b, self.proto)


@dataclass(frozen=True, slots=True)
class TraceRecord:
    ts: float
    five_tuple: FiveTuple
    segment: Segment

    def to_wire(self) -> dict:
        obj = {
            "ts": self.ts,
            "src": self.five_tuple.src,
            "dst": self.five_tuple.dst,
            "proto": self.five_tuple.proto,
        }
        obj.update(self.segment.to_wire())
        return obj


class Completeness(Enum):
    COMPLETE = "COMPLETE"
    INCOMPLETE = "INCOMPLETE"


@dataclass
class Flow:
    flow_id: str
    initiator: FiveTuple  # 5-tuple as seen from the client (first SYN sender)
    records: List[TraceRecord] = field(default_factory=list)
    completeness: Completeness = Completeness.INCOMPLETE

    def finalize(self) -> None:
        self.completeness = (
            Completeness.COMPLETE if self._is_complete() else Completeness.INCOMPLETE
        )

    def _is_complete(self) -> bool:
        if not self.records:
            return False
        first = self.records[0]
        f0 = first.segment.flags
        if not (f0.syn and not f0.ack) or first.five_tuple != self.initiator:
            return False
        saw_synack = any(
            r.segment.flags.syn and r.segment.flags.ack
            and r.five_tuple == self.initiator.reversed()
            for r in self.records
        )
        if not saw_synack:
            return False
        # FIN-based closure from both directions, each FIN acknowledged.
        for direction in (self.initiator, self.initiator.reversed()):
            fin = next(
                (r for r in self.records if r.five_tuple == direction and r.segment.flags.fin),
                None,
            )
            if fin is None:
                return False
            fin_end = seq_add(fin.segment.seq, segment_consumes(fin.segment))
            acked = any(
                r.ts >= fin.ts
                and r.five_tuple == direction.reversed()
                and r.segment.flags.ack
                and r.segment.ack == fin_end
                for r in self.records
            )
            if not acked:
                return False
        return True


@dataclass
class IngestResult:
    records: List[TraceRecord]
    rejects: List[Tuple[int, str]]  # (line number, reason)
    malformed: int = 0


class TraceFormatError(Exception):
    pass


def ingest_trace(path) -> IngestResult:
    """Parse a trace file into timestamp-sorted records.

    Malformed lines go to the rejects report; more than 10% malformed is a
    hard failure. Non-TCP records are filtered (rejected, not malformed).
    """
    records: List[TraceRecord] = []
    rejects: List[Tuple[int, str]] = []
    malformed = 0
    total = 0
    # Undecodable bytes come through as lone surrogates, so a bad line is
    # rejected on its own instead of ending the read.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            total += 1
            try:
                if not line.isascii():
                    try:
                        line.encode("utf-8")
                    except UnicodeEncodeError:
                        raise ValueError("line is not valid UTF-8") from None
                obj = json.loads(line)
                if not isinstance(obj, dict):
                    raise ValueError(f"not a JSON object: {type(obj).__name__}")
                proto = str(obj.get("proto", "")).lower()
                if proto != TCP_PROTO:
                    rejects.append((lineno, f"non-tcp protocol: {proto!r}"))
                    continue
                ts = float(obj["ts"])
                if not math.isfinite(ts):
                    raise ValueError(f"non-finite ts: {ts}")
                rec = TraceRecord(
                    ts=ts,
                    five_tuple=FiveTuple(src=str(obj["src"]), dst=str(obj["dst"])),
                    segment=Segment.from_wire(obj),
                )
            except (KeyError, ValueError, TypeError, OverflowError) as exc:
                malformed += 1
                rejects.append((lineno, f"malformed: {exc}"))
                continue
            records.append(rec)
    if total and malformed / total > 0.10:
        raise TraceFormatError(
            f"{malformed}/{total} malformed lines exceeds the 10% threshold"
        )
    records.sort(key=lambda r: r.ts)
    return IngestResult(records=records, rejects=rejects, malformed=malformed)


def extract_flows(records: List[TraceRecord]) -> List[Flow]:
    """Group records into direction-normalized 5-tuple flows.

    A pure SYN on a tuple whose previous flow closed starts a new flow.
    """
    flows: List[Flow] = []
    current: Dict[Tuple[str, str, str], Flow] = {}

    def fin_closed(flow: Flow) -> bool:
        seen = set()
        for r in flow.records:
            if r.segment.flags.fin:
                seen.add(r.five_tuple)
        return len(seen) >= 2

    for rec in records:
        key = rec.five_tuple.normalized()
        flags = rec.segment.flags
        pure_syn = flags.syn and not flags.ack
        flow = current.get(key)
        if pure_syn and (flow is None or fin_closed(flow)):
            flow = Flow(flow_id=f"flow-{len(flows):04d}", initiator=rec.five_tuple)
            flows.append(flow)
            current[key] = flow
        if flow is None:
            # Mid-stream traffic with no observed SYN: collect as its own
            # (incomplete) flow so it is reported, then discarded downstream.
            flow = Flow(flow_id=f"flow-{len(flows):04d}", initiator=rec.five_tuple)
            flows.append(flow)
            current[key] = flow
        flow.records.append(rec)
    for flow in flows:
        flow.finalize()
    return flows


@dataclass(frozen=True)
class LabeledSample:
    input: CognitiveInput
    label: CognitiveDecision
    provenance: dict


def _seg_matches(a: Segment, b: Segment) -> bool:
    return (
        a.seq == b.seq
        and a.ack == b.ack
        and a.flags == b.flags
        and a.payload_len == b.payload_len
    )


def reconstruct_labels(flow: Flow) -> List[LabeledSample]:
    """Replay a complete flow through the oracle from both endpoints'
    perspectives; one sample per outbound segment the oracle reproduces.

    Segments the oracle cannot reproduce (retransmissions, out-of-window
    traffic) are skipped with a log line; a flow with >20% skips is dropped.
    """
    if flow.completeness is not Completeness.COMPLETE:
        raise ValueError(f"{flow.flow_id} is not COMPLETE")

    client_tuple = flow.initiator
    synack = next(
        r
        for r in flow.records
        if r.segment.flags.syn and r.segment.flags.ack
        and r.five_tuple == client_tuple.reversed()
    )
    states = initial_states(flow.records[0].segment.seq, synack.segment.seq)
    last_received: Dict[Role, Optional[Segment]] = {Role.CLIENT: None, Role.SERVER: None}
    undelivered: Dict[Role, List[Segment]] = {Role.CLIENT: [], Role.SERVER: []}
    samples: List[LabeledSample] = []
    skipped = 0

    for idx, rec in enumerate(flow.records):
        sender = Role.CLIENT if rec.five_tuple == client_tuple else Role.SERVER
        peer = Role.SERVER if sender is Role.CLIENT else Role.CLIENT
        seg = rec.segment
        trigger = None  # "reply" or "action": the sender's step that sends this record

        # Consume pending inbound segments; one of them may trigger the
        # reply recorded here.
        while undelivered[sender] and trigger is None:
            inbound = undelivered[sender].pop(0)
            cinput, decision, states[sender], emitted = oracle_step(states[sender], inbound)
            if decision.verdict is not Verdict.NORMAL:
                log.info(
                    "%s: anomalous inbound segment during replay (%s), ignored",
                    flow.flow_id,
                    decision.verdict.value,
                )
                continue
            last_received[sender] = inbound
            if emitted is not None:
                trigger = "reply"

        if trigger is None:
            action = implied_action(states[sender], seg)
            if action is None:
                log.info("%s: record %d has no reproducible trigger, skipped", flow.flow_id, idx)
                skipped += 1
            else:
                cinput, decision, states[sender], emitted = oracle_step(
                    states[sender], last_received[sender], action
                )
                trigger = "action"

        if trigger is not None:
            if emitted is not None and _seg_matches(emitted, seg):
                provenance = {"flow_id": flow.flow_id, "record_index": idx}
                samples.append(LabeledSample(input=cinput, label=decision, provenance=provenance))
            else:
                log.info("%s: record %d diverges from oracle %s, skipped", flow.flow_id, idx, trigger)
                skipped += 1
        undelivered[peer].append(seg)

    if skipped > 0.2 * len(flow.records):
        log.warning("%s dropped: %d/%d records skipped", flow.flow_id, skipped, len(flow.records))
        return []
    return samples


class MutationKind(Enum):
    ORDER_SWAP = "ORDER_SWAP"
    ORDER_SEQ_JUMP = "ORDER_SEQ_JUMP"
    FLAG_ILLEGAL_COMBO = "FLAG_ILLEGAL_COMBO"
    FLAG_WRONG_STATE = "FLAG_WRONG_STATE"


MUTATION_VERDICT = {
    MutationKind.ORDER_SWAP: Verdict.ORDER_ERROR,
    MutationKind.ORDER_SEQ_JUMP: Verdict.ORDER_ERROR,
    MutationKind.FLAG_ILLEGAL_COMBO: Verdict.FLAG_ERROR,
    MutationKind.FLAG_WRONG_STATE: Verdict.FLAG_ERROR,
}

SEQ_JUMP_MAX = 4096


def _mutate(r: Segment, kind: MutationKind, rng: random.Random) -> Segment:
    if kind is MutationKind.ORDER_SWAP:
        # The following segment arrives first: seq jumps by this segment's
        # own footprint.
        return Segment(
            seq=seq_add(r.seq, segment_consumes(r)),
            ack=r.ack,
            flags=r.flags,
            payload=r.payload,
        )
    if kind is MutationKind.ORDER_SEQ_JUMP:
        return Segment(
            seq=seq_add(r.seq, rng.randint(1, SEQ_JUMP_MAX)),
            ack=r.ack,
            flags=r.flags,
            payload=r.payload,
        )
    if kind is MutationKind.FLAG_ILLEGAL_COMBO:
        return Segment(seq=r.seq, ack=0, flags=flags_parse("SYN|FIN"), payload=r.payload)
    return Segment(seq=r.seq, ack=0, flags=flags_parse("SYN"), payload=r.payload)


def generate_error_dataset(
    samples: List[LabeledSample], count: int = 2000, ratio: float = 0.5, seed: int = 0
) -> List[LabeledSample]:
    """Build a labeled anomaly set by mutating received segments inside
    synchronized-state contexts taken from reconstructed samples, given in
    flow order as reconstruct_labels returns them. Exact category counts:
    with the default 50/50 ratio, half the samples are order errors."""
    if count < 2:
        raise ValueError("need at least 2 samples")
    contexts = []
    for sample in samples:
        s, r = sample.input.s, sample.input.r
        # Only segment-triggered contexts: r must be the live trigger at
        # seq == rcv_nxt, not a stale last-received segment.
        if r is None or sample.input.a.kind is not ActionKind.NONE:
            continue
        if s.state not in SYNCHRONIZED_STATES:
            continue
        contexts.append((s, r, sample.provenance))
    if not contexts:
        raise ValueError("no synchronized-state contexts available for mutation")

    rng = random.Random(seed)
    n_order = round(count * ratio)
    n_flag = count - n_order
    plan = [MutationKind.ORDER_SWAP if i % 2 == 0 else MutationKind.ORDER_SEQ_JUMP for i in range(n_order)]
    plan += [
        MutationKind.FLAG_ILLEGAL_COMBO if i % 2 == 0 else MutationKind.FLAG_WRONG_STATE
        for i in range(n_flag)
    ]

    samples: List[LabeledSample] = []
    consuming = [c for c in contexts if segment_consumes(c[1]) > 0]
    for kind in plan:
        pool = consuming if kind is MutationKind.ORDER_SWAP and consuming else contexts
        if kind is MutationKind.ORDER_SWAP and not consuming:
            kind = MutationKind.ORDER_SEQ_JUMP
        s, r, prov = pool[rng.randrange(len(pool))]
        mutated = _mutate(r, kind, rng)
        label = CognitiveDecision(
            next_state=s.state,
            flags=None,
            payload_len=0,
            t_task=None,
            verdict=MUTATION_VERDICT[kind],
        )
        samples.append(
            LabeledSample(
                input=CognitiveInput(s=s, r=mutated),
                label=label,
                provenance={"mutation": kind.value, **prov},
            )
        )
    return samples


class SftFormat(Enum):
    PAIRS = "PAIRS"
    INSTRUCT = "INSTRUCT"


def emit_sft(samples: List[LabeledSample], path, format: SftFormat = SftFormat.PAIRS) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for sample in samples:
            if format is SftFormat.PAIRS:
                obj = {"input": sample.input.to_wire(), "label": sample.label.to_wire()}
            else:
                obj = {
                    "instruction": PERSONA,
                    "input": serialize_input(sample.input),
                    "output": serialize_decision(sample.label),
                }
            fh.write(json.dumps(obj, separators=(",", ":")) + "\n")


def check_alu_consistency(sample: LabeledSample, observed: Segment) -> bool:
    """A labeled task must regenerate the numbers observed on the emitted
    segment from the sample's own (S, R)."""
    if sample.label.t_task is None:
        return True
    from .alu import AluTask

    if sample.label.t_task is AluTask.INIT_SYN:
        result = alu_execute(sample.label.t_task, sample.input.s, None)
    else:
        if sample.input.r is None:
            return False
        result = alu_execute(sample.label.t_task, sample.input.s, sample.input.r)
    expected_ack = result.ack if observed.flags.ack else 0
    return observed.seq == result.seq and observed.ack == expected_ack


# ---------------------------------------------------------------------------
# Transcript export: simulated sessions become ingestible traces.
# ---------------------------------------------------------------------------

CLIENT_ADDR = "10.0.0.1:40000"
SERVER_ADDR = "10.0.0.2:80"


def transcript_to_trace_records(
    transcript: SessionTranscript, t0: float = 0.0, dt: float = 0.001
) -> List[TraceRecord]:
    records = []
    for i, entry in enumerate(transcript.entries):
        if entry.direction is Role.CLIENT:
            ft = FiveTuple(src=CLIENT_ADDR, dst=SERVER_ADDR)
        else:
            ft = FiveTuple(src=SERVER_ADDR, dst=CLIENT_ADDR)
        records.append(TraceRecord(ts=t0 + i * dt, five_tuple=ft, segment=entry.segment))
    return records


def write_trace(records: List[TraceRecord], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec.to_wire(), separators=(",", ":")) + "\n")
