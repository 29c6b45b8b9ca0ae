"""Trace-to-training-data pipeline.

Ingests newline-delimited trace records, groups them into 5-tuple flows,
replays complete flows through the reference oracle to recover each sender's
pre-decision context, and emits supervised (context, decision) pairs plus a
mutated error dataset for anomaly training.

A trace line is what `tcp_core.TraceRecord.to_wire` writes (the session
files of `simulate --out` are traces too); `TraceRecord` and `FiveTuple`
live in `tcp_core` and are imported here by name.
"""

from __future__ import annotations

import logging
import math
import random
from collections import deque
from enum import Enum
from operator import itemgetter
from typing import Deque, Dict, List, NamedTuple, Optional, Set, Tuple

from .agent_runtime import implied_action, initial_states, oracle_step
from .alu import AluTask, alu_execute
from .cognitive_core import (
    CognitiveDecision,
    CognitiveInput,
    NORMAL,
    PERSONA,
    check_utf8,
    decode_stripped,
    encode_compact,
    oracle_transition,
    serialize_decision,
    serialize_input,
)
from .tcp_core import (
    ACTION_NONE,
    CLIENT,
    FiveTuple,
    KIND_NONE,
    Role,
    SERVER,
    SYNCHRONIZED_STATES,
    Segment,
    TCP_PROTO,
    TraceRecord,
    assemble,
    flags_parse,
    seq_add,
    segment_consumes,
    wire_str,
)

log = logging.getLogger(__name__)

class Completeness(Enum):
    COMPLETE = "COMPLETE"
    INCOMPLETE = "INCOMPLETE"


# Bound once for the hot path (see tcp_core's docstring), as are the members
# of MutationKind and SftFormat below.
COMPLETE = Completeness.COMPLETE
INCOMPLETE = Completeness.INCOMPLETE


class Flow(NamedTuple):
    """One connection's records, in trace order, as `extract_flows` cuts
    them out of a trace."""

    flow_id: str
    initiator: FiveTuple  # 5-tuple as seen from the client (first SYN sender)
    records: List[TraceRecord]
    completeness: Completeness


def _is_complete(records: List[TraceRecord], client: FiveTuple) -> bool:
    """Opened by the client's pure SYN, answered by a SYN|ACK, both FINs acknowledged."""
    server = client.reversed()
    first = records[0]
    f0 = first.segment.flags
    if not (f0.syn and not f0.ack) or first.five_tuple != client:
        return False
    # One pass finds the SYN|ACK and each direction's first FIN.
    saw_synack = False
    fins: Dict[FiveTuple, TraceRecord] = {}
    for r in records:
        f = r.segment.flags
        if f.syn and f.ack and r.five_tuple == server:
            saw_synack = True
        if f.fin:
            fins.setdefault(r.five_tuple, r)
    if not saw_synack:
        return False
    # FIN-based closure from both directions, each FIN acknowledged.
    for direction, peer in ((client, server), (server, client)):
        fin = fins.get(direction)
        if fin is None:
            return False
        fin_end = seq_add(fin.segment.seq, segment_consumes(fin.segment))
        acked = any(
            r.ts >= fin.ts
            and r.five_tuple == peer
            and r.segment.flags.ack
            and r.segment.ack == fin_end
            for r in records
        )
        if not acked:
            return False
    return True


class IngestResult(NamedTuple):
    records: List[TraceRecord]
    rejects: List[Tuple[int, str]]  # (line number, reason)
    last_line: int  # number of the last non-blank line, 0 for none


def ingest_trace(path) -> IngestResult:
    """Read a trace file: every non-blank line becomes a record (sorted by
    ts) or a reject, `malformed: …` or non-TCP (a line without `proto`
    included). Each command applies its own rule to the rejects."""
    records: List[TraceRecord] = []
    rejects: List[Tuple[int, str]] = []
    last_line = 0
    # One FiveTuple per direction, shared by all of its records.
    directions: Dict[Tuple[str, str], FiveTuple] = {}
    # Undecodable bytes come through as lone surrogates, so a bad line is
    # rejected on its own instead of ending the read.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            last_line = lineno
            try:
                check_utf8(line)
                obj = decode_stripped(line)
                if not isinstance(obj, dict):
                    raise ValueError(f"not a JSON object: {type(obj).__name__}")
                proto = wire_str("proto", obj["proto"]).lower() if "proto" in obj else ""
                if proto != TCP_PROTO:
                    rejects.append((lineno, f"non-tcp protocol: {proto!r}"))
                    continue
                ts = obj["ts"]
                # type() rather than isinstance: JSON true/false load as
                # bools, and float() would read the string "1.0" too.
                if type(ts) is not float and type(ts) is not int:
                    raise ValueError(f"ts must be a number: {ts!r}")
                ts = float(ts)
                if not math.isfinite(ts):
                    raise ValueError(f"non-finite ts: {ts}")
                # Both addresses are checked before the lookup, which would
                # raise its own TypeError on an unhashable one.
                src = wire_str("src", obj["src"])
                dst = wire_str("dst", obj["dst"])
                five_tuple = directions.get((src, dst))
                if five_tuple is None:
                    five_tuple = directions[(src, dst)] = FiveTuple(src, dst)
                segment = Segment.from_wire(obj)
            except KeyError as exc:
                rejects.append((lineno, f"malformed: missing key {exc.args[0]!r}"))
                continue
            # RecursionError: JSON nested past the interpreter's recursion limit.
            except (ValueError, TypeError, OverflowError, RecursionError) as exc:
                rejects.append((lineno, f"malformed: {exc}"))
                continue
            # Every field is checked, so the record skips TraceRecord's call.
            records.append(assemble(TraceRecord, (ts, five_tuple, segment)))
    records.sort(key=itemgetter(0))  # by ts
    return IngestResult(records, rejects, last_line)


def extract_flows(records: List[TraceRecord]) -> List[Flow]:
    """Group records into direction-normalized 5-tuple flows.

    A pure SYN starts a new flow on its tuple unless it repeats the SYN that
    opened the tuple's current flow (same seq) and that flow is not
    FIN-closed (FINs seen from both directions). So a stray mid-stream
    record, or a late retransmitted SYN of a closed connection, cannot
    swallow the connection that follows it. Any other record on a tuple
    without a flow starts one: mid-stream traffic with no observed SYN is
    collected as its own (incomplete) flow so it is reported, then
    discarded downstream.
    """
    # Each flow's initiator and records, in order of its first record.
    groups: List[Tuple[FiveTuple, List[TraceRecord]]] = []
    # Per normalized tuple: its current flow's records, the seq of the pure
    # SYN that opened it (None if another record did), and the directions it
    # has seen a FIN from.
    current: Dict[Tuple[str, str], Tuple[List[TraceRecord], Optional[int], Set[FiveTuple]]] = {}
    # Each direction's normalized tuple, computed once per distinct direction.
    keys: Dict[FiveTuple, Tuple[str, str]] = {}
    for rec in records:
        five_tuple = rec.five_tuple
        key = keys.get(five_tuple)
        if key is None:
            key = keys[five_tuple] = five_tuple.normalized()
        seg = rec.segment
        flags = seg.flags
        pure_syn = flags.syn and not flags.ack
        group, syn_seq, fin_directions = current.get(key, (None, None, None))
        if group is None or (pure_syn and (seg.seq != syn_seq or len(fin_directions) >= 2)):
            group = []
            fin_directions = set()
            current[key] = (group, seg.seq if pure_syn else None, fin_directions)
            groups.append((five_tuple, group))
        if flags.fin:
            fin_directions.add(five_tuple)
        group.append(rec)
    return [
        Flow(f"flow-{i:04d}", client, group, COMPLETE if _is_complete(group, client) else INCOMPLETE)
        for i, (client, group) in enumerate(groups)
    ]


def handshake_isss(
    records: List[TraceRecord], client: FiveTuple
) -> Optional[Tuple[int, int]]:
    """The ISSs a replay starts from: the seqs of the client's first pure SYN
    and of the server's first SYN|ACK; None when either is missing."""
    server = client.reversed()
    syn = synack = None
    for r in records:
        flags = r.segment.flags
        if not flags.syn:
            continue
        if flags.ack:
            if synack is None and r.five_tuple == server:
                synack = r.segment.seq
        elif syn is None and r.five_tuple == client:
            syn = r.segment.seq
        if syn is not None and synack is not None:
            return syn, synack
    return None


class LabeledSample(NamedTuple):
    input: CognitiveInput
    label: CognitiveDecision
    provenance: dict


def reconstruct_labels(flow: Flow) -> List[LabeledSample]:
    """Replay a complete flow through the oracle from both endpoints'
    perspectives; one sample per outbound segment the oracle reproduces.

    Segments the oracle cannot reproduce (retransmissions, out-of-window
    traffic) are skipped with a log line; a flow with >20% skips is dropped.
    """
    if flow.completeness is not COMPLETE:
        raise ValueError(f"{flow.flow_id} is not COMPLETE")

    client_tuple = flow.initiator
    states = initial_states(*handshake_isss(flow.records, client_tuple))
    last_received: Dict[Role, Optional[Segment]] = {CLIENT: None, SERVER: None}
    undelivered: Dict[Role, Deque[Segment]] = {CLIENT: deque(), SERVER: deque()}
    samples: List[LabeledSample] = []
    skipped = 0

    for idx, rec in enumerate(flow.records):
        sender = CLIENT if rec.five_tuple == client_tuple else SERVER
        peer = SERVER if sender is CLIENT else CLIENT
        seg = rec.segment
        trigger = None  # "reply" or "action": the sender's step that sends this record

        # Consume pending inbound segments; one of them may trigger the
        # reply recorded here.
        while undelivered[sender] and trigger is None:
            inbound = undelivered[sender].popleft()
            cinput, decision, states[sender], emitted = oracle_step(states[sender], inbound)
            if decision.verdict is not NORMAL:
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
            # The emitted payload is empty or, for a SEND, the record's own
            # payload, so comparing whole segments compares seq, ack, flags
            # and payload length.
            if emitted == seg:
                provenance = {"flow_id": flow.flow_id, "record_index": idx}
                samples.append(assemble(LabeledSample, (cinput, decision, provenance)))
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


ORDER_SWAP = MutationKind.ORDER_SWAP
ORDER_SEQ_JUMP = MutationKind.ORDER_SEQ_JUMP
FLAG_ILLEGAL_COMBO = MutationKind.FLAG_ILLEGAL_COMBO
FLAG_WRONG_STATE = MutationKind.FLAG_WRONG_STATE


SEQ_JUMP_MAX = 4096
# The flag sets of the FLAG_* mutations; neither has ACK, so Segment zeroes the ack.
ILLEGAL_COMBO_FLAGS = flags_parse("SYN|FIN")
WRONG_STATE_FLAGS = flags_parse("SYN")


def _mutate(r: Segment, kind: MutationKind, rng: random.Random) -> Segment:
    if kind is ORDER_SWAP:
        # The following segment arrives first: seq jumps by this segment's
        # own footprint.
        return r._replace(seq=seq_add(r.seq, segment_consumes(r)))
    if kind is ORDER_SEQ_JUMP:
        return r._replace(seq=seq_add(r.seq, rng.randint(1, SEQ_JUMP_MAX)))
    if kind is FLAG_ILLEGAL_COMBO:
        return r._replace(flags=ILLEGAL_COMBO_FLAGS)
    return r._replace(flags=WRONG_STATE_FLAGS)


def generate_error_dataset(
    samples: List[LabeledSample], count: int = 2000, ratio: float = 0.5, seed: int = 0
) -> List[LabeledSample]:
    """Build a labeled anomaly set by mutating received segments inside
    synchronized-state contexts taken from reconstructed samples, given in
    flow order as reconstruct_labels returns them. Exact category counts:
    with the default 50/50 ratio, half the samples are order errors. Each
    label is the oracle's decision on the mutated input: an ORDER_* mutation
    yields ORDER_ERROR and a FLAG_* mutation FLAG_ERROR."""
    if count < 2:
        raise ValueError("need at least 2 samples")
    if not 0 <= ratio <= 1:  # NaN fails this too
        raise ValueError(f"error ratio must be within [0, 1], got {ratio}")
    contexts = []
    for sample in samples:
        s, r = sample.input.s, sample.input.r
        # Only segment-triggered contexts: r must be the live trigger at
        # seq == rcv_nxt, not a stale last-received segment.
        if r is None or sample.input.a.kind is not KIND_NONE:
            continue
        if s.state not in SYNCHRONIZED_STATES:
            continue
        contexts.append((s, r, sample.provenance))
    if not contexts:
        raise ValueError("no synchronized-state contexts available for mutation")

    rng = random.Random(seed)
    n_order = round(count * ratio)
    n_flag = count - n_order
    plan = [ORDER_SWAP if i % 2 == 0 else ORDER_SEQ_JUMP for i in range(n_order)]
    plan += [FLAG_ILLEGAL_COMBO if i % 2 == 0 else FLAG_WRONG_STATE for i in range(n_flag)]

    samples: List[LabeledSample] = []
    consuming = [c for c in contexts if segment_consumes(c[1]) > 0]
    for kind in plan:
        pool = consuming if kind is ORDER_SWAP and consuming else contexts
        if kind is ORDER_SWAP and not consuming:
            kind = ORDER_SEQ_JUMP
        s, r, prov = pool[rng.randrange(len(pool))]
        mutated = _mutate(r, kind, rng)
        samples.append(
            LabeledSample(
                input=CognitiveInput(s, mutated),
                label=oracle_transition(s, mutated, ACTION_NONE),
                provenance={"mutation": kind.value, **prov},
            )
        )
    return samples


class SftFormat(Enum):
    PAIRS = "PAIRS"
    INSTRUCT = "INSTRUCT"


PAIRS = SftFormat.PAIRS


def emit_sft(samples: List[LabeledSample], path, format: SftFormat = SftFormat.PAIRS) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if format is PAIRS:
            for sample in samples:
                # Byte for byte what json.dumps with compact separators writes
                # for {"input": ..., "label": ...}.
                fh.write(
                    f'{{"input":{serialize_input(sample.input)},'
                    f'"label":{serialize_decision(sample.label)}}}\n'
                )
        else:
            for sample in samples:
                obj = {
                    "instruction": PERSONA,
                    "input": serialize_input(sample.input),
                    "output": serialize_decision(sample.label),
                }
                fh.write(encode_compact(obj) + "\n")


def check_alu_consistency(sample: LabeledSample, observed: Segment) -> bool:
    """A labeled task must regenerate the numbers observed on the emitted
    segment from the sample's own (S, R)."""
    if sample.label.t_task is None:
        return True
    if sample.label.t_task is AluTask.INIT_SYN:
        result = alu_execute(sample.label.t_task, sample.input.s, None)
    else:
        if sample.input.r is None:
            return False
        result = alu_execute(sample.label.t_task, sample.input.s, sample.input.r)
    expected_ack = result.ack if observed.flags.ack else 0
    return observed.seq == result.seq and observed.ack == expected_ack
