"""`extract_flows` against the flow splitter it replaced.

The reference below is the earlier splitter: it rescanned a flow for its FIN
directions on every pure SYN (`fin_closed`) and judged completeness with a
scan per condition (`reference_is_complete`). Drawn record streams put
several oracle sessions on two or three shared 5-tuples, drop FINs, ACKs or
SYN|ACKs, retransmit records, lead with a stray record and repeat a
session's SYN after its end. `extract_flows` must give the same flow ids,
initiators, record lists and completeness.

Two differences are intended, and the reference applies each rule only
when asked:

- the stray-record rule: a pure SYN also starts a new flow when the tuple's
  current flow did not open with a pure SYN. The earlier splitter appended
  the SYN, and the connection after it, to the stray record's incomplete
  flow, so the connection was lost.
- the stale-SYN rule: a pure SYN also starts a new flow when its seq differs
  from that of the pure SYN that opened the tuple's current flow. The
  earlier splitter let a late retransmitted SYN of a closed connection open
  a flow that then swallowed the next connection on the tuple, and appended
  the SYN of a session that overlaps another on one tuple to that session's
  flow.

The property names every stream on which each rule changes the result.
"""

from hypothesis import given, settings, strategies as st

from smart_tcp.agent_runtime import Scenario, run_session
from smart_tcp.cognitive_core import OracleCore
from smart_tcp.dataset_pipeline import (
    Completeness,
    FiveTuple,
    Flow,
    extract_flows,
    reconstruct_labels,
)
from smart_tcp.tcp_core import Role, segment_consumes, seq_add

from traces import shifted

# ---------------------------------------------------------------------------
# The earlier splitter.
# ---------------------------------------------------------------------------


def reference_is_complete(records, initiator) -> bool:
    if not records:
        return False
    first = records[0]
    f0 = first.segment.flags
    if not (f0.syn and not f0.ack) or first.five_tuple != initiator:
        return False
    saw_synack = any(
        r.segment.flags.syn and r.segment.flags.ack
        and r.five_tuple == initiator.reversed()
        for r in records
    )
    if not saw_synack:
        return False
    # FIN-based closure from both directions, each FIN acknowledged.
    for direction in (initiator, initiator.reversed()):
        fin = next(
            (r for r in records if r.five_tuple == direction and r.segment.flags.fin),
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
            for r in records
        )
        if not acked:
            return False
    return True


def reference_extract_flows(records, stray_rule: bool, syn_rule: bool):
    """The earlier splitter, plus the stray-record and stale-SYN rules where
    set. Returns the flows and how many of them each rule alone started."""
    flows = []  # (initiator, records) per flow
    current = {}  # normalized tuple -> its current flow's records
    stray_splits = syn_splits = 0

    def fin_closed(records):
        seen = set()
        for r in records:
            if r.segment.flags.fin:
                seen.add(r.five_tuple)
        return len(seen) >= 2

    def opened_with_pure_syn(records):
        f = records[0].segment.flags
        return f.syn and not f.ack

    for rec in records:
        key = rec.five_tuple.normalized()
        flags = rec.segment.flags
        pure_syn = flags.syn and not flags.ack
        flow = current.get(key)
        syn_on_open_flow = pure_syn and flow is not None and not fin_closed(flow)
        stray_split = stray_rule and syn_on_open_flow and not opened_with_pure_syn(flow)
        syn_split = (
            syn_rule and syn_on_open_flow and opened_with_pure_syn(flow)
            and flow[0].segment.seq != rec.segment.seq
        )
        if (pure_syn and (flow is None or fin_closed(flow))) or stray_split or syn_split:
            stray_splits += stray_split
            syn_splits += syn_split
            flow = None
        if flow is None:
            flow = []
            flows.append((rec.five_tuple, flow))
            current[key] = flow
        flow.append(rec)
    flows = [
        Flow(
            f"flow-{i:04d}", initiator, records,
            Completeness.COMPLETE if reference_is_complete(records, initiator)
            else Completeness.INCOMPLETE,
        )
        for i, (initiator, records) in enumerate(flows)
    ]
    return flows, stray_splits, syn_splits


def summary(flows):
    return [(f.flow_id, f.initiator, f.records, f.completeness) for f in flows]


# ---------------------------------------------------------------------------
# Drawn record streams.
# ---------------------------------------------------------------------------

ENDPOINTS = [
    ("10.0.0.1:40000", "10.0.0.2:80"),
    ("10.0.0.3:40001", "10.0.0.2:80"),
    ("10.0.0.4:5", "10.0.0.5:6"),
]


@st.composite
def record_streams(draw):
    n_tuples = draw(st.integers(2, 3), label="tuples")
    records = []
    t0 = 0.0
    for _ in range(draw(st.integers(1, 5), label="sessions")):
        a, b = ENDPOINTS[draw(st.integers(0, n_tuples - 1), label="tuple")]
        if draw(st.booleans(), label="initiator is the second endpoint"):
            a, b = b, a
        scenario = Scenario(
            data_script=tuple(draw(st.lists(
                st.tuples(st.sampled_from(Role), st.integers(1, 1460)), max_size=3
            ))),
            closer=draw(st.sampled_from(Role)),
        )
        t = run_session(OracleCore(), OracleCore(), scenario, draw(st.integers(0, 2**32 - 1)))
        session = []
        for e, r in zip(t.entries, shifted(t.trace_records(), t0)):
            ft = FiveTuple(a, b) if e.direction is Role.CLIENT else FiveTuple(b, a)
            session.append(r._replace(five_tuple=ft))
        syn = session[0]
        # Lost FINs, ACKs or SYN|ACKs.
        dropped = draw(st.sets(st.integers(0, len(session) - 1), max_size=2), label="dropped")
        session = [r for i, r in enumerate(session) if i not in dropped]
        # Retransmitted duplicates, halfway to the next record.
        duplicated = draw(st.sets(st.integers(0, len(session) - 1), max_size=2), label="duplicated")
        for i in sorted(duplicated, reverse=True):
            session.insert(i + 1, session[i]._replace(ts=session[i].ts + 0.0005))
        # A stray copy of one of the session's records, ahead of it.
        if draw(st.booleans(), label="leading stray"):
            stray = draw(st.sampled_from(session), label="stray")
            session.insert(0, stray._replace(ts=t0 - 0.0001))
        # A late retransmission of the session's own SYN, after its last
        # record: where both FINs were seen, it opens a new flow.
        if draw(st.booleans(), label="late SYN"):
            end = max(r.ts for r in session)
            delay = draw(st.sampled_from([0.0002, 0.003]), label="late SYN delay")
            session.append(syn._replace(ts=end + delay))
        records += session
        # The next session starts inside or after this one.
        t0 += draw(st.sampled_from([0.0003, 0.004, 0.02]), label="gap")
    # A coarse clock: records a few milliseconds apart share a timestamp, so
    # a FIN and the ACK of it can carry the same one.
    tick = draw(st.sampled_from([None, 0.002, 0.005]), label="tick")
    if tick is not None:
        records = [r._replace(ts=round(r.ts / tick) * tick) for r in records]
    records.sort(key=lambda r: r.ts)
    return records


@settings(deadline=None, max_examples=300)
@given(record_streams())
def test_same_flows_as_the_reference(records):
    got = summary(extract_flows(records))
    want, stray_splits, syn_splits = reference_extract_flows(records, True, True)
    assert got == summary(want)
    # Equal to the splitter without a rule unless that rule started a flow;
    # where it did, the splitter without it kept that SYN in the open flow.
    without_stray, _, _ = reference_extract_flows(records, False, True)
    assert (got == summary(without_stray)) == (stray_splits == 0)
    without_syn, _, _ = reference_extract_flows(records, True, False)
    assert (got == summary(without_syn)) == (syn_splits == 0)
    # The drawn records carry equal but distinct FiveTuples, where
    # ingest_trace gives a direction's records one: both group alike.
    shared = {}
    interned = [r._replace(five_tuple=shared.setdefault(r.five_tuple, r.five_tuple)) for r in records]
    assert summary(extract_flows(interned)) == got


def test_a_stray_record_does_not_hide_the_connection_after_it():
    session = run_session(OracleCore(), OracleCore(), Scenario(), 1).trace_records()
    stray = session[2]._replace(ts=-1.0)  # the handshake's ACK, seen first
    earlier, _, _ = reference_extract_flows([stray] + session, False, False)
    flows = extract_flows([stray] + session)
    assert [f.completeness for f in earlier] == [Completeness.INCOMPLETE]
    assert [f.completeness for f in flows] == [Completeness.INCOMPLETE, Completeness.COMPLETE]
    assert flows[1].records == session
    assert len(reconstruct_labels(flows[1])) == len(session) == 11


def test_a_stale_syn_does_not_swallow_the_next_connection():
    first = run_session(OracleCore(), OracleCore(), Scenario(), 1).trace_records()
    second = shifted(run_session(OracleCore(), OracleCore(), Scenario(), 2).trace_records(), 1.0)
    stale = first[0]._replace(ts=0.5)  # the first SYN, retransmitted late
    records = first + [stale] + second
    earlier, _, _ = reference_extract_flows(records, True, False)
    assert [len(f.records) for f in earlier] == [11, 12]
    flows = extract_flows(records)
    assert [(len(f.records), f.completeness) for f in flows] == [
        (11, Completeness.COMPLETE),
        (1, Completeness.INCOMPLETE),
        (11, Completeness.COMPLETE),
    ]
    assert flows[0].records == first and flows[2].records == second
    samples = [s for f in flows if f.completeness is Completeness.COMPLETE for s in reconstruct_labels(f)]
    assert len(samples) == 22
