"""Properties: trace lines and model output, whatever their JSON, end as a
result or as the reader's own typed error, never as another exception."""

import json
import os
import tempfile

from hypothesis import given, settings, strategies as st

from smart_tcp.cognitive_core import CognitiveDecision, MalformedDecision, parse_decision
from smart_tcp.dataset_pipeline import IngestResult, TraceFormatError, ingest_trace

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


def field(valid):
    """A field that is valid half of the time, so draws reach later checks."""
    return st.one_of(valid, json_values)


u32 = st.integers(min_value=0, max_value=2**32 - 1)
trace_objects = st.fixed_dictionaries(
    {
        "ts": field(st.floats(min_value=0, max_value=1e6)),
        "proto": field(st.just("tcp")),
        "src": field(st.just("10.0.0.1:40000")),
        "dst": field(st.just("10.0.0.2:80")),
        "seq": field(u32),
        "ack": field(u32),
        "flags": field(st.sampled_from(["SYN", "ACK", "SYN|ACK", "fin|ack", "PSH|ACK"])),
        "payload_len": field(st.integers(min_value=0, max_value=64)),
    },
    optional={"payload_b64": field(st.just("YWJj"))},
)

decision_objects = st.fixed_dictionaries(
    {
        "next_state": field(st.sampled_from(["ESTABLISHED", "CLOSED", "OPEN"])),
        "flags": field(st.sampled_from(["ACK", "SYN|ACK", "SYN|SYN"])),
        "payload_len": field(st.integers(min_value=-1, max_value=10)),
        "t_task": field(st.sampled_from(["CALCULATE_ACK", "INIT_SYN", "BOGUS"])),
        "verdict": field(st.sampled_from(["NORMAL", "FLAG_ERROR", "LOST"])),
    }
)


@settings(deadline=None)
@given(st.lists(st.one_of(trace_objects, json_values), min_size=1, max_size=6))
def test_ingest_returns_or_raises_trace_format_error(lines):
    fd, path = tempfile.mkstemp(suffix=".jsonl")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            for obj in lines:
                fh.write(json.dumps(obj) + "\n")
        try:
            result = ingest_trace(path)
        except TraceFormatError:
            return
    finally:
        os.unlink(path)
    assert isinstance(result, IngestResult)
    assert len(result.records) + len(result.rejects) == len(lines)
    ts = [r.ts for r in result.records]
    assert ts == sorted(ts)


@settings(deadline=None)
@given(st.one_of(st.text(), json_values.map(json.dumps), decision_objects.map(json.dumps)))
def test_parse_decision_returns_or_raises_malformed(raw):
    try:
        decision = parse_decision(raw)
    except MalformedDecision:
        return
    assert isinstance(decision, CognitiveDecision)
