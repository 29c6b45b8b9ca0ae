"""Properties: trace lines, session files, endpoint replies and model output,
whatever their JSON, end as a result or as the reader's own typed error,
never as another exception."""

import contextlib
import io
import json
import math
import os
import random
import re
import sys
import tempfile
import threading

import pytest
from hypothesis import example, given, settings, strategies as st

from smart_tcp.alu import AluError, AluTask, alu_parse_task
from smart_tcp.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, main
from smart_tcp.cognitive_core import (
    DECISION_KEYS,
    DECISION_MEMO_SIZE,
    CognitiveDecision,
    CognitiveInput,
    MalformedDecision,
    RemoteConfig,
    RemoteCore,
    TransportError,
    Verdict,
    _decode_decision,
    parse_decision,
)
from smart_tcp.dataset_pipeline import IngestResult, ingest_trace
from smart_tcp.http11 import Endpoint
from smart_tcp.tcp_core import (
    ActionKind,
    AgentState,
    FiveTuple,
    LocalAction,
    MAX_PAYLOAD_LEN,
    Role,
    Segment,
    TcpState,
    TraceRecord,
    flags_parse,
    parse_state,
    wire_int,
    wire_str,
)

SYN_LINE = json.dumps(
    {"ts": 0.0, "proto": "tcp", "src": "10.0.0.1:40000", "dst": "10.0.0.2:80",
     "seq": 1, "ack": 0, "flags": "SYN", "payload_len": 0}
)

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
def test_ingest_turns_every_line_into_a_record_or_a_reject(lines):
    # However many lines are malformed: the 10% rule is trace2sft's.
    fd, path = tempfile.mkstemp(suffix=".jsonl")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            for obj in lines:
                fh.write(json.dumps(obj) + "\n")
        result = ingest_trace(path)
    finally:
        os.unlink(path)
    assert isinstance(result, IngestResult)
    assert len(result.records) + len(result.rejects) == len(lines)
    ts = [r.ts for r in result.records]
    assert ts == sorted(ts)


def ingest_reference(texts):
    """`ingest_trace` line by line, for lines of JSON text: the same checks
    in the same order, each record built by the checked constructors."""
    records, rejects = [], []
    for lineno, text in enumerate(texts, start=1):
        try:
            obj = json.loads(text)
            if not isinstance(obj, dict):
                raise ValueError(f"not a JSON object: {type(obj).__name__}")
            proto = wire_str("proto", obj["proto"]).lower() if "proto" in obj else ""
            if proto != "tcp":
                rejects.append((lineno, f"non-tcp protocol: {proto!r}"))
                continue
            ts = obj["ts"]
            if type(ts) is not float and type(ts) is not int:
                raise ValueError(f"ts must be a number: {ts!r}")
            if not math.isfinite(float(ts)):
                raise ValueError(f"non-finite ts: {float(ts)}")
            src = wire_str("src", obj["src"])
            dst = wire_str("dst", obj["dst"])
            declared = wire_int("payload_len", obj["payload_len"])
            if not 0 <= declared <= MAX_PAYLOAD_LEN:
                raise ValueError(f"payload_len out of range: {declared}")
            seq = wire_int("seq", obj["seq"])
            ack = wire_int("ack", obj["ack"])
            segment = Segment(seq, ack, flags_parse(obj["flags"]), bytes(declared))
            record = TraceRecord(float(ts), FiveTuple(src, dst), segment)
        except KeyError as exc:
            rejects.append((lineno, f"malformed: missing key {exc.args[0]!r}"))
        except (ValueError, TypeError, OverflowError) as exc:
            rejects.append((lineno, f"malformed: {exc}"))
        else:
            records.append(record)
    records.sort(key=lambda r: r.ts)
    return records, rejects


TRACE_KEYS = sorted(json.loads(SYN_LINE)) + ["payload_b64"]
ADDRESSES = ["10.0.0.1:40000", "10.0.0.2:80", "10.0.0.3:5"]
valid_trace_objects = st.fixed_dictionaries(
    {
        "ts": st.floats(min_value=0, max_value=10) | st.integers(0, 10),
        "proto": st.sampled_from(["tcp", "tcp", "TCP", "udp"]),
        "src": st.sampled_from(ADDRESSES),
        "dst": st.sampled_from(ADDRESSES),
        "seq": u32,
        "ack": u32,
        "flags": st.sampled_from(["SYN", "ACK", "SYN|ACK", "fin|ack", "FIN", "PSH|ACK"]),
        "payload_len": st.integers(min_value=0, max_value=4),
    },
    optional={"payload_b64": st.just("YWJj")},
)
DROP = object()
# Up to two faults a line: a key dropped, or its value replaced by any JSON.
trace_faults = st.lists(
    st.tuples(st.sampled_from(TRACE_KEYS), st.just(DROP) | json_values), max_size=2
)


def with_faults(obj, faults):
    obj = dict(obj)
    for key, value in faults:
        if value is DROP:
            obj.pop(key, None)
        else:
            obj[key] = value
    return obj


trace_lines = st.one_of(
    valid_trace_objects, st.builds(with_faults, valid_trace_objects, trace_faults), json_values
)
# A non-string src and no dst, where the src check comes first; and an
# unhashable src, which is checked before the direction lookup.
TWO_FAULTS = with_faults(json.loads(SYN_LINE), [("src", 5), ("dst", DROP)])
LIST_SRC = with_faults(json.loads(SYN_LINE), [("src", ["10.0.0.1:40000"])])


@settings(deadline=None, max_examples=300)
@given(st.lists(trace_lines, min_size=1, max_size=10))
@example([TWO_FAULTS, json.loads(SYN_LINE), json.loads(SYN_LINE)])
@example([LIST_SRC])
def test_ingest_equals_its_per_line_reference(lines):
    texts = [json.dumps(obj) for obj in lines]
    fd, path = tempfile.mkstemp(suffix=".jsonl")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write("".join(text + "\n" for text in texts))
        result = ingest_trace(path)
    finally:
        os.unlink(path)
    # A line reads the same without its payload_b64 key, whatever its value.
    bare = [
        json.dumps({k: v for k, v in obj.items() if k != "payload_b64"})
        if isinstance(obj, dict)
        else text
        for obj, text in zip(lines, texts)
    ]
    records, rejects = ingest_reference(bare)
    assert result.rejects == rejects
    assert result.records == records
    for r in result.records:
        assert (type(r), type(r.five_tuple), type(r.segment)) == (TraceRecord, FiveTuple, Segment)
    # Equal directions are one object.
    directions = {}
    for r in result.records:
        assert directions.setdefault(r.five_tuple, r.five_tuple) is r.five_tuple


@settings(deadline=None)
@given(st.one_of(st.text(), json_values.map(json.dumps), decision_objects.map(json.dumps)))
def test_parse_decision_returns_or_raises_malformed(raw):
    try:
        decision = parse_decision(raw)
    except MalformedDecision:
        return
    assert isinstance(decision, CognitiveDecision)


def tokens(enum):
    """Arbitrary JSON values, the enum's tokens and near misses of them."""
    values = [m.value for m in enum]
    near = [v.lower() for v in values] + [v + " " for v in values] + [[v] for v in values]
    return st.one_of(json_values, st.sampled_from(values + near))


@given(tokens(TcpState))
def test_parse_state_accepts_what_the_enum_accepts(x):
    try:
        expected = TcpState(x)
    except ValueError:
        with pytest.raises(ValueError) as exc:
            parse_state(x)
        assert str(exc.value) == f"unknown TCP state token: {x!r}"
    else:
        assert parse_state(x) is expected


@given(tokens(AluTask))
def test_alu_parse_task_accepts_what_the_enum_accepts(x):
    try:
        expected = AluTask(x)
    except ValueError:
        with pytest.raises(AluError) as exc:
            alu_parse_task(x)
        assert str(exc.value) == f"unknown ALU task token: {x!r}"
    else:
        assert alu_parse_task(x) is expected


@given(tokens(Verdict))
def test_verdict_decode_accepts_what_the_enum_accepts(x):
    obj = {"next_state": "CLOSED", "flags": None, "payload_len": 0, "t_task": None, "verdict": x}
    try:
        expected = Verdict(x)
    except ValueError as enum_exc:
        with pytest.raises(MalformedDecision) as exc:
            CognitiveDecision.from_wire(obj)
        assert str(exc.value) == str(enum_exc) == f"{x!r} is not a valid Verdict"
    else:
        assert CognitiveDecision.from_wire(obj).verdict is expected


def decision_with_payload_len(n):
    return {"next_state": "CLOSED", "flags": None, "payload_len": n, "t_task": None, "verdict": "NORMAL"}


@given(st.integers(min_value=0, max_value=MAX_PAYLOAD_LEN))
def test_decision_payload_len_in_range_decodes(n):
    assert CognitiveDecision.from_wire(decision_with_payload_len(n)).payload_len == n


@pytest.mark.parametrize("n", [True, False, 1.0, -1, MAX_PAYLOAD_LEN + 1])
def test_decision_payload_len_must_be_an_int_in_range(n):
    # JSON true/false load as bools, which are ints to isinstance. True and
    # 1.0 also equal a memoized payload_len of 1, and False one of 0.
    for valid in (0, 1):
        CognitiveDecision.from_wire(decision_with_payload_len(valid))
    with pytest.raises(MalformedDecision) as exc:
        CognitiveDecision.from_wire(decision_with_payload_len(n))
    assert str(exc.value) == f"bad payload_len: {n!r}"


def input_with_send(data_len):
    state = {"role": "CLIENT", "state": "ESTABLISHED", "iss": 1, "irs": 2, "snd_nxt": 2, "rcv_nxt": 3}
    return {"state": state, "received": None, "action": {"kind": "SEND", "data_len": data_len}}


def test_input_send_data_len_is_bounded_like_a_segment_payload():
    # The filler is built only after the check, so no test value may be
    # large: an unbounded decoder would really allocate it.
    sent = CognitiveInput.from_wire(input_with_send(MAX_PAYLOAD_LEN))
    assert sent.a == LocalAction(ActionKind.SEND, b"\x00" * MAX_PAYLOAD_LEN)
    with pytest.raises(ValueError, match=f"data_len out of range: {MAX_PAYLOAD_LEN + 1}"):
        CognitiveInput.from_wire(input_with_send(MAX_PAYLOAD_LEN + 1))


# Numbers that int() or float() would take but JSON does not spell as an
# integer: a float (int() truncates 1.9 to 1), a bool (JSON true is 1 to
# int()) and a string (int() strips " 7 ").
NOT_JSON_INTEGERS = [1.9, 2.0, True, False, " 7 ", "7"]
SEGMENT_WIRE = {"seq": 1, "ack": 0, "flags": "SYN", "payload_len": 0}


@pytest.mark.parametrize("value", NOT_JSON_INTEGERS)
@pytest.mark.parametrize("key", ["seq", "ack", "payload_len"])
def test_segment_numbers_must_be_json_integers(key, value):
    with pytest.raises(ValueError) as exc:
        Segment.from_wire(dict(SEGMENT_WIRE, **{key: value}))
    assert str(exc.value) == f"{key} must be an integer: {value!r}"


@pytest.mark.parametrize("value", NOT_JSON_INTEGERS)
@pytest.mark.parametrize("key", ["iss", "snd_nxt", "irs", "rcv_nxt"])
def test_state_numbers_must_be_json_integers(key, value):
    state = dict(input_with_send(1)["state"], **{key: value})
    with pytest.raises(ValueError) as exc:
        AgentState.from_wire(state)
    assert str(exc.value) == f"{key} must be an integer: {value!r}"


@pytest.mark.parametrize("value", NOT_JSON_INTEGERS)
def test_input_data_len_must_be_a_json_integer(value):
    with pytest.raises(ValueError) as exc:
        CognitiveInput.from_wire(input_with_send(value))
    assert str(exc.value) == f"data_len must be an integer: {value!r}"


@pytest.mark.parametrize(
    "key,value,reason",
    [
        ("seq", 1.9, "seq must be an integer: 1.9"),
        ("payload_len", True, "payload_len must be an integer: True"),
        ("seq", " 7 ", "seq must be an integer: ' 7 '"),
        ("ack", 0.0, "ack must be an integer: 0.0"),
        ("ts", True, "ts must be a number: True"),
        ("ts", "1.0", "ts must be a number: '1.0'"),
        # str() would spell these as the addresses 'None' and '5'.
        ("src", None, "src must be a string: None"),
        ("dst", 5, "dst must be a string: 5"),
        # A proto that is there but not a string is no protocol name.
        ("proto", 6, "proto must be a string: 6"),
        ("proto", None, "proto must be a string: None"),
        ("proto", ["tcp"], "proto must be a string: ['tcp']"),
    ],
)
def test_trace_line_with_a_non_integer_number_is_a_malformed_reject(key, value, reason, tmp_path):
    path = tmp_path / "trace.jsonl"
    bad = json.dumps(dict(json.loads(SYN_LINE), **{key: value}))
    path.write_text((SYN_LINE + "\n") * 5 + bad + "\n" + (SYN_LINE + "\n") * 5)
    result = ingest_trace(path)
    assert result.rejects == [(6, f"malformed: {reason}")]
    assert len(result.records) == 10


def test_trace_of_non_string_protos_fails_trace2sft(tmp_path):
    # Each line is malformed, not a non-TCP line that trace2sft passes over.
    path = tmp_path / "trace.jsonl"
    path.write_text(json.dumps(dict(json.loads(SYN_LINE), proto=6)) + "\n")
    code, err = run_cli(["trace2sft", "--in", str(path), "--out", str(tmp_path / "sft.jsonl")])
    assert (code, err) == (EXIT_IO, "error: 1/1 malformed lines exceeds the 10% threshold\n")
    assert not (tmp_path / "sft.jsonl").exists()


def test_trace_ts_may_be_a_json_integer(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text(json.dumps(dict(json.loads(SYN_LINE), ts=3)) + "\n")
    [record] = ingest_trace(path).records
    assert record.ts == 3.0 and type(record.ts) is float


def either(valid, near):
    """Valid values and near misses, drawn about equally often."""
    return st.one_of(st.sampled_from(valid), st.sampled_from(near))


# Decision objects as the memo sees them: a few token sets (valid tokens,
# near misses, flag spellings in either case, unhashable values), each drawn
# with payload_len values that compare equal across types.
memo_token_sets = st.fixed_dictionaries(
    {
        "next_state": either(["ESTABLISHED", "CLOSED"], ["established", "CLOSED ", ["CLOSED"], {}]),
        "flags": either([None, "ACK", "ack", "Syn|Ack"], ["SYN|SYN", "", ["ACK"], {"ACK": 1}]),
        "t_task": either([None, "CALCULATE_ACK"], ["calculate_ack", ["INIT_SYN"]]),
        "verdict": either(["NORMAL", "FLAG_ERROR"], ["normal", "LOST", [], {"v": "NORMAL"}]),
    }
)
memo_objects = st.lists(memo_token_sets, min_size=1, max_size=3).flatmap(
    lambda pool: st.lists(
        st.builds(
            lambda tokens, n: {**tokens, "payload_len": n},
            st.sampled_from(pool),
            st.sampled_from([1, True, 1.0, -1, 0, False]),
        ),
        min_size=1,
        max_size=12,
    )
)


def outcome(decode, obj):
    """A decision by its repr, which tells 1, True and 1.0 apart, or the
    MalformedDecision text."""
    try:
        return repr(decode(obj))
    except MalformedDecision as exc:
        return f"MalformedDecision: {exc}"


def plain_decode(obj):
    return _decode_decision.__wrapped__(*(obj[k] for k in DECISION_KEYS))


ONE = {"next_state": "ESTABLISHED", "flags": "ACK", "payload_len": 1, "t_task": None, "verdict": "NORMAL"}


@example(objs=[ONE, dict(ONE, payload_len=True), dict(ONE, payload_len=1.0)], rng=random.Random(0))
@given(memo_objects, st.randoms(use_true_random=False))
def test_memoized_decode_matches_the_plain_decode(objs, rng):
    _decode_decision.cache_clear()
    expected = [outcome(plain_decode, obj) for obj in objs]
    assert [outcome(CognitiveDecision.from_wire, obj) for obj in objs] == expected
    # Again with the memo warm, in another order.
    order = list(range(len(objs)))
    rng.shuffle(order)
    assert [outcome(CognitiveDecision.from_wire, objs[i]) for i in order] == [
        expected[i] for i in order
    ]


def test_threads_decoding_at_once_match_the_plain_decode():
    # More distinct decisions than the memo holds, so threads evict while
    # others look up; 1, True and 1.0 must stay apart, and a list token
    # cannot be a key.
    objs = [dict(ONE, payload_len=n) for n in range(DECISION_MEMO_SIZE + 600)]
    objs += [dict(ONE, payload_len=True), dict(ONE, payload_len=1.0), dict(ONE, flags=["ACK"])]
    objs += [dict(ONE, payload_len=MAX_PAYLOAD_LEN + 1), dict(ONE, verdict="LOST")]
    random.Random(3).shuffle(objs)
    expected = [outcome(plain_decode, obj) for obj in objs]
    results = {}

    def decode_all(i):
        results[i] = [outcome(CognitiveDecision.from_wire, obj) for obj in objs]

    _decode_decision.cache_clear()
    threads = [threading.Thread(target=decode_all, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == {i: expected for i in range(8)}
    assert _decode_decision.cache_info().currsize <= DECISION_MEMO_SIZE


# Reply bodies in the shapes RemoteCore accepts, each part valid half the time.
decision_texts = field(decision_objects.map(json.dumps))


def choices_of(choice):
    return st.fixed_dictionaries({"choices": field(st.lists(field(choice), max_size=2))})


response_bodies = st.one_of(
    json_values,
    choices_of(st.fixed_dictionaries({"message": field(st.fixed_dictionaries({"content": decision_texts}))})),
    choices_of(st.fixed_dictionaries({"text": decision_texts})),
    st.fixed_dictionaries({"content": decision_texts}),
    st.fixed_dictionaries({"text": decision_texts}),
)

OPEN_ACTIVE = CognitiveInput(
    s=AgentState(role=Role.CLIENT, state=TcpState.CLOSED, iss=10, snd_nxt=10),
    a=LocalAction(ActionKind.OPEN_ACTIVE),
)


@settings(deadline=None)
@given(response_bodies)
def test_remote_decide_returns_or_raises_typed_error(body):
    core = RemoteCore(RemoteConfig(endpoint="http://127.0.0.1:9/"))
    core.endpoint.post = lambda payload: json.dumps(body).encode()
    try:
        decision = core.decide(OPEN_ACTIVE)
    except (TransportError, MalformedDecision):
        return
    assert isinstance(decision, CognitiveDecision)


# Endpoint URLs as a user might mistype them: URL punctuation, spaces,
# controls, DEL and a non-ASCII letter after a scheme, an open IPv6
# bracket or a port colon.
endpoint_urls = st.builds(
    str.__add__,
    st.sampled_from(["http://", "https://", "http://[", "http://h:"]),
    st.text(alphabet="[]@:/?#%.-_ \t\r\n\x00\x7f\u00fcaz09", max_size=16),
)


@settings(deadline=None)
@given(endpoint_urls, st.none() | st.text(max_size=8))
@example("http://h:@]", None)
@example("http://[]", None)
def test_endpoint_builds_or_raises_transport_error(endpoint, key):
    try:
        Endpoint(endpoint, key, 1.0)
    except TransportError:
        pass


ENDPOINTS = ("10.0.0.1:40000", "10.0.0.2:80")
# Trace lines between two endpoints, as a session file holds them, with
# any numbers and flags; the same with an address that is not a string; a
# trailer, and lines of any JSON.
tcp_lines = st.builds(
    lambda sender, obj: {"src": ENDPOINTS[sender], "dst": ENDPOINTS[1 - sender], **obj},
    st.integers(min_value=0, max_value=1),
    st.fixed_dictionaries(
        {
            "ts": st.floats(min_value=0, max_value=1),
            "proto": st.just("tcp"),
            "seq": st.one_of(st.integers(min_value=0, max_value=3), u32),
            "ack": st.one_of(st.integers(min_value=0, max_value=3), u32),
            "flags": st.sampled_from(["SYN", "SYN|ACK", "ACK", "FIN|ACK", "PSH|ACK", "RST"]),
            "payload_len": st.integers(min_value=0, max_value=64),
        },
    ),
)
session_lines = st.one_of(
    tcp_lines,
    st.builds(
        lambda obj, key, value: {**obj, key: value},
        tcp_lines,
        st.sampled_from(["src", "dst"]),
        json_values.filter(lambda v: not isinstance(v, str)),
    ),
    st.just({"trailer": {"client_iss": 1, "server_iss": 2}}),
    trace_objects,
    json_values,
)


def line(sender, ts, seq, ack, flags):
    return {"src": ENDPOINTS[sender], "dst": ENDPOINTS[1 - sender], "ts": ts, "proto": "tcp",
            "seq": seq, "ack": ack, "flags": flags, "payload_len": 0}


# Half the files open with a handshake, so that draws reach the replay.
HANDSHAKE = [line(0, 0.0, 1, 0, "SYN"), line(1, 0.0, 9, 2, "SYN|ACK")]
session_files = st.builds(
    lambda opened, rest: (HANDSHAKE if opened else []) + rest,
    st.booleans(),
    st.lists(session_lines, max_size=6),
).filter(len)


@settings(deadline=None)
@given(session_files)
def test_inject_replays_or_exits_1_or_2(lines):
    fd, path = tempfile.mkstemp(suffix=".jsonl")
    out, err = io.StringIO(), io.StringIO()
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            for obj in lines:
                fh.write(json.dumps(obj) + "\n")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["inject", "--in", path, "--fault", "none"])
    finally:
        os.unlink(path)
    # A TCP line whose address is not a string is malformed wherever it is.
    bad_address = any(
        isinstance(obj, dict) and str(obj.get("proto", "")).lower() == "tcp"
        and not (type(obj.get("src")) is str and type(obj.get("dst")) is str)
        for obj in lines
    )
    assert code == EXIT_IO or not bad_address
    if code == EXIT_IO:
        # A malformed line, or a non-TCP one before the last.
        assert re.fullmatch(
            re.escape(f"error: {path} line ") + r"\d+: (malformed|non-tcp protocol): .*\n",
            err.getvalue(),
            re.DOTALL,
        )
    elif code == EXIT_USAGE:
        assert re.fullmatch(
            re.escape(f"error: {path} ")
            + r"(holds \d+ connections; inject replays exactly one"
            + r"|has no SYN and SYN\|ACK to take the ISSs from)\n",
            err.getvalue(),
        )
    else:
        assert code == EXIT_OK
        assert "deliveries, anomalies:" in out.getvalue()


# One line nested past the depth at which json raises RecursionError. That
# depth is the recursion limit (1,000) on 3.10 and 3.11, but 3.12 and 3.13
# guard the C stack with larger budgets: 1,100 levels decode there. 100,000
# levels raise on 3.10 to 3.13.
DEPTH = 100_000
DEEP = "[" * DEPTH


def run_cli(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.mark.parametrize(
    "reader", ["ingest_trace", "load_prediction_records", "Scenario.load", "parse_decision"]
)
def test_json_nested_past_the_recursion_limit_is_a_typed_error(reader, tmp_path):
    path = tmp_path / "deep.jsonl"
    path.write_text(DEEP + "\n")
    if reader == "ingest_trace":
        path.write_text((SYN_LINE + "\n") * 10 + DEEP + "\n")
        result = ingest_trace(path)
        [(lineno, reason)] = result.rejects
        assert len(result.records) == 10 and lineno == 11
        assert reason.startswith("malformed: maximum recursion depth exceeded")
    elif reader == "load_prediction_records":
        code, err = run_cli(["evaluate", "--pred", str(path), "--out", str(tmp_path / "r")])
        assert (code, err) == (EXIT_IO, f"error: {path} line 1: JSON nests too deeply\n")
    elif reader == "Scenario.load":
        code, err = run_cli(["simulate", "--scenario", str(path), "--sessions", "1"])
        assert (code, err) == (EXIT_USAGE, f"error: bad scenario {path}: JSON nests too deeply\n")
    else:
        # Bare, and embedded in prose, where the lenient pass finds it.
        for raw in (DEEP, 'decision: ' + '{"a":' * DEPTH + "1" + "}" * DEPTH):
            with pytest.raises(MalformedDecision, match="nests too deeply"):
                parse_decision(raw)
