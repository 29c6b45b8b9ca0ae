"""Trace ingest, flow extraction, label reconstruction and error mutation."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from smart_tcp import dataset_pipeline, tcp_core
from smart_tcp.agent_runtime import Scenario, run_session
from smart_tcp.alu import AluTask
from smart_tcp.cognitive_core import (
    CognitiveDecision,
    CognitiveInput,
    OracleCore,
    PERSONA,
    Verdict,
    oracle_transition,
    parse_decision,
)
from smart_tcp.dataset_pipeline import (
    Completeness,
    FiveTuple,
    LabeledSample,
    SftFormat,
    TraceRecord,
    check_alu_consistency,
    emit_sft,
    extract_flows,
    generate_error_dataset,
    ingest_trace,
    reconstruct_labels,
)
from smart_tcp.tcp_core import (
    ACTION_NONE,
    ActionKind,
    AgentState,
    LocalAction,
    Role,
    SEQ_MOD,
    Segment,
    TcpState,
    flags_parse,
)

from traces import shifted, write_records
from wire_reference import state_to_wire


def session_records(seed=1, scenario=None, t0=0.0, src=None, dst=None):
    t = run_session(OracleCore(), OracleCore(), scenario or Scenario(), seed=seed)
    records = shifted(t.trace_records(), t0)
    if src is not None:
        remapped = []
        for r in records:
            ft = r.five_tuple
            if ft.src.startswith("10.0.0.1"):
                ft = FiveTuple(src=src, dst=dst)
            else:
                ft = FiveTuple(src=dst, dst=src)
            remapped.append(TraceRecord(ts=r.ts, five_tuple=ft, segment=r.segment))
        return remapped
    return records


def malformed(result) -> int:
    return sum(reason.startswith("malformed:") for _, reason in result.rejects)


def test_trace_types_are_tcp_cores():
    # They moved to tcp_core, and this module still binds them.
    for name in ("TCP_PROTO", "FiveTuple", "TraceRecord"):
        assert getattr(dataset_pipeline, name) is getattr(tcp_core, name)


class TestIngest:
    def test_round_trip(self, tmp_path):
        records = session_records()
        path = tmp_path / "trace.jsonl"
        write_records(records, path)
        result = ingest_trace(path)
        assert len(result.records) == len(records)
        assert result.rejects == []
        assert [r.segment.to_wire() for r in result.records] == [
            r.segment.to_wire() for r in records
        ]

    def test_sorts_by_timestamp(self, tmp_path):
        records = session_records()
        shuffled = [records[i] for i in (3, 0, 2, 1)] + records[4:]
        path = tmp_path / "trace.jsonl"
        write_records(shuffled, path)
        result = ingest_trace(path)
        ts = [r.ts for r in result.records]
        assert ts == sorted(ts)

    def test_non_tcp_rejected_not_malformed(self, tmp_path):
        records = session_records()
        path = tmp_path / "trace.jsonl"
        with open(path, "w") as fh:
            fh.write(
                json.dumps({"ts": 0.0, "proto": "udp", "src": "a:1", "dst": "b:2"}) + "\n"
            )
            for r in records:
                fh.write(json.dumps(r.to_wire()) + "\n")
        result = ingest_trace(path)
        assert len(result.records) == len(records)
        assert malformed(result) == 0
        assert len(result.rejects) == 1 and "non-tcp" in result.rejects[0][1]

    def test_malformed_below_threshold_collected(self, tmp_path):
        records = session_records()  # 11 lines
        path = tmp_path / "trace.jsonl"
        with open(path, "w") as fh:
            for r in records:
                fh.write(json.dumps(r.to_wire()) + "\n")
            fh.write('{"ts": "not-a-number", "proto": "tcp"}\n')
        result = ingest_trace(path)
        assert malformed(result) == 1
        assert len(result.records) == len(records)

    @pytest.mark.parametrize(
        "field,value",
        [
            (None, [1, 2]),
            (None, "str"),
            (None, None),
            (None, 5),
            ("ts", "nan"),
            ("ts", "inf"),
            ("ts", 1e400),
            ("ts", 10**400),
            ("flags", 5),
            ("flags", ["SYN"]),
            ("payload_len", -3),
        ],
    )
    def test_bad_line_is_malformed(self, tmp_path, field, value):
        # field None: the whole line is the value, valid JSON but no object.
        records = session_records()  # 11 lines
        bad = value if field is None else dict(records[0].to_wire(), **{field: value})
        path = tmp_path / "trace.jsonl"
        with open(path, "w") as fh:
            fh.write(json.dumps(bad) + "\n")
            for r in records:
                fh.write(json.dumps(r.to_wire()) + "\n")
        result = ingest_trace(path)
        assert malformed(result) == 1 and result.rejects[0][0] == 1
        assert len(result.records) == len(records)

    @pytest.mark.parametrize(
        "raw",
        [
            b"\xff\xfe",
            # Invalid bytes inside a JSON string value of an otherwise good line.
            b'{"ts": 0.5, "src": "10.0.0.1:\xff", "dst": "b:2", "proto": "tcp", '
            b'"seq": 1, "ack": 0, "flags": "SYN", "payload_len": 0}',
        ],
    )
    def test_invalid_utf8_line_is_malformed(self, tmp_path, raw):
        records = session_records()  # 11 lines
        path = tmp_path / "trace.jsonl"
        with open(path, "wb") as fh:
            for r in records[:5]:
                fh.write(json.dumps(r.to_wire()).encode() + b"\n")
            fh.write(raw + b"\n")
            for r in records[5:]:
                fh.write(json.dumps(r.to_wire()).encode() + b"\n")
        result = ingest_trace(path)
        assert malformed(result) == 1
        assert result.rejects == [(6, "malformed: line is not valid UTF-8")]
        assert len(result.records) == len(records)


class TestExtractFlows:
    def test_single_session_complete(self):
        flows = extract_flows(session_records())
        assert len(flows) == 1
        assert flows[0].completeness is Completeness.COMPLETE
        assert flows[0].initiator.src.startswith("10.0.0.1")

    def test_interleaved_sessions_separate_flows(self):
        a = session_records(seed=1, t0=0.0)
        b = session_records(seed=2, t0=0.0005, src="10.0.0.3:40001", dst="10.0.0.2:80")
        merged = sorted(a + b, key=lambda r: r.ts)
        flows = extract_flows(merged)
        assert len(flows) == 2
        assert all(f.completeness is Completeness.COMPLETE for f in flows)
        assert {len(f.records) for f in flows} == {len(a)}

    def test_sequential_sessions_same_tuple_split_on_new_syn(self):
        a = session_records(seed=1, t0=0.0)
        b = session_records(seed=3, t0=1.0)
        flows = extract_flows(a + b)
        assert len(flows) == 2
        assert all(f.completeness is Completeness.COMPLETE for f in flows)

    def test_orphan_mid_stream_incomplete(self):
        records = session_records()[3:]  # no handshake observed
        flows = extract_flows(records)
        assert len(flows) == 1
        assert flows[0].completeness is Completeness.INCOMPLETE

    def test_unterminated_flow_incomplete(self):
        records = session_records()[:5]  # handshake + some data, no FINs
        flows = extract_flows(records)
        assert len(flows) == 1
        assert flows[0].completeness is Completeness.INCOMPLETE


class TestReconstruct:
    def make_flow(self, seed=1):
        flows = extract_flows(session_records(seed=seed))
        assert len(flows) == 1
        return flows[0]

    def test_every_record_reproduced(self):
        flow = self.make_flow()
        samples = reconstruct_labels(flow)
        # A lossless reference trace reconstructs one sample per segment.
        assert len(samples) == len(flow.records)
        assert [s.provenance["record_index"] for s in samples] == list(
            range(len(flow.records))
        )

    def test_labels_regenerate_observed_segments(self):
        flow = self.make_flow()
        for sample in reconstruct_labels(flow):
            observed = flow.records[sample.provenance["record_index"]].segment
            assert sample.label.t_task is not None
            assert sample.label.flags == observed.flags
            assert check_alu_consistency(sample, observed)

    def test_normal_verdicts_only(self):
        for sample in reconstruct_labels(self.make_flow()):
            assert sample.label.verdict is Verdict.NORMAL

    def test_alu_consistency_without_a_task_or_a_segment_to_feed_it(self):
        flow = self.make_flow()
        first = reconstruct_labels(flow)[0]
        observed = flow.records[0].segment
        # A label without a task has no numbers to regenerate.
        silent = first._replace(label=first.label._replace(t_task=None, flags=None))
        assert check_alu_consistency(silent, observed)
        # A task that reads a received segment cannot run without one.
        unfed = first._replace(label=first.label._replace(t_task=AluTask.CALCULATE_ACK))
        assert unfed.input.r is None
        assert not check_alu_consistency(unfed, observed)

    def test_incomplete_flow_rejected(self):
        flows = extract_flows(session_records()[:5])
        with pytest.raises(ValueError):
            reconstruct_labels(flows[0])

    def test_deterministic(self):
        assert reconstruct_labels(self.make_flow()) == reconstruct_labels(self.make_flow())

    def test_a_flow_with_a_fifth_of_its_records_skipped_keeps_its_samples(self):
        # One client send: SYN, SYN|ACK, ACK, data, ACK, FIN|ACK, ACK,
        # FIN|ACK, ACK. A retransmitted SYN first has no trigger, and an ACK
        # of one byte too many diverges from the oracle.
        scenario = Scenario(data_script=((Role.CLIENT, 5),))
        records = session_records(scenario=scenario)
        records.insert(0, records[0]._replace(ts=-0.0005))

        def ack_one_more(i):
            seg = records[i].segment
            records[i] = records[i]._replace(segment=seg._replace(ack=(seg.ack + 1) % SEQ_MOD))

        ack_one_more(5)  # the server's ACK of the data
        (flow,) = extract_flows(records)
        assert len(flow.records) == 10
        assert len(reconstruct_labels(flow)) == 8
        ack_one_more(7)  # and the server's ACK of the client's FIN: 3 of 10
        (flow,) = extract_flows(records)
        assert reconstruct_labels(flow) == []


def reconstructed(flows):
    """The samples trace2sft reconstructs from flows, in flow order."""
    return [
        s for f in flows if f.completeness is Completeness.COMPLETE for s in reconstruct_labels(f)
    ]


class TestErrorDataset:
    def make_samples(self, n=3):
        return reconstructed(
            extract_flows([r for i in range(n) for r in session_records(seed=10 + i, t0=float(i))])
        )

    def test_exact_category_counts(self):
        samples = generate_error_dataset(self.make_samples(), count=10, ratio=0.5, seed=0)
        verdicts = [s.label.verdict for s in samples]
        assert verdicts.count(Verdict.ORDER_ERROR) == 5
        assert verdicts.count(Verdict.FLAG_ERROR) == 5

    def test_uneven_ratio(self):
        samples = generate_error_dataset(self.make_samples(), count=10, ratio=0.3, seed=0)
        verdicts = [s.label.verdict for s in samples]
        assert verdicts.count(Verdict.ORDER_ERROR) == 3
        assert verdicts.count(Verdict.FLAG_ERROR) == 7

    @settings(deadline=None, max_examples=25)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(0, 2**32 - 1),
        st.floats(0.0, 1.0),
        st.sampled_from([Role.CLIENT, Role.SERVER]),
    )
    def test_labels_are_sound_under_oracle(self, session_seed, error_seed, ratio, closer):
        # The oracle labels every mutated input; an ORDER_* mutation always
        # yields ORDER_ERROR and a FLAG_* mutation FLAG_ERROR, and the label
        # keeps the state and emits nothing.
        flows = extract_flows(session_records(seed=session_seed, scenario=Scenario(closer=closer)))
        samples = generate_error_dataset(reconstructed(flows), count=12, ratio=ratio, seed=error_seed)
        for sample in samples:
            kind = sample.provenance["mutation"]
            want = Verdict.ORDER_ERROR if kind.startswith("ORDER_") else Verdict.FLAG_ERROR
            assert kind.startswith(("ORDER_", "FLAG_"))
            assert sample.label == CognitiveDecision(sample.input.s.state, None, 0, None, want)

    def test_inputs_are_segment_triggered(self):
        for sample in generate_error_dataset(self.make_samples(), count=10, seed=0):
            assert sample.input.a.kind is ActionKind.NONE
            assert sample.input.r is not None

    def test_deterministic_per_seed(self):
        samples = self.make_samples()
        a = generate_error_dataset(samples, count=20, seed=7)
        b = generate_error_dataset(samples, count=20, seed=7)
        c = generate_error_dataset(samples, count=20, seed=8)
        assert a == b
        assert a != c

    def test_count_validation(self):
        with pytest.raises(ValueError):
            generate_error_dataset(self.make_samples(), count=1)

    @pytest.mark.parametrize(
        "ratio, want",
        [
            (1.0, {"ORDER_SEQ_JUMP": 10}),
            (0.5, {"ORDER_SEQ_JUMP": 5, "FLAG_ILLEGAL_COMBO": 3, "FLAG_WRONG_STATE": 2}),
        ],
    )
    def test_without_a_consuming_context_order_swaps_become_seq_jumps(self, ratio, want):
        # A SYN in LISTEN and a SEND's last data segment consume sequence
        # space, but neither is a synchronized, segment-triggered context.
        # The only one is a pure ACK in ESTABLISHED, which consumes nothing,
        # so no swap can move its seq: every ORDER_SWAP slot jumps instead.
        est = AgentState(Role.CLIENT, TcpState.ESTABLISHED, iss=100, snd_nxt=101, irs=500, rcv_nxt=501)
        listen = AgentState(Role.SERVER, TcpState.LISTEN, iss=700, snd_nxt=700)
        syn = Segment(seq=99, ack=0, flags=flags_parse("SYN"))
        data = Segment(seq=499, ack=101, flags=flags_parse("PSH|ACK"), payload=b"xy")
        ack = Segment(seq=501, ack=101, flags=flags_parse("ACK"))
        contexts = [
            (listen, syn, ACTION_NONE),
            (est, data, LocalAction(ActionKind.SEND, b"hello")),
            (est, ack, ACTION_NONE),
        ]
        samples = [
            LabeledSample(CognitiveInput(s, r, a), oracle_transition(s, r, a), {"record_index": i})
            for i, (s, r, a) in enumerate(contexts)
        ]
        assert all(x.label.verdict is Verdict.NORMAL for x in samples)
        errors = generate_error_dataset(samples, count=10, ratio=ratio, seed=0)
        kinds = [x.provenance["mutation"] for x in errors]
        assert {k: kinds.count(k) for k in kinds} == want
        for x, kind in zip(errors, kinds):
            assert x.provenance["record_index"] == 2
            want_verdict = Verdict.ORDER_ERROR if kind == "ORDER_SEQ_JUMP" else Verdict.FLAG_ERROR
            assert x.label.verdict is want_verdict


class TestEmitSft:
    def samples(self):
        flows = extract_flows(session_records())
        return reconstruct_labels(flows[0])

    def test_pairs_byte_deterministic(self, tmp_path):
        samples = self.samples()
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        emit_sft(samples, p1, SftFormat.PAIRS)
        emit_sft(samples, p2, SftFormat.PAIRS)
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().splitlines()
        assert len(lines) == len(samples)
        assert set(json.loads(lines[0]).keys()) == {"input", "label"}

    def test_instruct_outputs_parse_back(self, tmp_path):
        samples = self.samples()
        path = tmp_path / "sft.jsonl"
        emit_sft(samples, path, SftFormat.INSTRUCT)
        for line, sample in zip(path.read_text().splitlines(), samples):
            obj = json.loads(line)
            assert obj["instruction"] == PERSONA
            assert parse_decision(obj["output"]) == sample.label
            assert json.loads(obj["input"])["state"] == state_to_wire(sample.input.s)
