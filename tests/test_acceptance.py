"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Run with -s to see the per-criterion lines:

    pytest tests/test_acceptance.py -v -s
"""

import os
import random
import time

import pytest

from smart_tcp.agent_runtime import Scenario, run_session, run_trials
from smart_tcp.alu import AluTask, alu_execute
from smart_tcp.cognitive_core import (
    CognitiveDecision,
    MalformedDecision,
    OracleCore,
    RemoteConfig,
    RemoteCore,
    Verdict,
    oracle_transition,
    parse_decision,
    serialize_decision,
)
from smart_tcp.dataset_pipeline import (
    Completeness,
    check_alu_consistency,
    extract_flows,
    generate_error_dataset,
    reconstruct_labels,
)
from smart_tcp.evaluation import FIELD_NAMES, PredictionRecord, compute_report
from smart_tcp.tcp_core import (
    ACTION_NONE,
    AgentState,
    Role,
    SEQ_MOD,
    Segment,
    TcpFlags,
    TcpState,
    flags_parse,
    segment_consumes,
    seq_add,
)

from planted import PlantedCore, isses

ENDPOINT_ENV = "SMART_TCP_MODEL_ENDPOINT"
KEY_ENV = "SMART_TCP_MODEL_KEY"


def verdict_line(criterion: str, ok: bool) -> None:
    print(f"\n[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_1_oracle_end_to_end_soundness():
    t0 = time.perf_counter()
    report = run_trials(OracleCore(), OracleCore(), 30, base_seed=7)
    elapsed = time.perf_counter() - t0
    ok = (
        report.handshake == 1.0
        and report.data_transfer == 1.0
        and report.termination == 1.0
        and report.trial_accuracy == 1.0
        and elapsed < 5.0
    )
    # The 93.33% trial figure belongs to a trained model; the harness must
    # reproduce the number exactly when a core fails 2 of 30 sessions.
    core = PlantedCore(isses(report, (3, 17)))
    fixture = run_trials(core, core, 30, base_seed=7)
    ok = ok and fixture.to_wire()["trial_accuracy"] == "93.33%"
    verdict_line(
        "1 oracle soundness (30/30 sessions, <5s; forced-failure fixture = 93.33%)", ok
    )


def test_criterion_2_alu_exactness_one_million_cases():
    rng = random.Random(20240515)
    # Pooled states x segments give 10^6 distinct (S, R) pairs; seq values
    # are biased toward the 2^32 boundary so wraparound is exercised.
    flag_pool = [
        TcpFlags(ack=True, syn=s, fin=f, psh=p)
        for s in (False, True)
        for f in (False, True)
        for p in (False, True)
    ]

    def draw_u32():
        if rng.random() < 0.25:
            return SEQ_MOD - rng.randint(1, 70_000)
        return rng.getrandbits(32)

    states = [
        AgentState(role=Role.CLIENT, state=TcpState.ESTABLISHED, iss=0, snd_nxt=draw_u32())
        for _ in range(1000)
    ]
    segments = [
        Segment(
            seq=draw_u32(),
            ack=rng.getrandbits(32),
            flags=flag_pool[rng.randrange(len(flag_pool))],
            payload=b"z" * rng.randint(0, 65_535),
        )
        for _ in range(1000)
    ]
    mismatches = 0
    for s in states:
        for r in segments:
            res = alu_execute(AluTask.CALCULATE_SEQ_ACK, s, r)
            consumed = r.payload_len + int(r.flags.syn) + int(r.flags.fin)
            if res.seq != s.snd_nxt or res.ack != (r.seq + consumed) % SEQ_MOD:
                mismatches += 1
    verdict_line(f"2 ALU exactness (10^6 cases, {mismatches} mismatches)", mismatches == 0)


def _sessions(n, base_seed=100):
    scenarios = [
        Scenario(),
        Scenario(closer=Role.SERVER, scenario_id="server-close"),
        Scenario(data_script=((Role.SERVER, 700), (Role.CLIENT, 40)), scenario_id="rev"),
    ]
    return [
        run_session(OracleCore(), OracleCore(), scenarios[i % len(scenarios)], seed=base_seed + i)
        for i in range(n)
    ]


def test_criterion_3_retrospective_round_trip():
    transcripts = _sessions(100)
    total = 0
    atomic_hits = 0
    alu_ok = True
    for t in transcripts:
        assert t.all_passed()
        records = t.trace_records()
        flows = extract_flows(records)
        assert len(flows) == 1
        samples = reconstruct_labels(flows[0])
        assert len(samples) == len(t.entries)
        for sample in samples:
            idx = sample.provenance["record_index"]
            live = t.entries[idx]
            observed = live.segment
            total += 1
            if sample.label == live.decision:
                atomic_hits += 1
            if not check_alu_consistency(sample, observed):
                alu_ok = False
    ok = total > 0 and atomic_hits == total and alu_ok
    verdict_line(
        f"3 retrospective round-trip (100 sessions, {atomic_hits}/{total} atomic, "
        f"ALU-consistent={alu_ok})",
        ok,
    )


def _reconstructed(flows):
    """The samples trace2sft reconstructs from flows, in flow order."""
    return [
        s for f in flows if f.completeness is Completeness.COMPLETE for s in reconstruct_labels(f)
    ]


def _error_detection_fixture_records():
    def d(v):
        return CognitiveDecision(TcpState.ESTABLISHED, None, 0, None, v)

    records = [PredictionRecord(d(Verdict.ORDER_ERROR), d(Verdict.ORDER_ERROR))] * 93
    records += [PredictionRecord(d(Verdict.ORDER_ERROR), d(Verdict.NORMAL))] * 7
    records += [PredictionRecord(d(Verdict.FLAG_ERROR), d(Verdict.FLAG_ERROR))] * 96
    records += [PredictionRecord(d(Verdict.FLAG_ERROR), d(Verdict.NORMAL))] * 4
    return records


def test_criterion_4_error_detection_oracle():
    flows = []
    for t in _sessions(10, base_seed=300):
        flows.extend(extract_flows(t.trace_records()))
    samples = generate_error_dataset(_reconstructed(flows), count=200, ratio=0.5, seed=5)
    counts = {
        Verdict.ORDER_ERROR: sum(1 for s in samples if s.label.verdict is Verdict.ORDER_ERROR),
        Verdict.FLAG_ERROR: sum(1 for s in samples if s.label.verdict is Verdict.FLAG_ERROR),
    }
    records = [
        PredictionRecord(
            truth=s.label,
            predicted=oracle_transition(s.input.s, s.input.r, ACTION_NONE),
        )
        for s in samples
    ]
    m = compute_report(records).error_detection
    ok = (
        counts == {Verdict.ORDER_ERROR: 100, Verdict.FLAG_ERROR: 100}
        and m.overall_accuracy == 1.0
        and all(v == 1.0 for v in m.recall_by_category.values())
    )
    # Model-result numbers from a synthetic fixture with 93 and 96 planted hits.
    fm = compute_report(_error_detection_fixture_records()).error_detection
    ok = ok and (
        f"{fm.overall_accuracy * 100:.1f}" == "94.5"
        and f"{fm.recall_by_category['ORDER_ERROR'] * 100:.1f}" == "93.0"
        and f"{fm.recall_by_category['FLAG_ERROR'] * 100:.1f}" == "96.0"
    )
    verdict_line(
        "4 error-detection oracle (100+100 at 100%; fixture 94.5/93.0/96.0)", ok
    )


def test_criterion_5_metric_fidelity_fixtures():
    def d(state, flags="ACK"):
        return CognitiveDecision(
            TcpState(state), flags_parse(flags) if flags else None, 0, None, Verdict.NORMAL
        )

    # 101-of-205 acknowledgment hits -> 49.27% after two-decimal rounding.
    est = d("ESTABLISHED")
    ack_records = [
        PredictionRecord(est, est, truth_numbers=(0, 1), predicted_numbers=(0, 1))
    ] * 101
    ack_records += [
        PredictionRecord(est, est, truth_numbers=(0, 1), predicted_numbers=(0, 2))
    ] * 104
    ok = f"{compute_report(ack_records).field_accuracy['Ack'] * 100:.2f}%" == "49.27%"

    # 35-of-36 fully correct -> 97.22%.
    atom_records = [
        PredictionRecord(est, est, truth_numbers=(1, 2), predicted_numbers=(1, 2))
    ] * 35
    atom_records.append(
        PredictionRecord(est, d("CLOSE_WAIT"), truth_numbers=(1, 2), predicted_numbers=(1, 2))
    )
    ok = ok and f"{compute_report(atom_records).atomic_accuracy * 100:.2f}%" == "97.22%"

    # 2-of-36 FIN_WAIT_1 truths predicted ESTABLISHED -> 5.6 / 94.4 row cells.
    fw1 = d("FIN_WAIT_1", "FIN|ACK")
    conf_records = [PredictionRecord(fw1, fw1)] * 34 + [PredictionRecord(fw1, est)] * 2
    m = compute_report(conf_records).confusion
    ok = ok and m["FIN_WAIT_1"]["ESTABLISHED"] == 5.6 and m["FIN_WAIT_1"]["FIN_WAIT_1"] == 94.4
    verdict_line("5 metric fidelity fixtures (49.27% / 97.22% / 5.6)", ok)


def test_criterion_6_property_suites(tmp_path):
    t0 = time.perf_counter()
    rng = random.Random(6)

    # Serial-arithmetic associativity, 10^4 random triples.
    for _ in range(10_000):
        a, n1, n2 = rng.getrandbits(32), rng.getrandbits(32), rng.getrandbits(32)
        assert seq_add(seq_add(a, n1), n2) == (a + n1 + n2) % SEQ_MOD

    # Flag round-trip, 10^4 random non-empty flag sets.
    for _ in range(10_000):
        f = TcpFlags(*(rng.random() < 0.5 for _ in range(6)))
        if not f.any():
            f = TcpFlags(ack=True)
        assert flags_parse(f.render()) == f

    # Ack conservation replay over 1000 sessions (~10^4 acknowledged
    # segments): every ACK equals the peer's ISN plus consumed bytes.
    ack_cases = 0
    for seed in range(1000):
        t = run_session(OracleCore(), OracleCore(), Scenario(), seed=seed)
        assert t.all_passed()
        consumed = {Role.CLIENT: 0, Role.SERVER: 0}
        isn = {Role.CLIENT: t.client_iss, Role.SERVER: t.server_iss}
        for e in t.entries:
            peer = Role.SERVER if e.direction is Role.CLIENT else Role.CLIENT
            if e.segment.flags.ack:
                assert e.segment.ack == (isn[peer] + consumed[peer]) % SEQ_MOD
                ack_cases += 1
            consumed[e.direction] += segment_consumes(e.segment)
    assert ack_cases >= 10_000

    # Transcript determinism: re-running a seed reproduces every line of
    # its session file byte-for-byte (>= 10^4 compared lines).
    compared = 0
    pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for seed in range(1000):
        run_session(OracleCore(), OracleCore(), Scenario(), seed=seed).write(pa)
        run_session(OracleCore(), OracleCore(), Scenario(), seed=seed).write(pb)
        wa = pa.read_bytes().splitlines()
        assert wa == pb.read_bytes().splitlines()
        compared += len(wa)
    assert compared >= 10_000

    # Mutation soundness: 10^4 mutated samples all reach their labeled
    # verdict under the oracle, with state preserved.
    flows = []
    for t in _sessions(6, base_seed=600):
        flows.extend(extract_flows(t.trace_records()))
    for s in generate_error_dataset(_reconstructed(flows), count=10_000, ratio=0.5, seed=9):
        decision = oracle_transition(s.input.s, s.input.r, ACTION_NONE)
        assert decision.verdict is s.label.verdict
        assert decision.next_state is s.input.s.state

    # Atomic accuracy never exceeds any single field accuracy (10^4 records).
    states = [TcpState.ESTABLISHED, TcpState.FIN_WAIT_1, TcpState.CLOSE_WAIT, TcpState.CLOSED]
    records = []
    for _ in range(10_000):
        t = CognitiveDecision(rng.choice(states), flags_parse("ACK"), rng.choice([0, 100]), None)
        p = CognitiveDecision(rng.choice(states), flags_parse("ACK"), rng.choice([0, 100]), None)
        records.append(
            PredictionRecord(
                t,
                p,
                truth_numbers=(rng.randrange(40), rng.randrange(40)),
                predicted_numbers=(rng.randrange(40), rng.randrange(40)),
            )
        )
    report = compute_report(records)
    for name in FIELD_NAMES:
        assert report.atomic_accuracy <= report.field_accuracy[name] + 1e-12

    elapsed = time.perf_counter() - t0
    verdict_line(f"6 property suites (>=10^4 cases each, {elapsed:.1f}s < 60s)", elapsed < 60.0)


class ScriptedRemote(RemoteCore):
    """RemoteCore with the transport stubbed by a scripted response list."""

    def __init__(self, responses):
        super().__init__(RemoteConfig(endpoint="http://stub.invalid/v1/chat"))
        self.responses = list(responses)

    def _complete(self, messages):
        return self.responses.pop(0)


def test_criterion_7_remote_core_malformed_handling():
    valid = serialize_decision(
        CognitiveDecision(TcpState.SYN_SENT, flags_parse("SYN"), 0, AluTask.INIT_SYN)
    )
    from smart_tcp.cognitive_core import CognitiveInput
    from smart_tcp.tcp_core import ActionKind, LocalAction

    cinput = CognitiveInput(
        s=AgentState(role=Role.CLIENT, state=TcpState.CLOSED, iss=9000, snd_nxt=9000),
        r=None,
        a=LocalAction(ActionKind.OPEN_ACTIVE),
    )
    core = ScriptedRemote(
        [valid, "garbage", f"noted, here you go: {valid}", "still garbage", "{}"]
    )
    results = []
    malformed_seen = 0
    for _ in range(3):
        try:
            results.append(core.decide(cinput))
        except MalformedDecision:
            malformed_seen += 1
    ok = (
        len(results) == 2
        and all(parse_decision(serialize_decision(r)) == r for r in results)
        and malformed_seen == 1
        and core.malformed_count == 1
        and core.request_count == 5
    )
    verdict_line(
        f"7 remote-core integration (stubbed transport; malformed rate "
        f"{core.malformed_count}/{core.request_count} reported, not fatal)",
        ok,
    )


@pytest.mark.skipif(
    not os.environ.get(ENDPOINT_ENV),
    reason=f"{ENDPOINT_ENV} not set; live remote-core check is environment-gated",
)
def test_criterion_7_remote_core_live_endpoint():
    from smart_tcp.cognitive_core import CognitiveInput
    from smart_tcp.tcp_core import ActionKind, LocalAction

    core = RemoteCore(RemoteConfig(os.environ[ENDPOINT_ENV], api_key=os.environ.get(KEY_ENV)))
    cinput = CognitiveInput(
        s=AgentState(role=Role.CLIENT, state=TcpState.CLOSED, iss=9000, snd_nxt=9000),
        r=None,
        a=LocalAction(ActionKind.OPEN_ACTIVE),
    )
    try:
        decision = core.decide(cinput)
        ok = parse_decision(serialize_decision(decision)) == decision
    except MalformedDecision:
        ok = core.malformed_count > 0  # reported, not fatal
    verdict_line(
        f"7 remote-core live endpoint (malformed {core.malformed_count}/{core.request_count})",
        ok,
    )
