"""Properties over drawn scenarios: a session file is a one-flow trace, the
labeler reproduces what the runtime's oracle decided, `inject` judges
recorded streams as the oracle would, and sessions with a planted wrong
decision grade as exactly those sessions failed."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from smart_tcp.agent_runtime import Scenario, run_session, run_trials
from smart_tcp.cli import EXIT_OK, main
from smart_tcp.cognitive_core import OracleCore, Verdict, serialize_decision, serialize_input
from smart_tcp.dataset_pipeline import Completeness, extract_flows, ingest_trace, reconstruct_labels
from smart_tcp.tcp_core import Role

from planted import PlantedCore, isses

scenarios = st.builds(
    lambda script, closer: Scenario(data_script=tuple(script), closer=closer, scenario_id="drawn"),
    st.lists(st.tuples(st.sampled_from(Role), st.integers(min_value=1, max_value=3000)), max_size=6),
    st.sampled_from(Role),
)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


@settings(deadline=None, max_examples=60)
@given(scenarios, seeds)
def test_session_file_is_a_one_flow_trace(scenario, seed):
    t = run_session(OracleCore(), OracleCore(), scenario, seed)
    stdout = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "session.jsonl"
        t.write(path)
        ingest = ingest_trace(path)
        with contextlib.redirect_stdout(stdout):
            assert main(["inject", "--in", str(path), "--fault", "none"]) == EXIT_OK
    # The trailer is the one line that is not a trace record.
    assert ingest.rejects == [(len(t.entries) + 1, "non-tcp protocol: ''")]
    [flow] = extract_flows(ingest.records)
    assert flow.completeness is Completeness.COMPLETE
    deliveries = [
        (Role.CLIENT if r.five_tuple == flow.initiator else Role.SERVER, r.segment)
        for r in flow.records
    ]
    assert deliveries == [(e.direction, e.segment) for e in t.entries]
    syn = next(s for _, s in deliveries if s.flags.syn and not s.flags.ack)
    synack = next(s for _, s in deliveries if s.flags.syn and s.flags.ack)
    assert (syn.seq, synack.seq) == (t.client_iss, t.server_iss)
    assert stdout.getvalue() == f"{len(t.entries)} deliveries, anomalies: none\n"


class RecordingOracle(OracleCore):
    """The oracle, keeping the SFT text of each input and decision that emits."""

    def __init__(self):
        self.emitting = []

    def decide(self, input):
        decision = super().decide(input)
        if decision.verdict is Verdict.NORMAL and decision.t_task is not None:
            self.emitting.append((serialize_input(input), serialize_decision(decision)))
        return decision


@settings(deadline=None, max_examples=60)
@given(scenarios, seeds)
def test_labels_are_the_runtime_oracles_decisions(scenario, seed):
    core = RecordingOracle()
    t = run_session(core, core, scenario, seed)
    assert t.all_passed()
    [flow] = extract_flows(t.trace_records())
    samples = reconstruct_labels(flow)
    assert [(serialize_input(s.input), serialize_decision(s.label)) for s in samples] == core.emitting


def replay_verdicts(transcript, *fault):
    """Verdicts that `inject` writes for the transcript, read back from --out."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "session.jsonl", Path(tmp) / "inj.jsonl"
        transcript.write(path)
        assert main(["inject", "--in", str(path), *fault, "--out", str(out)]) == EXIT_OK
        return [json.loads(line)["replay_verdict"] for line in out.read_text().splitlines()]


@settings(deadline=None, max_examples=40)
@given(scenarios, seeds)
def test_unmutated_replay_is_all_normal(scenario, seed):
    t = run_session(OracleCore(), OracleCore(), scenario, seed)
    assert replay_verdicts(t, "--fault", "none") == ["NORMAL"] * len(t.entries)


@settings(deadline=None, max_examples=40)
@given(scenarios, seeds, st.data())
def test_syn_fin_mutation_is_the_first_anomaly(scenario, seed, data):
    t = run_session(OracleCore(), OracleCore(), scenario, seed)
    i = data.draw(st.integers(min_value=0, max_value=len(t.entries) - 1), label="index")
    verdicts = replay_verdicts(t, "--fault", "flag_mutate", "--index", str(i), "--mutation", "SYN|FIN")
    assert verdicts[: i + 1] == ["NORMAL"] * i + ["FLAG_ERROR"]


@settings(deadline=None, max_examples=40)
@given(scenarios, seeds, st.data())
def test_planted_sessions_are_exactly_the_failed_ones(scenario, base_seed, data):
    n = data.draw(st.integers(min_value=1, max_value=6), label="sessions")
    failing = data.draw(st.sets(st.integers(min_value=0, max_value=n - 1)), label="planted")
    non_closer = Role.SERVER if scenario.closer is Role.CLIENT else Role.CLIENT
    clean = run_trials(OracleCore(), OracleCore(), n, base_seed, scenario)
    core = PlantedCore(isses(clean, failing, non_closer))
    report = run_trials(core, core, n, base_seed, scenario)

    assert clean.trial_accuracy == 1.0
    assert report.trial_accuracy == (n - len(failing)) / n
    halted = {i for i, t in enumerate(report.transcripts) if t.halt_reason}
    assert halted == failing
    for i in failing:
        assert report.transcripts[i].halt_reason == f"{scenario.closer.value} verdict FLAG_ERROR"
    for t in clean.transcripts + report.transcripts:
        assert all(e.segment.flags == e.decision.flags for e in t.entries)
