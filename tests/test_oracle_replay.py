"""Properties of the oracle's replays over drawn scenarios: the labeler
reproduces what the runtime's oracle decided, and `inject` judges recorded
streams as the oracle would."""

import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from smart_tcp.agent_runtime import Scenario, run_session
from smart_tcp.cli import EXIT_OK, main
from smart_tcp.cognitive_core import OracleCore
from smart_tcp.dataset_pipeline import extract_flows, reconstruct_labels, transcript_to_trace_records
from smart_tcp.tcp_core import Role

scenarios = st.builds(
    lambda script, closer: Scenario(data_script=tuple(script), closer=closer, scenario_id="drawn"),
    st.lists(st.tuples(st.sampled_from(Role), st.integers(min_value=1, max_value=3000)), max_size=6),
    st.sampled_from(Role),
)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


class RecordingOracle(OracleCore):
    """The oracle, keeping the wire form of each decision that emits."""

    def __init__(self):
        self.emitting = []

    def decide(self, input):
        decision = super().decide(input)
        if decision.emits_segment():
            self.emitting.append((input.to_wire(), decision.to_wire()))
        return decision


@settings(deadline=None, max_examples=60)
@given(scenarios, seeds)
def test_labels_are_the_runtime_oracles_decisions(scenario, seed):
    core = RecordingOracle()
    t = run_session(core, core, scenario, seed)
    assert t.all_passed()
    [flow] = extract_flows(transcript_to_trace_records(t))
    samples = reconstruct_labels(flow)
    assert [(s.input.to_wire(), s.label.to_wire()) for s in samples] == core.emitting


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
