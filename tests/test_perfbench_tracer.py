"""The benchmark's span tracer against the package's names.

`perfbench/tracer.py` wraps each traced function under every name a module
binds it by (`vars(owner)[attr]`), and a name that a module no longer binds
makes `plan_layers` raise KeyError. Building the plan here catches that in a
local test run, for every workload's path at once.
"""

import importlib.util
from pathlib import Path

from smart_tcp import cli
from smart_tcp.cli import EXIT_OK
from smart_tcp.tcp_core import Segment

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_plan_layers_traces_simulate(capsys):
    module = load_tracer()
    tracer = module.Tracer()
    module.plan_layers(tracer)  # KeyError for a name no longer bound
    init = vars(Segment)["__init__"]
    tracer.install()
    try:
        assert cli.main(["simulate", "--sessions", "2", "--seed", "3"]) == EXIT_OK
    finally:
        tracer.uninstall()
    assert vars(Segment)["__init__"] is init
    assert "trial=100.00%" in capsys.readouterr().out
    calls = {name: s.calls for name, s in tracer.stats.items()}
    assert calls["agent_runtime.run_session"] == 2
    for name in (
        "agent_runtime.Agent.step",
        "cognitive_core.oracle_transition",
        "alu.alu_execute",
        "tcp_core.seq_add",
    ):
        assert calls[name] > 0, name


def test_plan_layers_traces_trace2sft(tmp_path, capsys):
    # Neither the session step nor Segment.from_wire calls the class: each
    # assembles its segments from checked fields. The error samples'
    # mutations do, through Segment._replace.
    simulate = ["simulate", "--sessions", "1", "--seed", "3", "--out", str(tmp_path)]
    assert cli.main(simulate) == EXIT_OK
    module = load_tracer()
    tracer = module.Tracer()
    module.plan_layers(tracer)
    init = vars(Segment)["__init__"]
    tracer.install()
    try:
        trace, sft = str(tmp_path / "session-000.jsonl"), str(tmp_path / "sft.jsonl")
        assert cli.main(["trace2sft", "--in", trace, "--out", sft, "--errors", "4"]) == EXIT_OK
    finally:
        tracer.uninstall()
    assert vars(Segment)["__init__"] is init
    capsys.readouterr()
    calls = {name: s.calls for name, s in tracer.stats.items()}
    assert calls["dataset_pipeline.reconstruct_labels"] == 1
    for name in ("tcp_core.Segment.from_wire", "tcp_core.Segment"):
        assert calls[name] > 0, name
