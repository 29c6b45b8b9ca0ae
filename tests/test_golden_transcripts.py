"""Pinned bytes of `simulate --out`, `trace2sft` and `inject --out`.

Oracle transcripts grade every model and seed the training data, and the
oracle's replay labels the SFT samples and judges injected faults, so a
speed-up or a refactor of the session loop or of the replay must leave these
outputs byte for byte as they were. A change that alters a format on purpose
updates the digests.
"""

import hashlib
import json

from smart_tcp.agent_runtime import Scenario, run_session
from smart_tcp.cli import EXIT_OK, EXIT_USAGE, main
from smart_tcp.cognitive_core import OracleCore
from smart_tcp.tcp_core import Role

from traces import shifted, write_records

# Alternating data segments of awkward sizes, the server closes.
MULTI_SEGMENT = Scenario(
    data_script=(
        (Role.CLIENT, 1),
        (Role.SERVER, 1460),
        (Role.CLIENT, 700),
        (Role.SERVER, 3),
        (Role.CLIENT, 65535),
        (Role.SERVER, 512),
        (Role.SERVER, 99),
        (Role.CLIENT, 1024),
    ),
    closer=Role.SERVER,
    steps_budget=160,
    scenario_id="golden-multi",
)

GOLDEN = {
    "default": "3730d5c7095a833d743eb2174a5a485576debbb6175f299f365328bb20c3f491",
    "multi": "e5ece0ab49516ea50e3b93643f42666e032a4a3f7204e1d310b584a7641f6677",
}


def simulate_digest(tmp_path, capsys, *extra):
    out = tmp_path / "out"
    code = main(["simulate", "--core", "oracle", *extra, "--out", str(out)])
    stdout = capsys.readouterr().out
    assert code == EXIT_OK
    h = hashlib.sha256()
    for p in sorted(out.iterdir()):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    h.update(stdout.encode())
    return h.hexdigest()


def test_default_scenario_transcripts(tmp_path, capsys):
    # The CLI defaults: 30 sessions, seed 7.
    assert simulate_digest(tmp_path, capsys) == GOLDEN["default"]


def test_server_closes_multi_segment_transcripts(tmp_path, capsys):
    sc = tmp_path / "scenario.json"
    sc.write_text(json.dumps(MULTI_SEGMENT.to_wire()))
    digest = simulate_digest(
        tmp_path, capsys, "--sessions", "6", "--seed", "11", "--scenario", str(sc)
    )
    assert digest == GOLDEN["multi"]


TRACE_GOLDEN = {
    "pairs": "27b5a2ff58d57acb158111c4998c4703ef3ee0cb6b8c5c90d0a28caf67440dcf",
    "instruct": "42dea0e0e63bff0f44ce12533b930ed4a3aebc3e10e36459fd75e3b8d00808e5",
}

INJECT_GOLDEN = "afbf66f2035d2d673eaad2e07422818b5a054e6a94553e8c2d538aa71ee553be"

MUTATIONS = ("SYN|FIN", "FIN", "SYN|ACK", "RST|ACK")


def golden_sessions():
    """Two default sessions and two server-closing multi-segment ones."""
    oracle = OracleCore()
    return [
        run_session(oracle, oracle, scenario, seed)
        for scenario, seed in ((Scenario(), 7), (Scenario(), 8), (MULTI_SEGMENT, 11), (MULTI_SEGMENT, 12))
    ]


def duplicated(records, i):
    """Repeat records[i] right after itself, as a retransmission would
    appear in a capture."""
    return records[: i + 1] + [records[i]._replace(ts=records[i].ts + 0.0005)] + records[i + 1 :]


def test_trace2sft_outputs(tmp_path, capsys):
    # A repeated data record costs a flow too many skipped records when it
    # comes early and a few when it comes last; a repeated FIN has no trigger.
    records = []
    for k, t in enumerate(golden_sessions()):
        recs = shifted(t.trace_records(), k * 10.0)
        data = [i for i, r in enumerate(recs) if r.segment.payload_len > 0]
        if k == 0:
            recs = duplicated(recs, data[0])
        elif k == 2:
            recs = duplicated(recs, next(i for i, r in enumerate(recs) if r.segment.flags.fin))
        elif k == 3:
            recs = duplicated(recs, data[-1])
        records += recs
    trace = tmp_path / "trace.jsonl"
    write_records(records, trace)
    for fmt, digest in TRACE_GOLDEN.items():
        out = tmp_path / f"{fmt}.jsonl"
        code = main([
            "trace2sft", "--in", str(trace), "--out", str(out),
            "--format", fmt, "--errors", "40", "--seed", "3",
        ])
        stdout = capsys.readouterr().out
        assert code == EXIT_OK
        h = hashlib.sha256(out.read_bytes())
        h.update(stdout.replace(str(out), "OUT").encode())
        assert h.hexdigest() == digest, fmt


def test_inject_outputs(tmp_path, capsys):
    h = hashlib.sha256()
    out = tmp_path / "inj.jsonl"
    for k, t in enumerate(golden_sessions()):
        path = tmp_path / f"session-{k}.jsonl"
        t.write(path)
        runs = [("none", 0, None)]
        runs += [("reorder_swap", i, None) for i in range(len(t.entries) - 1)]
        runs += [("flag_mutate", i, m) for i in range(len(t.entries)) for m in MUTATIONS]
        for fault, index, mutation in runs:
            argv = ["inject", "--in", str(path), "--fault", fault, "--index", str(index), "--out", str(out)]
            if mutation is not None:
                argv += ["--mutation", mutation]
            assert main(argv) == EXIT_OK
            h.update(out.read_bytes() + capsys.readouterr().out.encode())
        # The last delivery has nothing after it to swap with.
        argv = ["inject", "--in", str(path), "--fault", "reorder_swap", "--index", str(len(t.entries) - 1)]
        assert main(argv) == EXIT_USAGE
        capsys.readouterr()
    assert h.hexdigest() == INJECT_GOLDEN
