"""End-to-end command-line behavior and exit codes."""

import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import smart_tcp
from smart_tcp import cli
from smart_tcp.agent_runtime import Scenario, run_session
from smart_tcp.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_TRANSPORT,
    EXIT_USAGE,
    main,
)
from smart_tcp.cognitive_core import OracleCore, TransportError
from smart_tcp.dataset_pipeline import ingest_trace
from smart_tcp.tcp_core import FiveTuple

from planted import PlantedCore
from traces import shifted, write_records


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_import_loads_no_transport_or_third_party_module():
    # The remote core imports socket and its transport when it is built;
    # oracle-only commands, which are most runs, must not pay for either.
    # No wire form carries payload bytes, so nothing loads base64.
    src = str(Path(smart_tcp.__file__).resolve().parents[1])
    probe = "import sys, smart_tcp.cli; print([m for m in ('socket', 'smart_tcp.http11', 'http.client', 'base64', 'requests', 'numpy') if m in sys.modules])"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert result.stdout == "[]\n"


@pytest.mark.parametrize(
    "endpoint, loaded", [("http://127.0.0.1:9/", []), ("https://127.0.0.1:9/", ["ssl"])]
)
def test_remote_core_loads_ssl_only_for_https(endpoint, loaded):
    # The client speaks HTTP/1.1 on its own sockets: building a core loads
    # neither http.client nor the email parser behind it, and ssl only for
    # an https endpoint. The core opens no connection when it is built.
    src = str(Path(smart_tcp.__file__).resolve().parents[1])
    probe = (
        "import sys, smart_tcp.cli as c; "
        f"c.RemoteCore(c.RemoteConfig({endpoint!r})); "
        "print([m for m in ('http.client', 'email', 'ssl') if m in sys.modules])"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert result.stdout == f"{loaded}\n"


def test_import_loads_no_dataclasses():
    # dataclasses imports inspect, ast, dis and tokenize, which every command
    # would pay for at start-up. -S keeps site's own imports out of the count.
    src = str(Path(smart_tcp.__file__).resolve().parents[1])
    probe = "import sys, smart_tcp.cli; print('dataclasses' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert result.stdout == "False\n"


class TestSimulate:
    def test_oracle_run_writes_transcripts_and_report(self, tmp_path, capsys):
        out = tmp_path / "runs"
        code, stdout, _ = run(
            capsys,
            "simulate", "--core", "oracle", "--sessions", "5", "--seed", "7",
            "--out", str(out),
        )
        assert code == EXIT_OK
        assert "trial=100.00%" in stdout
        assert len(list(out.glob("session-*.jsonl"))) == 5
        report = json.loads((out / "trial_report.json").read_text())
        assert report["handshake"] == "100.00%"
        assert report["sessions"] == 5

    def test_sessions_zero_is_usage_error(self, capsys):
        code, _, stderr = run(capsys, "simulate", "--sessions", "0")
        assert code == EXIT_USAGE
        assert "sessions" in stderr

    def test_remote_without_endpoint_is_transport_error(self, capsys, monkeypatch):
        monkeypatch.delenv("SMART_TCP_MODEL_ENDPOINT", raising=False)
        code, _, stderr = run(capsys, "simulate", "--core", "remote", "--sessions", "1")
        assert code == EXIT_TRANSPORT
        assert "remote core selected but no endpoint configured" in stderr

    def test_scenario_file(self, tmp_path, capsys):
        sc = tmp_path / "scenario.json"
        sc.write_text(
            json.dumps(
                {
                    "data_script": [{"side": "SERVER", "payload_len": 64}],
                    "closer": "SERVER",
                }
            )
        )
        code, stdout, _ = run(
            capsys, "simulate", "--sessions", "2", "--scenario", str(sc)
        )
        assert code == EXIT_OK and "trial=100.00%" in stdout

    @pytest.mark.parametrize(
        "text",
        [
            '{"data_script":[{"side":"X","payload_len":3}]}',
            '{"data_script":[{"side":"CLIENT","payload_len":"abc"}]}',
            '{"data_script":[{"side":"CLIENT","payload_len":2.5}]}',
            '{"data_script":[{"side":"CLIENT","payload_len":65536}]}',
            '{"data_script":[{"side":"CLIENT","payload_len":-1}]}',
            '{"data_script":[{"side":"CLIENT","payload_len":0}]}',
            '{"data_script":[{"side":"CLIENT"}]}',
            '{"data_script":[7]}',
            '{"data_script":5}',
            '{"closer":"NOBODY"}',
            '{"steps_budget":"many"}',
            '{"steps_budgte": 5, "closer": "SERVER"}',
            '{"data_script":[{"side":"CLIENT","payload_len":3,"sied":"SERVER"}]}',
            '{"scenario_id": ["x", 1]}',
            '{"scenario_id": null}',
            '[1, 2]',
            '{"data_script": [',
            b"\xff\xfe",
        ],
    )
    def test_malformed_scenario_is_usage_error(self, tmp_path, capsys, text):
        sc = tmp_path / "scenario.json"
        if isinstance(text, bytes):
            sc.write_bytes(text)
        else:
            sc.write_text(text)
        code, stdout, stderr = run(capsys, "simulate", "--sessions", "1", "--scenario", str(sc))
        assert code == EXIT_USAGE
        assert stderr.startswith("error: ") and stdout == ""

    def test_missing_scenario_is_io_error(self, tmp_path, capsys):
        code, _, stderr = run(
            capsys, "simulate", "--sessions", "1", "--scenario", str(tmp_path / "nope.json")
        )
        assert code == EXIT_IO and stderr.startswith("error: ")

    @pytest.mark.parametrize("sub", ["", "sub"])
    def test_out_under_a_regular_file_is_io_error_before_any_session(
        self, tmp_path, capsys, monkeypatch, sub
    ):
        afile = tmp_path / "afile"
        afile.write_text("")
        sessions = []
        monkeypatch.setattr(cli, "run_trials", lambda *args: sessions.append(args))
        code, stdout, stderr = run(
            capsys, "simulate", "--sessions", "1", "--out", str(afile / sub)
        )
        assert code == EXIT_IO and stderr.startswith("error: ") and stdout == ""
        assert sessions == []

    def test_unwritable_transcript_is_io_error(self, tmp_path, capsys):
        (tmp_path / "runs" / "session-000.jsonl").mkdir(parents=True)
        code, stdout, stderr = run(
            capsys, "simulate", "--sessions", "1", "--out", str(tmp_path / "runs")
        )
        assert code == EXIT_IO and stderr.startswith("error: ") and stdout == ""

    def test_a_transport_error_mid_trial_keeps_the_earlier_session_files(
        self, tmp_path, capsys, monkeypatch
    ):
        class FailsOnDecision(OracleCore):
            """The oracle, until its n-th decision raises TransportError."""

            def __init__(self, n):
                self.left = n

            def decide(self, input):
                self.left -= 1
                if self.left == 0:
                    raise TransportError("decision 40 failed")
                return super().decide(input)

        clean = tmp_path / "clean"
        assert run(capsys, "simulate", "--sessions", "2", "--out", str(clean))[0] == EXIT_OK
        # A default session takes 17 decisions, so the 40th is session 2's.
        monkeypatch.setattr(cli, "_make_core", lambda args: FailsOnDecision(40))
        out = tmp_path / "runs"
        code, stdout, stderr = run(capsys, "simulate", "--sessions", "5", "--out", str(out))
        assert (code, stdout, stderr) == (EXIT_TRANSPORT, "", "error: decision 40 failed\n")
        names = ["session-000.jsonl", "session-001.jsonl"]
        assert sorted(p.name for p in out.iterdir()) == names
        for name in names:
            assert (out / name).read_bytes() == (clean / name).read_bytes()

    def test_an_unwritable_session_file_mid_trial_keeps_the_earlier_ones(self, tmp_path, capsys):
        out = tmp_path / "runs"
        (out / "session-002.jsonl").mkdir(parents=True)
        code, stdout, stderr = run(capsys, "simulate", "--sessions", "5", "--out", str(out))
        assert code == EXIT_IO and stderr.startswith("error: ") and stdout == ""
        assert sorted(p.name for p in out.iterdir()) == [
            "session-000.jsonl", "session-001.jsonl", "session-002.jsonl"
        ]
        assert (out / "session-001.jsonl").is_file() and (out / "session-002.jsonl").is_dir()

    def test_unknown_subcommand_is_usage(self, capsys):
        assert run(capsys, "frobnicate")[0] == EXIT_USAGE


def with_blank_lines(text):
    """text with an empty line first, a blank one after each line and a
    whitespace-only one last."""
    return "\n" + "".join(line + "\n\n" for line in text.splitlines()) + "  \t\n"


def make_trace(tmp_path, capsys, sessions=3):
    """Simulate, then stitch the session files into one trace, one second
    apart."""
    out = tmp_path / "sim"
    code, _, _ = run(capsys, "simulate", "--sessions", str(sessions), "--out", str(out))
    assert code == EXIT_OK
    records = []
    for i, path in enumerate(sorted(out.glob("session-*.jsonl"))):
        records.extend(shifted(ingest_trace(path).records, float(i)))
    trace = tmp_path / "trace.jsonl"
    write_records(records, trace)
    return trace


class TestTrace2Sft:
    def test_basic_conversion(self, tmp_path, capsys):
        trace = make_trace(tmp_path, capsys)
        out = tmp_path / "sft.jsonl"
        code, stdout, _ = run(capsys, "trace2sft", "--in", str(trace), "--out", str(out))
        assert code == EXIT_OK
        assert "3 flows, 33 packets" in stdout
        assert "33 samples" in stdout
        assert len(out.read_text().splitlines()) == 33

    def test_session_file_is_a_trace(self, tmp_path, capsys):
        # The trailer is the one non-TCP reject; the SFT is that of the
        # session's records without it.
        path = TestInject().session_path(tmp_path, capsys)
        out = tmp_path / "sft.jsonl"
        code, stdout, _ = run(capsys, "trace2sft", "--in", str(path), "--out", str(out))
        assert code == EXIT_OK
        assert stdout == (
            f"1 flows, 11 packets (0 incomplete discarded, 1 rejected lines); 11 samples -> {out}\n"
        )
        bare = tmp_path / "bare.jsonl"
        write_records(ingest_trace(path).records, bare)
        bare_out = tmp_path / "bare-sft.jsonl"
        assert run(capsys, "trace2sft", "--in", str(bare), "--out", str(bare_out))[0] == EXIT_OK
        assert out.read_bytes() == bare_out.read_bytes()

    def test_dropped_flow_is_its_one_stderr_line(self, tmp_path, capsys):
        # The labeler's WARNING for a dropped flow reaches stderr through
        # logging's last-resort handler; a clean trace prints nothing there.
        # Sending each data segment three times drops the session's flow.
        path = TestInject().session_path(tmp_path, capsys)
        records = ingest_trace(path).records
        resent = [
            r._replace(ts=r.ts + dt)
            for r in records
            if r.segment.payload_len
            for dt in (0.0001, 0.0002)
        ]
        retx = tmp_path / "retx.jsonl"
        write_records(sorted(records + resent, key=lambda r: r.ts), retx)
        src = str(Path(smart_tcp.__file__).resolve().parents[1])
        results = [
            subprocess.run(
                [sys.executable, "-m", "smart_tcp.cli", "trace2sft", "--in", str(trace),
                 "--out", str(tmp_path / "sft.jsonl")],
                env={**os.environ, "PYTHONPATH": src},
                capture_output=True,
                text=True,
                timeout=60,
            )
            for trace in (path, retx)
        ]
        assert [r.returncode for r in results] == [EXIT_OK, EXIT_OK]
        assert results[0].stderr == ""
        assert "1 flows, 15 packets" in results[1].stdout and "; 0 samples" in results[1].stdout
        assert results[1].stderr == "flow-0000 dropped: 9/15 records skipped\n"

    def test_with_error_samples(self, tmp_path, capsys):
        trace = make_trace(tmp_path, capsys)
        out = tmp_path / "sft.jsonl"
        code, stdout, _ = run(
            capsys,
            "trace2sft", "--in", str(trace), "--out", str(out),
            "--errors", "20", "--error-ratio", "0.5", "--seed", "3",
        )
        assert code == EXIT_OK
        assert "53 samples" in stdout

    def test_errors_without_a_complete_flow_is_usage(self, tmp_path, capsys):
        # The handshake and some data, but no FINs: nothing to mutate.
        trace = make_trace(tmp_path, capsys, sessions=1)
        lines = trace.read_text().splitlines(keepends=True)
        trace.write_text("".join(lines[:5]))
        out = tmp_path / "sft.jsonl"
        code, _, stderr = run(
            capsys, "trace2sft", "--in", str(trace), "--out", str(out), "--errors", "10"
        )
        assert (code, stderr) == (
            EXIT_USAGE, "error: no synchronized-state contexts available for mutation\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("ratio", ["1.5", "-0.5", "inf", "nan"])
    def test_error_ratio_outside_unit_interval_is_usage(self, tmp_path, capsys, ratio):
        trace = make_trace(tmp_path, capsys, sessions=1)
        out = tmp_path / "sft.jsonl"
        code, _, stderr = run(
            capsys,
            "trace2sft", "--in", str(trace), "--out", str(out),
            "--errors", "10", "--error-ratio", ratio,
        )
        assert code == EXIT_USAGE
        assert stderr.startswith("error: error ratio must be within [0, 1]")
        assert not out.exists()

    def test_deterministic_output(self, tmp_path, capsys):
        trace = make_trace(tmp_path, capsys)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (a, b):
            code, _, _ = run(
                capsys,
                "trace2sft", "--in", str(trace), "--out", str(out),
                "--errors", "10", "--seed", "1",
            )
            assert code == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_instruct_format(self, tmp_path, capsys):
        trace = make_trace(tmp_path, capsys, sessions=1)
        out = tmp_path / "sft.jsonl"
        code, _, _ = run(
            capsys,
            "trace2sft", "--in", str(trace), "--out", str(out), "--format", "instruct",
        )
        assert code == EXIT_OK
        first = json.loads(out.read_text().splitlines()[0])
        assert set(first) == {"instruction", "input", "output"}

    def test_reconstructs_each_complete_flow_once(self, tmp_path, capsys, monkeypatch):
        from smart_tcp import cli, dataset_pipeline

        trace = make_trace(tmp_path, capsys)
        replayed = []
        for module in (cli, dataset_pipeline):
            original = module.reconstruct_labels

            def counting(flow, original=original):
                replayed.append(flow.flow_id)
                return original(flow)

            monkeypatch.setattr(module, "reconstruct_labels", counting)
        code, stdout, _ = run(
            capsys,
            "trace2sft", "--in", str(trace), "--out", str(tmp_path / "sft.jsonl"),
            "--errors", "20", "--seed", "3",
        )
        assert code == EXIT_OK and "3 flows" in stdout
        assert sorted(replayed) == ["flow-0000", "flow-0001", "flow-0002"]

    def test_non_string_flags_line_is_rejected(self, tmp_path, capsys):
        trace = make_trace(tmp_path, capsys)
        first = json.loads(trace.read_text().splitlines()[0])
        with open(trace, "a") as fh:
            for flags in (5, ["SYN"]):
                fh.write(json.dumps(dict(first, flags=flags)) + "\n")
        out = tmp_path / "sft.jsonl"
        code, stdout, _ = run(capsys, "trace2sft", "--in", str(trace), "--out", str(out))
        assert code == EXIT_OK
        assert "2 rejected lines" in stdout and "33 samples" in stdout

    def test_invalid_utf8_line_is_rejected(self, tmp_path, capsys):
        trace = make_trace(tmp_path, capsys)
        with open(trace, "ab") as fh:
            fh.write(b"\xff\xfe\n")
        out = tmp_path / "sft.jsonl"
        code, stdout, _ = run(capsys, "trace2sft", "--in", str(trace), "--out", str(out))
        assert code == EXIT_OK
        assert "1 rejected lines" in stdout and "33 samples" in stdout

    @pytest.mark.parametrize("bad", [b"this is not json", b"\xff\xfe"], ids=["json", "utf-8"])
    @pytest.mark.parametrize("malformed", [1, 2])
    def test_more_than_a_tenth_malformed_is_io_error(self, tmp_path, capsys, bad, malformed):
        # Ten lines: one malformed line is at the 10% threshold and passes,
        # two exceed it.
        good = make_trace(tmp_path, capsys, sessions=1).read_bytes().splitlines(keepends=True)
        trace = tmp_path / "mixed.jsonl"
        trace.write_bytes(b"".join(good[: 10 - malformed]) + (bad + b"\n") * malformed)
        out = tmp_path / "sft.jsonl"
        code, stdout, stderr = run(capsys, "trace2sft", "--in", str(trace), "--out", str(out))
        if malformed == 1:
            assert (code, stderr) == (EXIT_OK, "")
            assert stdout == (
                f"0 flows, 0 packets (1 incomplete discarded, 1 rejected lines); 0 samples -> {out}\n"
            )
        else:
            assert (code, stdout) == (EXIT_IO, "")
            assert stderr == "error: 2/10 malformed lines exceeds the 10% threshold\n"
            assert not out.exists()

    def test_blank_lines_are_skipped(self, tmp_path, capsys):
        trace = make_trace(tmp_path, capsys)
        spaced = tmp_path / "spaced.jsonl"
        spaced.write_text(with_blank_lines(trace.read_text()))
        outputs = []
        for name, src in (("a", trace), ("b", spaced)):
            out = tmp_path / f"{name}.jsonl"
            code, stdout, _ = run(capsys, "trace2sft", "--in", str(src), "--out", str(out), "--errors", "5")
            assert code == EXIT_OK and "0 rejected lines" in stdout
            outputs.append((out.read_bytes(), stdout.replace(str(out), "OUT")))
        assert outputs[0] == outputs[1]

    def test_missing_input_is_io_error(self, tmp_path, capsys):
        code, _, stderr = run(
            capsys,
            "trace2sft", "--in", str(tmp_path / "nope.jsonl"),
            "--out", str(tmp_path / "x.jsonl"),
        )
        assert code == EXIT_IO and "error" in stderr


class TestEvaluate:
    def write_predictions(self, tmp_path, n_correct=35, n_wrong=1):
        from smart_tcp.cognitive_core import CognitiveDecision, Verdict
        from smart_tcp.tcp_core import TcpState, flags_parse

        good = CognitiveDecision(
            TcpState.ESTABLISHED, flags_parse("ACK"), 0, None, Verdict.NORMAL
        ).to_wire()
        bad = CognitiveDecision(
            TcpState.CLOSE_WAIT, flags_parse("ACK"), 0, None, Verdict.NORMAL
        ).to_wire()
        path = tmp_path / "pred.jsonl"
        with open(path, "w") as fh:
            for _ in range(n_correct):
                fh.write(json.dumps({"truth": {"decision": good}, "predicted": {"decision": good}}) + "\n")
            for _ in range(n_wrong):
                fh.write(json.dumps({"truth": {"decision": good}, "predicted": {"decision": bad}}) + "\n")
        return path

    def test_fixture_atomic_97_22(self, tmp_path, capsys):
        pred = self.write_predictions(tmp_path)
        out = tmp_path / "report.json"
        code, stdout, _ = run(capsys, "evaluate", "--pred", str(pred), "--out", str(out))
        assert code == EXIT_OK
        assert "atomic=97.22%" in stdout
        report = json.loads(out.read_text())
        assert report["atomic_accuracy"] == "97.22%"

    def test_text_table_format(self, tmp_path, capsys):
        pred = self.write_predictions(tmp_path)
        out = tmp_path / "report.txt"
        code, _, _ = run(
            capsys,
            "evaluate", "--pred", str(pred), "--out", str(out), "--format", "text_table",
        )
        assert code == EXIT_OK
        assert "Field-Level Accuracy" in out.read_text()

    def test_non_string_predicted_flags_scores_malformed(self, tmp_path, capsys):
        pred = self.write_predictions(tmp_path, n_correct=3, n_wrong=0)
        lines = [json.loads(line) for line in pred.read_text().splitlines()]
        lines[0]["predicted"]["decision"]["flags"] = ["ACK"]
        pred.write_text("".join(json.dumps(line) + "\n" for line in lines))
        out = tmp_path / "report.json"
        code, stdout, _ = run(capsys, "evaluate", "--pred", str(pred), "--out", str(out))
        assert code == EXIT_OK
        assert "records=3 malformed=1" in stdout

    def test_numbers_checked(self, tmp_path, capsys):
        pred = self.write_predictions(tmp_path, n_correct=4, n_wrong=0)
        lines = [json.loads(line) for line in pred.read_text().splitlines()]
        for line in lines:
            line["truth"]["numbers"] = [7, 9]
            line["predicted"]["numbers"] = [7, 9]
        lines[0]["predicted"]["numbers"] = 5
        lines[1]["predicted"]["numbers"] = ["a", "b"]
        pred.write_text("".join(json.dumps(line) + "\n" for line in lines))
        out = tmp_path / "report.json"
        code, stdout, _ = run(capsys, "evaluate", "--pred", str(pred), "--out", str(out))
        assert code == EXIT_OK
        assert "records=4 malformed=0 atomic=50.00%" in stdout
        report = json.loads(out.read_text())
        assert report["field_accuracy"]["Seq"] == "50.00%"

        lines[2]["truth"]["numbers"] = 5
        pred.write_text("".join(json.dumps(line) + "\n" for line in lines))
        code, _, stderr = run(capsys, "evaluate", "--pred", str(pred), "--out", str(out))
        assert code == EXIT_IO and "bad truth record" in stderr

    def test_blank_lines_are_skipped(self, tmp_path, capsys):
        pred = self.write_predictions(tmp_path)
        spaced = tmp_path / "spaced.jsonl"
        spaced.write_text(with_blank_lines(pred.read_text()))
        outputs = []
        for name, src in (("a", pred), ("b", spaced)):
            out = tmp_path / f"{name}.json"
            code, stdout, _ = run(capsys, "evaluate", "--pred", str(src), "--out", str(out))
            assert code == EXIT_OK and "records=36 " in stdout
            outputs.append((out.read_bytes(), stdout.replace(str(out), "OUT")))
        assert outputs[0] == outputs[1]

    def test_keys_it_does_not_score_are_ignored(self, tmp_path, capsys):
        pred = self.write_predictions(tmp_path)
        lines = [json.loads(line) for line in pred.read_text().splitlines()]
        for i, line in enumerate(lines[:10]):
            line["truth"]["numbers"] = [i, i + 1]
            line["predicted"]["numbers"] = [i, i + (i % 3 == 0)]
        lines[-1]["predicted"] = None
        pred.write_text("".join(json.dumps(line) + "\n" for line in lines))
        extra = tmp_path / "extra.jsonl"
        with open(extra, "w") as fh:
            for i, line in enumerate(lines):
                line = {
                    "provenance": {"flow_id": "flow-0", "record_index": i},
                    "input": '{"state":{}}',
                    **line,
                    "raw": "not scored",
                    "latency_ms": 12.5,
                }
                line["truth"]["source"] = "oracle"
                if line["predicted"] is not None:
                    line["predicted"].update(raw="{}", latency_ms=None)
                fh.write(json.dumps(line) + "\n")
        outputs = []
        for name, src in (("bare", pred), ("extra", extra)):
            out = tmp_path / f"{name}.json"
            code, stdout, _ = run(capsys, "evaluate", "--pred", str(src), "--out", str(out))
            assert code == EXIT_OK and "records=36 malformed=1 " in stdout
            outputs.append((out.read_bytes(), stdout.replace(str(out), "OUT")))
        assert outputs[0] == outputs[1]

    def evaluate_error(self, tmp_path, capsys, pred):
        out = tmp_path / "r.json"
        code, stdout, stderr = run(capsys, "evaluate", "--pred", str(pred), "--out", str(out))
        assert stdout == "" and not out.exists()
        return code, stderr

    @pytest.mark.parametrize("bad", ["\ufeff{good}", "{good} {{}}", "{good}x"])
    def test_undecodable_line_names_the_json_error(self, tmp_path, capsys, bad):
        pred = self.write_predictions(tmp_path, n_correct=2, n_wrong=0)
        good = pred.read_text().splitlines()[0]
        line = bad.format(good=good)
        pred.write_text(f"{good}\n{line}\n{good}\n")
        with pytest.raises(json.JSONDecodeError) as exc:
            json.loads(line)
        assert self.evaluate_error(tmp_path, capsys, pred) == (
            EXIT_IO, f"error: {pred} line 2: bad truth record: {exc.value}\n"
        )

    def test_undecodable_bytes_name_their_line(self, tmp_path, capsys):
        # Past the first read chunk, so the line is not the chunk's first.
        pred = self.write_predictions(tmp_path, n_correct=2002, n_wrong=0)
        lines = pred.read_bytes().splitlines(keepends=True)
        lines[2000] = lines[2000].replace(b'"ESTABLISHED"', b'"ESTABLISHED\xff"', 1)
        pred.write_bytes(b"".join(lines))
        assert self.evaluate_error(tmp_path, capsys, pred) == (
            EXIT_IO, f"error: {pred} line 2001: line is not valid UTF-8\n"
        )

    def test_missing_truth_key_is_named(self, tmp_path, capsys):
        pred = self.write_predictions(tmp_path, n_correct=3, n_wrong=0)
        lines = [json.loads(line) for line in pred.read_text().splitlines()]
        del lines[1]["truth"]["decision"]
        pred.write_text("".join(json.dumps(line) + "\n" for line in lines))
        assert self.evaluate_error(tmp_path, capsys, pred) == (
            EXIT_IO, f"error: {pred} line 2: bad truth record: missing key 'decision'\n"
        )

    def test_empty_file_is_io_error(self, tmp_path, capsys):
        pred = tmp_path / "empty.jsonl"
        pred.write_text("")
        assert self.evaluate_error(tmp_path, capsys, pred) == (
            EXIT_IO, "error: empty prediction file\n"
        )

    def test_blank_lines_only_is_io_error(self, tmp_path, capsys):
        pred = tmp_path / "blank.jsonl"
        pred.write_text("\n  \n\t\r\n\n")
        assert self.evaluate_error(tmp_path, capsys, pred) == (
            EXIT_IO, "error: empty prediction file\n"
        )

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        pred = tmp_path / "nope"
        assert self.evaluate_error(tmp_path, capsys, pred) == (
            EXIT_IO, f"error: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: {str(pred)!r}\n"
        )

    def test_directory_as_pred_is_io_error(self, tmp_path, capsys):
        pred = tmp_path / "preds"
        pred.mkdir()
        assert self.evaluate_error(tmp_path, capsys, pred) == (
            EXIT_IO, f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: {str(pred)!r}\n"
        )


class TestInject:
    def session_path(self, tmp_path, capsys):
        out = tmp_path / "sim"
        code, _, _ = run(capsys, "simulate", "--sessions", "1", "--out", str(out))
        assert code == EXIT_OK
        return out / "session-000.jsonl"

    def test_none_reports_no_anomalies(self, tmp_path, capsys):
        path = self.session_path(tmp_path, capsys)
        code, stdout, _ = run(capsys, "inject", "--in", str(path), "--fault", "none")
        assert code == EXIT_OK
        assert "anomalies: none" in stdout

    def test_reorder_swap_flags_order_error(self, tmp_path, capsys):
        path = self.session_path(tmp_path, capsys)
        out = tmp_path / "replay.jsonl"
        code, stdout, _ = run(
            capsys,
            "inject", "--in", str(path), "--fault", "reorder_swap", "--index", "3",
            "--out", str(out),
        )
        assert code == EXIT_OK
        assert "ORDER_ERROR" in stdout
        verdicts = [json.loads(l)["replay_verdict"] for l in out.read_text().splitlines()]
        assert "ORDER_ERROR" in verdicts

    def test_flag_mutate_flags_flag_error(self, tmp_path, capsys):
        path = self.session_path(tmp_path, capsys)
        code, stdout, _ = run(
            capsys,
            "inject", "--in", str(path), "--fault", "flag_mutate", "--index", "2",
            "--mutation", "SYN|FIN",
        )
        assert code == EXIT_OK
        assert "FLAG_ERROR" in stdout

    def test_none_replays_the_recorded_stream_and_ignores_index(self, tmp_path, capsys):
        path = self.session_path(tmp_path, capsys)
        out = tmp_path / "replay.jsonl"
        code, stdout, _ = run(
            capsys, "inject", "--in", str(path), "--fault", "none", "--index", "-5", "--out", str(out)
        )
        assert code == EXIT_OK
        recorded = [json.loads(l) for l in path.read_text().splitlines()[:-1]]
        replayed = [json.loads(l) for l in out.read_text().splitlines()]
        segment_keys = ("seq", "ack", "flags", "payload_len")
        assert [(r["direction"], r["segment"]) for r in replayed] == [
            (
                "CLIENT" if r["src"] == recorded[0]["src"] else "SERVER",
                {k: r[k] for k in segment_keys},
            )
            for r in recorded
        ]
        assert {r["replay_verdict"] for r in replayed} == {"NORMAL"}
        assert stdout == f"{len(recorded)} deliveries, anomalies: none\n"

    # A default session has 11 deliveries: a swap's last target is 9.
    @pytest.mark.parametrize(
        "fault, index",
        [
            ("reorder_swap", "999"),
            ("reorder_swap", "10"),
            ("reorder_swap", "-1"),
            ("flag_mutate", "11"),
            ("flag_mutate", "-1"),
        ],
    )
    def test_index_out_of_range_is_usage(self, tmp_path, capsys, fault, index):
        path = self.session_path(tmp_path, capsys)
        mutation = ["--mutation", "SYN|FIN"] if fault == "flag_mutate" else []
        out = tmp_path / "replay.jsonl"
        code, stdout, stderr = run(
            capsys, "inject", "--in", str(path), "--fault", fault, "--index", index,
            *mutation, "--out", str(out),
        )
        assert code == EXIT_USAGE and stdout == "" and not out.exists()
        assert stderr == f"error: fault target index out of range: {index}\n"

    def test_last_index_is_in_range(self, tmp_path, capsys):
        path = self.session_path(tmp_path, capsys)
        swap = run(capsys, "inject", "--in", str(path), "--fault", "reorder_swap", "--index", "9")
        flag = run(
            capsys, "inject", "--in", str(path), "--fault", "flag_mutate", "--index", "10",
            "--mutation", "SYN|FIN",
        )
        assert swap[0] == flag[0] == EXIT_OK

    @pytest.mark.parametrize(
        "fault, mutation",
        [
            ("flag_mutate", None),
            ("reorder_swap", "SYN|FIN"),
            ("none", "SYN|FIN"),
            ("none", ""),
        ],
    )
    def test_mutation_goes_with_flag_mutate_only(self, tmp_path, capsys, fault, mutation):
        path = self.session_path(tmp_path, capsys)
        argv = ["inject", "--in", str(path), "--fault", fault, "--index", "2"]
        if mutation is not None:
            argv += ["--mutation", mutation]
        code, stdout, stderr = run(capsys, *argv)
        assert code == EXIT_USAGE and stdout == ""
        assert stderr == "error: --mutation goes with --fault flag_mutate, and only with it\n"

    def test_missing_transcript_is_io_error(self, tmp_path, capsys):
        code, _, _ = run(
            capsys, "inject", "--in", str(tmp_path / "nope"), "--fault", "none"
        )
        assert code == EXIT_IO

    @pytest.mark.parametrize(
        "line, reason",
        [
            ("not json", "Expecting value"),
            ("[1]", "not a JSON object: list"),
            ('{"ts":0.0015,"src":"10.0.0.1:40000","dst":"10.0.0.2:80","proto":"tcp","ack":0,'
             '"flags":"ACK","payload_len":0}', "'seq'"),
            ('{"ts":0.0015,"src":"10.0.0.1:40000","dst":"10.0.0.2:80","proto":"tcp","seq":1,'
             '"ack":0,"flags":"SYN|BOGUS","payload_len":0}', "unknown flag token"),
            ('{"ts":0.0015,"src":"10.0.0.1:40000","dst":"10.0.0.2:80","proto":"tcp","seq":1.5,'
             '"ack":0,"flags":"ACK","payload_len":0}', "seq must be an integer: 1.5"),
        ],
    )
    def test_malformed_transcript_is_io_error(self, tmp_path, capsys, line, reason):
        # trace2sft skips a malformed line; inject replays every line or none.
        path = self.session_path(tmp_path, capsys)
        lines = path.read_text().splitlines()
        lines.insert(2, line)
        path.write_text("\n".join(lines) + "\n")
        code, stdout, stderr = run(capsys, "inject", "--in", str(path), "--fault", "none")
        assert code == EXIT_IO and stdout == ""
        assert stderr.startswith(f"error: {path} line 3: malformed: ")
        assert reason in stderr

    def test_missing_key_is_named(self, tmp_path, capsys):
        path = self.session_path(tmp_path, capsys)
        lines = path.read_text().splitlines()
        obj = json.loads(lines[2])
        del obj["seq"]
        lines[2] = json.dumps(obj)
        path.write_text("\n".join(lines) + "\n")
        code, stdout, stderr = run(capsys, "inject", "--in", str(path), "--fault", "none")
        assert (code, stdout) == (EXIT_IO, "")
        assert stderr == f"error: {path} line 3: malformed: missing key 'seq'\n"

    def test_mostly_malformed_file_names_its_first_bad_line(self, tmp_path, capsys):
        # Past trace2sft's 10% threshold, the same line is reported.
        path = self.session_path(tmp_path, capsys)
        path.write_text(path.read_text().splitlines()[0] + "\nnot json\n[1]\n")
        code, _, stderr = run(capsys, "inject", "--in", str(path), "--fault", "none")
        assert code == EXIT_IO
        assert stderr.startswith(f"error: {path} line 2: malformed: Expecting value")

    def test_any_one_flow_trace_replays(self, tmp_path, capsys):
        # Other addresses and timestamps, the server's address sorting
        # first: the flow's SYN says who the client is.
        path = self.session_path(tmp_path, capsys)
        records = ingest_trace(path).records
        client = FiveTuple("192.168.7.9:80", "172.16.0.2:51000")
        records = [
            r._replace(
                ts=5 + 2 * r.ts,
                five_tuple=client if r.five_tuple == records[0].five_tuple else client.reversed(),
            )
            for r in records
        ]
        other = tmp_path / "capture.jsonl"
        write_records(records, other)
        outputs = []
        for p in (path, other):
            out = tmp_path / f"{p.stem}-replay.jsonl"
            code, stdout, _ = run(
                capsys, "inject", "--in", str(p), "--fault", "flag_mutate", "--index", "4",
                "--mutation", "SYN|FIN", "--out", str(out),
            )
            assert code == EXIT_OK
            outputs.append((stdout, out.read_bytes()))
        assert outputs[0] == outputs[1]
        assert "FLAG_ERROR" in outputs[0][0]

    def test_session_file_without_trailer_replays_the_same_verdicts(self, tmp_path, capsys):
        path = self.session_path(tmp_path, capsys)
        bare = tmp_path / "bare.jsonl"
        bare.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
        outputs = []
        for p in (path, bare):
            out = tmp_path / f"{p.stem}-replay.jsonl"
            code, stdout, _ = run(
                capsys, "inject", "--in", str(p), "--fault", "reorder_swap", "--index", "3",
                "--out", str(out),
            )
            assert code == EXIT_OK
            outputs.append((stdout, out.read_bytes()))
        assert outputs[0] == outputs[1]
        assert "ORDER_ERROR" in outputs[0][0]

    @pytest.mark.parametrize("connections", [0, 2])
    def test_not_exactly_one_connection_is_usage(self, tmp_path, capsys, connections):
        session = self.session_path(tmp_path, capsys)
        path = tmp_path / "trace.jsonl"
        if connections:  # the same session again, a second later, from another client
            records = ingest_trace(session).records
            moved = [
                r._replace(
                    five_tuple=FiveTuple(
                        *(a.replace("10.0.0.1:", "10.0.0.3:") for a in r.five_tuple[:2])
                    )
                )
                for r in records
            ]
            write_records(records + shifted(moved, 1.0), path)
        else:  # a session that halted before its first delivery
            path.write_text(session.read_text().splitlines()[-1] + "\n")
        code, stdout, stderr = run(capsys, "inject", "--in", str(path), "--fault", "none")
        assert code == EXIT_USAGE and stdout == ""
        assert stderr == f"error: {path} holds {connections} connections; inject replays exactly one\n"

    def test_connections_one_after_another_on_one_tuple_replay_as_one_stream(self, tmp_path, capsys):
        # The second session's SYN comes after the first closed: out of order.
        path = make_trace(tmp_path, capsys, sessions=2)
        code, stdout, _ = run(capsys, "inject", "--in", str(path), "--fault", "none")
        assert code == EXIT_OK
        assert stdout == "22 deliveries, anomalies: [(11, 'ORDER_ERROR')]\n"

    def test_failed_session_replays(self, tmp_path, capsys):
        # The server answers the client's FIN with SYN|FIN and the client
        # halts; the replay flags that last delivery as the session did.
        clean = run_session(OracleCore(), OracleCore(), Scenario(), seed=1)
        core = PlantedCore({clean.server_iss})
        path = tmp_path / "failed.jsonl"
        run_session(core, core, Scenario(), seed=1).write(path)
        code, stdout, stderr = run(capsys, "inject", "--in", str(path), "--fault", "none")
        assert (code, stderr) == (EXIT_OK, "")
        assert stdout == "9 deliveries, anomalies: [(8, 'FLAG_ERROR')]\n"

    @pytest.mark.parametrize(
        "edit, lineno, reason",
        [
            (lambda objs: objs[2].pop("proto"), 3, "''"),
            (lambda objs: objs[2].update(proto="udp"), 3, "'udp'"),
            (lambda objs: objs.insert(0, objs[-1]), 1, "''"),
            (lambda objs: objs.append(objs[-1]), 12, "''"),
        ],
        ids=["proto missing", "udp", "trailer first", "two trailers"],
    )
    def test_non_tcp_line_before_the_last_is_io_error(self, tmp_path, capsys, edit, lineno, reason):
        # Only the trailer, on the last line, is passed over.
        path = self.session_path(tmp_path, capsys)
        objs = [json.loads(l) for l in path.read_text().splitlines()]
        edit(objs)
        path.write_text("".join(json.dumps(o) + "\n" for o in objs) + "\n")
        code, stdout, stderr = run(capsys, "inject", "--in", str(path), "--fault", "none")
        assert code == EXIT_IO and stdout == ""
        assert stderr == f"error: {path} line {lineno}: non-tcp protocol: {reason}\n"

    @pytest.mark.parametrize(
        "keep",
        [lambda lines: lines[:1] + lines[-1:], lambda lines: lines[1:]],
        ids=["halted after the SYN", "SYN missed"],
    )
    def test_flow_without_syn_and_syn_ack_is_usage(self, tmp_path, capsys, keep):
        path = self.session_path(tmp_path, capsys)
        path.write_text("".join(keep(path.read_text().splitlines(keepends=True))))
        code, stdout, stderr = run(capsys, "inject", "--in", str(path), "--fault", "none")
        assert code == EXIT_USAGE and stdout == ""
        assert stderr == f"error: {path} has no SYN and SYN|ACK to take the ISSs from\n"

    def test_bad_mutation_is_usage(self, tmp_path, capsys):
        path = self.session_path(tmp_path, capsys)
        code, _, stderr = run(
            capsys, "inject", "--in", str(path), "--fault", "flag_mutate", "--index", "2",
            "--mutation", "SYN|BOGUS",
        )
        assert code == EXIT_USAGE and "unknown flag token" in stderr


@pytest.mark.parametrize(
    "exc, code",
    [
        (cli.UsageError("--sessions must be >= 1"), EXIT_USAGE),
        (cli.InputError("empty prediction file"), EXIT_IO),
        (FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), "x.jsonl"), EXIT_IO),
        (TransportError("remote core selected but no endpoint configured"), EXIT_TRANSPORT),
    ],
    ids=["usage", "input", "os", "transport"],
)
def test_main_maps_what_a_command_raises_to_an_exit_code(monkeypatch, capsys, exc, code):
    def command(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_evaluate", command)
    assert run(capsys, "evaluate", "--pred", "p", "--out", "r") == (code, "", f"error: {exc}\n")


@pytest.mark.parametrize("exc", [RuntimeError("a bug"), ValueError("a bug")], ids=repr)
def test_main_lets_any_other_exception_through(monkeypatch, capsys, exc):
    # A bug ends in a traceback, never in a quiet exit code.
    def command(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_evaluate", command)
    with pytest.raises(type(exc)) as raised:
        main(["evaluate", "--pred", "p", "--out", "r"])
    assert raised.value is exc
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize(
    "argv",
    [
        ["trace2sft", "--in", "{dir}", "--out", "{dir}/sft.jsonl"],
        ["evaluate", "--pred", "{dir}", "--out", "{dir}/report.json"],
        ["inject", "--in", "{dir}", "--fault", "none"],
    ],
)
def test_unreadable_input_is_io_error(tmp_path, capsys, argv):
    # A directory where a file should be: open() raises IsADirectoryError.
    code, _, stderr = run(capsys, *(a.format(dir=tmp_path) for a in argv))
    assert code == EXIT_IO and stderr.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["trace2sft", "--in", "{trace}", "--out", "{dir}"],
        ["evaluate", "--pred", "{pred}", "--out", "{dir}"],
        ["inject", "--in", "{session}", "--fault", "none", "--out", "{dir}"],
    ],
)
def test_unwritable_out_is_io_error(tmp_path, capsys, argv):
    # A directory where the output file should be: open() raises
    # IsADirectoryError once the input has been read and processed.
    inputs = {
        "trace": make_trace(tmp_path, capsys, sessions=1),
        "pred": TestEvaluate().write_predictions(tmp_path),
        "session": TestInject().session_path(tmp_path, capsys),
        "dir": tmp_path,
    }
    code, stdout, stderr = run(capsys, *(a.format(**inputs) for a in argv))
    assert code == EXIT_IO and stderr.startswith("error: ") and stdout == ""
