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
from smart_tcp.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_TRANSPORT,
    EXIT_USAGE,
    main,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_import_loads_no_transport_or_third_party_module():
    # The remote core imports socket and its transport when it is built;
    # oracle-only commands, which are most runs, must not pay for either.
    src = str(Path(smart_tcp.__file__).resolve().parents[1])
    probe = "import sys, smart_tcp.cli; print([m for m in ('socket', 'smart_tcp.http11', 'http.client', 'requests', 'numpy') if m in sys.modules])"
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

    def test_unknown_subcommand_is_usage(self, capsys):
        assert run(capsys, "frobnicate")[0] == EXIT_USAGE


def with_blank_lines(text):
    """text with an empty line first, a blank one after each line and a
    whitespace-only one last."""
    return "\n" + "".join(line + "\n\n" for line in text.splitlines()) + "  \t\n"


def make_trace(tmp_path, capsys, sessions=3):
    """Simulate, then stitch the transcripts into one ingestible trace."""
    from smart_tcp.agent_runtime import SessionTranscript
    from smart_tcp.dataset_pipeline import transcript_to_trace_records, write_trace

    out = tmp_path / "sim"
    code, _, _ = run(capsys, "simulate", "--sessions", str(sessions), "--out", str(out))
    assert code == EXIT_OK
    records = []
    for i, path in enumerate(sorted(out.glob("session-*.jsonl"))):
        t = SessionTranscript.read(path)
        records.extend(transcript_to_trace_records(t, t0=float(i)))
    trace = tmp_path / "trace.jsonl"
    write_trace(records, trace)
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
        assert [(r["direction"], r["segment"]) for r in replayed] == [
            (r["direction"], r["segment"]) for r in recorded
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
            ('{"step":1}', "missing key 'segment'"),
            (
                '{"step":1,"direction":"CLIENT","segment":{"seq":1,"ack":0,"flags":"SYN|BOGUS","payload_len":0}}',
                "unknown flag token",
            ),
            ('{"trailer":{"client_iss":"x","server_iss":1}}', "client_iss must be an integer"),
            ('{"trailer":{"client_iss":1,"server_iss":true}}', "server_iss must be an integer"),
            ('{"trailer":{"client_iss":4294967296,"server_iss":1}}', "client_iss must be an integer"),
            ("[1]", "not a JSON object: list"),
        ],
    )
    def test_malformed_transcript_is_io_error(self, tmp_path, capsys, line, reason):
        path = self.session_path(tmp_path, capsys)
        lines = path.read_text().splitlines()
        lines.insert(2, line)
        path.write_text("\n".join(lines) + "\n")
        code, _, stderr = run(capsys, "inject", "--in", str(path), "--fault", "none")
        assert code == EXIT_IO
        assert stderr.startswith(f"error: {path} line 3: bad transcript line: ")
        assert reason in stderr

    @pytest.mark.parametrize("key", ["step", "seed"])
    @pytest.mark.parametrize("value", [1.9, True, "7"])
    def test_non_integer_step_or_seed_is_io_error(self, tmp_path, capsys, key, value):
        # int() would read 1.9 and true as 1, and "7" as 7.
        path = self.session_path(tmp_path, capsys)
        lines = path.read_text().splitlines()
        lineno = 3 if key == "step" else len(lines)
        obj = json.loads(lines[lineno - 1])
        (obj if key == "step" else obj["trailer"])[key] = value
        lines[lineno - 1] = json.dumps(obj)
        path.write_text("\n".join(lines) + "\n")
        code, _, stderr = run(capsys, "inject", "--in", str(path), "--fault", "none")
        assert code == EXIT_IO
        assert stderr == f"error: {path} line {lineno}: bad transcript line: {key} must be an integer: {value!r}\n"

    def test_transcript_without_trailer_is_io_error(self, tmp_path, capsys):
        path = self.session_path(tmp_path, capsys)
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
        code, _, stderr = run(capsys, "inject", "--in", str(path), "--fault", "none")
        assert code == EXIT_IO
        assert "no trailer line" in stderr

    def test_bad_mutation_is_usage(self, tmp_path, capsys):
        path = self.session_path(tmp_path, capsys)
        code, _, stderr = run(
            capsys, "inject", "--in", str(path), "--fault", "flag_mutate", "--index", "2",
            "--mutation", "SYN|BOGUS",
        )
        assert code == EXIT_USAGE and "unknown flag token" in stderr


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
