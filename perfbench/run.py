"""End-to-end and per-layer benchmark of the smart-tcp CLI pipelines.

    python3 perfbench/run.py --workload simulate-oracle --seed 1 --seconds 10 --trace 0

Workloads (see workloads.py): simulate-oracle, simulate-remote, trace2sft
and evaluate. Each run generates its inputs from --seed in a separate
process (gen.py), then drives the real entry point ``smart_tcp.cli.main``
in this process, in closed-loop rounds, for --seconds seconds. Every round's
output is checked; the first, untimed round is checked in full and later
rounds must reproduce its bytes.

With --trace 0 the result holds the end-to-end metrics:
  ops_per_s    median over rounds of operations per second; an operation
               is a session (simulate-*), an input trace line (trace2sft)
               or a prediction record (evaluate)
  setup_s      median wall time of fresh interpreters that import
               smart_tcp.cli and build the workload's cores
  peak_rss_mb  peak resident set of this process
Both timings are scaled to a reference CPU speed: a fixed piece of
pure-Python work (calibrate) runs after every round and every set-up
sample, and each time is multiplied by CALIB_REF_S / its calibration time.
The stub's fixed service delay is not scaled. The unscaled rate and the
speed factor are printed too.
With --trace 1 rounds alternate between untraced and traced, and the
result holds per-layer metrics from the traced rounds plus the tracing
overhead. The last line of standard output is one JSON object; the lines
before it repeat the metrics for people, with the environment.

Inputs and outputs live under .perfbench_work/ in the checkout. Remote
traffic crosses the host loopback to stub.py. The exit code is 1 when an
output check fails and 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from workloads import ROOT, SRC, WORK, WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 11
MIN_ROUNDS = 3
CALIB_ITEMS = 20_000
# Seconds calibrate() takes between rounds on the reference machine (Intel
# Xeon, 2 vCPUs, Python 3.11.7) in its usual, slower state. That machine's
# CPU speed switches between two levels about 1.6x apart within seconds;
# timings scaled by the calibration measured next to them vary ~4x less.
CALIB_REF_S = 0.016

class CheckFailed(Exception):
    pass


def digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def dir_digest(d: Path) -> str:
    return digest(sorted(d.iterdir()))


def fresh(path: Path) -> None:
    """Remove an output so the program writes new files; rewriting a
    truncated file makes ext4 flush it to disk, which adds noise."""
    if path.is_dir():
        shutil.rmtree(path)
    elif path.exists():
        path.unlink()


def call_cli(argv):
    """Run smart_tcp.cli.main(argv); return (exit code, stdout, seconds)."""
    from smart_tcp import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        t0 = time.perf_counter()
        code = cli.main(argv)
        dt = time.perf_counter() - t0
    return code, out.getvalue(), dt


# ---------------------------------------------------------------------------
# Workloads: each prepares a reference (untimed, fully checked) and then runs
# timed rounds whose outputs must equal it.
# ---------------------------------------------------------------------------


class Simulate:
    """Closed loop of `smart-tcp simulate` calls; one call per scenario.

    Remote rounds write transcripts and must match the oracle's bytes.
    Oracle rounds run without --out: on the ext4 disk of the reference
    machine, file creation made the round rate swing between 450 and 1,050
    sessions/s, which hid the program's own cost. They are checked through
    the summary line, and one more untimed round with --out must reproduce
    the reference transcripts.
    """

    def __init__(self, work: Path, expected: dict, p: dict, endpoint=None):
        self.base = ["simulate", "--core", "remote" if endpoint else "oracle"]
        self.write_out = endpoint is not None
        if endpoint:
            self.base += ["--endpoint", endpoint]
            self.calls = [(["--sessions", str(p["sessions"]), "--seed", str(expected["short_seed"])],
                           work / "out-short", p["sessions"])]
        else:
            self.calls = [
                (["--sessions", str(p["short_sessions"]), "--seed", str(expected["short_seed"])],
                 work / "out-short", p["short_sessions"]),
                (["--sessions", str(p["long_sessions"]), "--seed", str(expected["long_seed"]),
                  "--scenario", expected["long_scenario"]],
                 work / "out-long", p["long_sessions"]),
            ]
        self.ops = sum(n for _, _, n in self.calls)
        self.reference = []  # (transcript digest, summary line) per call

    def _run(self, base, args, out):
        if out is None:
            return call_cli(base + args)
        fresh(out)
        return call_cli(base + args + ["--out", str(out)])

    def prepare(self) -> int:
        """Reference transcripts from the oracle core, checked session by
        session; returns the number of failed sessions."""
        failed = 0
        for args, out, n in self.calls:
            code, stdout, _ = self._run(["simulate", "--core", "oracle"], args, out)
            if code != 0:
                raise CheckFailed(f"oracle simulate exited {code}")
            sessions = sorted(out.glob("session-*.jsonl"))
            if len(sessions) != n:
                raise CheckFailed(f"{len(sessions)} transcripts written, {n} expected")
            for s in sessions:
                with open(s, "rb") as fh:
                    trailer = json.loads(fh.readlines()[-1])["trailer"]
                phases = trailer["phase_results"]
                if len(phases) != 3 or not all(v["passed"] for v in phases.values()):
                    failed += 1
            report = json.loads((out / "trial_report.json").read_text())
            if failed == 0 and report["trial_accuracy"] != "100.00%":
                raise CheckFailed(f"trial report says {report['trial_accuracy']}")
            self.reference.append((dir_digest(out), stdout))
        return failed

    def round(self, write_out=None):
        """One round; returns (seconds, failed operations)."""
        write_out = self.write_out if write_out is None else write_out
        total = 0.0
        failed = 0
        for (args, out, n), (ref_digest, ref_stdout) in zip(self.calls, self.reference):
            code, stdout, dt = self._run(self.base, args, out if write_out else None)
            total += dt
            if code != 0 or stdout != ref_stdout or (write_out and dir_digest(out) != ref_digest):
                failed += n
        return total, failed

    def finish(self) -> int:
        return 0 if self.write_out else self.round(write_out=True)[1]


class Trace2Sft:
    def __init__(self, work: Path, expected: dict, p: dict):
        self.expected = expected
        self.out = work / "sft.jsonl"
        self.argv = [
            "trace2sft", "--in", expected["trace"], "--out", str(self.out),
            "--errors", str(p["errors"]), "--error-ratio", str(p["error_ratio"]),
            "--seed", str(expected["error_seed"]),
        ]
        self.ops = expected["lines"]
        self.reference = None

    def prepare(self) -> int:
        """Run once with emit_sft observed; check counts, category totals
        and every reconstructed sample against its trace record."""
        from smart_tcp import cli
        from smart_tcp.dataset_pipeline import check_alu_consistency
        from smart_tcp.tcp_core import Segment, flags_parse

        captured = []
        original = cli.emit_sft

        def capture(samples, *args, **kwargs):
            captured.extend(samples)
            return original(samples, *args, **kwargs)

        cli.emit_sft = capture
        try:
            fresh(self.out)
            code, stdout, _ = call_cli(self.argv)
        finally:
            cli.emit_sft = original
        if code != 0:
            raise CheckFailed(f"trace2sft exited {code}")
        e = self.expected
        want = (
            f"{e['complete_flows']} flows, {e['packets']} packets "
            f"({e['incomplete_flows']} incomplete discarded, {e['rejected']} rejected lines); "
            f"{len(captured)} samples -> {self.out}"
        )
        if stdout.strip() != want:
            raise CheckFailed(f"trace2sft summary {stdout.strip()!r}, expected {want!r}")

        failed = 0
        mutations = {}
        for sample in captured:
            prov = sample.provenance
            if "mutation" in prov:
                mutations[prov["mutation"]] = mutations.get(prov["mutation"], 0) + 1
                continue
            sender, seq, ack, flags, plen = e["flows"][prov["flow_id"]][prov["record_index"]]
            observed = Segment(seq=seq, ack=ack, flags=flags_parse(flags), payload=b"\0" * plen)
            label = sample.label
            if not (
                check_alu_consistency(sample, observed)
                and label.flags == observed.flags
                and label.payload_len == plen
                and sample.input.s.role.value == sender
            ):
                failed += 1
        n_order = round(e["errors"] * e["error_ratio"])
        n_flag = e["errors"] - n_order
        want_mut = {
            "ORDER_SWAP": (n_order + 1) // 2,
            "ORDER_SEQ_JUMP": n_order // 2,
            "FLAG_ILLEGAL_COMBO": (n_flag + 1) // 2,
            "FLAG_WRONG_STATE": n_flag // 2,
        }
        want_mut = {k: v for k, v in want_mut.items() if v}
        if mutations != want_mut:
            raise CheckFailed(f"error categories {mutations}, expected {want_mut}")
        verdicts = {}
        with open(self.out, encoding="utf-8") as fh:
            for line in fh:
                v = json.loads(line)["label"]["verdict"]
                verdicts[v] = verdicts.get(v, 0) + 1
        want_v = {"ORDER_ERROR": n_order, "FLAG_ERROR": n_flag}
        got_v = {k: v for k, v in verdicts.items() if k != "NORMAL"}
        if got_v != {k: v for k, v in want_v.items() if v} or sum(verdicts.values()) != len(captured):
            raise CheckFailed(f"SFT verdict counts {verdicts}, expected {want_v}")
        self.reference = (digest([self.out]), stdout)
        return failed

    def round(self):
        fresh(self.out)
        code, stdout, dt = call_cli(self.argv)
        ok = code == 0 and (digest([self.out]), stdout) == self.reference
        return dt, 0 if ok else self.ops

    def finish(self) -> int:
        return self.round()[1]


class Evaluate:
    def __init__(self, work: Path, expected: dict, p: dict):
        self.expected = expected
        self.out = work / "report.json"
        self.argv = ["evaluate", "--pred", expected["pred"], "--out", str(self.out), "--format", "machine"]
        self.ops = expected["records"]
        self.reference = None

    def prepare(self) -> int:
        """The report must state exactly what the generator planted;
        returns the number of report fields that differ."""
        fresh(self.out)
        code, _, _ = call_cli(self.argv)
        if code != 0:
            raise CheckFailed(f"evaluate exited {code}")
        report = json.loads(self.out.read_text())
        failed = 0
        for key, want in self.expected["report"].items():
            got = report.get(key)
            if isinstance(want, dict):
                failed += sum(got is None or got.get(k) != v for k, v in want.items())
            else:
                failed += got != want
        self.reference = digest([self.out])
        return failed

    def round(self):
        fresh(self.out)
        code, _, dt = call_cli(self.argv)
        ok = code == 0 and digest([self.out]) == self.reference
        return dt, 0 if ok else self.ops

    def finish(self) -> int:
        return self.round()[1]


# ---------------------------------------------------------------------------
# Set-up, stub and environment.
# ---------------------------------------------------------------------------


def measure_setup(workload: str) -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-c", WORKLOADS[workload]["setup"]]
    subprocess.run(argv, env=env, cwd=ROOT, check=True)  # writes bytecode caches
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, cwd=ROOT, check=True)
        times.append((time.perf_counter() - t0) * CALIB_REF_S / calibrate())
    return statistics.median(times)


@contextlib.contextmanager
def stub_server(delay_ms: float, counters: dict):
    """Start stub.py, yield its endpoint, and always stop it; its counters
    land in ``counters`` when it shuts down cleanly."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "stub.py"), "--delay-ms", str(delay_ms)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT,
    )
    try:
        ready = proc.stdout.readline().split()
        if len(ready) != 2 or ready[0] != "PORT":
            raise CheckFailed(f"stub did not start: {ready}")
        yield f"http://127.0.0.1:{ready[1]}/v1/chat/completions"
        out, _ = proc.communicate(timeout=30)
        counters.update(json.loads(out.strip().splitlines()[-1]))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()


def environment(work: Path) -> dict:
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    fstype = "unknown"
    with contextlib.suppress(OSError):
        best = ""
        with open("/proc/mounts", encoding="utf-8") as fh:
            for line in fh:
                mnt, typ = line.split()[1:3]
                if str(work).startswith(mnt) and len(mnt) >= len(best):
                    best, fstype = mnt, typ

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "missing"

    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "requests": version("requests"),
        "traffic": "host loopback (127.0.0.1), not a real link",
        "outputs": f"{WORK.name}/ in the checkout, on {fstype}",
    }


# ---------------------------------------------------------------------------
# Measurement.
# ---------------------------------------------------------------------------


def pct(values, q):
    values = sorted(values)
    return values[min(len(values) - 1, int(q * len(values)))] if values else 0.0


def layer_metrics(tracer, ops_per_round, round_s, stub, overhead):
    """Per-layer metrics from the traced rounds, which took round_s."""
    st = tracer.stats
    c = tracer.counters
    traced_s = sum(round_s)
    ops = len(round_s) * ops_per_round
    m = {}
    for name, s in st.items():
        m[f"{name}.calls_per_op"] = (s.calls / ops, "count")
        m[f"{name}.self_us"] = (s.self_ns / s.calls / 1e3 if s.calls else 0.0, "us")
        m[f"{name}.self_share"] = (s.self_ns / 1e9 / traced_s, "ratio")

    def ratio(a, b):
        return a / b if b else 0.0

    sessions = st["agent_runtime.run_session"].calls
    decide = st["cognitive_core.RemoteCore.decide"]
    complete = st["cognitive_core.RemoteCore._complete"]
    ms = lambda xs, q: pct(xs, q) / 1e6  # noqa: E731
    m.update({
        "agent_runtime.steps_per_session": (ratio(st["agent_runtime.Agent.step"].calls, sessions), "count"),
        "tcp_core.flags_parse.per_session": (ratio(st["tcp_core.flags_parse"].calls, sessions), "count"),
        "cognitive_core.requests_per_decision": (ratio(complete.calls, decide.calls), "ratio"),
        "cognitive_core.RemoteCore.decide.samples": (decide.calls, "count"),
        "cognitive_core.RemoteCore.decide.p50_ms": (ms(decide.samples, 0.50), "ms"),
        "cognitive_core.RemoteCore.decide.p99_ms": (ms(decide.samples, 0.99), "ms"),
        "cognitive_core.RemoteCore._complete.wait_p50_ms": (ms(complete.samples, 0.50), "ms"),
        "cognitive_core.RemoteCore._complete.wait_p99_ms": (ms(complete.samples, 0.99), "ms"),
        "dataset_pipeline.reconstruct_per_complete_flow": (
            ratio(st["dataset_pipeline.reconstruct_labels"].calls, c.get("complete_flows", 0)), "ratio"),
        "dataset_pipeline.samples_per_record": (
            ratio(c.get("samples_emitted", 0), c.get("records_ingested", 0)), "ratio"),
        "dataset_pipeline.rejected_lines": (ratio(c.get("rejected_lines", 0), c.get("ingest_calls", 0)), "count"),
        "dataset_pipeline.dropped_flows": (ratio(c.get("dropped_flows", 0), c.get("ingest_calls", 0)), "count"),
        "stub.requests": (stub.get("requests", 0), "count"),
        "stub.connections": (stub.get("connections", 0), "count"),
        "stub.connections_per_request": (ratio(stub.get("connections", 0), stub.get("requests", 0)), "ratio"),
        "stub.service_p50_ms": (stub.get("service_p50_ms", 0.0), "ms"),
        "trace.overhead_us_per_op": (overhead[0], "us"),
        "trace.overhead_share": (overhead[1], "ratio"),
    })
    return m


def calibrate() -> float:
    """Seconds a fixed piece of pure-Python work takes right now."""
    t0 = time.perf_counter()
    table = {}
    n = 0
    for i in range(CALIB_ITEMS):
        table[i % 97] = (i, str(i))
        n += len(table[i % 97][1])
    obj = {"seq": list(range(50)), "flags": {"syn": True, "ack": "x" * 20}, "n": n}
    for _ in range(CALIB_ITEMS // 60):
        json.loads(json.dumps(obj))
    return time.perf_counter() - t0


def measure(bench, seconds: float, tracer):
    """Timed closed-loop rounds, each followed by a calibration run. With a
    tracer, odd rounds are traced. Returns ([(traced, seconds, calibration
    seconds)], failed operations)."""
    rounds = []
    failed = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(rounds) < 2 * MIN_ROUNDS:
        trace_this = tracer is not None and len(rounds) % 2 == 1
        if trace_this:
            tracer.install()
        try:
            dt, bad = bench.round()
        finally:
            if trace_this:
                tracer.uninstall()
        rounds.append((trace_this, dt, calibrate()))
        failed += bad
    return rounds, failed


def at_reference_speed(rounds, wait_s):
    """Round times scaled to the reference CPU speed by the median
    calibration of the five rounds around each. wait_s per round is the
    stub's fixed service delay, which is wall time and is not scaled."""
    calib = [c for _, _, c in rounds]
    out = []
    for i, (traced, dt, _) in enumerate(rounds):
        near = statistics.median(calib[max(0, i - 2): i + 3])
        out.append((traced, wait_s + (dt - wait_s) * CALIB_REF_S / near))
    return out


def run(args, work: Path) -> dict:
    spec = WORKLOADS[args.workload]
    p = spec["params"]
    env = environment(work)
    setup_s = measure_setup(args.workload)
    subprocess.run(
        [sys.executable, str(HERE / "gen.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--out", str(work / "in")],
        cwd=ROOT, check=True,
    )
    expected = json.loads((work / "in" / "expected.json").read_text())
    sys.path.insert(0, str(SRC))

    tracer = None
    if args.trace:
        from tracer import Tracer, plan_layers

        tracer = Tracer()
        plan_layers(tracer)

    stub = {}
    with contextlib.ExitStack() as stack:
        endpoint = None
        if args.workload == "simulate-remote":
            endpoint = stack.enter_context(stub_server(p["service_delay_ms"], stub))
        if args.workload.startswith("simulate"):
            bench = Simulate(work, expected, p, endpoint)
        elif args.workload == "trace2sft":
            bench = Trace2Sft(work, expected, p)
        else:
            bench = Evaluate(work, expected, p)
        ref_failed = bench.prepare()
        _, warm_failed = bench.round()  # warm-up: lazy imports, first connection
        rounds, failed = measure(bench, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        end_failed = bench.finish()

    # The reference, the warm-up, every timed round and the final check each
    # run bench.ops operations; the reference counts the sessions, samples or
    # report fields it found wrong.
    attempted = (len(rounds) + 3) * bench.ops
    failed += warm_failed + ref_failed + end_failed + stub.get("errors", 0)
    correct = failed == 0
    wait_s = 0.0
    if stub:
        # Every round sends the same requests; the warm-up round is one more.
        wait_s = stub["requests"] / (len(rounds) + 1) * p["service_delay_ms"] / 1e3
    scaled = at_reference_speed(rounds, wait_s)
    plain = [dt for traced, dt in scaled if not traced]
    ops_per_s = statistics.median(bench.ops / dt for dt in plain)
    human = {
        spec["rate"]: (
            statistics.median(bench.ops / dt for traced, dt, _ in rounds if not traced), "1/s"),
        "cpu_speed": (CALIB_REF_S / statistics.median(c for _, _, c in rounds), "ratio"),
        "failed_share": (failed / attempted, "ratio"),
    }
    if tracer is None:
        metrics = {
            "ops_per_s": (ops_per_s, "1/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        base = statistics.median(plain) / bench.ops
        with_trace = statistics.median(dt for traced, dt in scaled if traced) / bench.ops
        metrics = layer_metrics(
            tracer, bench.ops, [dt for traced, dt, _ in rounds if traced], stub,
            ((with_trace - base) * 1e6, with_trace / base - 1),
        )
        WORK.mkdir(exist_ok=True)
        tracer.write_spans(WORK / f"spans-{args.workload}.jsonl")

    print(f"workload={args.workload} seed={args.seed} rounds={len(rounds)} ops_per_round={bench.ops} "
          f"params={json.dumps(p, sort_keys=True)}")
    print("env " + json.dumps(env))
    for name, (value, unit) in {**human, **metrics}.items():
        print(f"{name}: {value:.6g} {unit}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="smart-tcp end-to-end and per-layer benchmark")
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "smart_tcp" / "cli.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        result = run(args, work)
    except CheckFailed as exc:
        print(f"error: output check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
