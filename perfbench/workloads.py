"""Workload definitions shared by the runner and the input generator.

Each workload fixes the parameters its inputs are generated from and states
why it is in the benchmark. ``BENCHMARK.json`` at the repository root
repeats the names and reasons.
"""

from __future__ import annotations

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Trace shape shared by the two trace-based workloads; flow count and error
# samples are set per workload.
_TRACE = {
    "max_segments": 6,  # data segments per flow, 1..max
    "max_payload": 1460,
    "mean_arrival_ms": 1.0,  # flow inter-arrival; ~20 flows open at once
    "mean_gap_ms": 2.0,  # gap between records of one flow
    "reuse_share": 0.15,  # flows that reuse a closed flow's 5-tuple
    "non_tcp_share": 0.03,
    "malformed_share": 0.02,  # the program's hard limit is 10%
    "error_ratio": 0.5,
}

# Per workload: "rate" names what ops_per_s counts, in the pipeline's own
# terms; "setup" is what a fresh interpreter runs before the first operation.
WORKLOADS = {
    "simulate-oracle": {
        "rate": "sessions_per_s",
        "setup": "import smart_tcp.cli as c; c.OracleCore(); c.OracleCore()",
        "why": (
            "120 default and 12 long (32 segments, server closes) sessions a round: "
            "oracle, ALU, Agent.step and grading; short sessions weight per-session "
            "costs, long ones per-step costs"
        ),
        "params": {
            "short_sessions": 120,  # default scenario: 2 data segments, client closes
            "long_sessions": 12,
            "long_segments": 32,  # alternating sides, server closes
            "long_steps_budget": 160,
            "max_payload": 1460,
        },
    },
    "simulate-remote": {
        "rate": "sessions_per_s",
        "setup": (
            "import smart_tcp.cli as c; cfg = c.RemoteConfig(endpoint='http://127.0.0.1:9/'); "
            "c.RemoteCore(cfg); c.RemoteCore(cfg)"
        ),
        "why": (
            "4 sessions a round against a loopback stub with a 2 ms service delay: "
            "prompt build, HTTP transport, response parse and waiting dominate; "
            "bypasses dataset_pipeline"
        ),
        "params": {
            "sessions": 4,  # per round, default scenario
            "service_delay_ms": 2.0,
        },
    },
    "trace2sft": {
        "rate": "trace2sft_records_per_s",
        "setup": "import smart_tcp.cli",
        "why": (
            "120 interleaved flows with reused 5-tuples, duplicates, fragments and "
            "junk lines, 120 error samples: ingest, flow split, replay, mutation and "
            "SFT emission; no network"
        ),
        "params": dict(_TRACE, flows=120, fragments=4, duplicates=2, errors=120),
    },
    "evaluate": {
        "rate": "evaluate_records_per_s",
        "setup": "import smart_tcp.cli",
        "why": (
            "~9k predictions with planted wrong states, flags, numbers, verdicts "
            "and malformed decisions: loading, report and emission; bypasses the "
            "session driver and replay"
        ),
        "params": dict(
            _TRACE,
            flows=600,
            fragments=18,
            duplicates=6,
            errors=600,
            share={
                "correct": 0.60,
                "wrong_state": 0.08,
                "wrong_flags": 0.08,
                "wrong_numbers": 0.08,
                "null": 0.04,
                "invalid": 0.04,
                "wrong_verdict": 0.08,
            },
        ),
    },
}
