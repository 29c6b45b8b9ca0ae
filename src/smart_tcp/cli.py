"""Command-line entry point: simulate, trace2sft, evaluate, inject.

Exit codes: 0 completed, 1 usage/config, 2 I/O, 3 remote transport.
Configuration precedence: flag > environment > config file > default.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .agent_runtime import (
    FaultKind,
    FaultSpec,
    Scenario,
    SessionTranscript,
    inject_fault,
    replay_deliveries,
    run_trials,
)
from .cognitive_core import (
    ENDPOINT_ENV,
    KEY_ENV,
    OracleCore,
    RemoteConfig,
    RemoteCore,
    TransportError,
)
from .dataset_pipeline import (
    Completeness,
    SftFormat,
    TraceFormatError,
    emit_sft,
    extract_flows,
    generate_error_dataset,
    ingest_trace,
    reconstruct_labels,
)
from .evaluation import ReportFormat, compute_report, emit_report, load_prediction_records
from .tcp_core import flags_parse

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_TRANSPORT = 3


def load_config_file(path) -> dict:
    """Simple key=value text format; '#' starts a comment."""
    cfg = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {line!r}")
            key, value = line.split("=", 1)
            cfg[key.strip()] = value.strip()
    return cfg


def _resolve(flag_value, env_name, cfg, cfg_key, default=None):
    if flag_value is not None:
        return flag_value
    if env_name and os.environ.get(env_name):
        return os.environ[env_name]
    if cfg_key in cfg:
        return cfg[cfg_key]
    return default


def _make_core(args, cfg):
    if args.core == "oracle":
        return OracleCore()
    endpoint = _resolve(getattr(args, "endpoint", None), ENDPOINT_ENV, cfg, "model_endpoint")
    if not endpoint:
        raise TransportError("remote core selected but no endpoint configured")
    key = _resolve(None, KEY_ENV, cfg, "model_key")
    return RemoteCore(RemoteConfig(endpoint=endpoint, api_key=key))


def cmd_simulate(args) -> int:
    cfg = load_config_file(args.config) if args.config else {}
    if args.sessions < 1:
        print("error: --sessions must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    try:
        scenario = Scenario.load(args.scenario) if args.scenario else Scenario()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:  # bad JSON and undecodable bytes included
        print(f"error: bad scenario {args.scenario}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    outdir = Path(args.out) if args.out else None
    if outdir is not None:
        # Made before the trial runs, so that a bad path costs no sessions.
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_IO
    try:
        client = _make_core(args, cfg)
        server = _make_core(args, cfg)
    except TransportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT
    try:
        report = run_trials(client, server, args.sessions, args.seed, scenario)
    except TransportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT
    finally:
        client.close()
        server.close()
    if outdir is not None:
        try:
            for i, t in enumerate(report.transcripts):
                t.write(outdir / f"session-{i:03d}.jsonl")
            with open(outdir / "trial_report.json", "w", encoding="utf-8") as fh:
                json.dump(report.to_wire(), fh, indent=2)
                fh.write("\n")
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_IO
    print(report.summary())
    return EXIT_OK


def cmd_trace2sft(args) -> int:
    try:
        ingest = ingest_trace(args.infile)
    except (OSError, TraceFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    flows = extract_flows(ingest.records)
    complete = [f for f in flows if f.completeness is Completeness.COMPLETE]
    samples = []
    for flow in complete:
        samples.extend(reconstruct_labels(flow))
    if args.errors:
        try:
            samples.extend(
                generate_error_dataset(
                    samples, count=args.errors, ratio=args.error_ratio, seed=args.seed
                )
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
    fmt = SftFormat(args.format.upper())
    try:
        emit_sft(samples, args.out, fmt)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    packets = sum(len(f.records) for f in complete)
    print(
        f"{len(complete)} flows, {packets} packets "
        f"({len(flows) - len(complete)} incomplete discarded, "
        f"{len(ingest.rejects)} rejected lines); {len(samples)} samples -> {args.out}"
    )
    return EXIT_OK


def cmd_evaluate(args) -> int:
    try:
        records = load_prediction_records(args.pred)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    if not records:
        print("error: empty prediction file", file=sys.stderr)
        return EXIT_IO
    report = compute_report(records)
    fmt = ReportFormat(args.format.upper())
    try:
        emit_report(report, args.out, fmt)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    print(
        f"records={report.record_count} malformed={report.malformed_count} "
        f"atomic={report.atomic_accuracy * 100:.2f}% -> {args.out}"
    )
    return EXIT_OK


def cmd_inject(args) -> int:
    try:
        transcript = SessionTranscript.read(args.infile)
    except (OSError, ValueError) as exc:  # ValueError: a malformed transcript
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    deliveries = [(e.direction, e.segment) for e in transcript.entries]
    kind = FaultKind(args.fault.upper())
    try:
        mutation = flags_parse(args.mutation) if args.mutation else None
        fault = FaultSpec(
            kind=kind,
            target_index=args.index if kind is not FaultKind.NONE else None,
            mutation=mutation,
        )
        mutated = inject_fault(deliveries, fault)
    except (IndexError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    verdicts = replay_deliveries(mutated, transcript.client_iss, transcript.server_iss)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                for (sender, seg), verdict in zip(mutated, verdicts):
                    fh.write(
                        json.dumps(
                            {
                                "direction": sender.value,
                                "segment": seg.to_wire(),
                                "replay_verdict": verdict.value,
                            },
                            separators=(",", ":"),
                        )
                        + "\n"
                    )
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_IO
    flagged = [(i, v.value) for i, v in enumerate(verdicts) if v.value != "NORMAL"]
    print(f"{len(mutated)} deliveries, anomalies: {flagged or 'none'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smart-tcp", description="TCP agent simulator, data pipeline and evaluator"
    )
    parser.add_argument("--config", help="key=value config file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run full-lifecycle dual-agent sessions")
    p.add_argument("--core", choices=("oracle", "remote"), default="oracle")
    p.add_argument("--sessions", type=int, default=30)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--scenario", help="scenario JSON file")
    p.add_argument("--out", help="output directory for transcripts and report")
    p.add_argument("--endpoint", help="remote model endpoint URL")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("trace2sft", help="turn traces into SFT training data")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("pairs", "instruct"), default="pairs")
    p.add_argument("--errors", type=int, default=0, help="error samples to append")
    p.add_argument("--error-ratio", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_trace2sft)

    p = sub.add_parser("evaluate", help="score a prediction file")
    p.add_argument("--pred", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("text_table", "machine"), default="machine")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("inject", help="mutate a recorded stream and replay it")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--fault", choices=("none", "reorder_swap", "flag_mutate"), required=True)
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--mutation", help="flag override for flag_mutate, e.g. SYN|FIN")
    p.add_argument("--out")
    p.set_defaults(func=cmd_inject)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except TransportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT


if __name__ == "__main__":
    sys.exit(main())
