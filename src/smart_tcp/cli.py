"""Command-line entry point: simulate, trace2sft, evaluate, inject.

Exit codes: 0 completed, 1 usage, 2 I/O, 3 remote transport.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .agent_runtime import Scenario, replay_deliveries, run_trials
from .cognitive_core import (
    ENDPOINT_ENV,
    KEY_ENV,
    OracleCore,
    RemoteConfig,
    RemoteCore,
    TransportError,
    encode_compact,
)
from .dataset_pipeline import (
    COMPLETE,
    SftFormat,
    TraceFormatError,
    emit_sft,
    extract_flows,
    generate_error_dataset,
    handshake_isss,
    ingest_trace,
    reconstruct_labels,
)
from .evaluation import (
    EmptyRecordSet,
    ReportFormat,
    compute_report,
    emit_report,
    load_prediction_records,
)
from .tcp_core import CLIENT, SERVER, Segment, flags_parse

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_TRANSPORT = 3


def _make_core(args):
    if args.core == "oracle":
        return OracleCore()
    # A given --endpoint, even an empty one, wins over the environment.
    endpoint = args.endpoint if args.endpoint is not None else os.environ.get(ENDPOINT_ENV)
    if not endpoint:
        raise TransportError("remote core selected but no endpoint configured")
    return RemoteCore(RemoteConfig(endpoint=endpoint, api_key=os.environ.get(KEY_ENV)))


def cmd_simulate(args) -> int:
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
    # A TransportError from here on is main's to report.
    client = _make_core(args)
    server = _make_core(args)
    try:
        report = run_trials(client, server, args.sessions, args.seed, scenario)
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
    complete = [f for f in flows if f.completeness is COMPLETE]
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
    # The records are read while the report is counted, so a bad line ends
    # the run when it is reached.
    try:
        report = compute_report(load_prediction_records(args.pred))
    except EmptyRecordSet:
        print("error: empty prediction file", file=sys.stderr)
        return EXIT_IO
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
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
    path = args.infile
    try:
        ingest = ingest_trace(path)
        # The last non-blank line, read as ingest_trace reads lines.
        with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
            last_line = max((n for n, line in enumerate(fh, start=1) if line.strip()), default=0)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except TraceFormatError as exc:  # more than 10% malformed
        rejects, records, last_line = exc.rejects, [], 0
    else:
        rejects, records = ingest.rejects, ingest.records
    # Unlike trace2sft, a replay takes every line or none: a dropped
    # delivery would change what the stream means. The one line passed over
    # is a session file's trailer, a non-TCP line at the end.
    for lineno, reason in rejects:
        if reason.startswith("malformed:") or lineno != last_line:
            print(f"error: {path} line {lineno}: {reason}", file=sys.stderr)
            return EXIT_IO
    i = args.index
    try:
        connections = len({rec.five_tuple.normalized() for rec in records})
        if connections != 1:
            raise ValueError(f"{path} holds {connections} connections; inject replays exactly one")
        # The records in trace order; the first one's sender is the client.
        client = records[0].five_tuple
        deliveries = [
            (CLIENT if rec.five_tuple == client else SERVER, rec.segment) for rec in records
        ]
        isss = handshake_isss(records, client)
        if isss is None:
            raise ValueError(f"{path} has no SYN and SYN|ACK to take the ISSs from")
        client_iss, server_iss = isss
        # A swap takes the delivery after the target too.
        last = len(deliveries) - (2 if args.fault == "reorder_swap" else 1)
        if (args.mutation is not None) != (args.fault == "flag_mutate"):
            raise ValueError("--mutation goes with --fault flag_mutate, and only with it")
        if args.fault != "none" and not 0 <= i <= last:
            raise ValueError(f"fault target index out of range: {i}")
        if args.fault == "reorder_swap":
            deliveries[i], deliveries[i + 1] = deliveries[i + 1], deliveries[i]
        elif args.fault == "flag_mutate":
            # Numbers and payload stay as recorded; only the flag set changes.
            sender, seg = deliveries[i]
            deliveries[i] = (sender, Segment(seg.seq, seg.ack, flags_parse(args.mutation), seg.payload))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    verdicts = replay_deliveries(deliveries, client_iss, server_iss)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                for (sender, seg), verdict in zip(deliveries, verdicts):
                    obj = {
                        "direction": sender.value,
                        "segment": seg.to_wire(),
                        "replay_verdict": verdict.value,
                    }
                    fh.write(encode_compact(obj) + "\n")
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_IO
    flagged = [(i, v.value) for i, v in enumerate(verdicts) if v.value != "NORMAL"]
    print(f"{len(deliveries)} deliveries, anomalies: {flagged or 'none'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smart-tcp", description="TCP agent simulator, data pipeline and evaluator"
    )
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
    p.add_argument("--mutation", help="flag set for flag_mutate (and only for it), e.g. SYN|FIN")
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
