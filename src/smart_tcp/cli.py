"""Command-line entry point: simulate, trace2sft, evaluate, inject.

Commands raise and print nothing to stderr, except `trace2sft`'s `<flow>
dropped: <k>/<n> records skipped` line for each flow the labeler drops
(through `logging`'s last-resort handler). `main` is the one error exit: it
prints `error: <message>` once and maps what a command raised to an exit
code, 0 completed, 1 usage (`UsageError`), 2 I/O (`OSError`, `InputError`)
and 3 remote transport (`TransportError`).
A command turns a library ValueError into `UsageError` or `InputError`,
since only the command knows which it is; anything else is a bug and ends
in a traceback.
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
    pct,
)
from .tcp_core import CLIENT, SERVER, flags_parse

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_TRANSPORT = 3


class UsageError(Exception):
    """A bad option value, or options that do not fit the input: exit 1."""


class InputError(Exception):
    """An input file whose content cannot be used: exit 2."""


def _make_core(args):
    if args.core == "oracle":
        return OracleCore()
    # A given --endpoint, even an empty one, wins over the environment.
    endpoint = args.endpoint if args.endpoint is not None else os.environ.get(ENDPOINT_ENV)
    if not endpoint:
        raise TransportError("remote core selected but no endpoint configured")
    return RemoteCore(RemoteConfig(endpoint=endpoint, api_key=os.environ.get(KEY_ENV)))


def cmd_simulate(args) -> None:
    if args.sessions < 1:
        raise UsageError("--sessions must be >= 1")
    try:
        scenario = Scenario.load(args.scenario) if args.scenario else Scenario()
    except ValueError as exc:  # bad JSON and undecodable bytes included
        raise UsageError(f"bad scenario {args.scenario}: {exc}") from exc
    outdir = Path(args.out) if args.out else None
    if outdir is not None:
        # Made before the trial runs, so that a bad path costs no sessions.
        outdir.mkdir(parents=True, exist_ok=True)
    core = _make_core(args)
    try:
        report = run_trials(core, core, args.sessions, args.seed, scenario)
    finally:
        core.close()
    if outdir is not None:
        for i, t in enumerate(report.transcripts):
            t.write(outdir / f"session-{i:03d}.jsonl")
        with open(outdir / "trial_report.json", "w", encoding="utf-8") as fh:
            json.dump(report.to_wire(), fh, indent=2)
            fh.write("\n")
    print(report.summary())


def cmd_trace2sft(args) -> None:
    ingest = ingest_trace(args.infile)
    total = len(ingest.records) + len(ingest.rejects)
    malformed = sum(reason.startswith("malformed:") for _, reason in ingest.rejects)
    if total and malformed / total > 0.10:
        raise InputError(f"{malformed}/{total} malformed lines exceeds the 10% threshold")
    flows = extract_flows(ingest.records)
    complete = [f for f in flows if f.completeness is COMPLETE]
    samples = []
    for flow in complete:
        samples.extend(reconstruct_labels(flow))
    if args.errors:
        try:
            errors = generate_error_dataset(samples, args.errors, args.error_ratio, args.seed)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        samples.extend(errors)
    emit_sft(samples, args.out, SftFormat(args.format.upper()))
    packets = sum(len(f.records) for f in complete)
    print(
        f"{len(complete)} flows, {packets} packets "
        f"({len(flows) - len(complete)} incomplete discarded, "
        f"{len(ingest.rejects)} rejected lines); {len(samples)} samples -> {args.out}"
    )


def cmd_evaluate(args) -> None:
    # The records are read while the report is counted, so a bad line ends
    # the run when it is reached.
    try:
        report = compute_report(load_prediction_records(args.pred))
    except EmptyRecordSet:
        raise InputError("empty prediction file") from None
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    emit_report(report, args.out, ReportFormat(args.format.upper()))
    print(
        f"records={report.record_count} malformed={report.malformed_count} "
        f"atomic={pct(report.atomic_accuracy)} -> {args.out}"
    )


def cmd_inject(args) -> None:
    path = args.infile
    records, rejects, last_line = ingest_trace(path)
    # Unlike trace2sft, a replay takes every line or none: a dropped
    # delivery would change what the stream means. The one line passed over
    # is a session file's trailer, a non-TCP line at the end.
    for lineno, reason in rejects:
        if reason.startswith("malformed:") or lineno != last_line:
            raise InputError(f"{path} line {lineno}: {reason}")
    connections = len({rec.five_tuple.normalized() for rec in records})
    if connections != 1:
        raise UsageError(f"{path} holds {connections} connections; inject replays exactly one")
    # The records in trace order; the first one's sender is the client.
    client = records[0].five_tuple
    deliveries = [(CLIENT if rec.five_tuple == client else SERVER, rec.segment) for rec in records]
    isss = handshake_isss(records, client)
    if isss is None:
        raise UsageError(f"{path} has no SYN and SYN|ACK to take the ISSs from")
    i = args.index
    # A swap takes the delivery after the target too.
    last = len(deliveries) - (2 if args.fault == "reorder_swap" else 1)
    if (args.mutation is not None) != (args.fault == "flag_mutate"):
        raise UsageError("--mutation goes with --fault flag_mutate, and only with it")
    if args.fault != "none" and not 0 <= i <= last:
        raise UsageError(f"fault target index out of range: {i}")
    if args.fault == "reorder_swap":
        deliveries[i], deliveries[i + 1] = deliveries[i + 1], deliveries[i]
    elif args.fault == "flag_mutate":
        # Numbers and payload stay as recorded; only the flag set changes.
        sender, seg = deliveries[i]
        try:
            deliveries[i] = (sender, seg._replace(flags=flags_parse(args.mutation)))
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    verdicts = replay_deliveries(deliveries, *isss)
    if args.out:
        objs = (
            {"direction": sender.value, "segment": seg.to_wire(), "replay_verdict": verdict.value}
            for (sender, seg), verdict in zip(deliveries, verdicts)
        )
        Path(args.out).write_text("".join(encode_compact(o) + "\n" for o in objs), encoding="utf-8")
    flagged = [(i, v.value) for i, v in enumerate(verdicts) if v.value != "NORMAL"]
    print(f"{len(deliveries)} deliveries, anomalies: {flagged or 'none'}")


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
        args.func(args)
    except (UsageError, InputError, OSError, TransportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, UsageError):
            return EXIT_USAGE
        return EXIT_TRANSPORT if isinstance(exc, TransportError) else EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
