"""Span tracing installed from outside the program.

The program's modules bind each other's functions with ``from … import``,
so a wrapper must replace the name where the caller looks it up (for
example ``agent_runtime.alu_execute``, not only ``alu.alu_execute``).
Methods are replaced on their class. Every wrapper records a span: its
name, start, duration and the span that was open when it began. Self time
is a span's duration minus the time its child spans cover. Aggregates are
kept for every call; raw spans are kept in memory up to a cap and written
out when the run ends.
"""

from __future__ import annotations

import json
from time import perf_counter_ns


class SpanStats:
    __slots__ = ("calls", "self_ns", "samples")

    def __init__(self, keep_samples: bool):
        self.calls = 0
        self.self_ns = 0
        self.samples = [] if keep_samples else None


class Tracer:
    def __init__(self, span_cap: int = 50_000):
        self.stats = {}
        self.counters = {}
        self.spans = []  # (id, parent id, name, start ns, duration ns)
        self.span_cap = span_cap
        self._stack = []  # open spans: [id, child ns]
        self._next_id = 1
        self._patches = []  # (owner, attribute, original, wrapped)

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, name, fn, on_call=None, keep_samples=False):
        """Return fn wrapped in a span; on_call(tracer, args, result) runs
        after each call that returns."""
        stats = self.stats.get(name)
        if stats is None:
            stats = self.stats[name] = SpanStats(keep_samples)
        stack = self._stack
        spans = self.spans

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            frame = [span_id, 0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                stats.calls += 1
                stats.self_ns += dt - frame[1]
                if stats.samples is not None:
                    stats.samples.append(dt)
                if len(spans) < self.span_cap:
                    spans.append((span_id, parent, name, t0, dt))
            if on_call is not None:
                on_call(self, args, result)
            return result

        return traced

    def add(self, owner, attr: str, name: str, on_call=None, keep_samples=False) -> None:
        """Plan a wrapper for owner.attr (a module or a class)."""
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            wrapped = classmethod(self.wrap(name, original.__func__, on_call, keep_samples))
        else:
            wrapped = self.wrap(name, original, on_call, keep_samples)
        self._patches.append((owner, attr, original, wrapped))

    def install(self) -> None:
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, t0, dt in self.spans:
                fh.write(json.dumps(
                    {"id": span_id, "parent": parent, "name": name, "start_ns": t0, "dur_ns": dt}
                ) + "\n")


def plan_layers(tracer: Tracer) -> None:
    """Wrap the public functions at each module boundary of smart_tcp.

    Where a function is bound under several names, each binding gets a
    wrapper with the same span name. The evaluation functions are looked up
    only in ``cli``.
    """
    from smart_tcp import agent_runtime as ar
    from smart_tcp import alu, cli, tcp_core as tcp
    from smart_tcp import cognitive_core as cc
    from smart_tcp import dataset_pipeline as dp

    def complete_flows(t, args, flows):
        t.count("complete_flows", sum(f.completeness is dp.Completeness.COMPLETE for f in flows))

    def ingested(t, args, result):
        t.count("ingest_calls")
        t.count("records_ingested", len(result.records))
        t.count("rejected_lines", len(result.rejects))

    def first_pass(t, args, samples):
        t.count("dropped_flows", int(not samples))

    def emitted(t, args, result):
        t.count("samples_emitted", len(args[0]))

    tracer.add(cli, "main", "cli.main")
    tracer.add(cli, "run_trials", "agent_runtime.run_trials")
    tracer.add(ar, "run_session", "agent_runtime.run_session")
    tracer.add(ar.Agent, "step", "agent_runtime.Agent.step")
    tracer.add(ar, "grade_session", "agent_runtime.grade_session")
    tracer.add(ar.SessionTranscript, "write", "agent_runtime.SessionTranscript.write")
    for owner in (cc, ar):
        tracer.add(owner, "oracle_transition", "cognitive_core.oracle_transition")
    tracer.add(cc.RemoteCore, "decide", "cognitive_core.RemoteCore.decide", keep_samples=True)
    tracer.add(cc.RemoteCore, "_complete", "cognitive_core.RemoteCore._complete", keep_samples=True)
    tracer.add(cc, "build_prompt", "cognitive_core.build_prompt")
    tracer.add(cc, "parse_decision", "cognitive_core.parse_decision")
    for owner in (ar, dp):
        tracer.add(owner, "alu_execute", "alu.alu_execute")
    tracer.add(tcp.Segment, "__init__", "tcp_core.Segment")
    tracer.add(tcp.Segment, "from_wire", "tcp_core.Segment.from_wire")
    tracer.add(tcp.Segment, "to_wire", "tcp_core.Segment.to_wire")
    for owner in (tcp, ar, cc, dp, cli):
        tracer.add(owner, "flags_parse", "tcp_core.flags_parse")
    for owner in (ar, alu, dp):
        tracer.add(owner, "seq_add", "tcp_core.seq_add")
    tracer.add(cli, "ingest_trace", "dataset_pipeline.ingest_trace", ingested)
    tracer.add(cli, "extract_flows", "dataset_pipeline.extract_flows", complete_flows)
    tracer.add(cli, "reconstruct_labels", "dataset_pipeline.reconstruct_labels", first_pass)
    tracer.add(dp, "reconstruct_labels", "dataset_pipeline.reconstruct_labels")
    tracer.add(cli, "generate_error_dataset", "dataset_pipeline.generate_error_dataset")
    tracer.add(cli, "emit_sft", "dataset_pipeline.emit_sft", emitted)
    tracer.add(cli, "load_prediction_records", "evaluation.load_prediction_records")
    tracer.add(cli, "compute_report", "evaluation.compute_report")
    tracer.add(cli, "emit_report", "evaluation.emit_report")

