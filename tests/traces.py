"""Traces of several sessions, built in tests.

`SessionTranscript.trace_records` gives one session's deliveries at ts 0,
0.001, ...; `shifted` moves them to start at t0, so sessions stitched into
one trace do not interleave, and `write_records` writes any records as the
trace lines that `ingest_trace` reads.
"""

from smart_tcp.cognitive_core import encode_compact


def shifted(records, t0):
    return [r._replace(ts=t0 + r.ts) for r in records]


def write_records(records, path):
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(encode_compact(r.to_wire()) + "\n")
