"""Seeded input generator for the perfbench workloads.

Run as its own process, so that the memory it uses does not count towards
the benchmark process's peak RSS:

    python3 perfbench/gen.py --workload trace2sft --seed 1 --out DIR

It writes the workload's input files into DIR together with
``expected.json``, which holds what the output checks compare against.
The same seed always gives byte-identical inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import sys
from pathlib import Path

from workloads import SRC, WORKLOADS

sys.path.insert(0, str(SRC))

from smart_tcp import cli  # noqa: E402
from smart_tcp.agent_runtime import Scenario, run_session  # noqa: E402
from smart_tcp.cognitive_core import OracleCore  # noqa: E402
from smart_tcp.tcp_core import Role, TcpState  # noqa: E402

SEQ_MOD = 2**32
ROLES = (Role.CLIENT, Role.SERVER)


def long_scenario(rng: random.Random, p: dict) -> Scenario:
    """Alternating data segments with random sizes; the server closes."""
    script = tuple(
        (ROLES[i % 2], rng.randint(1, p["max_payload"])) for i in range(p["long_segments"])
    )
    return Scenario(
        data_script=script,
        closer=Role.SERVER,
        steps_budget=p["long_steps_budget"],
        scenario_id="long",
    )


def gen_remote(rng: random.Random, p: dict, out: Path) -> dict:
    return {"short_seed": rng.getrandbits(31)}


def gen_simulate(rng: random.Random, p: dict, out: Path) -> dict:
    scenario = long_scenario(rng, p)
    with open(out / "long.json", "w", encoding="utf-8") as fh:
        json.dump(scenario.to_wire(), fh)
    return {
        "short_seed": rng.getrandbits(31),
        "long_seed": rng.getrandbits(31),
        "long_scenario": str(out / "long.json"),
    }


# ---------------------------------------------------------------------------
# Traces built from oracle sessions.
# ---------------------------------------------------------------------------


def _session_segments(rng: random.Random, p: dict, oracle: OracleCore, scenario_id: str):
    k = rng.randint(1, p["max_segments"])
    scenario = Scenario(
        data_script=tuple(
            (rng.choice(ROLES), rng.randint(1, p["max_payload"])) for _ in range(k)
        ),
        closer=rng.choice(ROLES),
        scenario_id=scenario_id,
    )
    t = run_session(oracle, oracle, scenario, rng.getrandbits(32))
    if not t.all_passed():
        raise RuntimeError(f"oracle session {scenario_id} failed: {t.halt_reason}")
    return [(e.direction, e.segment) for e in t.entries]


def _record_line(ts: float, src: str, dst: str, seg) -> str:
    obj = {"ts": ts, "src": src, "dst": dst, "proto": "tcp"}
    obj.update(seg.to_wire())
    return json.dumps(obj, separators=(",", ":"))


MALFORMED = (
    '{"ts": 1.0, "src": "10.9.9.9:1", "dst"',
    '{"ts": 1.0, "src": "10.9.9.9:1", "dst": "10.9.9.8:2", "proto": "tcp", "seq": 1}',
    '{"ts": 1.0, "src": "10.9.9.9:1", "dst": "10.9.9.8:2", "proto": "tcp", '
    '"seq": "x", "ack": 0, "flags": "SYN", "payload_len": 0}',
    '{"ts": 1.0, "src": "10.9.9.9:1", "dst": "10.9.9.8:2", "proto": "tcp", '
    '"seq": 5, "ack": 0, "flags": "SYN|BOGUS", "payload_len": 0}',
)


def gen_trace(rng: random.Random, p: dict, out: Path) -> dict:
    """Interleaved oracle flows plus reused 5-tuples, retransmitted
    duplicates, mid-stream fragments, non-TCP and malformed lines.

    Returns the expected ingest/flow counts and, for every complete flow
    under the id extract_flows will give it, its records in time order.
    """
    oracle = OracleCore()
    flows = []  # dicts: src, dst, complete, events [(t_raw, sender, seg)]
    closed_pool = []  # (src, dst, end time) of complete flows free for reuse
    t = 0.0
    for i in range(p["flows"] + p["fragments"]):
        fragment = i >= p["flows"]
        t += rng.expovariate(1.0 / p["mean_arrival_ms"])
        start = t
        if not fragment and closed_pool and rng.random() < p["reuse_share"]:
            src, dst, end = closed_pool.pop(rng.randrange(len(closed_pool)))
            start = max(start, end + p["mean_gap_ms"])
        else:
            src = f"10.{i // 65536 % 256}.{i // 256 % 256}.{i % 256}:{40000 + i % 20000}"
            dst = f"192.168.{i % 4}.{1 + i % 200}:80"
        segs = _session_segments(rng, p, oracle, f"flow-{i}")
        if fragment:
            segs = segs[3:]  # no handshake: mid-stream traffic only
        events = []
        now = start
        for sender, seg in segs:
            events.append((now, sender, seg))
            now += rng.expovariate(1.0 / p["mean_gap_ms"])
        flows.append({"src": src, "dst": dst, "complete": not fragment, "events": events})
        if not fragment:
            closed_pool.append((src, dst, now))

    for _ in range(p["duplicates"]):
        events = flows[rng.randrange(p["flows"])]["events"]
        j = rng.randrange(len(events))
        t_raw, sender, seg = events[j]
        t_next = events[j + 1][0] if j + 1 < len(events) else t_raw + 1e-3
        events.insert(j + 1, ((t_raw + t_next) / 2, sender, seg))  # retransmission

    timeline = sorted(
        (t_raw, fi, j)
        for fi, flow in enumerate(flows)
        for j, (t_raw, _, _) in enumerate(flow["events"])
    )
    tcp_lines = []
    flow_ids = {}  # flow index -> id in order of first appearance
    records = {}
    for rank, (_, fi, j) in enumerate(timeline):
        flow = flows[fi]
        _, sender, seg = flow["events"][j]
        src, dst = (flow["src"], flow["dst"]) if sender is Role.CLIENT else (flow["dst"], flow["src"])
        ts = round(1.0 + rank * 1e-4, 4)
        tcp_lines.append(_record_line(ts, src, dst, seg))
        if fi not in flow_ids:
            flow_ids[fi] = f"flow-{len(flow_ids):04d}"
        if flow["complete"]:
            records.setdefault(flow_ids[fi], []).append(
                [sender.value, seg.seq, seg.ack, seg.flags.render(), seg.payload_len]
            )

    n_udp = round(len(tcp_lines) * p["non_tcp_share"])
    n_bad = round(len(tcp_lines) * p["malformed_share"])
    junk = [
        json.dumps({"ts": 1.0 + k * 1e-3, "src": "10.8.0.1:53", "dst": "10.8.0.2:53", "proto": "udp"})
        for k in range(n_udp)
    ] + [MALFORMED[k % len(MALFORMED)] for k in range(n_bad)]
    lines = list(tcp_lines)
    for line in junk:
        lines.insert(rng.randrange(len(lines) + 1), line)
    with open(out / "trace.jsonl", "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")

    return {
        "trace": str(out / "trace.jsonl"),
        "lines": len(lines),
        "rejected": n_udp + n_bad,
        "complete_flows": p["flows"],
        "incomplete_flows": p["fragments"],
        "packets": sum(len(r) for r in records.values()),
        "flows": records,
    }


def gen_trace2sft(rng: random.Random, p: dict, out: Path) -> dict:
    expected = gen_trace(rng, p, out)
    expected["errors"] = p["errors"]
    expected["error_ratio"] = p["error_ratio"]
    expected["error_seed"] = rng.getrandbits(31)
    return expected


# ---------------------------------------------------------------------------
# Predictions with planted errors, and the report they must produce.
# ---------------------------------------------------------------------------

STATES = [s.value for s in TcpState]
FLAG_CHOICES = ("ACK", "SYN|ACK", "FIN|ACK", "PSH|ACK", "SYN")
CATEGORIES = (
    "correct", "wrong_state", "wrong_flags", "wrong_numbers",
    "null", "invalid", "wrong_verdict",
)


def truth_numbers(inp: dict, label: dict):
    """(seq, ack) the ALU must produce for a labeled task, else None."""
    task = label["t_task"]
    if task is None:
        return None
    s = inp["state"]
    if task == "INIT_SYN":
        return [s["iss"], 0]
    r = inp["received"]
    consumes = r["payload_len"] + ("SYN" in r["flags"].split("|")) + ("FIN" in r["flags"].split("|"))
    ack = (r["seq"] + consumes) % SEQ_MOD if "ACK" in (label["flags"] or "").split("|") else 0
    return [s["snd_nxt"], ack]


def plant(rng: random.Random, p: dict, truth: dict, numbers):
    """Return (category, predicted object) for one record."""
    weights = [p["share"].get(c, 0.0) for c in CATEGORIES]
    cat = rng.choices(CATEGORIES, weights)[0]
    if cat == "wrong_numbers" and numbers is None:
        cat = "correct"
    if cat == "wrong_verdict" and truth["verdict"] == "NORMAL":
        cat = "correct"
    pred = dict(truth)
    pnum = list(numbers) if numbers is not None else None
    if cat == "wrong_state":
        pred["next_state"] = STATES[(STATES.index(truth["next_state"]) + 1) % len(STATES)]
    elif cat == "wrong_flags":
        pred["flags"] = next(f for f in FLAG_CHOICES if f != truth["flags"])
    elif cat == "wrong_numbers":
        pnum[0] = (pnum[0] + 1) % SEQ_MOD
    elif cat == "null":
        pred = None
    elif cat == "invalid":
        pred = dict(truth, confidence=0.9) if rng.random() < 0.5 else dict(truth, payload_len=-1)
    elif cat == "wrong_verdict":
        pred["verdict"] = "NORMAL"
    return cat, {"decision": pred, "numbers": pnum}


def _pct(hits: int, n: int) -> str:
    return f"{hits / n * 100:.2f}%"


def gen_evaluate(rng: random.Random, p: dict, out: Path) -> dict:
    trace = gen_trace(rng, p, out)
    sft = out / "sft.jsonl"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([
            "trace2sft", "--in", trace["trace"], "--out", str(sft),
            "--errors", str(p["errors"]), "--seed", str(rng.getrandbits(31)),
        ])
    if code != 0:
        raise RuntimeError(f"trace2sft exited {code} while building predictions")

    hits = {f: 0 for f in ("NewState", "Flags", "PayloadLen", "Seq", "Ack")}
    scored = {"Seq": 0, "Ack": 0}
    counts = {c: 0 for c in CATEGORIES}
    atomic = verdict_ok = n = 0
    cat_total, cat_hits = {}, {}
    with open(sft, encoding="utf-8") as src, open(out / "pred.jsonl", "w", encoding="utf-8") as dst:
        for line in src:
            obj = json.loads(line)
            truth = obj["label"]
            numbers = truth_numbers(obj["input"], truth)
            cat, predicted = plant(rng, p, truth, numbers)
            dst.write(json.dumps(
                {"input": obj["input"], "truth": {"decision": truth, "numbers": numbers},
                 "predicted": predicted},
                separators=(",", ":"),
            ) + "\n")
            n += 1
            counts[cat] += 1
            ok = cat not in ("null", "invalid")
            hits["NewState"] += ok and cat != "wrong_state"
            hits["Flags"] += ok and cat != "wrong_flags"
            hits["PayloadLen"] += ok
            if numbers is not None:
                scored["Seq"] += 1
                scored["Ack"] += 1
                hits["Seq"] += ok and cat != "wrong_numbers"
                hits["Ack"] += ok
            atomic += cat in ("correct", "wrong_verdict")
            v_ok = ok and cat != "wrong_verdict"
            verdict_ok += v_ok
            if truth["verdict"] != "NORMAL":
                cat_total[truth["verdict"]] = cat_total.get(truth["verdict"], 0) + 1
                cat_hits[truth["verdict"]] = cat_hits.get(truth["verdict"], 0) + v_ok
    field = {
        f: _pct(hits[f], scored.get(f, n)) if scored.get(f, n) else "0.00%" for f in hits
    }
    return {
        "pred": str(out / "pred.jsonl"),
        "records": n,
        "planted": counts,
        "report": {
            "records": n,
            "malformed": counts["null"] + counts["invalid"],
            "field_accuracy": field,
            "atomic_accuracy": _pct(atomic, n),
            "error_detection": {
                "overall_accuracy": f"{verdict_ok / n * 100:.1f}",
                "recall": {
                    c: f"{cat_hits[c] / cat_total[c] * 100:.1f}" for c in sorted(cat_total)
                },
                "counts": {"records": n, **cat_total},
            },
        },
    }


GENERATORS = {
    "simulate-oracle": gen_simulate,
    "simulate-remote": gen_remote,
    "trace2sft": gen_trace2sft,
    "evaluate": gen_evaluate,
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{args.workload}:{args.seed}")
    expected = GENERATORS[args.workload](rng, WORKLOADS[args.workload]["params"], out)
    with open(out / "expected.json", "w", encoding="utf-8") as fh:
        json.dump(expected, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
