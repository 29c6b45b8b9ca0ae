"""Parent/change pairs of perfbench runs, recorded in a BENCH file.

    python3 benchmarks/pairs.py --base PARENT_CHECKOUT --workload W --seed S \
        --pairs 10 --seconds 20 --out benchmarks/BENCH_N.json [--change TEXT]

Each pair runs ``perfbench/run.py`` once in the parent checkout (``--base``)
and once in this one; even pairs run the parent first and odd pairs the
change first. Every run's result is appended to ``--out`` (made if missing,
with ``--change`` as its description), and the file's ``summary`` is
recomputed for every workload and seed it holds: the median ``ops_per_s`` of
each side, the parent's quartiles, in how many pairs the change was faster
and whether every run's output checks passed. Each ``ops_per_s`` entry also
states its confidence: the one-sided sign test's p for the change being
faster in that many pairs (exact binomial, ties dropped), and the ratio of
the change's median to the parent's with a seeded 95% bootstrap interval
over the pairs. The ratio and its interval are null when any run of the set
reads 0 or less, as a ``simulate-remote`` run can: a ratio of such medians
means nothing. With ``--trace 1`` one traced run of this checkout is
recorded under ``traced_runs`` instead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
# Resamples of the bootstrap interval, and the seed that draws them, so that
# a BENCH file's summary recomputes to the same numbers.
BOOTSTRAP_RESAMPLES = 2000
BOOTSTRAP_SEED = 0


def run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    out = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{checkout}: run.py printed nothing (exit {out.returncode}): {out.stderr}")
    return json.loads(lines[-1])


def sign_test_p(faster: int, slower: int) -> float:
    """One-sided sign test: the chance of `faster` or more wins in
    `faster + slower` pairs (ties dropped) if either side wins each pair
    with probability 1/2."""
    n = faster + slower
    return sum(math.comb(n, k) for k in range(faster, n + 1)) / 2**n


def median_ratio(pairs: list) -> dict:
    """The change's median over the parent's, for (parent, change) value
    pairs, and a 95% bootstrap interval that resamples whole pairs; all null
    when any value is 0 or less."""
    if any(v <= 0 for pair in pairs for v in pair):
        return {"median_ratio": None, "median_ratio_95ci": None}

    def ratio(sample):
        return statistics.median(c for _, c in sample) / statistics.median(p for p, _ in sample)

    rng = random.Random(BOOTSTRAP_SEED)
    ratios = sorted(ratio(rng.choices(pairs, k=len(pairs))) for _ in range(BOOTSTRAP_RESAMPLES))
    low, high = ratios[int(0.025 * len(ratios))], ratios[int(0.975 * len(ratios)) - 1]
    return {"median_ratio": ratio(pairs), "median_ratio_95ci": [low, high]}


def summarize(runs: list) -> dict:
    summary = {}
    keys = sorted({(r["workload"], r["seed"]) for r in runs})
    for workload, seed in keys:
        mine = [r for r in runs if (r["workload"], r["seed"]) == (workload, seed)]
        by_pair = {}
        for r in mine:
            by_pair.setdefault(r["pair"], {})[r["side"]] = r["result"]["metrics"]
        pairs = [p for p in by_pair.values() if len(p) == 2]
        if not pairs:
            continue
        entry = {"pairs": len(pairs), "all_correct": all(r["result"]["correct"] for r in mine)}
        for metric in ("ops_per_s", "setup_s", "peak_rss_mb"):
            sides = {s: [p[s][metric]["value"] for p in pairs] for s in ("parent", "change")}
            entry[metric] = {f"{s}_median": statistics.median(v) for s, v in sides.items()}
        ops = [(p["parent"]["ops_per_s"]["value"], p["change"]["ops_per_s"]["value"]) for p in pairs]
        if len(ops) >= 2:
            q1, _, q3 = statistics.quantiles([p for p, _ in ops], n=4)
            entry["ops_per_s"]["parent_quartiles"] = [q1, q3]
        faster = sum(c > p for p, c in ops)
        entry["ops_per_s"]["change_faster_pairs"] = faster
        entry["ops_per_s"]["sign_test_p"] = sign_test_p(faster, sum(c < p for p, c in ops))
        entry["ops_per_s"].update(median_ratio(ops))
        summary[f"{workload} seed {seed}"] = entry
    return summary


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, type=Path, help="checkout of the parent commit")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--change", default="", help="description of the change, for a new file")
    args = ap.parse_args()

    if args.out.exists():
        bench = json.loads(args.out.read_text())
    else:
        bench = {
            "change": args.change,
            "command": "python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1",
            "machine": f"{os.cpu_count()}-CPU {platform.machine()}, Python {platform.python_version()}",
            "order": "alternating: even pairs run the parent first, odd pairs the change first",
            "runs": [],
            "traced_runs": [],
        }

    def save() -> None:
        bench["summary"] = summarize(bench["runs"])
        args.out.write_text(json.dumps(bench, indent=1) + "\n")

    if args.trace:
        result = run(HERE, args.workload, args.seed, args.seconds, 1)
        bench["traced_runs"].append({
            "workload": args.workload, "seed": args.seed, "side": "change",
            "seconds": args.seconds, "trace": 1, "result": result,
        })
        save()
        return
    done = [r["pair"] for r in bench["runs"] if (r["workload"], r["seed"]) == (args.workload, args.seed)]
    first = max(done, default=-1) + 1
    for pair in range(first, first + args.pairs):
        sides = [("parent", args.base), ("change", HERE)]
        for side, checkout in sides if pair % 2 == 0 else reversed(sides):
            result = run(checkout, args.workload, args.seed, args.seconds, 0)
            bench["runs"].append(
                {"workload": args.workload, "seed": args.seed, "pair": pair, "side": side, "result": result}
            )
            save()
            print(f"pair {pair} {side}: {result['metrics']['ops_per_s']['value']:.1f} ops/s", flush=True)


if __name__ == "__main__":
    main()
