"""All-miss cost of CognitiveDecision.from_wire: one source tree against another.

    python benchmarks/decode_miss.py --base PARENT_SRC [--src SRC] [--rounds 60]

Both trees' ``smart_tcp`` packages are loaded into one process under separate
names. Each round decodes 20,000 valid decision objects that differ only in
payload_len, so every decode is a miss. It runs twice: "cold" empties the
decision memo before each round; "full" first fills it to its bound with
other decisions. The memo is the ``_DECISION_MEMO`` dict of a tree that has
one, which stores until it is full, or else the ``lru_cache`` on
``_decode_decision``, which stores every miss and evicts once full. The two
trees take turns batch by batch (1,000 objects), so both see the same load
on the machine, and the best time of each batch over all rounds is kept.
Prints the cost per decode of each tree and their ratio, for each memo
state, as one JSON line.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
import time
from pathlib import Path

OBJECTS = 20_000
BATCH = 1_000


def load(src: str, name: str):
    """Import ``src/smart_tcp`` as the package ``name``; its cognitive_core."""
    pkg = Path(src).resolve() / "smart_tcp"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cognitive_core")


def main() -> None:
    here = Path(__file__).resolve().parent
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="src directory of the tree to compare against")
    ap.add_argument("--src", default=str(here.parent / "src"), help="src directory under test")
    ap.add_argument("--rounds", type=int, default=60)
    args = ap.parse_args()
    trees = {"base": load(args.base, "smart_tcp_base"), "src": load(args.src, "smart_tcp_src")}
    objs = [
        {"next_state": "ESTABLISHED", "flags": "PSH|ACK", "payload_len": n,
         "t_task": "CALCULATE_SEQ_ACK", "verdict": "NORMAL"}
        for n in range(OBJECTS)
    ]
    batches = [objs[i:i + BATCH] for i in range(0, OBJECTS, BATCH)]
    result = {"rounds": args.rounds}
    for memo_state in ("cold", "full"):
        best = {name: [float("inf")] * len(batches) for name in trees}
        for r in range(args.rounds):
            for cc in trees.values():
                memo = getattr(cc, "_DECISION_MEMO", None)
                if memo is not None:
                    memo.clear()
                else:
                    cc._decode_decision.cache_clear()
                if memo_state == "full":
                    # Other decisions fill the memo up to its bound, untimed.
                    for n in range(cc.DECISION_MEMO_SIZE):
                        cc.CognitiveDecision.from_wire(dict(objs[0], payload_len=OBJECTS + n))
            for j, batch in enumerate(batches):
                for name in (("base", "src") if (r + j) % 2 == 0 else ("src", "base")):
                    decode = trees[name].CognitiveDecision.from_wire
                    t = time.perf_counter()
                    for obj in batch:
                        decode(obj)
                    best[name][j] = min(best[name][j], time.perf_counter() - t)
        us = {name: sum(times) / OBJECTS * 1e6 for name, times in best.items()}
        result[memo_state] = {
            "base_us_per_decode": round(us["base"], 4),
            "src_us_per_decode": round(us["src"], 4),
            "ratio": round(us["src"] / us["base"], 4),
        }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
