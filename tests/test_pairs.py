"""`benchmarks/pairs.py`'s summary of parent/change pairs, on synthetic runs."""

import importlib.util
import json
from fractions import Fraction
from pathlib import Path

PAIRS = Path(__file__).resolve().parents[1] / "benchmarks" / "pairs.py"


def load_pairs():
    spec = importlib.util.spec_from_file_location("benchmarks_pairs", PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


summarize = load_pairs().summarize


def runs(parent, change, workload="evaluate", seed=9):
    """One run of each side per pair, with these ops_per_s values."""
    out = []
    for pair, values in enumerate(zip(parent, change)):
        for side, ops in zip(("parent", "change"), values):
            metrics = {"ops_per_s": ops, "setup_s": 0.1, "peak_rss_mb": 20.0}
            out.append({
                "workload": workload, "seed": seed, "pair": pair, "side": side,
                "result": {"correct": True, "metrics": {k: {"value": v} for k, v in metrics.items()}},
            })
    return out


def test_ten_wins_in_ten_pairs():
    parent = [100.0 + i for i in range(10)]
    change = [110.0 + i for i in range(10)]
    ops = summarize(runs(parent, change))["evaluate seed 9"]["ops_per_s"]
    assert ops["change_faster_pairs"] == 10
    assert ops["sign_test_p"] == 1 / 1024
    assert ops["median_ratio"] == 114.5 / 104.5
    # Every pair's change is its parent + 10, so a resample's ratio is
    # 1 + 10 / (its parent median), which lies within [119/109, 110/100].
    low, high = ops["median_ratio_95ci"]
    assert 119 / 109 <= low <= ops["median_ratio"] <= high <= 110 / 100


def test_ties_are_dropped_from_the_sign_test():
    # 7 wins, 1 loss, 2 ties: P(7 or 8 wins of 8) = 9/256.
    parent = [100.0] * 10
    change = [101.0] * 7 + [99.0] + [100.0] * 2
    ops = summarize(runs(parent, change))["evaluate seed 9"]["ops_per_s"]
    assert ops["change_faster_pairs"] == 7
    assert Fraction(ops["sign_test_p"]) == Fraction(9, 256)


def test_a_change_no_faster_than_the_parent_has_p_one():
    ops = summarize(runs([50.0] * 4, [40.0] * 4))["evaluate seed 9"]["ops_per_s"]
    assert ops["change_faster_pairs"] == 0
    assert ops["sign_test_p"] == 1.0
    assert ops["median_ratio"] == 0.8
    assert ops["median_ratio_95ci"] == [0.8, 0.8]


def test_a_run_at_or_below_zero_leaves_the_ratio_null():
    # simulate-remote's ops_per_s can read negative (-127 to -177).
    for bad in (-127.3, 0.0):
        summary = summarize(runs([70.0, bad, 75.0], [72.0, 74.0, 76.0]))
        ops = summary["evaluate seed 9"]["ops_per_s"]
        assert ops["median_ratio"] is None and ops["median_ratio_95ci"] is None
        assert ops["change_faster_pairs"] == 3
        assert ops["sign_test_p"] == 1 / 8
        json.dumps(summary)


def test_the_interval_is_seeded_and_each_workload_stands_alone():
    parent = [80.0, 95.0, 90.0, 85.0, 100.0, 70.0]
    change = [82.0, 90.0, 99.0, 84.0, 104.0, 75.0]
    both = runs(parent, change) + runs(change, parent, workload="trace2sft")
    # A pair with one side only does not count.
    both.append(dict(both[0], pair=6))
    first, again = summarize(both), summarize(list(reversed(both)))
    assert first == again
    assert first["evaluate seed 9"]["pairs"] == 6
    assert first["evaluate seed 9"]["ops_per_s"]["change_faster_pairs"] == 4
    assert first["trace2sft seed 9"]["ops_per_s"]["change_faster_pairs"] == 2
    low, high = first["evaluate seed 9"]["ops_per_s"]["median_ratio_95ci"]
    assert low < 1.0 < high
