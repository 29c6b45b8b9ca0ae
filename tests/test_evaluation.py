"""Metric definitions, report fixtures and invariants.

Every score is read off ``compute_report``, its one definition. The
multi-pass definitions below are kept as a test oracle: a property holds
the one-pass report to them, byte for byte.
"""

import hashlib
import json
import random
import re
import tracemalloc
from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from smart_tcp.cognitive_core import CognitiveDecision, Verdict
from smart_tcp.evaluation import (
    FIELD_NAMES,
    ClassScore,
    ErrorDetectionMetrics,
    MetricsReport,
    PredictionRecord,
    ReportFormat,
    _render_text,
    compute_report,
    emit_report,
    load_prediction_records,
    report_to_wire,
)
from smart_tcp.tcp_core import TcpFlags, TcpState, flags_parse, parse_state


def decision(state="ESTABLISHED", flags="ACK", plen=0, verdict=Verdict.NORMAL):
    return CognitiveDecision(
        next_state=parse_state(state),
        flags=flags_parse(flags) if flags else None,
        payload_len=plen,
        t_task=None,
        verdict=verdict,
    )


def rec(truth, pred, tn=None, pn=None):
    return PredictionRecord(truth=truth, predicted=pred, truth_numbers=tn, predicted_numbers=pn)


def perfect(n, state="ESTABLISHED"):
    d = decision(state)
    return [rec(d, d, tn=(100, 200), pn=(100, 200)) for _ in range(n)]


# ---------------------------------------------------------------------------
# Reference: the multi-pass definition of every score, one function each.
# ---------------------------------------------------------------------------


def ref_field_correct(r: PredictionRecord, field_name: str) -> Optional[bool]:
    """True/False for a scored field, None when not applicable (no
    ground-truth numbers for Seq/Ack)."""
    if field_name == "Seq" or field_name == "Ack":
        if r.truth_numbers is None:
            return None
        if r.predicted is None or r.predicted_numbers is None:
            return False
        i = 0 if field_name == "Seq" else 1
        return r.truth_numbers[i] == r.predicted_numbers[i]
    if r.predicted is None:
        return False
    if field_name == "NewState":
        return r.truth.next_state == r.predicted.next_state
    if field_name == "Flags":
        return r.truth.flags == r.predicted.flags
    if field_name == "PayloadLen":
        return r.truth.payload_len == r.predicted.payload_len
    raise ValueError(f"unknown field: {field_name}")


def ref_field_accuracy(records: List[PredictionRecord], field_name: str) -> float:
    scored = [o for o in (ref_field_correct(r, field_name) for r in records) if o is not None]
    return sum(scored) / len(scored) if scored else 0.0


def ref_atomic_accuracy(records: List[PredictionRecord]) -> float:
    hits = 0
    for r in records:
        outcomes = [ref_field_correct(r, f) for f in FIELD_NAMES]
        if all(o is not False for o in outcomes) and r.predicted is not None:
            hits += 1
    return hits / len(records)


def ref_class_label(d: Optional[CognitiveDecision], field_name: str) -> Optional[str]:
    if d is None:
        return None
    if field_name == "NewState":
        return d.next_state.value
    return d.flags.render() if d.flags is not None else "(none)"


def ref_precision_recall(
    records: List[PredictionRecord], field_name: str
) -> Tuple[Dict[str, ClassScore], float, float]:
    truths = [ref_class_label(r.truth, field_name) for r in records]
    preds = [ref_class_label(r.predicted, field_name) for r in records]
    scores: Dict[str, ClassScore] = {}
    for c in sorted(set(truths)):
        tp = sum(1 for t, p in zip(truths, preds) if t == c and p == c)
        fp = sum(1 for t, p in zip(truths, preds) if t != c and p == c)
        fn = sum(1 for t, p in zip(truths, preds) if t == c and p != c)
        support = tp + fn
        undefined = (tp + fp) == 0
        precision = 0.0 if undefined else tp / (tp + fp)
        recall = tp / support if support else 0.0
        scores[c] = ClassScore(precision, recall, support, undefined)
    supported = [s for s in scores.values() if s.support > 0]
    macro_p = sum(s.precision for s in supported) / len(supported) if supported else 0.0
    macro_r = sum(s.recall for s in supported) / len(supported) if supported else 0.0
    return scores, macro_p, macro_r


def ref_confusion_matrix(records: List[PredictionRecord]) -> Dict[str, Dict[str, float]]:
    counts: Dict[str, Dict[str, int]] = {}
    for r in records:
        t = r.truth.next_state.value
        p = r.predicted.next_state.value if r.predicted is not None else "MALFORMED"
        counts.setdefault(t, {})
        counts[t][p] = counts[t].get(p, 0) + 1
    matrix: Dict[str, Dict[str, float]] = {}
    for t, row in counts.items():
        support = sum(row.values())
        matrix[t] = {p: round(100.0 * n / support, 1) for p, n in row.items()}
    return matrix


def ref_error_detection(records: List[PredictionRecord]) -> ErrorDetectionMetrics:
    correct = 0
    per_cat_hits: Dict[str, int] = {}
    per_cat_total: Dict[str, int] = {}
    for r in records:
        truth_v = r.truth.verdict
        pred_v = r.predicted.verdict if r.predicted is not None else None
        if pred_v == truth_v:
            correct += 1
        if truth_v is not Verdict.NORMAL:
            cat = truth_v.value
            per_cat_total[cat] = per_cat_total.get(cat, 0) + 1
            if pred_v == truth_v:
                per_cat_hits[cat] = per_cat_hits.get(cat, 0) + 1
    recalls = {cat: per_cat_hits.get(cat, 0) / n for cat, n in sorted(per_cat_total.items())}
    return ErrorDetectionMetrics(
        overall_accuracy=correct / len(records),
        recall_by_category=recalls,
        counts={"records": len(records), **per_cat_total},
    )


def ref_report(records: List[PredictionRecord]) -> MetricsReport:
    ns_scores, ns_p, ns_r = ref_precision_recall(records, "NewState")
    fl_scores, fl_p, fl_r = ref_precision_recall(records, "Flags")
    has_verdicts = any(r.truth.verdict is not Verdict.NORMAL for r in records)
    return MetricsReport(
        field_accuracy={f: ref_field_accuracy(records, f) for f in FIELD_NAMES},
        atomic_accuracy=ref_atomic_accuracy(records),
        newstate_scores=ns_scores,
        newstate_macro=(ns_p, ns_r),
        flags_scores=fl_scores,
        flags_macro=(fl_p, fl_r),
        confusion=ref_confusion_matrix(records),
        error_detection=ref_error_detection(records) if has_verdicts else None,
        record_count=len(records),
        malformed_count=sum(1 for r in records if r.predicted is None),
    )


# Flag sets built fresh on each draw, so equal flags are not always the
# same object.
flag_sets = st.builds(
    TcpFlags, *([st.booleans()] * 6)
).filter(TcpFlags.any)
decisions = st.builds(
    CognitiveDecision,
    next_state=st.sampled_from(list(TcpState)),
    flags=st.none() | st.sampled_from([flags_parse("ACK"), flags_parse("SYN|ACK")]) | flag_sets,
    payload_len=st.integers(min_value=0, max_value=3),
    t_task=st.none(),
    verdict=st.sampled_from(list(Verdict)),
)
numbers = st.none() | st.tuples(st.integers(0, 2), st.integers(0, 2))
records_lists = st.lists(
    st.builds(
        PredictionRecord,
        truth=decisions,
        predicted=st.none() | decisions,
        truth_numbers=numbers,
        predicted_numbers=numbers,
    ),
    min_size=1,
    max_size=40,
)


@settings(deadline=None)
@given(records_lists)
def test_one_pass_report_matches_reference(records):
    report = compute_report(records)
    expected = ref_report(records)
    assert json.dumps(report_to_wire(report)) == json.dumps(report_to_wire(expected))
    assert _render_text(report) == _render_text(expected)


def seeded_records(seed: int, n: int) -> List[PredictionRecord]:
    """Predictions mostly right, with wrong states, flags, payload lengths,
    numbers and verdicts, malformed ones and records without numbers."""
    rng = random.Random(seed)
    states = [s.value for s in TcpState]
    flag_texts = [None, "SYN", "ACK", "SYN|ACK", "FIN|ACK", "PSH|ACK", "RST"]
    verdicts = list(Verdict)
    records = []
    for _ in range(n):
        verdict = rng.choice(verdicts) if rng.random() < 0.4 else Verdict.NORMAL
        truth = decision(rng.choice(states), rng.choice(flag_texts), rng.choice([0, 1, 512]), verdict)
        tn = (rng.randrange(2**32), rng.randrange(2**32)) if rng.random() < 0.8 else None
        roll = rng.random()
        pred, pn = truth, tn
        if roll < 0.06:
            pred = None
        elif roll < 0.14:
            pred = decision(rng.choice(states), truth.flags and truth.flags.render(), truth.payload_len, verdict)
        elif roll < 0.22:
            pred = decision(truth.next_state.value, rng.choice(flag_texts), truth.payload_len, verdict)
        elif roll < 0.28:
            pred = decision(
                truth.next_state.value, truth.flags and truth.flags.render(), truth.payload_len + 1, verdict
            )
        elif roll < 0.36:
            pn = (rng.randrange(2**32), tn[1]) if tn is not None and rng.random() < 0.5 else None
        elif roll < 0.44:
            pred = decision(
                truth.next_state.value,
                truth.flags and truth.flags.render(),
                truth.payload_len,
                rng.choice(verdicts),
            )
        records.append(rec(truth, pred, tn=tn, pn=pn))
    return records


def test_report_bytes_are_pinned(tmp_path):
    # Digests of the reports of the multi-pass implementation.
    report = compute_report(seeded_records(5, 600))
    digests = {}
    for fmt in ReportFormat:
        path = tmp_path / fmt.value
        emit_report(report, path, fmt)
        digests[fmt.value] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digests == {
        "MACHINE": "6177235dd47139ebeca6e66103e8423a39306b75014a6fe49afdb1656abf0b7e",
        "TEXT_TABLE": "75695a5db72b0bd8744ed0630e4761e659962aa2fad1b2a58b15b51bce879354",
    }


class TestFieldAccuracy:
    def test_all_correct(self):
        assert compute_report(perfect(5)).field_accuracy["NewState"] == 1.0

    def test_malformed_counts_as_wrong(self):
        records = perfect(3) + [rec(decision(), None, tn=(1, 2))]
        acc = compute_report(records).field_accuracy
        assert acc["NewState"] == 0.75
        assert acc["Seq"] == 0.75

    def test_seq_ack_excluded_without_truth_numbers(self):
        d = decision()
        records = perfect(2) + [rec(d, d)]  # no numbers on the third
        acc = compute_report(records).field_accuracy
        assert acc["Ack"] == 1.0  # denominator is 2
        assert acc["NewState"] == 1.0

    def test_ack_fixture_49_27(self):
        # 101 of 205 correct acknowledgment numbers.
        d = decision()
        records = [rec(d, d, tn=(0, 10), pn=(0, 10)) for _ in range(101)]
        records += [rec(d, d, tn=(0, 10), pn=(0, 11)) for _ in range(104)]
        acc = compute_report(records).field_accuracy["Ack"]
        assert acc == pytest.approx(101 / 205)
        assert f"{acc * 100:.2f}%" == "49.27%"


class TestAtomicAccuracy:
    def test_fixture_97_22(self):
        # 35 of 36 records correct on every field simultaneously.
        records = perfect(35)
        records.append(
            rec(decision("ESTABLISHED"), decision("CLOSE_WAIT"), tn=(1, 2), pn=(1, 2))
        )
        acc = compute_report(records).atomic_accuracy
        assert acc == pytest.approx(35 / 36)
        assert f"{acc * 100:.2f}%" == "97.22%"

    def test_single_wrong_field_breaks_atom(self):
        d = decision()
        records = [rec(d, d, tn=(5, 6), pn=(5, 7))]  # only Ack wrong
        assert compute_report(records).atomic_accuracy == 0.0

    def test_never_exceeds_any_field_accuracy(self):
        rng = random.Random(3)
        states = ["ESTABLISHED", "FIN_WAIT_1", "CLOSE_WAIT", "CLOSED"]
        records = []
        for _ in range(300):
            t = decision(rng.choice(states), plen=rng.choice([0, 100]))
            p = decision(rng.choice(states), plen=rng.choice([0, 100]))
            tn = (rng.randrange(50), rng.randrange(50))
            pn = (rng.randrange(50), rng.randrange(50))
            records.append(rec(t, p, tn=tn, pn=pn))
        report = compute_report(records)
        for f in FIELD_NAMES:
            assert report.atomic_accuracy <= report.field_accuracy[f] + 1e-12


class TestPrecisionRecall:
    def test_perfect_is_unit(self):
        report = compute_report(perfect(4))
        assert report.newstate_macro == (1.0, 1.0)
        assert report.newstate_scores["ESTABLISHED"].support == 4

    def test_two_class_example(self):
        a, b = decision("ESTABLISHED"), decision("CLOSE_WAIT")
        # truths: 3 EST, 1 CW; predictions: EST,EST,CW,CW
        records = [rec(a, a), rec(a, a), rec(a, b), rec(b, b)]
        report = compute_report(records)
        scores, (mp, mr) = report.newstate_scores, report.newstate_macro
        assert scores["ESTABLISHED"].precision == 1.0
        assert scores["ESTABLISHED"].recall == pytest.approx(2 / 3)
        assert scores["CLOSE_WAIT"].precision == 0.5
        assert scores["CLOSE_WAIT"].recall == 1.0
        assert mp == pytest.approx(0.75)
        assert mr == pytest.approx((2 / 3 + 1.0) / 2)

    def test_undefined_precision_flagged(self):
        a, b = decision("ESTABLISHED"), decision("CLOSE_WAIT")
        records = [rec(b, a)]  # CLOSE_WAIT never predicted
        scores = compute_report(records).newstate_scores
        assert scores["CLOSE_WAIT"].undefined_precision
        assert scores["CLOSE_WAIT"].precision == 0.0

    def test_micro_recall_equals_accuracy(self):
        rng = random.Random(9)
        states = ["ESTABLISHED", "FIN_WAIT_1", "LAST_ACK"]
        records = [
            rec(decision(rng.choice(states)), decision(rng.choice(states)))
            for _ in range(200)
        ]
        report = compute_report(records)
        scores = report.newstate_scores
        micro = sum(s.recall * s.support for s in scores.values()) / len(records)
        assert micro == pytest.approx(report.field_accuracy["NewState"])

    def test_flags_classes(self):
        t = decision(flags="FIN|ACK")
        p = decision(flags="ACK")
        scores = compute_report([rec(t, p), rec(t, t)]).flags_scores
        assert set(scores) == {"ACK|FIN"}
        assert scores["ACK|FIN"].recall == 0.5


class TestConfusionMatrix:
    def test_fixture_fin_wait_1_5_6(self):
        # 36 FIN_WAIT_1 truths: 34 predicted correctly, 2 as ESTABLISHED.
        t = decision("FIN_WAIT_1", flags="FIN|ACK")
        records = [rec(t, t) for _ in range(34)]
        records += [rec(t, decision("ESTABLISHED")) for _ in range(2)]
        m = compute_report(records).confusion
        assert m["FIN_WAIT_1"]["ESTABLISHED"] == 5.6
        assert m["FIN_WAIT_1"]["FIN_WAIT_1"] == 94.4

    def test_rows_sum_to_100(self):
        rng = random.Random(4)
        states = ["ESTABLISHED", "FIN_WAIT_1", "CLOSING", "CLOSED"]
        records = [
            rec(decision(rng.choice(states)), decision(rng.choice(states)))
            for _ in range(400)
        ]
        for row in compute_report(records).confusion.values():
            assert sum(row.values()) == pytest.approx(100.0, abs=0.3)

    def test_diagonal_matches_recall(self):
        rng = random.Random(5)
        states = ["ESTABLISHED", "CLOSE_WAIT"]
        records = [
            rec(decision(rng.choice(states)), decision(rng.choice(states)))
            for _ in range(100)
        ]
        report = compute_report(records)
        m = report.confusion
        for c, s in report.newstate_scores.items():
            assert m[c].get(c, 0.0) == round(100.0 * s.recall, 1)

    def test_malformed_column(self):
        records = [rec(decision(), None), rec(decision(), decision())]
        m = compute_report(records).confusion
        assert m["ESTABLISHED"]["MALFORMED"] == 50.0


class TestErrorDetection:
    def fixture_records(self):
        # 100 order errors (93 detected) + 100 flag errors (96 detected);
        # a NORMAL verdict on an error sample is a miss.
        order_t = decision(verdict=Verdict.ORDER_ERROR, flags=None)
        flag_t = decision(verdict=Verdict.FLAG_ERROR, flags=None)
        normal_p = decision(verdict=Verdict.NORMAL, flags=None)
        records = [rec(order_t, order_t) for _ in range(93)]
        records += [rec(order_t, normal_p) for _ in range(7)]
        records += [rec(flag_t, flag_t) for _ in range(96)]
        records += [rec(flag_t, normal_p) for _ in range(4)]
        return records

    def test_fixture_94_5_93_0_96_0(self):
        m = compute_report(self.fixture_records()).error_detection
        assert f"{m.overall_accuracy * 100:.1f}" == "94.5"
        assert f"{m.recall_by_category['ORDER_ERROR'] * 100:.1f}" == "93.0"
        assert f"{m.recall_by_category['FLAG_ERROR'] * 100:.1f}" == "96.0"
        assert m.counts == {"records": 200, "ORDER_ERROR": 100, "FLAG_ERROR": 100}

    def test_malformed_prediction_is_a_miss(self):
        t = decision(verdict=Verdict.ORDER_ERROR, flags=None)
        m = compute_report([rec(t, None)]).error_detection
        assert m.overall_accuracy == 0.0
        assert m.recall_by_category == {"ORDER_ERROR": 0.0}

    def test_all_normal_set_has_no_recall_rows(self):
        # An all-NORMAL truth set has no error category to recall, so the
        # report leaves error detection out.
        assert compute_report(perfect(5)).error_detection is None


class TestReport:
    def test_report_fixture_values(self):
        records = perfect(35)
        records.append(
            rec(decision("CLOSE_WAIT"), decision("ESTABLISHED"), tn=(1, 2), pn=(1, 2))
        )
        wire = report_to_wire(compute_report(records))
        assert wire["atomic_accuracy"] == "97.22%"
        assert wire["records"] == 36 and wire["malformed"] == 0
        assert "error_detection" not in wire  # all-NORMAL truth set

    def test_error_detection_included_when_verdicts_present(self):
        t = decision(verdict=Verdict.FLAG_ERROR, flags=None)
        wire = report_to_wire(compute_report([rec(t, t), rec(decision(), decision())]))
        assert wire["error_detection"]["recall"]["FLAG_ERROR"] == "100.0"

    def test_permutation_invariance(self):
        rng = random.Random(11)
        states = ["ESTABLISHED", "FIN_WAIT_1", "CLOSED"]
        records = [
            rec(
                decision(rng.choice(states)),
                decision(rng.choice(states)),
                tn=(rng.randrange(9), rng.randrange(9)),
                pn=(rng.randrange(9), rng.randrange(9)),
            )
            for _ in range(120)
        ]
        shuffled = records[:]
        rng.shuffle(shuffled)
        a = json.dumps(report_to_wire(compute_report(records)), sort_keys=True)
        b = json.dumps(report_to_wire(compute_report(shuffled)), sort_keys=True)
        assert a == b

    def test_empty_set_raises(self):
        with pytest.raises(ValueError):
            compute_report([])
        with pytest.raises(ValueError):
            compute_report(iter([]))

    def test_emit_machine_round_trips(self, tmp_path):
        report = compute_report(perfect(3))
        path = tmp_path / "report.json"
        emit_report(report, path, ReportFormat.MACHINE)
        obj = json.loads(path.read_text())
        assert obj == report_to_wire(report)

    def test_emit_text_table(self, tmp_path):
        report = compute_report(perfect(3))
        path = tmp_path / "report.txt"
        emit_report(report, path, ReportFormat.TEXT_TABLE)
        text = path.read_text()
        assert "Field-Level Accuracy" in text
        assert "Atomic accuracy: 100.00%" in text
        assert "confusion matrix" in text


def test_a_one_shot_iterator_gives_the_list_report():
    records = seeded_records(5, 600)
    assert compute_report(r for r in records) == compute_report(records)


def write_prediction_file(path, records):
    """Write records as a prediction file, one compact JSON line each."""

    def side(d, numbers):
        return {"decision": d.to_wire(), "numbers": None if numbers is None else list(numbers)}

    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            predicted = None if r.predicted is None else side(r.predicted, r.predicted_numbers)
            obj = {"truth": side(r.truth, r.truth_numbers), "predicted": predicted}
            fh.write(json.dumps(obj, separators=(",", ":")) + "\n")
    return path


def test_scoring_a_file_does_not_hold_its_records(tmp_path):
    # A list of 20,000 records alone takes megabytes; read one at a time, the
    # peak is the line being decoded and the report's counters.
    records = seeded_records(11, 20_000)
    path = write_prediction_file(tmp_path / "pred.jsonl", records)
    expected = compute_report(records)
    del records
    # The first pass fills the decision and flag memos, which are bounded.
    assert compute_report(load_prediction_records(path)) == expected
    tracemalloc.start()
    try:
        report = compute_report(load_prediction_records(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report == expected
    assert peak < 0.5 * 2**20, f"peak {peak} bytes"


class TestLoadPredictionRecords:
    def write(self, tmp_path, lines):
        path = tmp_path / "pred.jsonl"
        path.write_text("\n".join(json.dumps(x) for x in lines) + "\n")
        return path

    def good_line(self):
        d = decision().to_wire()
        return {
            "truth": {"decision": d, "numbers": [10, 20]},
            "predicted": {"decision": d, "numbers": [10, 20]},
        }

    def test_round_trip(self, tmp_path):
        path = self.write(tmp_path, [self.good_line()])
        records = list(load_prediction_records(path))
        assert len(records) == 1
        assert records[0].truth_numbers == (10, 20)
        assert compute_report(records).atomic_accuracy == 1.0

    def test_null_predicted_is_malformed(self, tmp_path):
        line = self.good_line()
        line["predicted"] = None
        records = list(load_prediction_records(self.write(tmp_path, [line])))
        assert records[0].predicted is None
        assert compute_report(records).malformed_count == 1

    def test_invalid_predicted_decision_is_malformed(self, tmp_path):
        line = self.good_line()
        line["predicted"] = {"decision": {"next_state": "NOT_A_STATE"}}
        records = list(load_prediction_records(self.write(tmp_path, [line])))
        assert records[0].predicted is None

    @pytest.mark.parametrize("predicted", [[1], "x", 5, {"decision": [1]}])
    def test_non_object_predicted_is_malformed(self, tmp_path, predicted):
        line = self.good_line()
        line["predicted"] = predicted
        records = list(load_prediction_records(self.write(tmp_path, [line])))
        assert records[0].predicted is None and records[0].predicted_numbers is None
        assert compute_report(records).malformed_count == 1

    @pytest.mark.parametrize("line", [[1], "x", None, {"truth": [1], "predicted": None}])
    def test_non_object_truth_raises(self, tmp_path, line):
        with pytest.raises(ValueError, match="bad truth record"):
            list(load_prediction_records(self.write(tmp_path, [line])))

    def test_bad_truth_names_its_line(self, tmp_path):
        good = self.good_line()
        path = self.write(tmp_path, [good, good, good, {"truth": {"decision": {"next_state": "OPEN"}}}])
        with pytest.raises(ValueError) as exc:
            list(load_prediction_records(path))
        assert str(exc.value) == (
            f"{path} line 4: bad truth record: missing keys: ['flags', 'payload_len', 't_task', 'verdict']"
        )

    def test_bad_line_raises_when_it_is_reached(self, tmp_path):
        path = self.write(tmp_path, [self.good_line(), {"truth": None}, self.good_line()])
        records = load_prediction_records(path)
        assert next(records).truth_numbers == (10, 20)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))} line 2: bad truth record"):
            next(records)

    def test_bad_truth_raises(self, tmp_path):
        line = self.good_line()
        del line["truth"]["decision"]["verdict"]
        with pytest.raises(ValueError):
            list(load_prediction_records(self.write(tmp_path, [line])))

    BAD_NUMBERS = [5, "12", [], [1], [1, 2, 3], ["a", "b"], [1.0, 2], [True, 0], [-1, 0], [0, 2**32], {"seq": 1}]

    @pytest.mark.parametrize("numbers", BAD_NUMBERS)
    def test_bad_truth_numbers_raise(self, tmp_path, numbers):
        line = self.good_line()
        line["truth"]["numbers"] = numbers
        with pytest.raises(ValueError, match="bad truth record"):
            list(load_prediction_records(self.write(tmp_path, [line])))

    @pytest.mark.parametrize("numbers", BAD_NUMBERS)
    def test_bad_predicted_numbers_score_wrong(self, tmp_path, numbers):
        line = self.good_line()
        line["predicted"]["numbers"] = numbers
        records = list(load_prediction_records(self.write(tmp_path, [line])))
        assert records[0].predicted is not None
        assert records[0].predicted_numbers is None
        report = compute_report(records)
        assert report.field_accuracy["Seq"] == 0.0
        assert report.field_accuracy["Ack"] == 0.0
        assert report.atomic_accuracy == 0.0

    def test_null_and_boundary_numbers_accepted(self, tmp_path):
        line = self.good_line()
        line["truth"]["numbers"] = [0, 2**32 - 1]
        line["predicted"]["numbers"] = [0, 2**32 - 1]
        other = self.good_line()
        other["truth"]["numbers"] = None
        del other["predicted"]["numbers"]
        records = list(load_prediction_records(self.write(tmp_path, [line, other])))
        assert records[0].truth_numbers == (0, 2**32 - 1) == records[0].predicted_numbers
        assert records[1].truth_numbers is None and records[1].predicted_numbers is None
        assert compute_report(records).atomic_accuracy == 1.0
