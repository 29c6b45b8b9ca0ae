"""Metric definitions, report fixtures and invariants."""

import json
import random

import pytest

from smart_tcp.cognitive_core import CognitiveDecision, Verdict
from smart_tcp.evaluation import (
    FIELD_NAMES,
    PredictionRecord,
    ReportFormat,
    atomic_accuracy,
    compute_report,
    confusion_matrix,
    emit_report,
    error_detection_metrics,
    field_accuracy,
    load_prediction_records,
    precision_recall,
    report_to_wire,
)
from smart_tcp.tcp_core import flags_parse, parse_state


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


class TestFieldAccuracy:
    def test_all_correct(self):
        assert field_accuracy(perfect(5), "NewState") == 1.0

    def test_malformed_counts_as_wrong(self):
        records = perfect(3) + [rec(decision(), None, tn=(1, 2))]
        assert field_accuracy(records, "NewState") == 0.75
        assert field_accuracy(records, "Seq") == 0.75

    def test_seq_ack_excluded_without_truth_numbers(self):
        d = decision()
        records = perfect(2) + [rec(d, d)]  # no numbers on the third
        assert field_accuracy(records, "Ack") == 1.0  # denominator is 2
        assert field_accuracy(records, "NewState") == 1.0

    def test_ack_fixture_49_27(self):
        # 101 of 205 correct acknowledgment numbers.
        d = decision()
        records = [rec(d, d, tn=(0, 10), pn=(0, 10)) for _ in range(101)]
        records += [rec(d, d, tn=(0, 10), pn=(0, 11)) for _ in range(104)]
        acc = field_accuracy(records, "Ack")
        assert acc == pytest.approx(101 / 205)
        assert f"{acc * 100:.2f}%" == "49.27%"

    def test_unknown_field_and_empty(self):
        with pytest.raises(ValueError):
            field_accuracy(perfect(1), "Window")
        with pytest.raises(ValueError):
            field_accuracy([], "NewState")


class TestAtomicAccuracy:
    def test_fixture_97_22(self):
        # 35 of 36 records correct on every field simultaneously.
        records = perfect(35)
        records.append(
            rec(decision("ESTABLISHED"), decision("CLOSE_WAIT"), tn=(1, 2), pn=(1, 2))
        )
        acc = atomic_accuracy(records)
        assert acc == pytest.approx(35 / 36)
        assert f"{acc * 100:.2f}%" == "97.22%"

    def test_single_wrong_field_breaks_atom(self):
        d = decision()
        records = [rec(d, d, tn=(5, 6), pn=(5, 7))]  # only Ack wrong
        assert atomic_accuracy(records) == 0.0

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
        atom = atomic_accuracy(records)
        for f in FIELD_NAMES:
            assert atom <= field_accuracy(records, f) + 1e-12


class TestPrecisionRecall:
    def test_perfect_is_unit(self):
        scores, mp, mr = precision_recall(perfect(4), "NewState")
        assert mp == mr == 1.0
        assert scores["ESTABLISHED"].support == 4

    def test_two_class_example(self):
        a, b = decision("ESTABLISHED"), decision("CLOSE_WAIT")
        # truths: 3 EST, 1 CW; predictions: EST,EST,CW,CW
        records = [rec(a, a), rec(a, a), rec(a, b), rec(b, b)]
        scores, mp, mr = precision_recall(records, "NewState")
        assert scores["ESTABLISHED"].precision == 1.0
        assert scores["ESTABLISHED"].recall == pytest.approx(2 / 3)
        assert scores["CLOSE_WAIT"].precision == 0.5
        assert scores["CLOSE_WAIT"].recall == 1.0
        assert mp == pytest.approx(0.75)
        assert mr == pytest.approx((2 / 3 + 1.0) / 2)

    def test_undefined_precision_flagged(self):
        a, b = decision("ESTABLISHED"), decision("CLOSE_WAIT")
        records = [rec(b, a)]  # CLOSE_WAIT never predicted
        scores, _, _ = precision_recall(records, "NewState")
        assert scores["CLOSE_WAIT"].undefined_precision
        assert scores["CLOSE_WAIT"].precision == 0.0

    def test_micro_recall_equals_accuracy(self):
        rng = random.Random(9)
        states = ["ESTABLISHED", "FIN_WAIT_1", "LAST_ACK"]
        records = [
            rec(decision(rng.choice(states)), decision(rng.choice(states)))
            for _ in range(200)
        ]
        scores, _, _ = precision_recall(records, "NewState")
        micro = sum(s.recall * s.support for s in scores.values()) / len(records)
        assert micro == pytest.approx(field_accuracy(records, "NewState"))

    def test_flags_classes(self):
        t = decision(flags="FIN|ACK")
        p = decision(flags="ACK")
        scores, _, _ = precision_recall([rec(t, p), rec(t, t)], "Flags")
        assert set(scores) == {"ACK|FIN"}
        assert scores["ACK|FIN"].recall == 0.5


class TestConfusionMatrix:
    def test_fixture_fin_wait_1_5_6(self):
        # 36 FIN_WAIT_1 truths: 34 predicted correctly, 2 as ESTABLISHED.
        t = decision("FIN_WAIT_1", flags="FIN|ACK")
        records = [rec(t, t) for _ in range(34)]
        records += [rec(t, decision("ESTABLISHED")) for _ in range(2)]
        m = confusion_matrix(records)
        assert m["FIN_WAIT_1"]["ESTABLISHED"] == 5.6
        assert m["FIN_WAIT_1"]["FIN_WAIT_1"] == 94.4

    def test_rows_sum_to_100(self):
        rng = random.Random(4)
        states = ["ESTABLISHED", "FIN_WAIT_1", "CLOSING", "CLOSED"]
        records = [
            rec(decision(rng.choice(states)), decision(rng.choice(states)))
            for _ in range(400)
        ]
        for row in confusion_matrix(records).values():
            assert sum(row.values()) == pytest.approx(100.0, abs=0.3)

    def test_diagonal_matches_recall(self):
        rng = random.Random(5)
        states = ["ESTABLISHED", "CLOSE_WAIT"]
        records = [
            rec(decision(rng.choice(states)), decision(rng.choice(states)))
            for _ in range(100)
        ]
        m = confusion_matrix(records)
        scores, _, _ = precision_recall(records, "NewState")
        for c, s in scores.items():
            assert m[c].get(c, 0.0) == round(100.0 * s.recall, 1)

    def test_malformed_column(self):
        records = [rec(decision(), None), rec(decision(), decision())]
        m = confusion_matrix(records)
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
        m = error_detection_metrics(self.fixture_records())
        assert f"{m.overall_accuracy * 100:.1f}" == "94.5"
        assert f"{m.recall_by_category['ORDER_ERROR'] * 100:.1f}" == "93.0"
        assert f"{m.recall_by_category['FLAG_ERROR'] * 100:.1f}" == "96.0"
        assert m.counts == {"records": 200, "ORDER_ERROR": 100, "FLAG_ERROR": 100}

    def test_malformed_prediction_is_a_miss(self):
        t = decision(verdict=Verdict.ORDER_ERROR, flags=None)
        m = error_detection_metrics([rec(t, None)])
        assert m.overall_accuracy == 0.0
        assert m.recall_by_category == {"ORDER_ERROR": 0.0}

    def test_all_normal_set_has_no_recall_rows(self):
        m = error_detection_metrics(perfect(5))
        assert m.overall_accuracy == 1.0
        assert m.recall_by_category == {}


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
        for fn in (compute_report, atomic_accuracy, confusion_matrix, error_detection_metrics):
            with pytest.raises(ValueError):
                fn([])

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
        records = load_prediction_records(path)
        assert len(records) == 1
        assert records[0].truth_numbers == (10, 20)
        assert atomic_accuracy(records) == 1.0

    def test_null_predicted_is_malformed(self, tmp_path):
        line = self.good_line()
        line["predicted"] = None
        records = load_prediction_records(self.write(tmp_path, [line]))
        assert records[0].predicted is None
        assert compute_report(records).malformed_count == 1

    def test_invalid_predicted_decision_is_malformed(self, tmp_path):
        line = self.good_line()
        line["predicted"] = {"decision": {"next_state": "NOT_A_STATE"}}
        records = load_prediction_records(self.write(tmp_path, [line]))
        assert records[0].predicted is None

    @pytest.mark.parametrize("predicted", [[1], "x", 5, {"decision": [1]}])
    def test_non_object_predicted_is_malformed(self, tmp_path, predicted):
        line = self.good_line()
        line["predicted"] = predicted
        records = load_prediction_records(self.write(tmp_path, [line]))
        assert records[0].predicted is None and records[0].predicted_numbers is None
        assert compute_report(records).malformed_count == 1

    @pytest.mark.parametrize("line", [[1], "x", None, {"truth": [1], "predicted": None}])
    def test_non_object_truth_raises(self, tmp_path, line):
        with pytest.raises(ValueError, match="bad truth record"):
            load_prediction_records(self.write(tmp_path, [line]))

    def test_bad_truth_raises(self, tmp_path):
        line = self.good_line()
        del line["truth"]["decision"]["verdict"]
        with pytest.raises(ValueError):
            load_prediction_records(self.write(tmp_path, [line]))

    BAD_NUMBERS = [5, "12", [], [1], [1, 2, 3], ["a", "b"], [1.0, 2], [True, 0], [-1, 0], [0, 2**32], {"seq": 1}]

    @pytest.mark.parametrize("numbers", BAD_NUMBERS)
    def test_bad_truth_numbers_raise(self, tmp_path, numbers):
        line = self.good_line()
        line["truth"]["numbers"] = numbers
        with pytest.raises(ValueError, match="bad truth record"):
            load_prediction_records(self.write(tmp_path, [line]))

    @pytest.mark.parametrize("numbers", BAD_NUMBERS)
    def test_bad_predicted_numbers_score_wrong(self, tmp_path, numbers):
        line = self.good_line()
        line["predicted"]["numbers"] = numbers
        records = load_prediction_records(self.write(tmp_path, [line]))
        assert records[0].predicted is not None
        assert records[0].predicted_numbers is None
        assert records[0].field_correct("Seq") is False
        assert records[0].field_correct("Ack") is False
        assert atomic_accuracy(records) == 0.0

    def test_null_and_boundary_numbers_accepted(self, tmp_path):
        line = self.good_line()
        line["truth"]["numbers"] = [0, 2**32 - 1]
        line["predicted"]["numbers"] = [0, 2**32 - 1]
        other = self.good_line()
        other["truth"]["numbers"] = None
        del other["predicted"]["numbers"]
        records = load_prediction_records(self.write(tmp_path, [line, other]))
        assert records[0].truth_numbers == (0, 2**32 - 1) == records[0].predicted_numbers
        assert records[1].truth_numbers is None and records[1].predicted_numbers is None
        assert atomic_accuracy(records) == 1.0
