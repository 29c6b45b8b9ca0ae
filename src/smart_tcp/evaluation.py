"""Scoring for cognitive-core predictions.

Field-level accuracy, atomic accuracy, per-class precision/recall with macro
averages, a row-normalized state confusion matrix and error-detection
metrics; all computed from immutable prediction records, so results are
independent of record order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Tuple

from .cognitive_core import CognitiveDecision, Verdict, _decision_from_obj, MalformedDecision
from .tcp_core import SEQ_MOD, TcpState

FIELD_NAMES = ("NewState", "Flags", "PayloadLen", "Seq", "Ack")


@dataclass(frozen=True)
class PredictionRecord:
    truth: CognitiveDecision
    predicted: Optional[CognitiveDecision]  # None = malformed model output
    truth_numbers: Optional[Tuple[int, int]] = None  # (seq, ack)
    predicted_numbers: Optional[Tuple[int, int]] = None
    provenance: Optional[dict] = None

    def field_correct(self, field_name: str) -> Optional[bool]:
        """True/False for a scored field, None when not applicable
        (no ground-truth numbers for Seq/Ack)."""
        if field_name == "Seq" or field_name == "Ack":
            if self.truth_numbers is None:
                return None
            if self.predicted is None or self.predicted_numbers is None:
                return False
            i = 0 if field_name == "Seq" else 1
            return self.truth_numbers[i] == self.predicted_numbers[i]
        if self.predicted is None:
            return False
        if field_name == "NewState":
            return self.truth.next_state == self.predicted.next_state
        if field_name == "Flags":
            return self.truth.flags == self.predicted.flags
        if field_name == "PayloadLen":
            return self.truth.payload_len == self.predicted.payload_len
        raise ValueError(f"unknown field: {field_name}")


def field_accuracy(records: List[PredictionRecord], field_name: str) -> float:
    if not records:
        raise ValueError("no records")
    if field_name not in FIELD_NAMES:
        raise ValueError(f"unknown field: {field_name}")
    outcomes = [r.field_correct(field_name) for r in records]
    scored = [o for o in outcomes if o is not None]
    if not scored:
        return 0.0
    return sum(scored) / len(scored)


def atomic_accuracy(records: List[PredictionRecord]) -> float:
    """Fraction of records correct on every protocol field simultaneously."""
    if not records:
        raise ValueError("no records")
    hits = 0
    for r in records:
        outcomes = [r.field_correct(f) for f in FIELD_NAMES]
        if all(o is not False for o in outcomes) and r.predicted is not None:
            hits += 1
    return hits / len(records)


@dataclass
class ClassScore:
    precision: float
    recall: float
    support: int
    undefined_precision: bool = False


def _class_label(d: Optional[CognitiveDecision], field_name: str) -> Optional[str]:
    if d is None:
        return None
    if field_name == "NewState":
        return d.next_state.value
    if field_name == "Flags":
        return d.flags.render() if d.flags is not None else "(none)"
    raise ValueError(f"unsupported classification field: {field_name}")


def precision_recall(
    records: List[PredictionRecord], field_name: str
) -> Tuple[Dict[str, ClassScore], float, float]:
    """One-vs-rest P/R per class plus macro averages over classes with
    nonzero support. Zero-denominator precision reports 0 with a flag."""
    if not records:
        raise ValueError("no records")
    truths = [_class_label(r.truth, field_name) for r in records]
    preds = [_class_label(r.predicted, field_name) for r in records]
    classes = sorted(set(truths))
    scores: Dict[str, ClassScore] = {}
    for c in classes:
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


def confusion_matrix(
    records: List[PredictionRecord],
) -> Dict[str, Dict[str, float]]:
    """Row-normalized state confusion: rows are true states with nonzero
    support, entries are percentages rounded to one decimal."""
    if not records:
        raise ValueError("no records")
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


@dataclass
class ErrorDetectionMetrics:
    overall_accuracy: float
    recall_by_category: Dict[str, float]
    counts: Dict[str, int]


def error_detection_metrics(records: List[PredictionRecord]) -> ErrorDetectionMetrics:
    """Verdict scoring over a labeled error set; a NORMAL verdict on an
    error sample is a miss."""
    if not records:
        raise ValueError("no records")
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
    recalls = {
        cat: per_cat_hits.get(cat, 0) / n for cat, n in sorted(per_cat_total.items())
    }
    return ErrorDetectionMetrics(
        overall_accuracy=correct / len(records),
        recall_by_category=recalls,
        counts={"records": len(records), **per_cat_total},
    )


@dataclass
class MetricsReport:
    field_accuracy: Dict[str, float]
    atomic_accuracy: float
    newstate_scores: Dict[str, ClassScore]
    newstate_macro: Tuple[float, float]
    flags_scores: Dict[str, ClassScore]
    flags_macro: Tuple[float, float]
    confusion: Dict[str, Dict[str, float]]
    error_detection: Optional[ErrorDetectionMetrics]
    record_count: int
    malformed_count: int


def compute_report(records: List[PredictionRecord]) -> MetricsReport:
    if not records:
        raise ValueError("cannot build a report from an empty record set")
    ns_scores, ns_p, ns_r = precision_recall(records, "NewState")
    fl_scores, fl_p, fl_r = precision_recall(records, "Flags")
    has_verdicts = any(r.truth.verdict is not Verdict.NORMAL for r in records)
    return MetricsReport(
        field_accuracy={f: field_accuracy(records, f) for f in FIELD_NAMES},
        atomic_accuracy=atomic_accuracy(records),
        newstate_scores=ns_scores,
        newstate_macro=(ns_p, ns_r),
        flags_scores=fl_scores,
        flags_macro=(fl_p, fl_r),
        confusion=confusion_matrix(records),
        error_detection=error_detection_metrics(records) if has_verdicts else None,
        record_count=len(records),
        malformed_count=sum(1 for r in records if r.predicted is None),
    )


class ReportFormat(Enum):
    TEXT_TABLE = "TEXT_TABLE"
    MACHINE = "MACHINE"


def _pct2(rate: float) -> str:
    return f"{rate * 100:.2f}%"


def report_to_wire(report: MetricsReport) -> dict:
    obj = {
        "records": report.record_count,
        "malformed": report.malformed_count,
        "field_accuracy": {k: _pct2(v) for k, v in report.field_accuracy.items()},
        "atomic_accuracy": _pct2(report.atomic_accuracy),
        "newstate": {
            "macro_precision": _pct2(report.newstate_macro[0]),
            "macro_recall": _pct2(report.newstate_macro[1]),
            "classes": {
                c: {
                    "precision": _pct2(s.precision),
                    "recall": _pct2(s.recall),
                    "support": s.support,
                    "undefined_precision": s.undefined_precision,
                }
                for c, s in report.newstate_scores.items()
            },
        },
        "flags": {
            "macro_precision": _pct2(report.flags_macro[0]),
            "macro_recall": _pct2(report.flags_macro[1]),
            "classes": {
                c: {
                    "precision": _pct2(s.precision),
                    "recall": _pct2(s.recall),
                    "support": s.support,
                    "undefined_precision": s.undefined_precision,
                }
                for c, s in report.flags_scores.items()
            },
        },
        "confusion_matrix": report.confusion,
    }
    if report.error_detection is not None:
        ed = report.error_detection
        obj["error_detection"] = {
            "overall_accuracy": f"{ed.overall_accuracy * 100:.1f}",
            "recall": {k: f"{v * 100:.1f}" for k, v in ed.recall_by_category.items()},
            "counts": ed.counts,
        }
    return obj


def _render_text(report: MetricsReport) -> str:
    lines = []
    lines.append("Field-Level Accuracy")
    for f in FIELD_NAMES:
        lines.append(f"  {f:<11} {_pct2(report.field_accuracy[f])}")
    lines.append(f"Atomic accuracy: {_pct2(report.atomic_accuracy)}")
    lines.append("")
    for title, scores, macro in (
        ("NewState", report.newstate_scores, report.newstate_macro),
        ("Flags", report.flags_scores, report.flags_macro),
    ):
        lines.append(f"{title} precision/recall")
        for c, s in scores.items():
            flag = " (no predictions)" if s.undefined_precision else ""
            lines.append(
                f"  {c:<14} P={_pct2(s.precision):>8} R={_pct2(s.recall):>8} "
                f"n={s.support}{flag}"
            )
        lines.append(f"  macro          P={_pct2(macro[0]):>8} R={_pct2(macro[1]):>8}")
        lines.append("")
    lines.append("State confusion matrix (% of row)")
    cols = sorted({p for row in report.confusion.values() for p in row})
    lines.append("  true\\pred " + " ".join(f"{c:>12}" for c in cols))
    for t, row in report.confusion.items():
        lines.append(
            f"  {t:<9} " + " ".join(f"{row.get(c, 0.0):>12.1f}" for c in cols)
        )
    if report.error_detection is not None:
        ed = report.error_detection
        lines.append("")
        lines.append("Error detection")
        lines.append(f"  overall accuracy: {ed.overall_accuracy * 100:.1f}")
        for cat, rec in ed.recall_by_category.items():
            lines.append(f"  recall {cat}: {rec * 100:.1f}")
    lines.append(f"\nrecords={report.record_count} malformed={report.malformed_count}")
    return "\n".join(lines) + "\n"


def emit_report(report: MetricsReport, path, format: ReportFormat = ReportFormat.MACHINE) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if format is ReportFormat.MACHINE:
            json.dump(report_to_wire(report), fh, indent=2, sort_keys=False)
            fh.write("\n")
        else:
            fh.write(_render_text(report))


# ---------------------------------------------------------------------------
# Prediction-file loading.
# ---------------------------------------------------------------------------


def _load_decision(obj) -> Optional[CognitiveDecision]:
    if obj is None:
        return None
    try:
        return _decision_from_obj(obj)
    except MalformedDecision:
        return None


def _load_numbers(value) -> Optional[Tuple[int, int]]:
    """(seq, ack) from null or a list of exactly two integers in [0, 2^32).
    Raises ValueError for anything else."""
    if value is None:
        return None
    if type(value) is list and len(value) == 2:
        seq, ack = value
        # type() rather than isinstance: JSON true/false load as bools.
        if type(seq) is int and type(ack) is int and 0 <= seq < SEQ_MOD and 0 <= ack < SEQ_MOD:
            return (seq, ack)
    raise ValueError(f"numbers must be null or two integers in [0, 2^32): {value!r}")


def load_prediction_records(path) -> List[PredictionRecord]:
    """Read newline-delimited {input, truth, predicted} records. A record
    whose predicted side is null or schema-invalid scores as malformed; a
    predicted side with bad numbers scores as wrong numbers."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                truth_obj = obj["truth"]
                truth = _decision_from_obj(truth_obj["decision"])
                truth_numbers = _load_numbers(truth_obj.get("numbers"))
            except (ValueError, KeyError, TypeError, MalformedDecision) as exc:
                raise ValueError(f"bad truth record in {path}: {exc}") from None
            pred_obj = obj.get("predicted")
            if not isinstance(pred_obj, dict):
                pred_obj = {}
            predicted = _load_decision(pred_obj.get("decision"))
            try:
                predicted_numbers = _load_numbers(pred_obj.get("numbers"))
            except ValueError:
                predicted_numbers = None
            records.append(
                PredictionRecord(
                    truth=truth,
                    predicted=predicted,
                    truth_numbers=truth_numbers,
                    predicted_numbers=predicted_numbers,
                    provenance=obj.get("provenance"),
                )
            )
    return records
