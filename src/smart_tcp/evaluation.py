"""Scoring for cognitive-core predictions.

Field-level accuracy, atomic accuracy, per-class precision/recall with macro
averages, a row-normalized state confusion matrix and error-detection
metrics, all counted in one pass over immutable prediction records. Every
score is independent of record order; the order of confusion rows and
columns and of error-category counts is the order of first appearance.

Records stream: `load_prediction_records` yields one record per line as it
reads the file, and `compute_report` counts them as they arrive, so memory
does not grow with the file's size and a bad line is reported when it is
reached.
"""

from __future__ import annotations

import json
from enum import Enum
from typing import Dict, Iterable, Iterator, NamedTuple, Optional, Tuple

from .cognitive_core import (
    CognitiveDecision,
    MalformedDecision,
    Verdict,
    check_utf8,
    decode_stripped,
)
from .tcp_core import SEQ_MOD

FIELD_NAMES = ("NewState", "Flags", "PayloadLen", "Seq", "Ack")

# Predicted-side class label of a record whose prediction is malformed.
MALFORMED = "MALFORMED"


class PredictionRecord(NamedTuple):
    truth: CognitiveDecision
    predicted: Optional[CognitiveDecision]  # None = malformed model output
    truth_numbers: Optional[Tuple[int, int]] = None  # (seq, ack)
    predicted_numbers: Optional[Tuple[int, int]] = None


class ClassScore(NamedTuple):
    precision: float
    recall: float
    support: int
    undefined_precision: bool = False


class ErrorDetectionMetrics(NamedTuple):
    overall_accuracy: float
    recall_by_category: Dict[str, float]
    counts: Dict[str, int]


class MetricsReport(NamedTuple):
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


def _label(value) -> str:
    """The class name of a state, flag set or verdict, or MALFORMED."""
    if value is None:
        return "(none)"
    if value is MALFORMED:
        return MALFORMED
    return value.value if isinstance(value, Enum) else value.render()


def _class_scores(table: Dict[tuple, int]) -> Tuple[Dict[str, ClassScore], float, float]:
    """One-vs-rest P/R per true class from a (true, predicted) table of
    record counts, plus macro averages. Zero-denominator precision reports 0
    with a flag."""
    support: Dict[str, int] = {}
    predicted: Dict[str, int] = {}
    hits: Dict[str, int] = {}
    for (t, p), n in table.items():
        t, p = _label(t), _label(p)
        support[t] = support.get(t, 0) + n
        predicted[p] = predicted.get(p, 0) + n
        if t == p:
            hits[t] = hits.get(t, 0) + n
    scores: Dict[str, ClassScore] = {}
    for c in sorted(support):
        tp = hits.get(c, 0)
        n_pred = predicted.get(c, 0)
        undefined = n_pred == 0
        precision = 0.0 if undefined else tp / n_pred
        scores[c] = ClassScore(precision, tp / support[c], support[c], undefined)
    macro_p = sum(s.precision for s in scores.values()) / len(scores)
    macro_r = sum(s.recall for s in scores.values()) / len(scores)
    return scores, macro_p, macro_r


def _hits(table: Dict[tuple, int]) -> int:
    """The records of a (true, predicted) table that were predicted right."""
    return sum(n for (t, p), n in table.items() if t == p)


class EmptyRecordSet(ValueError):
    """compute_report was given no records."""


def compute_report(records: Iterable[PredictionRecord]) -> MetricsReport:
    """Every score of the report, from one pass over the records, which may
    be any iterable, a one-shot generator included.

    A malformed prediction is wrong on every field. Seq/Ack are scored only
    on records with ground-truth numbers. Confusion rows are true states,
    each cell the percentage of its row rounded to one decimal. A NORMAL
    verdict on an error sample is a miss; error detection is reported only
    when the truth set holds an error sample. Raises EmptyRecordSet, a
    ValueError, when there are no records.
    """
    n = plen_hits = seq_hits = ack_hits = atomic_hits = numbered = malformed = 0
    # One table per categorical field: record counts keyed by (true value,
    # predicted value or MALFORMED), in order of first appearance. Every
    # other score of these fields is read off them after the pass.
    states: Dict[tuple, int] = {}
    flags: Dict[tuple, int] = {}
    verdicts: Dict[tuple, int] = {}
    for n, (t, p, tn, pn) in enumerate(records, start=1):
        t_state, t_flags, t_plen, _, t_verdict = t
        if tn is not None:
            numbered += 1
        if p is None:
            malformed += 1
            p_state = p_flags = p_verdict = MALFORMED
        else:
            p_state, p_flags, p_plen, _, p_verdict = p
            plen_ok = p_plen == t_plen
            plen_hits += plen_ok
            # Decoded flags are memoized, so equal flags are mostly one object.
            atom = p_state is t_state and (p_flags is t_flags or p_flags == t_flags) and plen_ok
            if tn is not None:
                seq_ok = pn is not None and tn[0] == pn[0]
                ack_ok = pn is not None and tn[1] == pn[1]
                seq_hits += seq_ok
                ack_hits += ack_ok
                atom = atom and seq_ok and ack_ok
            atomic_hits += atom
        key = (t_state, p_state)
        states[key] = states.get(key, 0) + 1
        key = (t_flags, p_flags)
        flags[key] = flags.get(key, 0) + 1
        key = (t_verdict, p_verdict)
        verdicts[key] = verdicts.get(key, 0) + 1
    if not n:
        raise EmptyRecordSet("cannot build a report from an empty record set")

    ns_scores, ns_p, ns_r = _class_scores(states)
    fl_scores, fl_p, fl_r = _class_scores(flags)
    matrix: Dict[str, Dict[str, float]] = {}
    for (t_state, p_state), count in states.items():
        row = matrix.setdefault(t_state.value, {})
        row[_label(p_state)] = round(100.0 * count / ns_scores[t_state.value].support, 1)
    error_detection = None
    # The error classes among the true verdicts, in order of first appearance.
    errors = {t.value: None for t, _ in verdicts if t is not Verdict.NORMAL}
    if errors:
        vd_scores = _class_scores(verdicts)[0]
        error_detection = ErrorDetectionMetrics(
            overall_accuracy=_hits(verdicts) / n,
            recall_by_category={c: s.recall for c, s in vd_scores.items() if c in errors},
            counts={"records": n, **{c: vd_scores[c].support for c in errors}},
        )
    return MetricsReport(
        field_accuracy={
            "NewState": _hits(states) / n,
            "Flags": _hits(flags) / n,
            "PayloadLen": plen_hits / n,
            "Seq": seq_hits / numbered if numbered else 0.0,
            "Ack": ack_hits / numbered if numbered else 0.0,
        },
        atomic_accuracy=atomic_hits / n,
        newstate_scores=ns_scores,
        newstate_macro=(ns_p, ns_r),
        flags_scores=fl_scores,
        flags_macro=(fl_p, fl_r),
        confusion=matrix,
        error_detection=error_detection,
        record_count=n,
        malformed_count=malformed,
    )


class ReportFormat(Enum):
    TEXT_TABLE = "TEXT_TABLE"
    MACHINE = "MACHINE"


def pct(rate: float) -> str:
    return f"{rate * 100:.2f}%"


def _classes_to_wire(scores: Dict[str, ClassScore], macro: Tuple[float, float]) -> dict:
    return {
        "macro_precision": pct(macro[0]),
        "macro_recall": pct(macro[1]),
        "classes": {
            c: {
                "precision": pct(s.precision),
                "recall": pct(s.recall),
                "support": s.support,
                "undefined_precision": s.undefined_precision,
            }
            for c, s in scores.items()
        },
    }


def report_to_wire(report: MetricsReport) -> dict:
    obj = {
        "records": report.record_count,
        "malformed": report.malformed_count,
        "field_accuracy": {k: pct(v) for k, v in report.field_accuracy.items()},
        "atomic_accuracy": pct(report.atomic_accuracy),
        "newstate": _classes_to_wire(report.newstate_scores, report.newstate_macro),
        "flags": _classes_to_wire(report.flags_scores, report.flags_macro),
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
        lines.append(f"  {f:<11} {pct(report.field_accuracy[f])}")
    lines.append(f"Atomic accuracy: {pct(report.atomic_accuracy)}")
    lines.append("")
    for title, scores, macro in (
        ("NewState", report.newstate_scores, report.newstate_macro),
        ("Flags", report.flags_scores, report.flags_macro),
    ):
        lines.append(f"{title} precision/recall")
        for c, s in scores.items():
            flag = " (no predictions)" if s.undefined_precision else ""
            lines.append(
                f"  {c:<14} P={pct(s.precision):>8} R={pct(s.recall):>8} "
                f"n={s.support}{flag}"
            )
        lines.append(f"  macro          P={pct(macro[0]):>8} R={pct(macro[1]):>8}")
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


def _load_numbers(value) -> Tuple[int, int]:
    """(seq, ack) from a non-null numbers value: a list of exactly two
    integers in [0, 2^32). Raises ValueError for anything else."""
    if type(value) is list and len(value) == 2:
        seq, ack = value
        # type() rather than isinstance: JSON true/false load as bools.
        if type(seq) is int and type(ack) is int and 0 <= seq < SEQ_MOD and 0 <= ack < SEQ_MOD:
            return (seq, ack)
    raise ValueError(f"numbers must be null or two integers in [0, 2^32): {value!r}")


# Bound once: reading the classmethod off the class builds a new bound method.
_decision_from_wire = CognitiveDecision.from_wire


def _load_record(line: str) -> PredictionRecord:
    """One record from one stripped, non-blank line; ValueError for a bad
    truth side."""
    try:
        obj = decode_stripped(line)
        truth_obj = obj["truth"]
        truth = _decision_from_wire(truth_obj["decision"])
        truth_numbers = truth_obj.get("numbers")
        if truth_numbers is not None:
            truth_numbers = _load_numbers(truth_numbers)
    except KeyError as exc:
        raise ValueError(f"bad truth record: missing key {exc.args[0]!r}") from None
    except (ValueError, TypeError, MalformedDecision) as exc:
        raise ValueError(f"bad truth record: {exc}") from None
    # obj is a dict: obj["truth"] raised TypeError for any other JSON value.
    pred_obj = obj.get("predicted")
    predicted = predicted_numbers = None
    if type(pred_obj) is dict:
        try:
            predicted = _decision_from_wire(pred_obj.get("decision"))
        except MalformedDecision:
            pass
        predicted_numbers = pred_obj.get("numbers")
        if predicted_numbers is not None:
            try:
                predicted_numbers = _load_numbers(predicted_numbers)
            except ValueError:
                predicted_numbers = None
    return PredictionRecord(truth, predicted, truth_numbers, predicted_numbers)


def load_prediction_records(path) -> Iterator[PredictionRecord]:
    """Yield the newline-delimited {input, truth, predicted} records of a
    file, in file order, reading one line at a time. A record whose
    predicted side is null or schema-invalid scores as malformed; a
    predicted side with bad numbers scores as wrong numbers. A bad truth
    side raises ValueError, naming its line, when that line is reached."""
    # Read as ingest_trace reads, so that undecodable bytes name their line.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            # RecursionError: JSON nested past the interpreter's recursion
            # limit, met by the decoder or by the repr in an error message.
            try:
                check_utf8(line)
                record = _load_record(line)
            except ValueError as exc:
                raise ValueError(f"{path} line {lineno}: {exc}") from None
            except RecursionError:
                raise ValueError(f"{path} line {lineno}: JSON nests too deeply") from None
            yield record
