"""Per-field precision/recall/F1 at token and field granularity.

Token level collapses B/I to the bare field: a token counts as TP for field
f when gold and prediction both carry f. Field level derives maximal
segments on both sides and counts a predicted segment as TP iff its
normalized text exactly matches a not-yet-matched gold segment of the same
field within the same reference (greedy left-to-right matching).

Conventions, stated because they move macro averages on sparse fields:
precision (or recall) is 0 when its denominator is 0 while the other side
is non-empty, F1 is 0 when P + R = 0, and fields with zero gold support are
skipped by the macro average. Micro averages aggregate TP/FP/FN counts over
all fields; O is never a field row.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .corpus import Corpus
from .errors import StructuralError, UsageError
from .labels import _segments, segments_from_tags, tag_field


@dataclass(frozen=True)
class FieldScore:
    precision: float
    recall: float
    f1: float
    support: int  # gold occurrences (tokens or segments)


@dataclass(frozen=True)
class LevelReport:
    """One granularity (token or field) of an evaluation."""

    per_field: dict[str, FieldScore]
    micro_precision: float
    micro_recall: float
    micro_f1: float
    macro_f1: float


@dataclass(frozen=True)
class EvalReport:
    token: LevelReport
    field: LevelReport
    instances: int


def _prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f1


def _level_report(
    fields: Sequence[str], tp: Counter, fp: Counter, fn: Counter
) -> LevelReport:
    per_field: dict[str, FieldScore] = {}
    f1_with_support = []
    for f in fields:
        p, r, f1 = _prf(tp[f], fp[f], fn[f])
        support = tp[f] + fn[f]
        per_field[f] = FieldScore(precision=p, recall=r, f1=f1, support=support)
        if support > 0:
            f1_with_support.append(f1)
    micro_p, micro_r, micro_f1 = _prf(
        sum(tp.values()), sum(fp.values()), sum(fn.values())
    )
    macro_f1 = sum(f1_with_support) / len(f1_with_support) if f1_with_support else 0.0
    return LevelReport(
        per_field=per_field,
        micro_precision=micro_p,
        micro_recall=micro_r,
        micro_f1=micro_f1,
        macro_f1=macro_f1,
    )


def _check_alignment(gold: Corpus, pred: Sequence[Sequence[str]]) -> None:
    if len(pred) != len(gold.instances):
        raise StructuralError(
            f"{len(pred)} predictions for {len(gold.instances)} gold instances"
        )
    for i, (inst, tags) in enumerate(zip(gold.instances, pred)):
        if len(tags) != len(inst.tokens):
            raise StructuralError(
                f"instance {i}: {len(tags)} predicted tags for {len(inst.tokens)} tokens"
            )


def token_report(gold: Corpus, pred: Sequence[Sequence[str]]) -> LevelReport:
    """Token-level scores with B/I collapsed to the bare field."""
    _check_alignment(gold, pred)
    tp: Counter = Counter()
    fp: Counter = Counter()
    fn: Counter = Counter()
    for inst, tags in zip(gold.instances, pred):
        for g, p in zip(inst.tags, tags):
            gf, pf = tag_field(g), tag_field(p)
            if gf == pf:
                if gf is not None:
                    tp[gf] += 1
            else:
                if pf is not None:
                    fp[pf] += 1
                if gf is not None:
                    fn[gf] += 1
    return _level_report(gold.labels, tp, fp, fn)


def field_report(gold: Corpus, pred: Sequence[Sequence[str]]) -> LevelReport:
    """Segment-level scores under the exact normalized-text match criterion."""
    _check_alignment(gold, pred)
    tp: Counter = Counter()
    fp: Counter = Counter()
    fn: Counter = Counter()
    for inst, tags in zip(gold.instances, pred):
        # a LabeledReference's tags were checked when it was built
        gold_segs = _segments(inst.tags, inst.tokens)
        pred_segs = segments_from_tags(tuple(tags), inst.tokens)
        unmatched = list(gold_segs)
        for seg in pred_segs:
            hit = next(
                (
                    g
                    for g in unmatched
                    if g.field == seg.field and g.text == seg.text
                ),
                None,
            )
            if hit is not None:
                unmatched.remove(hit)
                tp[seg.field] += 1
            else:
                fp[seg.field] += 1
        for g in unmatched:
            fn[g.field] += 1
    return _level_report(gold.labels, tp, fp, fn)


def evaluate(gold: Corpus, pred: Sequence[Sequence[str]]) -> EvalReport:
    """Token- and field-level report in one pass."""
    return EvalReport(
        token=token_report(gold, pred),
        field=field_report(gold, pred),
        instances=len(gold.instances),
    )


# ---------------------------------------------------------------------------
# report comparison
# ---------------------------------------------------------------------------

def relative_delta(a: float, b: float) -> float | None:
    """(a - b) / b, or None when b == 0 (undefined marker)."""
    if b == 0:
        return None
    return (a - b) / b


@dataclass(frozen=True)
class Delta:
    absolute: float
    relative: float | None


@dataclass(frozen=True)
class ReportComparison:
    per_field: dict[str, Delta]  # field-level F1 deltas per field
    token_macro_f1: Delta
    field_macro_f1: Delta
    token_micro_f1: Delta
    field_micro_f1: Delta


def _delta(a: float, b: float) -> Delta:
    return Delta(absolute=a - b, relative=relative_delta(a, b))


def compare_reports(a: EvalReport, b: EvalReport) -> ReportComparison:
    """Absolute and relative deltas of a over b, per field and aggregate."""
    if set(a.field.per_field) != set(b.field.per_field):
        raise UsageError("reports cover different field universes")
    per_field = {
        f: _delta(a.field.per_field[f].f1, b.field.per_field[f].f1)
        for f in a.field.per_field
    }
    return ReportComparison(
        per_field=per_field,
        token_macro_f1=_delta(a.token.macro_f1, b.token.macro_f1),
        field_macro_f1=_delta(a.field.macro_f1, b.field.macro_f1),
        token_micro_f1=_delta(a.token.micro_f1, b.token.micro_f1),
        field_micro_f1=_delta(a.field.micro_f1, b.field.micro_f1),
    )


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

CSV_SCHEMA = "refparse-report-v1"

_CSV_COLUMNS = ("schema", "level", "field", "precision", "recall", "f1", "support")


def report_rows(report: EvalReport) -> list[dict]:
    """Flatten a report into CSV rows (one per field x level, plus
    micro/macro aggregate rows)."""
    rows: list[dict] = []
    for level_name, level in (("token", report.token), ("field", report.field)):
        for f, score in level.per_field.items():
            rows.append(
                {
                    "schema": CSV_SCHEMA,
                    "level": level_name,
                    "field": f,
                    "precision": f"{score.precision:.6f}",
                    "recall": f"{score.recall:.6f}",
                    "f1": f"{score.f1:.6f}",
                    "support": str(score.support),
                }
            )
        rows.append(
            {
                "schema": CSV_SCHEMA,
                "level": level_name,
                "field": "micro-avg",
                "precision": f"{level.micro_precision:.6f}",
                "recall": f"{level.micro_recall:.6f}",
                "f1": f"{level.micro_f1:.6f}",
                "support": str(report.instances),
            }
        )
        rows.append(
            {
                "schema": CSV_SCHEMA,
                "level": level_name,
                "field": "macro-avg",
                "precision": "",
                "recall": "",
                "f1": f"{level.macro_f1:.6f}",
                "support": str(report.instances),
            }
        )
    return rows


def write_csv(path, fieldnames: Sequence[str], rows: list[dict]) -> None:
    """UTF-8 CSV: a header row, then one line per row, each ending in \\n."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(fieldnames), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def write_report_csv(report: EvalReport, path) -> None:
    write_csv(path, _CSV_COLUMNS, report_rows(report))


def format_report_table(report: EvalReport, title: str = "") -> str:
    """Human-readable two-level table."""
    lines = []
    if title:
        lines.append(title)
    header = f"{'field':<14} {'level':<6} {'P':>8} {'R':>8} {'F1':>8} {'support':>8}"
    lines.append(header)
    lines.append("-" * len(header))
    for level_name, level in (("token", report.token), ("field", report.field)):
        for f, s in level.per_field.items():
            lines.append(
                f"{f:<14} {level_name:<6} {s.precision:>8.4f} {s.recall:>8.4f} "
                f"{s.f1:>8.4f} {s.support:>8d}"
            )
        lines.append(
            f"{'micro-avg':<14} {level_name:<6} {level.micro_precision:>8.4f} "
            f"{level.micro_recall:>8.4f} {level.micro_f1:>8.4f} {'':>8}"
        )
        lines.append(
            f"{'macro-avg':<14} {level_name:<6} {'':>8} {'':>8} "
            f"{level.macro_f1:>8.4f} {'':>8}"
        )
        lines.append("-" * len(header))
    return "\n".join(lines)
