"""Per-field precision/recall/F1 at token and field granularity.

`evaluate` walks each (gold, predicted) reference pair once and counts both
levels; `token_report` and `field_report` return one level of it. Both
raise StructuralError when predictions are misaligned or not IOB2.

Token level collapses B/I to the bare field: a token counts as TP for field
f when gold and prediction both carry f. Field level derives maximal
segments on both sides and matches them per reference as multisets of
(field, normalized text) keys: a predicted segment is TP iff an equal gold
key is still unmatched, which it then uses up. The counts equal greedy
left-to-right matching's, as that rule compares nothing but the key.

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
from typing import Iterator, Sequence

from . import labels
from .corpus import Corpus
from .errors import StructuralError, UsageError
from .labels import _spans, normalize_segment_text


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


def _level_report(fields: Sequence[str], confusion: Counter) -> LevelReport:
    """Scores from (gold field, predicted field) -> count, where "" is O at
    token level and no segment at field level: equal fields are a TP, else
    an FP of the predicted field and an FN of the gold one; "" is dropped."""
    tp, fp, fn = Counter(), Counter(), Counter()
    for (g, p), n in confusion.items():
        if g == p:
            tp[g] += n
        else:
            fp[p] += n
            fn[g] += n
    for counts in (tp, fp, fn):
        del counts[""]
    per_field: dict[str, FieldScore] = {}
    f1_with_support = []
    for f in fields:
        p, r, f1 = _prf(tp[f], fp[f], fn[f])
        support = tp[f] + fn[f]
        per_field[f] = FieldScore(precision=p, recall=r, f1=f1, support=support)
        if support > 0:
            f1_with_support.append(f1)
    micro = _prf(sum(tp.values()), sum(fp.values()), sum(fn.values()))
    macro_f1 = sum(f1_with_support) / len(f1_with_support) if f1_with_support else 0.0
    return LevelReport(per_field, *micro, macro_f1)


def evaluate(gold: Corpus, pred: Sequence[Sequence[str]]) -> EvalReport:
    """Token- and field-level report in one walk over the (gold, predicted) pairs."""
    if len(pred) != len(gold.instances):
        raise StructuralError(f"{len(pred)} predictions for {len(gold.instances)} gold instances")
    tag_pairs: Counter = Counter()
    fields: Counter = Counter()
    for i, (inst, tags) in enumerate(zip(gold.instances, pred)):
        if len(tags) != len(inst.tokens):
            raise StructuralError(
                f"instance {i}: {len(tags)} predicted tags for {len(inst.tokens)} tokens"
            )
        labels.check_iob2(tags)
        tag_pairs.update(zip(inst.tags, tags))
        surfaces = inst.surfaces()
        # a LabeledReference's tags were checked when it was built
        unmatched = Counter(
            (f, normalize_segment_text(" ".join(surfaces[s:e]))) for f, s, e in _spans(inst.tags)
        )
        for f, s, e in _spans(tags):
            key = (f, normalize_segment_text(" ".join(surfaces[s:e])))
            hit = unmatched[key] > 0  # a TP, which uses up one equal gold key
            unmatched[key] -= hit
            fields[f if hit else "", f] += 1
        for (f, _), n in unmatched.items():
            fields[f, ""] += n
    tokens: Counter = Counter()
    for (g, p), n in tag_pairs.items():  # a tag's field is its [2:], "" for O
        tokens[g[2:], p[2:]] += n
    return EvalReport(
        token=_level_report(gold.labels, tokens),
        field=_level_report(gold.labels, fields),
        instances=len(gold.instances),
    )


def token_report(gold: Corpus, pred: Sequence[Sequence[str]]) -> LevelReport:
    """`evaluate`'s token level: B/I collapsed to the bare field."""
    return evaluate(gold, pred).token


def field_report(gold: Corpus, pred: Sequence[Sequence[str]]) -> LevelReport:
    """`evaluate`'s segment level, under the exact normalized-text match criterion."""
    return evaluate(gold, pred).field


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


def _rows(report: EvalReport) -> Iterator[tuple]:
    """(level, field, P, R, F1, support) for each field of a level, then the
    level's aggregates, token level first. A value an aggregate lacks is
    None; an aggregate's support is the instance count."""
    for name, level in (("token", report.token), ("field", report.field)):
        for f, s in level.per_field.items():
            yield name, f, s.precision, s.recall, s.f1, s.support
        micro = (level.micro_precision, level.micro_recall, level.micro_f1)
        yield name, "micro-avg", *micro, report.instances
        yield name, "macro-avg", None, None, level.macro_f1, report.instances


def report_rows(report: EvalReport) -> list[dict]:
    """Flatten a report into CSV rows (one per field x level, plus
    micro/macro aggregate rows)."""
    rows = []
    for level, f, *prf, support in _rows(report):
        values = ("" if v is None else f"{v:.6f}" for v in prf)
        rows.append(dict(zip(_CSV_COLUMNS, (CSV_SCHEMA, level, f, *values, str(support)))))
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
    """Human-readable two-level table; it leaves the aggregates' support
    blank."""
    header = f"{'field':<14} {'level':<6} {'P':>8} {'R':>8} {'F1':>8} {'support':>8}"
    rule = "-" * len(header)
    lines = [title] if title else []
    lines += [header, rule]
    for level, f, *prf, support in _rows(report):
        cells = ["" if v is None else f"{v:.4f}" for v in prf]
        cells.append("" if f in ("micro-avg", "macro-avg") else str(support))
        lines.append(f"{f:<14} {level:<6} " + " ".join(f"{c:>8}" for c in cells))
        if f == "macro-avg":
            lines.append(rule)
    return "\n".join(lines)
