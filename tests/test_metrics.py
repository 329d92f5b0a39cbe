import csv

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
import refparse as rp
from refparse import labels
from refparse.corpus import Corpus
from refparse.errors import StructuralError, UsageError
from refparse.labels import check_iob2
from refparse.metrics import (
    EvalReport,
    FieldScore,
    LevelReport,
    compare_reports,
    evaluate,
    field_report,
    format_report_table,
    relative_delta,
    report_rows,
    token_report,
    write_report_csv,
)


def make_instance(pairs):
    """pairs: list of (surface, tag)."""
    surfaces = [p[0] for p in pairs]
    raw = " ".join(surfaces)
    tokens = []
    pos = 0
    for s in surfaces:
        tokens.append(rp.Token(s, pos, pos + len(s)))
        pos += len(s) + 1
    return rp.LabeledReference(
        raw=raw, tokens=tuple(tokens), tags=tuple(p[1] for p in pairs)
    )


def corpus_of(instances, labels=("author", "title", "date")):
    return Corpus(name="t", labels=labels, instances=tuple(instances))


GOLD = corpus_of(
    [
        make_instance(
            [("A", "B-author"), ("B", "I-author"), ("T", "B-title"), ("x", "O")]
        ),
        make_instance([("C", "B-author"), ("2001", "B-date")]),
    ]
)


class TestTokenReport:
    def test_perfect_prediction(self):
        pred = [inst.tags for inst in GOLD.instances]
        rep = token_report(GOLD, pred)
        assert rep.micro_f1 == 1.0
        assert rep.macro_f1 == 1.0
        assert all(s.f1 == 1.0 for s in rep.per_field.values() if s.support)

    def test_all_o_prediction(self):
        pred = [("O",) * len(inst.tokens) for inst in GOLD.instances]
        rep = token_report(GOLD, pred)
        assert rep.micro_recall == 0.0
        assert rep.micro_precision == 0.0
        assert rep.micro_f1 == 0.0
        for score in rep.per_field.values():
            assert score.recall == 0.0 and score.f1 == 0.0

    def test_one_author_token_wrong_of_four(self):
        # author gold tokens: A, B (inst 1) and C (inst 2) = 3; make it 4
        gold = corpus_of(
            [
                make_instance(
                    [("A", "B-author"), ("B", "I-author"), ("T", "B-title")]
                ),
                make_instance([("C", "B-author"), ("D", "I-author")]),
            ]
        )
        pred = [
            ("B-author", "I-author", "B-title"),
            ("B-author", "O"),  # one author token of four lost
        ]
        rep = token_report(gold, pred)
        author = rep.per_field["author"]
        assert author.recall == pytest.approx(3 / 4)
        assert author.precision == pytest.approx(1.0)
        assert author.support == 4

    def test_b_i_collapse(self):
        gold = corpus_of([make_instance([("A", "B-author"), ("B", "I-author")])])
        pred = [("B-author", "B-author")]  # wrong boundary, right field
        rep = token_report(gold, pred)
        assert rep.per_field["author"].f1 == 1.0

    def test_alignment_checked(self):
        with pytest.raises(StructuralError):
            token_report(GOLD, [("O",)])
        with pytest.raises(StructuralError, match="instance 0"):
            token_report(GOLD, [("O",), ("O", "O")])

    def test_invalid_iob2_prediction_rejected(self):
        with pytest.raises(StructuralError, match="I-author at position 0"):
            token_report(GOLD, [("I-author", "O", "O", "O"), ("O", "O")])
        with pytest.raises(StructuralError, match="invalid tag 'X-author'"):
            token_report(GOLD, [("O", "O", "O", "O"), ("X-author", "O")])


class TestFieldReport:
    def test_perfect_prediction(self):
        pred = [inst.tags for inst in GOLD.instances]
        rep = field_report(GOLD, pred)
        assert rep.micro_f1 == 1.0 and rep.macro_f1 == 1.0

    def test_off_by_one_segment_is_fp_and_fn(self):
        gold = corpus_of(
            [make_instance([("T", "B-title"), ("x", "I-title"), ("y", "O")])]
        )
        pred = [("B-title", "I-title", "I-title")]  # one trailing token extra
        rep = field_report(gold, pred)
        title = rep.per_field["title"]
        assert title.precision == 0.0 and title.recall == 0.0

    def test_hand_counted_micro(self):
        # 2 references, 5 gold segments, 4 predicted, 3 exact matches
        gold = corpus_of(
            [
                make_instance(
                    [
                        ("A", "B-author"),
                        ("T", "B-title"),
                        ("2001", "B-date"),
                    ]
                ),
                make_instance([("B", "B-author"), ("U", "B-title")]),
            ]
        )
        pred = [
            ("B-author", "B-title", "B-date"),  # 3 exact matches
            ("B-date", "O"),  # 4th predicted segment, wrong field
        ]
        rep = field_report(gold, pred)
        assert rep.micro_precision == pytest.approx(0.75)
        assert rep.micro_recall == pytest.approx(0.6)
        assert rep.micro_f1 == pytest.approx(2 * 0.75 * 0.6 / 1.35)

    def test_duplicate_segments_matched_at_most_once(self):
        gold = corpus_of(
            [make_instance([("A", "B-author"), ("x", "O"), ("A", "B-author")])]
        )
        pred = [("B-author", "O", "O")]
        rep = field_report(gold, pred)
        assert rep.per_field["author"].recall == pytest.approx(0.5)
        assert rep.per_field["author"].precision == 1.0

    def test_normalized_matching_ignores_trailing_punct(self):
        gold = corpus_of(
            [make_instance([("Lemke", "B-author"), (",", "I-author"), ("T", "B-title")])]
        )
        pred = [("B-author", "O", "B-title")]  # misses the trailing comma token
        rep = field_report(gold, pred)
        assert rep.per_field["author"].f1 == 1.0

    def test_only_predicted_tags_are_checked(self, monkeypatch):
        # gold tags were checked when their LabeledReference was built
        calls = []

        def counting_check(tags):
            calls.append(tuple(tags))
            return check_iob2(tags)

        monkeypatch.setattr(labels, "check_iob2", counting_check)
        pred = [("O",) * len(inst.tokens) for inst in GOLD.instances]
        evaluate(GOLD, pred)
        assert calls == pred
        with pytest.raises(StructuralError):
            evaluate(GOLD, [("I-author", "O", "O", "O"), ("O", "O")])


def _iob2(choices):
    """Tags from (field, begin) choices, field None for O: an I-f that
    would not continue an f run begins one."""
    tags, prev = [], None
    for field, begin in choices:
        if field is None:
            tags.append("O")
        else:
            tags.append(f"{'B' if begin or prev != field else 'I'}-{field}")
        prev = field
    return tuple(tags)


# few fields and surfaces, so one reference often repeats a (field, text) key
_POSITION = st.tuples(
    st.sampled_from(["A", "B", ","]),
    st.tuples(st.sampled_from([None, "author", "title"]), st.booleans()),
    st.tuples(st.sampled_from([None, "author", "title"]), st.booleans()),
)


@given(st.lists(st.lists(_POSITION, min_size=1, max_size=8), min_size=1, max_size=3))
def test_field_level_matches_greedy_oracle(references):
    gold = corpus_of(
        make_instance(list(zip([s for s, _, _ in ref], _iob2(g for _, g, _ in ref))))
        for ref in references
    )
    pred = [_iob2(p for _, _, p in ref) for ref in references]
    assert evaluate(gold, pred).field == oracles.field_report(gold, pred)


class TestAggregation:
    def test_permutation_invariance(self, fixture_records):
        corpus = rp.generate_corpus(
            fixture_records[:20], rp.style_family("A")[:3], n=40, seed=6
        )
        pred = [inst.tags for inst in corpus.instances]
        # flip the final tag (IOB2 stays valid) so the report is non-trivial
        pred[0] = pred[0][:-1] + ("O",)
        rep1 = evaluate(corpus, pred)
        perm = list(range(len(corpus)))[::-1]
        corpus2 = Corpus(
            name="p",
            labels=corpus.labels,
            instances=tuple(corpus.instances[i] for i in perm),
        )
        rep2 = evaluate(corpus2, [pred[i] for i in perm])
        assert rep1.token == rep2.token
        assert rep1.field == rep2.field

    def test_micro_matches_pooled_hand_counts(self):
        # count additivity: micro rates derive from TP/FP/FN summed over
        # instances, recomputed here by hand
        pred = [
            ("B-author", "I-author", "O", "B-date"),
            ("B-title", "B-date"),
        ]
        rep = token_report(GOLD, pred)
        tp = fp = fn = 0
        for inst, tags in zip(GOLD.instances, pred):
            for g, p in zip(inst.tags, tags):
                gf = None if g == "O" else g[2:]
                pf = None if p == "O" else p[2:]
                if gf == pf:
                    tp += gf is not None
                else:
                    fp += pf is not None
                    fn += gf is not None
        precision = tp / (tp + fp)
        recall = tp / (tp + fn)
        assert rep.micro_precision == pytest.approx(precision)
        assert rep.micro_recall == pytest.approx(recall)
        assert rep.micro_f1 == pytest.approx(
            2 * precision * recall / (precision + recall)
        )

    def test_macro_single_field_equals_field_f1(self):
        gold = corpus_of(
            [make_instance([("A", "B-author"), ("x", "O")])], labels=("author",)
        )
        pred = [("B-author", "B-author")]
        rep = token_report(gold, pred)
        assert rep.macro_f1 == rep.per_field["author"].f1

    def test_token_and_field_agree_on_single_token_segments(self):
        gold = corpus_of(
            [
                make_instance(
                    [("Alpha", "B-author"), ("Beta", "B-title"), ("x", "O")]
                )
            ]
        )
        pred = [("B-author", "O", "B-date")]
        t = token_report(gold, pred)
        f = field_report(gold, pred)
        for name in gold.labels:
            assert t.per_field[name] == f.per_field[name]
        assert t.micro_f1 == f.micro_f1 and t.macro_f1 == f.macro_f1


class TestCompareReports:
    def _report(self, f1):
        level = LevelReport(
            per_field={"author": FieldScore(f1, f1, f1, 10)},
            micro_precision=f1,
            micro_recall=f1,
            micro_f1=f1,
            macro_f1=f1,
        )
        return EvalReport(token=level, field=level, instances=5)

    def test_equal_reports_all_zero(self):
        a = self._report(0.8)
        cmp = compare_reports(a, a)
        assert cmp.field_macro_f1.absolute == 0.0
        assert cmp.field_macro_f1.relative == 0.0

    def test_paper_arithmetic_35_percent(self):
        cmp = compare_reports(self._report(0.93), self._report(0.69))
        assert cmp.field_macro_f1.relative * 100 == pytest.approx(35, abs=0.5)

    def test_paper_arithmetic_13_5_percent(self):
        cmp = compare_reports(self._report(0.84), self._report(0.74))
        assert cmp.field_macro_f1.relative * 100 == pytest.approx(13.5, abs=0.05)

    def test_zero_baseline_undefined(self):
        assert relative_delta(0.5, 0.0) is None

    def test_mismatched_universe_rejected(self):
        a = self._report(0.8)
        other = LevelReport(
            per_field={"date": FieldScore(1, 1, 1, 1)},
            micro_precision=1,
            micro_recall=1,
            micro_f1=1,
            macro_f1=1,
        )
        b = EvalReport(token=other, field=other, instances=1)
        with pytest.raises(UsageError):
            compare_reports(a, b)


def test_csv_schema(tmp_path):
    pred = [inst.tags for inst in GOLD.instances]
    report = evaluate(GOLD, pred)
    out = tmp_path / "report.csv"
    write_report_csv(report, out)
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert all(row["schema"] == "refparse-report-v1" for row in rows)
    levels = {row["level"] for row in rows}
    assert levels == {"token", "field"}
    fields = {row["field"] for row in rows}
    assert {"micro-avg", "macro-avg"} <= fields
    assert len(rows) == len(report_rows(report))


def _hand_report():
    token = LevelReport(
        per_field={"author": FieldScore(2 / 3, 1.0, 0.8, 4), "date": FieldScore(0.0, 0.0, 0.0, 0)},
        micro_precision=2 / 3,
        micro_recall=1.0,
        micro_f1=0.8,
        macro_f1=0.8,
    )
    field = LevelReport(
        per_field={"author": FieldScore(0.5, 1 / 3, 0.4, 3), "date": FieldScore(1.0, 1.0, 1.0, 1)},
        micro_precision=0.6,
        micro_recall=0.5,
        micro_f1=6 / 11,
        macro_f1=0.7,
    )
    return EvalReport(token=token, field=field, instances=2)


def test_report_table_text():
    rule = "-" * 57
    lines = [
        "field          level         P        R       F1  support",
        rule,
        "author         token    0.6667   1.0000   0.8000        4",
        "date           token    0.0000   0.0000   0.0000        0",
        "micro-avg      token    0.6667   1.0000   0.8000",
        "macro-avg      token                      0.8000",
        rule,
        "author         field    0.5000   0.3333   0.4000        3",
        "date           field    1.0000   1.0000   1.0000        1",
        "micro-avg      field    0.6000   0.5000   0.5455",
        "macro-avg      field                      0.7000",
        rule,
    ]
    want = "\n".join(line.ljust(57) for line in lines)  # blank cells keep their width
    assert format_report_table(_hand_report()) == want
    assert format_report_table(_hand_report(), title="t") == "t\n" + want


def test_report_rows_dicts():
    def row(level, field, p, r, f1, support):
        return {
            "schema": "refparse-report-v1",
            "level": level,
            "field": field,
            "precision": p,
            "recall": r,
            "f1": f1,
            "support": support,
        }

    assert report_rows(_hand_report()) == [
        row("token", "author", "0.666667", "1.000000", "0.800000", "4"),
        row("token", "date", "0.000000", "0.000000", "0.000000", "0"),
        row("token", "micro-avg", "0.666667", "1.000000", "0.800000", "2"),
        row("token", "macro-avg", "", "", "0.800000", "2"),
        row("field", "author", "0.500000", "0.333333", "0.400000", "3"),
        row("field", "date", "1.000000", "1.000000", "1.000000", "1"),
        row("field", "micro-avg", "0.600000", "0.500000", "0.545455", "2"),
        row("field", "macro-avg", "", "", "0.700000", "2"),
    ]
