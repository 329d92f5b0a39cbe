import hashlib
import json
import math
from pathlib import Path

import pytest

import refparse as rp
from refparse import crf, experiments
from refparse.corpus import filter_fields, filter_tags_sequence, format_inline_xml
from refparse.crf import TrainConfig, predict_tags, train
from refparse.errors import RefparseError, UsageError
from refparse.experiments import (
    ExperimentPlan,
    cross_matrix,
    field_ablation,
    nested_subsets,
    size_curve,
)
from refparse.features import FeatureConfig

FAST = TrainConfig(l2=1.0, max_epochs=30, tol=1e-3)


@pytest.fixture(scope="module")
def tiny_corpora(tmp_path_factory, fixture_records):
    """Small corpora written to disk for plan-driven runs."""
    root = tmp_path_factory.mktemp("corpora")
    paths = {}
    styles_a = rp.style_family("A")[:3]
    styles_b = rp.style_family("B")[:3]
    spec = {
        "train_a": (fixture_records[:40], styles_a, 80, 1),
        "eval_a": (fixture_records[40:60], styles_a, 30, 2),
        "eval_b": (fixture_records[40:60], styles_b, 30, 3),
    }
    for name, (records, styles, n, seed) in spec.items():
        corpus = rp.generate_corpus(records, styles, n=n, seed=seed, name=name)
        path = root / f"{name}.xml"
        rp.write_inline_xml(corpus, path)
        paths[name] = str(path)
    return root, paths


def test_plan_json_round_trip(tmp_path):
    plan = ExperimentPlan(
        trains={"a": "a.xml"},
        evals={"b": "b.xml"},
        sizes=(10, 20),
        keep_labels=("author",),
        seed=7,
        out_dir=str(tmp_path),
    )
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan.to_dict()), encoding="utf-8")
    assert ExperimentPlan.from_json(path) == plan


def test_unsorted_sizes_rejected(tmp_path):
    for sizes in [(20, 10), (20, 20), (10, 20, 20), (-30,), (0, 20)]:
        with pytest.raises(UsageError):
            ExperimentPlan(
                trains={}, evals={}, sizes=sizes, keep_labels=(),
                seed=0, out_dir=str(tmp_path),
            )


@pytest.mark.parametrize(
    "sizes,seed,shows",
    [((), -10**5000, r"plan seed must be >= 0, got a negative int of 5001 digits"),
     ((-10**5000,), 0, r"plan sizes must be >= 1, got \[a negative int of 5001 digits\]"),
     ((10**5000, 1), 0,
      r"plan sizes must be strictly ascending, got \[an int of 5001 digits, 1\]")],
    ids=["seed", "sizes_below_one", "sizes_unsorted"],
)
def test_plan_names_the_key_of_an_int_too_long_for_text(sizes, seed, shows, tmp_path):
    with pytest.raises(UsageError, match=f"^{shows}$"):
        ExperimentPlan(
            trains={}, evals={}, sizes=sizes, keep_labels=(), seed=seed, out_dir=str(tmp_path)
        )


def test_subset_size_too_long_for_text_is_a_usage_error(fixture_records):
    corpus = rp.generate_corpus(fixture_records[:5], rp.style_family("A"), n=5, seed=0)
    with pytest.raises(UsageError, match="^largest size an int of 5001 digits exceeds"):
        nested_subsets(corpus, [10**5000], seed=0)


class TestCrossMatrix:
    def test_single_cell_equals_manual_run(self, tiny_corpora, tmp_path):
        root, paths = tiny_corpora
        plan = ExperimentPlan(
            trains={"a": paths["train_a"]},
            evals={"a": paths["eval_a"]},
            sizes=(),
            keep_labels=(),
            seed=0,
            out_dir=str(tmp_path / "m"),
        )
        result = cross_matrix(plan, FAST)
        manual_train = rp.read_inline_xml(paths["train_a"])
        manual_eval = rp.read_inline_xml(paths["eval_a"])
        model = train(manual_train, FeatureConfig(), FAST)
        pred = [predict_tags(model, i.surfaces()) for i in manual_eval.instances]
        manual = rp.evaluate(manual_eval, pred)
        assert result.reports[("a", "a")].field.macro_f1 == pytest.approx(
            manual.field.macro_f1
        )
        assert (tmp_path / "m" / "matrix.csv").exists()
        assert (tmp_path / "m" / "fields_a__a.csv").exists()
        assert (tmp_path / "m" / "manifest.json").exists()

    def test_manifest_keeps_both_digests_of_a_shared_name(self, tiny_corpora, tmp_path):
        root, paths = tiny_corpora
        plan = ExperimentPlan(
            trains={"a": paths["train_a"]},
            evals={"a": paths["eval_a"]},
            sizes=(),
            keep_labels=(),
            seed=0,
            out_dir=str(tmp_path / "d"),
        )
        cross_matrix(plan, FAST)
        manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
        digest = {
            name: hashlib.sha256(Path(paths[name]).read_bytes()).hexdigest()
            for name in ("train_a", "eval_a")
        }
        assert manifest["corpus_digests"] == {
            "trains": {"a": digest["train_a"]},
            "evals": {"a": digest["eval_a"]},
        }

    def test_rerun_is_byte_identical(self, tiny_corpora, tmp_path):
        root, paths = tiny_corpora
        outs = []
        for tag in ("r1", "r2"):
            plan = ExperimentPlan(
                trains={"a": paths["train_a"]},
                evals={"a": paths["eval_a"], "b": paths["eval_b"]},
                sizes=(),
                keep_labels=(),
                seed=0,
                out_dir=str(tmp_path / tag),
            )
            cross_matrix(plan, FAST)
            outs.append(tmp_path / tag)
        for name in ("matrix.csv", "fields_a__a.csv", "fields_a__b.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_failure_recorded_and_raised(self, tiny_corpora, tmp_path):
        root, paths = tiny_corpora
        bad = root / "bad.xml"
        bad.write_text("<bogus>x</bogus>\n", encoding="utf-8")
        plan = ExperimentPlan(
            trains={"a": str(bad)},
            evals={"a": paths["eval_a"]},
            sizes=(),
            keep_labels=(),
            seed=0,
            out_dir=str(tmp_path / "fail"),
        )
        with pytest.raises(RefparseError):
            cross_matrix(plan, FAST)
        manifest = json.loads((tmp_path / "fail" / "manifest.json").read_text())
        assert manifest["partial"] is True
        assert manifest["failures"]


class TestSizeCurve:
    def test_subsets_are_nested(self, tiny_corpora):
        root, paths = tiny_corpora
        corpus = rp.read_inline_xml(paths["train_a"])
        subsets = nested_subsets(corpus, (5, 20, 60), seed=9)
        for smaller, larger in zip(subsets, subsets[1:]):
            assert smaller.instances == larger.instances[: len(smaller.instances)]

    def test_nested_and_repeat_sizes(self, tiny_corpora, tmp_path):
        root, paths = tiny_corpora
        plan = dict(
            trains={"a": paths["train_a"]},
            evals={"a": paths["eval_a"]},
            keep_labels=(),
            seed=3,
            out_dir=str(tmp_path / "c"),
        )
        # a repeated size would train the same subset twice and overwrite
        # its fields CSV: the plan is rejected before any training
        with pytest.raises(UsageError, match="strictly ascending"):
            ExperimentPlan(sizes=(20, 20, 60), **plan)
        size_curve(ExperimentPlan(sizes=(20, 60), **plan), FAST)
        lines = (tmp_path / "c" / "curve.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines] == ["size", "20", "60"]

    def test_oversized_rejected(self, tiny_corpora, tmp_path):
        root, paths = tiny_corpora
        plan = ExperimentPlan(
            trains={"a": paths["train_a"]},
            evals={"a": paths["eval_a"]},
            sizes=(10_000,),
            keep_labels=(),
            seed=0,
            out_dir=str(tmp_path / "o"),
        )
        with pytest.raises(UsageError):
            size_curve(plan, FAST)

    def test_needs_exactly_one_train(self, tiny_corpora, tmp_path):
        root, paths = tiny_corpora
        plan = ExperimentPlan(
            trains={"a": paths["train_a"], "b": paths["train_a"]},
            evals={"a": paths["eval_a"]},
            sizes=(10,),
            keep_labels=(),
            seed=0,
            out_dir=str(tmp_path / "x"),
        )
        with pytest.raises(UsageError):
            size_curve(plan, FAST)


class TestFieldAblation:
    def test_identical_label_sets_rejected(self, tiny_corpora, tmp_path):
        root, paths = tiny_corpora
        corpus = rp.read_inline_xml(paths["train_a"])
        plan = ExperimentPlan(
            trains={"a": paths["train_a"]},
            evals={"a": paths["eval_a"]},
            sizes=(),
            keep_labels=corpus.labels,
            seed=0,
            out_dir=str(tmp_path / "abl"),
        )
        with pytest.raises(UsageError):
            field_ablation(plan, FAST)

    def test_two_arms_written(self, tiny_corpora, tmp_path):
        root, paths = tiny_corpora
        corpus = rp.read_inline_xml(paths["train_a"])
        keep = tuple(
            f for f in corpus.labels if f not in ("location", "note", "institution")
        )
        plan = ExperimentPlan(
            trains={"a": paths["train_a"]},
            evals={"a": paths["eval_a"]},
            sizes=(),
            keep_labels=keep,
            seed=0,
            out_dir=str(tmp_path / "abl2"),
        )
        result = field_ablation(plan, FAST)
        assert ("full", "a") in result.reports
        assert ("reduced", "a") in result.reports
        lines = (tmp_path / "abl2" / "ablation.csv").read_text().splitlines()
        assert len(lines) == 3
        # shared-field universe on both arms
        full_fields = set(result.reports[("full", "a")].field.per_field)
        red_fields = set(result.reports[("reduced", "a")].field.per_field)
        assert full_fields == red_fields == set(keep)


@pytest.mark.parametrize("run", [size_curve, field_ablation])
def test_unreadable_eval_recorded_in_manifest(run, tiny_corpora, tmp_path):
    root, paths = tiny_corpora
    bad = tmp_path / "bad_eval.xml"
    bad.write_text("<bogus>x</bogus>\n", encoding="utf-8")
    plan = ExperimentPlan(
        trains={"a": paths["train_a"]},
        evals={"bad": str(bad)},
        sizes=(20,),
        keep_labels=("author", "title"),
        seed=0,
        out_dir=str(tmp_path / "out"),
    )
    with pytest.raises(RefparseError, match="partial results"):
        run(plan, FAST)
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["partial"] is True
    failures = manifest["failures"]
    assert failures and all(f["cell"].endswith("xbad") for f in failures)


# ---------------------------------------------------------------------------
# evaluation decodes each corpus in packed batches
# ---------------------------------------------------------------------------

BLANK = "<ref></ref>"


@pytest.fixture(scope="module")
def edge_corpus(small_model_and_eval, tmp_path_factory):
    """Held-out references with blank ones (three in a row at 3-5, one
    last), 1-token ones and ones that repeat a surface mixed in."""
    _, eval_c = small_model_and_eval
    refs = [format_inline_xml(inst) for inst in eval_c.instances[:30]]
    lines = [
        refs[0], "<author>Smith</author>", refs[1], BLANK, BLANK, BLANK, "2019", refs[2],
        "<title>Smith Smith Smith</title> <author>Smith</author> (<date>2019</date>).",
        *refs[3:], "Smith Smith Smith Smith.", "<date>2019</date>", BLANK,
    ]
    path = tmp_path_factory.mktemp("edge") / "edge.xml"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    corpus = rp.read_inline_xml(path)
    assert [len(inst.tokens) for inst in corpus.instances][3:7] == [0, 0, 0, 1]
    return corpus


def _per_instance_tags(model, corpus):
    return [crf.predict_tags(model, inst.surfaces()) for inst in corpus.instances]


class TestBatchedEvaluation:
    def test_tags_equal_the_per_instance_decode(self, small_model_and_eval, edge_corpus):
        model, _ = small_model_and_eval
        want = _per_instance_tags(model, edge_corpus)
        assert experiments.predict_tags(model, edge_corpus) == want

    @pytest.mark.parametrize("keep", [None, ("author", "title", "date")])
    def test_report_equals_the_per_instance_report(self, keep, small_model_and_eval, edge_corpus):
        model, _ = small_model_and_eval
        gold, pred = edge_corpus, _per_instance_tags(model, edge_corpus)
        if keep is not None:
            gold = filter_fields(gold, keep)
            pred = [filter_tags_sequence(tags, keep) for tags in pred]
        assert experiments._evaluate_model(model, edge_corpus, keep) == rp.evaluate(gold, pred)

    def test_chunks_of_three_give_the_same_tags(
        self, small_model_and_eval, edge_corpus, monkeypatch
    ):
        model, _ = small_model_and_eval
        want = _per_instance_tags(model, edge_corpus)
        monkeypatch.setattr(crf, "_DECODE_CHUNK", 3)
        assert experiments.predict_tags(model, edge_corpus) == want

    def test_one_viterbi_pass_per_chunk(self, small_model_and_eval, fixture_records, monkeypatch):
        model, _ = small_model_and_eval
        corpus = rp.generate_corpus(
            fixture_records, rp.style_family("B"), n=300, seed=12, name="c300"
        )
        viterbi, batches = crf._viterbi, []

        def counted(e, pack, m):
            batches.append(len(pack.last))
            return viterbi(e, pack, m)

        monkeypatch.setattr(crf, "_viterbi", counted)
        for chunk in (crf._DECODE_CHUNK, 128):
            monkeypatch.setattr(crf, "_DECODE_CHUNK", chunk)
            batches.clear()
            experiments._evaluate_model(model, corpus)
            assert len(batches) == math.ceil(len(corpus) / chunk)
            assert sum(batches) == len(corpus)
