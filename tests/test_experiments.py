import json

import pytest

import refparse as rp
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
    for sizes in [(20, 10), (-30,), (0, 20)]:
        with pytest.raises(UsageError):
            ExperimentPlan(
                trains={}, evals={}, sizes=sizes, keep_labels=(),
                seed=0, out_dir=str(tmp_path),
            )


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
        result = cross_matrix(plan, FAST, FeatureConfig())
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
            cross_matrix(plan, FAST, FeatureConfig())
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
            cross_matrix(plan, FAST, FeatureConfig())
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
        plan = ExperimentPlan(
            trains={"a": paths["train_a"]},
            evals={"a": paths["eval_a"]},
            sizes=(20, 20, 60),
            keep_labels=(),
            seed=3,
            out_dir=str(tmp_path / "c"),
        )
        size_curve(plan, FAST, FeatureConfig())
        # repeated size -> identical report rows
        lines = (tmp_path / "c" / "curve.csv").read_text().splitlines()
        assert len(lines) == 1 + 3  # header + one row per size
        first_20, second_20 = lines[1], lines[2]
        assert first_20.split(",")[1:] == second_20.split(",")[1:]

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
            size_curve(plan, FAST, FeatureConfig())

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
            size_curve(plan, FAST, FeatureConfig())


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
            field_ablation(plan, FAST, FeatureConfig())

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
        result = field_ablation(plan, FAST, FeatureConfig())
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
        run(plan, FAST, FeatureConfig())
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["partial"] is True
    failures = manifest["failures"]
    assert failures and all(f["cell"].endswith("xbad") for f in failures)
