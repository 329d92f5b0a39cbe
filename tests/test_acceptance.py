"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The experiment criteria (5-8) run the real pipeline at desk scale through
the experiments module with frozen seeds, and 9 reruns it through the CLI in
a fresh process; the numeric criteria (1-2) drive the CRF against
brute-force oracles; 3-4 check the metric fixtures and the synthetic round
trip. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import contextlib
import filecmp
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import refparse as rp
from refparse import crf
from refparse.crf import TrainConfig
from refparse.experiments import (
    ExperimentPlan,
    cross_matrix,
    field_ablation,
    size_curve,
)
from refparse.labels import check_iob2, normalize_segment_text
from refparse.metrics import (
    EvalReport,
    FieldScore,
    LevelReport,
    compare_reports,
    field_report,
    token_report,
)
from refparse.corpus import Corpus

import oracles
from conftest import DATA_DIR

TRAIN_CONFIG = TrainConfig(l2=1.0, max_epochs=200, tol=1e-4)

SRC_DIR = Path(__file__).resolve().parents[1] / "src"

# the CLI rerun's hash seed: fixed, where the pytest process's is random
RERUN_HASH_SEED = "12345"

ABLATED_FIELDS = ("location", "note", "institution")


@contextlib.contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE criterion {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE criterion {number} ({name}): PASS")


# ---------------------------------------------------------------------------
# shared experiment workspace (built once, reused by criteria 5-9)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    train_records = rp.random_records(700, seed=101)
    eval_records = rp.random_records(160, seed=202)
    styles_a = rp.style_family("A")
    styles_b = rp.style_family("B")

    spec = {
        "train_a_2000": (train_records, styles_a, 2000, 21),
        "train_b_2000": (train_records, styles_b, 2000, 22),
        "eval_a_600": (eval_records, styles_a, 600, 23),
        "eval_b_600": (eval_records, styles_b, 600, 24),
        "pool_a_4000": (train_records, styles_a, 4000, 11),
        "train_a_1200": (train_records, styles_a, 1200, 31),
    }
    paths: dict[str, str] = {}
    labels: dict[str, tuple] = {}
    for name, (records, styles, n, seed) in spec.items():
        corpus = rp.generate_corpus(records, styles, n=n, seed=seed, name=name)
        path = root / f"{name}.xml"
        rp.write_inline_xml(corpus, path)
        paths[name] = str(path)
        labels[name] = corpus.labels
    return {"root": root, "paths": paths, "labels": labels}


def _matrix_plan(ws, out_name: str) -> ExperimentPlan:
    p = ws["paths"]
    return ExperimentPlan(
        trains={"A": p["train_a_2000"], "B": p["train_b_2000"]},
        evals={"evalA": p["eval_a_600"], "evalB": p["eval_b_600"]},
        sizes=(),
        keep_labels=(),
        seed=0,
        out_dir=str(ws["root"] / out_name),
    )


def _curve_plan(ws, out_name: str) -> ExperimentPlan:
    p = ws["paths"]
    return ExperimentPlan(
        trains={"A": p["pool_a_4000"]},
        evals={"evalA": p["eval_a_600"]},
        sizes=(100, 300, 500, 1000, 2000, 4000),
        keep_labels=(),
        seed=5,
        out_dir=str(ws["root"] / out_name),
    )


def _ablation_plan(ws, out_name: str) -> ExperimentPlan:
    p = ws["paths"]
    keep = tuple(f for f in ws["labels"]["train_a_1200"] if f not in ABLATED_FIELDS)
    return ExperimentPlan(
        trains={"A": p["train_a_1200"]},
        evals={"evalB": p["eval_b_600"], "evalA": p["eval_a_600"]},
        sizes=(),
        keep_labels=keep,
        seed=0,
        out_dir=str(ws["root"] / out_name),
    )


# (CLI command, first run's out_dir, rerun's out_dir, plan) of each experiment
RERUNS = (
    ("matrix", "matrix1", "matrix2", _matrix_plan),
    ("curve", "curve1", "curve2", _curve_plan),
    ("ablation", "ablation1", "ablation2", _ablation_plan),
)

# runs each argv list given as JSON through the CLI, stopping at the first failure
_RERUN_SCRIPT = """\
import json, sys
from refparse.cli import run
for argv in json.loads(sys.argv[1]):
    code = run(argv)
    if code:
        sys.exit(code)
"""


@pytest.fixture(scope="session")
def cli_rerun(workspace):
    """One fresh process that reruns the three experiments through the CLI,
    from plan files, while this process makes the first runs. Yields the
    process and the file holding its output; the process ends with the
    session."""
    root = workspace["root"]
    flags = [f"--{k.replace('_', '-')}={v!r}" for k, v in TRAIN_CONFIG.to_dict().items()]
    argvs = []
    for command, _, second, plan_fn in RERUNS:
        plan_path = root / f"{second}.json"
        plan_path.write_text(json.dumps(plan_fn(workspace, second).to_dict()), encoding="utf-8")
        argvs.append([command, str(plan_path), *flags])
    path = os.pathsep.join(filter(None, (str(SRC_DIR), os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": RERUN_HASH_SEED}
    log_path = root / "rerun.log"
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(
            [sys.executable, "-c", _RERUN_SCRIPT, json.dumps(argvs)],
            env=env, stdout=log, stderr=subprocess.STDOUT,
        )
        try:
            yield proc, log_path
        finally:
            proc.kill()
            proc.wait()


# each first run requests `cli_rerun`, so that the rerun starts before it
@pytest.fixture(scope="session")
def matrix_result(workspace, cli_rerun):
    return cross_matrix(_matrix_plan(workspace, "matrix1"), TRAIN_CONFIG)


@pytest.fixture(scope="session")
def curve_result(workspace, cli_rerun):
    return size_curve(_curve_plan(workspace, "curve1"), TRAIN_CONFIG)


@pytest.fixture(scope="session")
def ablation_result(workspace, cli_rerun):
    return field_ablation(_ablation_plan(workspace, "ablation1"), TRAIN_CONFIG)


# ---------------------------------------------------------------------------
# criterion 1: CRF oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_1_crf_oracle_equivalence():
    with criterion(1, "CRF oracle equivalence"):
        rng = np.random.default_rng(20260808)
        n_pairs = 200
        for _ in range(n_pairs):
            n_fields = int(rng.integers(1, 4))  # <= 4 unconstrained tags (O + B-f)
            model = oracles.random_model(rng, n_fields=n_fields)
            inst = oracles.random_instance(rng, model, int(rng.integers(1, 7)))

            logz = crf.log_partition(inst, model)
            logz_ref, best_ref, marg_ref = oracles.enumerate_all(inst, model)
            assert abs(logz - logz_ref) <= 1e-8 * max(1.0, abs(logz_ref))

            decoded = tuple(model.tags.index(t) for t in crf.viterbi(inst, model))
            assert decoded == best_ref

            marg = crf.marginals(inst, model)
            np.testing.assert_allclose(marg, marg_ref, atol=1e-8)
            np.testing.assert_allclose(marg.sum(axis=1), 1.0, atol=1e-9)


# ---------------------------------------------------------------------------
# criterion 2: gradient check against central finite differences
# ---------------------------------------------------------------------------

def test_criterion_2_gradient_check():
    with criterion(2, "analytic gradient vs finite differences"):
        rng = np.random.default_rng(4096)
        h = 1e-5
        for _ in range(50):
            model = oracles.random_model(
                rng, n_fields=int(rng.integers(1, 3)), n_feats=6
            )
            batch = [
                oracles.random_instance(
                    rng, model, int(rng.integers(1, 5)), with_gold=True
                )
                for _ in range(int(rng.integers(1, 3)))
            ]
            l2 = float(rng.uniform(0.0, 1.0))
            tmask, bmask = crf._structure_masks(model.tags)
            _, grad = crf.nll_and_gradient(batch, model, l2)
            gvec = crf._grad_vector(grad, tmask, bmask)
            x0 = crf._pack(model, tmask, bmask)
            for i in range(len(x0)):
                xp = x0.copy()
                xp[i] += h
                xm = x0.copy()
                xm[i] -= h
                fp, _ = crf.nll_and_gradient(
                    batch, crf._unpack(xp, model, tmask, bmask), l2
                )
                fm, _ = crf.nll_and_gradient(
                    batch, crf._unpack(xm, model, tmask, bmask), l2
                )
                fd = (fp - fm) / (2 * h)
                assert abs(fd - gvec[i]) <= 1e-4 * max(1.0, abs(fd), abs(gvec[i]))


# ---------------------------------------------------------------------------
# criterion 3: metric fixtures and the reported relative deltas
# ---------------------------------------------------------------------------

def _single_field_report(f1: float) -> EvalReport:
    level = LevelReport(
        per_field={"author": FieldScore(f1, f1, f1, 100)},
        micro_precision=f1,
        micro_recall=f1,
        micro_f1=f1,
        macro_f1=f1,
    )
    return EvalReport(token=level, field=level, instances=100)


def test_criterion_3_metric_fixtures():
    with criterion(3, "hand-counted metric fixtures and delta arithmetic"):
        def inst(pairs):
            surfaces = [p[0] for p in pairs]
            raw = " ".join(surfaces)
            tokens, pos = [], 0
            for s in surfaces:
                tokens.append(rp.Token(s, pos, pos + len(s)))
                pos += len(s) + 1
            return rp.LabeledReference(
                raw=raw, tokens=tuple(tokens), tags=tuple(p[1] for p in pairs)
            )

        # field level: 2 references, 5 gold segments, 4 predicted, 3 matches
        gold = Corpus(
            name="fix",
            labels=("author", "title", "date"),
            instances=(
                inst([("A", "B-author"), ("T", "B-title"), ("2001", "B-date")]),
                inst([("B", "B-author"), ("U", "B-title")]),
            ),
        )
        pred = [("B-author", "B-title", "B-date"), ("B-date", "O")]
        rep = field_report(gold, pred)
        assert rep.micro_precision == pytest.approx(0.75)
        assert rep.micro_recall == pytest.approx(0.6)
        assert rep.micro_f1 == pytest.approx(2 * 0.75 * 0.6 / 1.35)

        # token level: one author token wrong of four
        gold_t = Corpus(
            name="fix-t",
            labels=("author",),
            instances=(
                inst([("A", "B-author"), ("B", "I-author")]),
                inst([("C", "B-author"), ("D", "I-author")]),
            ),
        )
        pred_t = [("B-author", "I-author"), ("B-author", "O")]
        rep_t = token_report(gold_t, pred_t)
        assert rep_t.per_field["author"].precision == pytest.approx(1.0)
        assert rep_t.per_field["author"].recall == pytest.approx(0.75)

        # reported relative deltas
        cmp1 = compare_reports(_single_field_report(0.93), _single_field_report(0.69))
        assert cmp1.field_macro_f1.relative * 100 == pytest.approx(35.0, abs=0.5)
        cmp2 = compare_reports(_single_field_report(0.84), _single_field_report(0.74))
        assert cmp2.field_macro_f1.relative * 100 == pytest.approx(13.5, abs=0.05)


# ---------------------------------------------------------------------------
# criterion 4: synthetic round trip over every shipped style
# ---------------------------------------------------------------------------

def _canonical(text: str) -> str:
    return normalize_segment_text(
        " ".join(t.surface for t in rp.tokenize(text))
    )


def test_criterion_4_synthetic_round_trip():
    with criterion(4, "shipped styles render and round-trip"):
        records = rp.read_records(DATA_DIR / "records_100.jsonl")
        styles = rp.builtin_styles()
        assert len(records) == 100
        assert len(styles) >= 24
        for style in styles:
            for record in records:
                rendered = rp.render(record, style)
                tokens = rp.tokenize(rendered.text)
                tags = rp.tags_from_spans(tokens, rendered.spans)
                check_iob2(tags)  # zero IOB2 violations
                segments = rp.segments_from_tags(tags, tokens)
                span_view = [
                    (f, _canonical(rendered.text[a:b]))
                    for f, a, b in rendered.spans
                ]
                assert [(s.field, s.text) for s in segments] == span_view

                # span substrings recover the record's field text exactly
                # (title modulo the declared case transform, authors via the
                # declared name-assembly rules)
                for f, a, b in rendered.spans:
                    got = rendered.text[a:b]
                    if f == "title":
                        assert got.lower() == record.title.lower()
                    elif f == "date":
                        assert got == str(record.year)
                    elif f == "pages":
                        assert got == record.pages[0] + style.pages_sep + record.pages[1]
                    elif f in ("journal", "booktitle"):
                        assert got == record.container
                    elif f == "author":
                        assert got == rp.format_authors(record.authors, style)
                    else:
                        expected = {
                            "editor": record.editors,
                            "volume": record.volume,
                            "issue": record.issue,
                            "publisher": record.publisher,
                            "location": record.location,
                            "institution": record.institution,
                            "note": record.note,
                            "web": record.url,
                        }[f]
                        assert got == expected


# ---------------------------------------------------------------------------
# criterion 5: in-sample vs out-of-sample direction
# ---------------------------------------------------------------------------

def test_criterion_5_in_vs_out_of_sample(matrix_result):
    with criterion(5, "in-family exceeds out-of-family by >= 0.02"):
        in_a = matrix_result.macro_f1("A", "evalA")
        out_a = matrix_result.macro_f1("A", "evalB")
        in_b = matrix_result.macro_f1("B", "evalB")
        out_b = matrix_result.macro_f1("B", "evalA")
        print(
            f"  matrix field macro-F1: A->A {in_a:.4f}  A->B {out_a:.4f}  "
            f"B->B {in_b:.4f}  B->A {out_b:.4f}"
        )
        assert in_a >= 0.85
        assert in_b >= 0.85
        assert in_a - out_a >= 0.02
        assert in_b - out_b >= 0.02


# ---------------------------------------------------------------------------
# criterion 6: size-curve shape
# ---------------------------------------------------------------------------

def test_criterion_6_size_curve_shape(curve_result):
    with criterion(6, "size curve rises then plateaus"):
        f1 = {
            int(size): report.field.macro_f1
            for (size, name), report in curve_result.reports.items()
            if name == "evalA"
        }
        print("  curve field macro-F1:", {k: round(v, 4) for k, v in sorted(f1.items())})
        assert set(f1) == {100, 300, 500, 1000, 2000, 4000}
        assert f1[1000] > f1[100]
        assert abs(f1[4000] - f1[1000]) <= 0.03


# ---------------------------------------------------------------------------
# criterion 7: field-ablation direction
# ---------------------------------------------------------------------------

def test_criterion_7_field_ablation_direction(ablation_result):
    with criterion(7, "full-label arm >= reduced-label arm on shared fields"):
        full = ablation_result.macro_f1("full", "evalB")
        reduced = ablation_result.macro_f1("reduced", "evalB")
        print(f"  ablation on out-of-family eval: full {full:.4f}  reduced {reduced:.4f}")
        assert full >= reduced


# ---------------------------------------------------------------------------
# criterion 8: per-field sanity for the date field
# ---------------------------------------------------------------------------

def test_criterion_8_per_field_date_sanity(matrix_result):
    with criterion(8, "in-family date F1 >= 0.86 and >= macro"):
        for model_name, eval_name in (("A", "evalA"), ("B", "evalB")):
            report = matrix_result.reports[(model_name, eval_name)]
            date_f1 = report.field.per_field["date"].f1
            print(f"  {model_name}->{eval_name}: date F1 {date_f1:.4f} macro {report.field.macro_f1:.4f}")
            assert date_f1 >= 0.86
            assert date_f1 >= report.field.macro_f1


# ---------------------------------------------------------------------------
# criterion 9: determinism of the experiment CSVs
# ---------------------------------------------------------------------------

def _csv_files(out_dir: Path) -> list[str]:
    return sorted(p.name for p in out_dir.glob("*.csv"))


def test_criterion_9_determinism(
    workspace, cli_rerun, matrix_result, curve_result, ablation_result
):
    with criterion(9, "a CLI rerun in a fresh process gives byte-identical CSVs and manifests"):
        proc, log_path = cli_rerun
        code = proc.wait(timeout=1800)
        assert code == 0, f"CLI rerun exited {code}:\n{log_path.read_text(errors='replace')}"
        for _, first, second, _ in RERUNS:
            dir1 = workspace["root"] / first
            dir2 = workspace["root"] / second
            names1, names2 = _csv_files(dir1), _csv_files(dir2)
            assert names1 == names2 and names1, f"csv sets differ for {first}"
            for name in names1:
                assert filecmp.cmp(dir1 / name, dir2 / name, shallow=False), (
                    f"{name} differs between {first} and {second}"
                )
            # the manifests differ only in the out_dir their plans name
            manifest1 = (dir1 / "manifest.json").read_text(encoding="utf-8")
            manifest2 = (dir2 / "manifest.json").read_text(encoding="utf-8")
            out_dir1, out_dir2 = json.dumps(str(dir1)), json.dumps(str(dir2))
            assert manifest1.count(out_dir1) == manifest2.count(out_dir2) == 1
            assert manifest2.replace(out_dir2, out_dir1) == manifest1, (
                f"manifest.json differs between {first} and {second}"
            )
