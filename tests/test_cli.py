import base64
import gzip
import json
import math

import pytest

import refparse as rp
from refparse.cli import run
from refparse.crf import empty_model, save_model
from refparse.features import FeatureConfig, FeatureIndex

from conftest import FIGURE1_TEXT


def test_version_exits_zero(capsys):
    assert run(["--version"]) == 0
    out = capsys.readouterr().out
    assert "refparse 0.1.0" in out
    assert "refparse-model-v1" in out


def test_unknown_subcommand_is_usage_error(capsys):
    assert run(["frobnicate"]) == 1
    err = capsys.readouterr().err
    assert "No such command" in err


def test_help_exits_zero():
    assert run(["--help"]) == 0
    assert run(["train", "--help"]) == 0


def test_records_generate_split_sample_filter(tmp_path, capsys):
    records = tmp_path / "r.jsonl"
    corpus = tmp_path / "c.xml"
    assert run(["records", "--n", "40", "--seed", "1", "--out", str(records)]) == 0
    assert (
        run(
            [
                "generate", "--records", str(records), "--styles", "builtin:A",
                "--n", "60", "--seed", "2", "--out", str(corpus),
            ]
        )
        == 0
    )
    got = rp.read_inline_xml(corpus)
    assert len(got) == 60

    train_p, eval_p = tmp_path / "tr.xml", tmp_path / "ev.xml"
    assert (
        run(
            [
                "split", str(corpus), "--ratio", "0.7", "--seed", "7",
                "--train-out", str(train_p), "--eval-out", str(eval_p),
            ]
        )
        == 0
    )
    assert len(rp.read_inline_xml(train_p)) == 42
    assert len(rp.read_inline_xml(eval_p)) == 18

    sampled = tmp_path / "s.xml"
    assert run(["sample", str(corpus), str(sampled), "--n", "10", "--seed", "3"]) == 0
    assert len(rp.read_inline_xml(sampled)) == 10

    filtered = tmp_path / "f.xml"
    assert run(["filter", str(corpus), str(filtered), "--keep", "author,title,date"]) == 0
    assert rp.read_inline_xml(filtered).labels == ("author", "title", "date")


def test_generate_per_author_mode(tmp_path):
    records = tmp_path / "r.jsonl"
    corpus = tmp_path / "c.xml"
    assert run(["records", "--n", "20", "--seed", "8", "--out", str(records)]) == 0
    assert (
        run(
            [
                "generate", "--records", str(records), "--styles", "builtin:B",
                "--n", "30", "--seed", "9", "--per-author", "--out", str(corpus),
            ]
        )
        == 0
    )
    got = rp.read_inline_xml(corpus)
    author_seg_counts = [
        sum(
            1
            for s in rp.segments_from_tags(i.tags, i.tokens)
            if s.field == "author"
        )
        for i in got.instances
    ]
    assert max(author_seg_counts) > 1  # multi-author records yield one span each


def test_split_reproduces_paper_counts(tmp_path):
    corpus = tmp_path / "big.xml"
    line = "<author>A. B</author>, <title>T</title>."
    corpus.write_text("\n".join([line] * 7800) + "\n", encoding="utf-8")
    train_p, eval_p = tmp_path / "tr.xml", tmp_path / "ev.xml"
    assert (
        run(
            [
                "split", str(corpus), "--ratio", "0.7", "--seed", "7",
                "--train-out", str(train_p), "--eval-out", str(eval_p),
            ]
        )
        == 0
    )
    # minus one #labels header line each
    assert len(train_p.read_text().splitlines()) - 1 == 5460
    assert len(eval_p.read_text().splitlines()) - 1 == 2340


def test_convert_round_trip(tmp_path):
    src = tmp_path / "c.xml"
    src.write_text("<author>A. B</author>, <title>T</title>.\n", encoding="utf-8")
    conll = tmp_path / "c.conll"
    back = tmp_path / "back.xml"
    assert run(["convert", str(src), str(conll)]) == 0
    assert run(["convert", str(conll), str(back)]) == 0
    assert "B-author" in conll.read_text()


def test_malformed_corpus_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.xml"
    bad.write_text("<title>a <note>nested</note></title>\n", encoding="utf-8")
    assert run(["convert", str(bad), str(tmp_path / "out.conll")]) == 2
    assert "data error" in capsys.readouterr().err


def _gz(payload: dict) -> bytes:
    return gzip.compress(json.dumps(payload).encode("utf-8"))


def _zeros(*shape: int) -> dict:
    data = base64.b64encode(bytes(8 * math.prod(shape))).decode("ascii")
    return {"shape": list(shape), "data": data}


MALFORMED_MODELS = {
    "gzip_json_without_tags": lambda p: _gz({k: v for k, v in p.items() if k != "tags"}),
    "gzip_magic_then_garbage": lambda p: b"\x1f\x8b" + b"garbage" * 8,
    "end_shape_vs_tag_count": lambda p: _gz({**p, "end": _zeros(len(p["tags"]) + 1)}),
    "emission_shape_vs_feature_count": lambda p: _gz(
        {**p, "emission": _zeros(len(p["feature_names"]) + 1, len(p["tags"]))}
    ),
    "negative_window": lambda p: _gz(
        {**p, "feature_config": {**p["feature_config"], "window": -1}}
    ),
}


@pytest.mark.parametrize("corrupt", MALFORMED_MODELS.values(), ids=MALFORMED_MODELS.keys())
def test_malformed_model_is_data_error(corrupt, tmp_path, capsys):
    good = tmp_path / "good.gz"
    save_model(
        empty_model(["author"], FeatureIndex(names=("f0", "f1")), FeatureConfig()), good
    )
    bad = tmp_path / "bad.gz"
    bad.write_bytes(corrupt(json.loads(gzip.decompress(good.read_bytes()))))
    refs = tmp_path / "refs.txt"
    refs.write_text("A. Author, A title, 2015.\n", encoding="utf-8")
    assert run(["parse", "--model", str(good), "--in", str(refs)]) == 0
    assert run(["parse", "--model", str(bad), "--in", str(refs)]) == 2
    assert "data error" in capsys.readouterr().err


def test_bad_ratio_is_usage_error(tmp_path, capsys):
    src = tmp_path / "c.xml"
    src.write_text("<author>A</author>\n", encoding="utf-8")
    code = run(
        [
            "split", str(src), "--ratio", "1.5", "--seed", "1",
            "--train-out", str(tmp_path / "a"), "--eval-out", str(tmp_path / "b"),
        ]
    )
    assert code == 1
    assert "usage error" in capsys.readouterr().err


NOT_UTF8 = b"A. Author, \xff\xfe title, 2015.\n"
GOOD_CORPUS = b"<author>A. Author</author>, <title>A title</title>, <date>2015</date>.\n"

# id -> (files written into the test directory, argv with {d} for that
# directory, exit code, text the diagnostic must contain)
BAD_CLI_INPUTS = {
    "plan_not_json": ({"plan.json": b"{bad"}, ["matrix", "{d}/plan.json"], 2, "plan"),
    "plan_not_object": ({"plan.json": b"[1, 2]"}, ["curve", "{d}/plan.json"], 2, "plan"),
    "plan_without_out_dir": (
        {"plan.json": b'{"trains": {}}'}, ["ablation", "{d}/plan.json"], 2, "out_dir"
    ),
    "plan_bad_sizes": (
        {"plan.json": b'{"sizes": ["10"], "out_dir": "o"}'},
        ["curve", "{d}/plan.json"], 2, "sizes",
    ),
    "parse_in_not_utf8": (
        {"refs.txt": NOT_UTF8}, ["parse", "--model", "{d}/m.gz", "--in", "{d}/refs.txt"],
        2, "UTF-8",
    ),
    "eval_xml_not_utf8": (
        {"g.xml": NOT_UTF8}, ["eval", "--model", "{d}/m.gz", "--gold", "{d}/g.xml"],
        2, "UTF-8",
    ),
    "eval_conll_not_utf8": (
        {"g.conll": b"A.\tB-author\n\xff\tO\n"},
        ["eval", "--model", "{d}/m.gz", "--gold", "{d}/g.conll"], 2, "UTF-8",
    ),
    "eval_conll_breaks_iob2": (
        {"g.conll": b"Smith\tI-author\n"},
        ["eval", "--model", "{d}/m.gz", "--gold", "{d}/g.conll"], 2, "line 1",
    ),
    "records_not_utf8": (
        {"r.jsonl": b'{"title": "\xff", "year": 2001}\n'},
        ["generate", "--records", "{d}/r.jsonl", "--n", "2", "--out", "{d}/c.xml"],
        2, "UTF-8",
    ),
    "style_not_utf8": (
        {"r.jsonl": b'{"title": "T", "year": 2001}\n', "x.style": b"name: \xff\n"},
        ["generate", "--records", "{d}/r.jsonl", "--styles", "{d}", "--n", "2",
         "--out", "{d}/c.xml"],
        2, "UTF-8",
    ),
    "gazetteer_not_utf8": (
        {"c.xml": GOOD_CORPUS, "g.txt": b"vol\n\xff\n"},
        ["train", "{d}/c.xml", "--model", "{d}/out.gz", "--gazetteer-dir", "{d}"],
        2, "UTF-8",
    ),
    "records_bad_json": (
        {"r.jsonl": b'{"title": "T", "year": 2001}\n{bad\n'},
        ["generate", "--records", "{d}/r.jsonl", "--n", "2", "--out", "{d}/c.xml"],
        2, "line 2",
    ),
    "records_without_year": (
        {"r.jsonl": b'{"title": "T"}\n'},
        ["generate", "--records", "{d}/r.jsonl", "--n", "2", "--out", "{d}/c.xml"],
        2, "line 1",
    ),
    "split_into_missing_dir": (
        {"c.xml": GOOD_CORPUS * 4},
        ["split", "{d}/c.xml", "--ratio", "0.5", "--train-out", "{d}/no/tr.xml",
         "--eval-out", "{d}/ev.xml"],
        1, "no/tr.xml",
    ),
    "train_negative_window": (
        {"c.xml": GOOD_CORPUS},
        ["train", "{d}/c.xml", "--model", "{d}/out.gz", "--window", "-1"], 1, "window",
    ),
    "train_zero_max_epochs": (
        {"c.xml": GOOD_CORPUS},
        ["train", "{d}/c.xml", "--model", "{d}/out.gz", "--max-epochs", "0"],
        1, "max_epochs",
    ),
    **{
        f"train_{flag}_{value}": (
            {"c.xml": GOOD_CORPUS},
            ["train", "{d}/c.xml", "--model", "{d}/out.gz", f"--{flag}", value],
            1, "finite",
        )
        for flag in ("l2", "tol")
        for value in ("nan", "inf")
    },
}


@pytest.mark.parametrize("case", BAD_CLI_INPUTS.values(), ids=BAD_CLI_INPUTS.keys())
def test_bad_input_exits_with_documented_code(case, tmp_path, capsys):
    files, argv, code, message = case
    save_model(
        empty_model(["author"], FeatureIndex(names=("f0",)), FeatureConfig()),
        tmp_path / "m.gz",
    )
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    assert run([a.format(d=tmp_path) for a in argv]) == code
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "out.gz").exists()


def test_parse_figure_string_end_to_end(tmp_path, small_model_and_eval, capsys):
    model, _ = small_model_and_eval
    model_path = tmp_path / "model.gz"
    save_model(model, model_path)
    refs = tmp_path / "refs.txt"
    refs.write_text(FIGURE1_TEXT + "\n", encoding="utf-8")
    out = tmp_path / "parsed.xml"
    assert (
        run(["parse", "--model", str(model_path), "--in", str(refs), "--out", str(out)])
        == 0
    )
    text = out.read_text(encoding="utf-8")
    for tag in ("author", "title", "journal", "volume", "issue", "pages", "date"):
        assert f"<{tag}>" in text, f"missing <{tag}> in {text}"
    assert "<date>2015</date>" in text
    assert "Metalearning" in text

    # conll output shape
    assert (
        run(
            [
                "parse", "--model", str(model_path), "--in", str(refs),
                "--format", "conll",
            ]
        )
        == 0
    )
    lines = capsys.readouterr().out.splitlines()
    assert any("\tB-author" in line for line in lines)


def test_eval_writes_csv_and_table(tmp_path, small_model_and_eval, capsys):
    model, eval_c = small_model_and_eval
    model_path = tmp_path / "model.gz"
    save_model(model, model_path)
    gold_path = tmp_path / "gold.xml"
    rp.write_inline_xml(eval_c, gold_path)
    csv_path = tmp_path / "report.csv"
    assert (
        run(
            [
                "eval", "--model", str(model_path), "--gold", str(gold_path),
                "--out", str(csv_path),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "micro-avg" in out and "macro-avg" in out
    assert csv_path.exists()


def test_train_subcommand_small(tmp_path):
    records = tmp_path / "r.jsonl"
    corpus = tmp_path / "c.xml"
    model_path = tmp_path / "m.gz"
    assert run(["records", "--n", "30", "--seed", "4", "--out", str(records)]) == 0
    assert (
        run(
            [
                "generate", "--records", str(records), "--styles", "builtin:B",
                "--n", "60", "--seed", "5", "--out", str(corpus),
            ]
        )
        == 0
    )
    assert (
        run(
            [
                "train", str(corpus), "--model", str(model_path),
                "--max-epochs", "25", "--tol", "1e-3",
            ]
        )
        == 0
    )
    model = rp.load_model(model_path)
    decoded = rp.decode(model, rp.read_inline_xml(corpus).instances[0].raw)
    assert len(decoded.tags) == len(decoded.tokens)


def test_matrix_subcommand(tmp_path):
    records = tmp_path / "r.jsonl"
    assert run(["records", "--n", "30", "--seed", "6", "--out", str(records)]) == 0
    paths = {}
    for name, fam, seed in (("tr", "A", 1), ("ev", "A", 2)):
        p = tmp_path / f"{name}.xml"
        assert (
            run(
                [
                    "generate", "--records", str(records), "--styles", f"builtin:{fam}",
                    "--n", "40", "--seed", str(seed), "--out", str(p),
                ]
            )
            == 0
        )
        paths[name] = str(p)
    plan = {
        "trains": {"t": paths["tr"]},
        "evals": {"e": paths["ev"]},
        "sizes": [],
        "keep_labels": [],
        "seed": 0,
        "out_dir": str(tmp_path / "out"),
    }
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    assert run(["matrix", str(plan_path), "--max-epochs", "20", "--tol", "1e-3"]) == 0
    assert (tmp_path / "out" / "matrix.csv").exists()


def test_tokenize_subcommand(tmp_path, capsys):
    src = tmp_path / "in.txt"
    src.write_text("vol. 44, no. 1\n", encoding="utf-8")
    assert run(["tokenize", "--in", str(src)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "vol\t0\t3"
