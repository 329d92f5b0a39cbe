import base64
import dataclasses
import gzip
import io
import json
import math

import pytest

import refparse as rp
from refparse import cli, crf, labels
from refparse.cli import run
from refparse.corpus import format_conll, format_inline_xml
from refparse.crf import empty_model, save_model
from refparse.features import MAX_WINDOW, FeatureConfig, FeatureIndex
from refparse.labels import check_iob2

from conftest import DATA_DIR, FIGURE1_TEXT


def test_version_exits_zero(capsys):
    assert run(["--version"]) == 0
    out = capsys.readouterr().out
    assert "refparse 0.1.0" in out
    assert "refparse-model-v1" in out


def test_unknown_subcommand_is_usage_error(capsys):
    assert run(["frobnicate"]) == 1
    err = capsys.readouterr().err
    assert "No such command" in err


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    for command in ("train", "matrix", "curve", "ablation"):
        capsys.readouterr()
        assert run([command, "--help"]) == 0
        out = capsys.readouterr().out.split()
        for flag, kind, default in (
            ("--l2", "FLOAT", "1.0]"),
            ("--max-epochs", "INTEGER", "200]"),
            ("--tol", "FLOAT", "0.0001]"),
            *((("--window", "INTEGER", "2]"), ("--min-count", "INTEGER", "1]"))
              if command == "train" else ()),
        ):
            at = out.index(flag)
            assert out[at + 1 : at + 4] == [kind, "[default:", default], command
    # no writer records a corpus name, so generate takes none
    assert run(["generate", "--help"]) == 0
    out = capsys.readouterr().out.split()
    assert "--per-author" in out and "--name" not in out


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


def _feature_config(p: dict, **changes) -> bytes:
    return _gz({**p, "feature_config": {**p["feature_config"], **changes}})


# id -> (payload of a good model file -> bad file, text the diagnostic must contain)
MALFORMED_MODELS = {
    "gzip_json_without_tags": (
        lambda p: _gz({k: v for k, v in p.items() if k != "tags"}), "tags"
    ),
    "gzip_magic_then_garbage": (lambda p: b"\x1f\x8b" + b"garbage" * 8, "not a model"),
    "end_shape_vs_tag_count": (
        lambda p: _gz({**p, "end": _zeros(len(p["tags"]) + 1)}), "shape"
    ),
    "emission_shape_vs_feature_count": (
        lambda p: _gz({**p, "emission": _zeros(len(p["feature_names"]) + 1, len(p["tags"]))}),
        "shape",
    ),
    "negative_window": (lambda p: _feature_config(p, window=-1), "window"),
    "window_past_max": (lambda p: _feature_config(p, window=MAX_WINDOW + 1), "window"),
    "tokenizer_keeps_punctuation_runs": (
        lambda p: _gz(
            {**p, "tokenizer_config": {**p["tokenizer_config"], "split_punctuation": False}}
        ),
        "tokenizer_config",
    ),
    "no_shape_features": (lambda p: _feature_config(p, use_shape=False), "use_shape"),
    "two_affix_lengths": (lambda p: _feature_config(p, affix_lengths=[1, 2]), "affix_lengths"),
    "tags_disagree_with_labels": (
        lambda p: _gz({**p, "tags": ["B-foo", *p["tags"][1:]]}), "tag set"
    ),
    # feature_config values of another JSON type, which a cast would accept
    "window_fraction": (lambda p: _feature_config(p, window=2.5), "window"),
    "window_bool": (lambda p: _feature_config(p, window=True), "window"),
    "window_string": (lambda p: _feature_config(p, window="2"), "window"),
    "min_count_fraction": (lambda p: _feature_config(p, min_count=1.9), "min_count"),
    "use_gazetteers_string": (
        lambda p: _feature_config(p, use_gazetteers="no"), "use_gazetteers"
    ),
    "gazetteer_words_string": (
        lambda p: _feature_config(p, gazetteers={"months": "january"}), "gazetteers"
    ),
    # as many feature names as emission rows, so only their type is wrong
    "feature_names_ints": (lambda p: _gz({**p, "feature_names": [1, 2]}), "feature_names"),
    "feature_names_string": (lambda p: _gz({**p, "feature_names": "ab"}), "feature_names"),
}


@pytest.mark.parametrize("case", MALFORMED_MODELS.values(), ids=MALFORMED_MODELS.keys())
def test_malformed_model_is_data_error(case, tmp_path, capsys):
    corrupt, message = case
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
    err = capsys.readouterr().err
    assert "data error" in err and message in err


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
    **{
        f"records_{key}_not_string": (
            {"r.jsonl": b'{"authors": [%s], "title": %s, "container": %s, "year": 2001}\n'
             % values},
            ["generate", "--records", "{d}/r.jsonl", "--n", "2", "--out", "{d}/c.xml"],
            2, f"line 1: bad record: record '{key}'",
        )
        for key, values in (
            ("title", (b'["A", "B"]', b"5", b'"C"')),
            ("container", (b'["A", "B"]', b'"T"', b"5")),
            ("authors", (b'[5, "B"]', b'"T"', b'"C"')),
        )
    },
    # a record the BibRecord constructor rejects, or an author or page range
    # of the wrong shape
    **{
        f"records_{case}": (
            {"r.jsonl": line + b"\n"},
            ["generate", "--records", "{d}/r.jsonl", "--n", "2", "--out", "{d}/c.xml"],
            2, f"line 1: bad record: {message}",
        )
        for case, line, message in (
            ("year_1200", b'{"title": "T", "year": 1200}', "record year 1200"),
            ("year_fraction", b'{"title": "T", "year": 2001.9}', "record 'year'"),
            ("book_kind", b'{"title": "T", "year": 2001, "container_kind": "book"}',
             "unknown container kind 'book'"),
            ("reversed_pages", b'{"title": "T", "year": 2001, "pages": ["30", "20"]}',
             "page range 30-20 is reversed"),
            ("author_string", b'{"authors": ["Ann"], "title": "T", "year": 2001}',
             "record 'authors'"),
            ("author_triple", b'{"authors": [["C", "D", "E"]], "title": "T", "year": 2001}',
             "record 'authors'"),
            ("authors_string", b'{"authors": "Ann Lee", "title": "T", "year": 2001}',
             "record 'authors'"),
            ("pages_string", b'{"title": "T", "year": 2001, "pages": "117-130"}',
             "record 'pages'"),
            ("pages_triple", b'{"title": "T", "year": 2001, "pages": [1, 2, 3]}',
             "record 'pages'"),
            ("pages_null_first", b'{"title": "T", "year": 2001, "pages": [null, 2]}',
             "record 'pages'"),
            ("author_object_not_string",
             b'{"authors": [{"given": 5, "family": "F"}], "title": "T", "year": 2001}',
             "record 'authors'"),
        )
    },
    "records_negative_seed": (
        {}, ["records", "--n", "2", "--seed", "-1", "--out", "{d}/r.jsonl"], 1, "seed",
    ),
    "generate_negative_seed": (
        {"r.jsonl": b'{"title": "T", "year": 2001}\n'},
        ["generate", "--records", "{d}/r.jsonl", "--n", "2", "--seed", "-2",
         "--out", "{d}/c.xml"],
        1, "seed",
    ),
    "split_negative_seed": (
        {"c.xml": GOOD_CORPUS * 4},
        ["split", "{d}/c.xml", "--ratio", "0.5", "--seed", "-3",
         "--train-out", "{d}/tr.xml", "--eval-out", "{d}/ev.xml"],
        1, "seed",
    ),
    "sample_negative_seed": (
        {"c.xml": GOOD_CORPUS * 4},
        ["sample", "{d}/c.xml", "{d}/s.xml", "--n", "2", "--seed", "-3"], 1, "seed",
    ),
    # a plan that is valid but for its seed; its out_dir is never created
    "plan_negative_seed": (
        {"plan.json": json.dumps({
            "trains": {"a": str(DATA_DIR / "v1_parse.xml")},
            "evals": {"a": str(DATA_DIR / "v1_parse.xml")},
            "sizes": [1], "seed": -1, "out_dir": "never-written",
        }).encode()},
        ["curve", "{d}/plan.json"], 1, "seed",
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
    "train_window_past_max": (
        {"c.xml": GOOD_CORPUS},
        ["train", "{d}/c.xml", "--model", "{d}/out.gz", "--window", str(MAX_WINDOW + 1)],
        1, "window",
    ),
    "train_gazetteer_dir_without_lists": (
        {"c.xml": GOOD_CORPUS},
        ["train", "{d}/c.xml", "--model", "{d}/out.gz", "--gazetteer-dir", "{d}"],
        1, ".txt",
    ),
    "train_no_gazetteers_with_gazetteer_dir": (
        {"c.xml": GOOD_CORPUS, "g.txt": b"vol\n"},
        ["train", "{d}/c.xml", "--model", "{d}/out.gz", "--no-gazetteers",
         "--gazetteer-dir", "{d}"],
        1, "--no-gazetteers and --gazetteer-dir",
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


@pytest.mark.parametrize(
    "key, value, altsep",
    [
        ("evals", "x/y", None),
        ("trains", "a\0b", None),
        ("evals", "x\\y", "\\"),
        ("out_dir", "o\0ut", None),
    ],
    ids=["name_with_sep", "name_with_nul", "name_with_altsep", "out_dir_with_nul"],
)
def test_plan_that_cannot_name_its_files_is_a_usage_error(
    key, value, altsep, tmp_path, capsys, monkeypatch
):
    # the names become parts of output file names; a platform without a
    # second separator gets one for the altsep case
    if altsep:
        monkeypatch.setattr("refparse.experiments.os.altsep", altsep)
    corpus = str(DATA_DIR / "v1_parse.xml")
    plan = {"trains": {"a": corpus}, "evals": {"a": corpus}, "out_dir": str(tmp_path / "out")}
    plan[key] = str(tmp_path / value) if key == "out_dir" else {value: corpus}
    (tmp_path / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
    assert run(["matrix", str(tmp_path / "plan.json")]) == 1
    err = capsys.readouterr().err
    assert f"usage error: plan {key}" in err and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["plan.json"]


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


def test_plan_repeating_a_size_writes_nothing(tmp_path, capsys):
    corpus = str(DATA_DIR / "v1_parse.xml")
    plan = {"trains": {"a": corpus}, "evals": {"a": corpus}, "sizes": [2, 2],
            "out_dir": str(tmp_path / "out")}
    (tmp_path / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
    assert run(["curve", str(tmp_path / "plan.json")]) == 1
    err = capsys.readouterr().err
    assert "sizes must be strictly ascending, got [2, 2]" in err and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["plan.json"]


def test_plan_naming_a_missing_corpus_writes_nothing(tmp_path, capsys):
    corpus = tmp_path / "c.xml"
    corpus.write_bytes(GOOD_CORPUS * 4)
    out_dir = tmp_path / "out"
    for key in ("trains", "evals"):
        plan = {
            "trains": {"a": str(corpus)},
            "evals": {"a": str(corpus)},
            "sizes": [2],
            "keep_labels": ["author"],
            "out_dir": str(out_dir),
        }
        plan[key]["a"] = str(tmp_path / "gone.xml")
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        for command in ("matrix", "curve", "ablation"):
            assert run([command, str(plan_path)]) == 1
            err = capsys.readouterr().err
            assert f"{key}['a']" in err and "gone.xml" in err and "Traceback" not in err
            assert not out_dir.exists()


def test_v1_model_file_still_loads(tmp_path):
    """v1_model.gz is a refparse-model-v1 file written by an earlier refparse,
    whose tokenizer and affix/shape templates were still options:
    `generate --records records_100.jsonl --styles builtin --n 12 --seed 1`,
    `filter --keep author,title,date,pages`, then `train` with default flags.
    v1_parse.xml is that refparse's `parse` output on v1_refs.txt."""
    model_path = DATA_DIR / "v1_model.gz"
    out = tmp_path / "parsed.xml"
    refs = DATA_DIR / "v1_refs.txt"
    assert run(["parse", "--model", str(model_path), "--in", str(refs), "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA_DIR / "v1_parse.xml").read_bytes()
    save_model(rp.load_model(model_path), tmp_path / "again.gz")
    assert (tmp_path / "again.gz").read_bytes() == model_path.read_bytes()


@pytest.mark.parametrize("out_format", ["inline", "conll"])
def test_parse_across_chunks_matches_line_by_line_decode(
    out_format, tmp_path, small_model_and_eval, monkeypatch
):
    model, eval_c = small_model_and_eval
    model_path = tmp_path / "model.gz"
    save_model(model, model_path)
    refs = [inst.raw for inst in eval_c.instances[:10]]
    text = "\n".join(["", refs[0], "  ", *refs[1:4], "", f"  {refs[4]} ", *refs[5:], ""])
    (tmp_path / "refs.txt").write_text(text + "\n", encoding="utf-8")
    monkeypatch.setattr(crf, "_DECODE_CHUNK", 3)
    # parse holds one chunk of references at a time
    calls = []

    def decode_many(model, raws):
        calls.append(len(raws))
        return crf.decode_many(model, raws)

    monkeypatch.setattr(cli, "decode_many", decode_many)
    out = tmp_path / "parsed.txt"
    assert run(["parse", "--model", str(model_path), "--in", str(tmp_path / "refs.txt"),
                "--out", str(out), "--format", out_format]) == 0
    assert calls == [3, 3, 3, 1]
    want = []
    for ref in refs:
        inst = rp.decode(model, ref)
        if out_format == "inline":
            want.append(format_inline_xml(inst))
        else:
            want += [f"{t.surface}\t{tag}" for t, tag in zip(inst.tokens, inst.tags)] + [""]
    assert out.read_bytes() == ("\n".join(want) + "\n").encode("utf-8")


@pytest.mark.parametrize("source", ["in", "stdin"])
@pytest.mark.parametrize("out_format", ["inline", "conll"])
def test_parse_line_ends_only_at_newline_and_carriage_return(
    out_format, source, tmp_path, small_model_and_eval, monkeypatch
):
    model, eval_c = small_model_and_eval
    model_path = tmp_path / "model.gz"
    save_model(model, model_path)
    # breaks that str.splitlines knows but universal-newline reading does not
    breaks = ["\x0c", "\x85", "\u2028", "\u2029", "\x0b", "\x1c"]
    refs = [inst.raw.replace(" ", brk, 2) for inst, brk in zip(eval_c.instances, breaks)]
    text = "".join(ref + end for ref, end in zip(refs, ["\n", "\r\n", "\r"] * 2))
    argv = ["parse", "--model", str(model_path), "--format", out_format]
    if source == "in":
        (tmp_path / "refs.txt").write_bytes(text.encode("utf-8"))
        argv += ["--in", str(tmp_path / "refs.txt")]
    else:
        monkeypatch.setattr("sys.stdin", io.StringIO(text, newline=""))
    out = tmp_path / "parsed.txt"
    assert run(argv + ["--out", str(out)]) == 0
    format_one = format_inline_xml if out_format == "inline" else format_conll
    want = "".join(format_one(rp.decode(model, ref)) + "\n" for ref in refs)
    assert out.read_bytes() == want.encode("utf-8")


def test_parse_checks_each_line_iob2_once(tmp_path, small_model_and_eval, monkeypatch):
    model, eval_c = small_model_and_eval
    model_path = tmp_path / "model.gz"
    save_model(model, model_path)
    refs = tmp_path / "refs.txt"
    refs.write_text("".join(inst.raw + "\n" for inst in eval_c.instances[:20]), encoding="utf-8")
    calls = []

    def counting_check(tags):
        calls.append(tuple(tags))
        return check_iob2(tags)

    monkeypatch.setattr(labels, "check_iob2", counting_check)
    assert run(["parse", "--model", str(model_path), "--in", str(refs),
                "--out", str(tmp_path / "parsed.xml")]) == 0
    assert len(calls) == 20


@pytest.mark.parametrize("text", ["", "\n  \n\t\n"], ids=["empty", "blank"])
@pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
@pytest.mark.parametrize("out_format", ["inline", "conll"])
def test_parse_without_reference_lines_writes_nothing(
    out_format, to_file, text, tmp_path, capsys
):
    model_path = tmp_path / "m.gz"
    save_model(empty_model(["author"], FeatureIndex(names=("f0",)), FeatureConfig()), model_path)
    refs, out = tmp_path / "refs.txt", tmp_path / "parsed.txt"
    refs.write_text(text, encoding="utf-8")
    argv = ["parse", "--model", str(model_path), "--in", str(refs), "--format", out_format]
    assert run(argv + (["--out", str(out)] if to_file else [])) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == b"" if to_file else not out.exists()


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


def test_tokenize_lines_end_only_at_newline_and_carriage_return(tmp_path, capsys):
    src = tmp_path / "in.txt"
    src.write_bytes("a\x0cb\u2028c\rd\r\ne\n".encode("utf-8"))
    assert run(["tokenize", "--in", str(src)]) == 0
    assert capsys.readouterr().out == "a\t0\t1\nb\t2\t3\nc\t4\t5\n\nd\t0\t1\n\ne\t0\t1\n\n"


def test_line_breaks_in_record_text_survive_generate_and_train(tmp_path):
    records = [
        dataclasses.replace(r, title=r.title.replace(" ", "\n", 1).replace(" ", "\r", 1))
        for r in rp.random_records(20, seed=3)
    ]
    records_path, corpus, model = tmp_path / "r.jsonl", tmp_path / "c.xml", tmp_path / "m.gz"
    rp.write_records(records, records_path)
    assert run(["generate", "--records", str(records_path), "--styles", "builtin:B",
                "--n", "30", "--seed", "5", "--out", str(corpus)]) == 0
    assert run(["train", str(corpus), "--model", str(model),
                "--max-epochs", "5", "--tol", "1e-2"]) == 0
    got = rp.read_corpus(corpus).instances
    assert len(got) == 30
    assert any("title" in inst.fields() for inst in got)
