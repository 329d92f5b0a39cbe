import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import refparse as rp
from refparse.corpus import Corpus, format_conll, format_inline_xml, observed_labels
from refparse.errors import DataError, UsageError
from refparse.labels import segments_from_tags

FIG1_LINE = "<author>C. Lemke</author>, <title>Metalearning</title>."


def write(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestInlineXml:
    def test_figure_style_line(self, tmp_path):
        corpus = rp.read_inline_xml(write(tmp_path / "c.xml", [FIG1_LINE]))
        (inst,) = corpus.instances
        assert inst.raw == "C. Lemke, Metalearning."
        segs = segments_from_tags(inst.tags, inst.tokens)
        assert [(s.field, s.text) for s in segs] == [
            ("author", "C . Lemke"),
            ("title", "Metalearning"),
        ]
        # trailing "." and the ", " separator are outside all fields
        assert inst.tags[-1] == "O"

    def test_untagged_line_is_all_o(self, tmp_path):
        corpus = rp.read_inline_xml(write(tmp_path / "c.xml", ["no tags here."]))
        assert set(corpus.instances[0].tags) == {"O"}

    def test_nested_tags_rejected(self, tmp_path):
        path = write(tmp_path / "c.xml", ["<title>a <note>bad</note> nest</title>"])
        with pytest.raises(DataError, match="line 1"):
            rp.read_inline_xml(path)

    def test_unknown_tag_rejected(self, tmp_path):
        path = write(tmp_path / "c.xml", ["<doi>x</doi>"])
        with pytest.raises(DataError, match="line 1"):
            rp.read_inline_xml(path)

    def test_unbalanced_rejected(self, tmp_path):
        path = write(tmp_path / "c.xml", ["<author>unclosed"])
        with pytest.raises(DataError):
            rp.read_inline_xml(path)
        path2 = write(tmp_path / "d.xml", ["stray</author>"])
        with pytest.raises(DataError):
            rp.read_inline_xml(path2)

    def test_entities_round_trip(self, tmp_path):
        line = "<title>Food &amp; Drink &lt;today&gt;</title>."
        corpus = rp.read_inline_xml(write(tmp_path / "c.xml", [line]))
        assert corpus.instances[0].raw == "Food & Drink <today>."
        out = tmp_path / "o.xml"
        rp.write_inline_xml(corpus, out)
        again = rp.read_inline_xml(out)
        assert again.instances == corpus.instances

    def test_ref_block_spanning_lines(self, tmp_path):
        path = write(
            tmp_path / "c.xml",
            ["<ref><author>A. B</author>,", "<title>T</title>.</ref>"],
        )
        corpus = rp.read_inline_xml(path)
        (inst,) = corpus.instances
        assert inst.fields() == {"author", "title"}

    def test_hash_line_inside_ref_block_belongs_to_it(self, tmp_path):
        path = write(
            tmp_path / "c.xml", ["<ref><author>Smith</author>,", "#3 2019.</ref>", "Doe 2020."]
        )
        back = rp.read_inline_xml(path).instances
        assert [inst.raw for inst in back] == ["Smith, #3 2019.", "Doe 2020."]
        assert back[0].tags == ("B-author", "O", "O", "O", "O", "O")

    @pytest.mark.parametrize("opening,closing", [("<REF>", "</REF>"), ("<Ref>", "</rEf>")])
    def test_ref_block_tags_in_any_case(self, tmp_path, opening, closing):
        # the line parser reads tag names in any case, so the block test must too
        path = write(tmp_path / "c.xml", [f"{opening}<author>Smith</author>,", f"2019.{closing}"])
        (inst,) = rp.read_inline_xml(path).instances
        assert (inst.raw, inst.tags) == ("Smith, 2019.", ("B-author", "O", "O", "O"))

    def test_labels_header_declares_subset(self, tmp_path):
        path = write(tmp_path / "c.xml", ["#labels: author,title,date", FIG1_LINE])
        corpus = rp.read_inline_xml(path)
        assert corpus.labels == ("author", "title", "date")

    def test_instance_outside_declared_subset_rejected(self, tmp_path):
        path = write(tmp_path / "c.xml", ["#labels: author", FIG1_LINE])
        with pytest.raises(DataError):
            rp.read_inline_xml(path)

    def test_empty_file_is_empty_corpus(self, tmp_path):
        corpus = rp.read_inline_xml(write(tmp_path / "c.xml", [""]))
        assert len(corpus) == 0

    def test_write_read_write_fixpoint(self, tmp_path, fixture_records):
        corpus = rp.generate_corpus(
            fixture_records[:20], rp.style_family("A")[:4], n=40, seed=3
        )
        p1, p2 = tmp_path / "a.xml", tmp_path / "b.xml"
        rp.write_inline_xml(corpus, p1)
        rp.write_inline_xml(rp.read_inline_xml(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestConll:
    def test_figure_example_tokens_and_tags(self, tmp_path):
        corpus = rp.read_inline_xml(write(tmp_path / "c.xml", [FIG1_LINE]))
        out = tmp_path / "c.conll"
        rp.write_conll(corpus, out)
        body = [
            line
            for line in out.read_text(encoding="utf-8").splitlines()
            if line and not line.startswith("#")
        ]
        tokens = [line.split("\t")[0] for line in body]
        tags = [line.split("\t")[1] for line in body]
        assert tokens == [t.surface for t in rp.tokenize("C. Lemke, Metalearning.")]
        assert tags.count("B-author") + tags.count("B-title") == 2
        assert tags == ["B-author", "I-author", "I-author", "O", "B-title", "O"]

    def test_round_trip_fixpoint(self, tmp_path, fixture_records):
        corpus = rp.generate_corpus(
            fixture_records[:15], rp.style_family("B")[:3], n=30, seed=4
        )
        p1, p2 = tmp_path / "a.conll", tmp_path / "b.conll"
        rp.write_conll(corpus, p1)
        rp.write_conll(rp.read_conll(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_malformed_tag_names_line(self, tmp_path):
        path = write(tmp_path / "c.conll", ["word\tB-bogus", ""])
        with pytest.raises(DataError, match="line 1"):
            rp.read_conll(path)

    def test_malformed_row_names_line(self, tmp_path):
        path = write(tmp_path / "c.conll", ["word B-author", ""])
        with pytest.raises(DataError, match="line 1"):
            rp.read_conll(path)

    def test_empty_corpus_writes_header_only(self, tmp_path):
        corpus = Corpus(name="e", labels=("author",), instances=())
        out = tmp_path / "e.conll"
        rp.write_conll(corpus, out)
        assert out.read_text(encoding="utf-8") == "#labels: author\n"

    def test_hash_token_lines_are_tokens(self, tmp_path):
        path = write(tmp_path / "c.conll", [
            "#labels: author,volume",
            "# a comment",
            "Smith\tB-author", "vol\tO", "#\tO", "3\tB-volume", "",
            "#\tB-volume", "#not-a-tag\tB-bogus", "3\tI-volume", "",
        ])
        corpus = rp.read_conll(path)
        assert corpus.labels == ("author", "volume")
        assert [(i.surfaces(), i.tags) for i in corpus.instances] == [
            (("Smith", "vol", "#", "3"), ("B-author", "O", "O", "B-volume")),
            (("#", "3"), ("B-volume", "I-volume")),
        ]

    def test_reference_without_tokens_cannot_be_written(self, tmp_path):
        blank = rp.LabeledReference(raw=" ", tokens=(), tags=())
        corpus = Corpus(name="c", labels=(), instances=(blank,))
        with pytest.raises(UsageError, match="no tokens"):
            format_conll(blank)
        with pytest.raises(UsageError, match="no tokens"):
            rp.write_corpus(corpus, tmp_path / "c.conll")
        assert not (tmp_path / "c.conll").exists()


class TestSplit:
    def _corpus(self, n):
        instances = []
        for i in range(n):
            raw = f"ref {i}"
            tokens = rp.tokenize(raw)
            instances.append(
                rp.LabeledReference(raw=raw, tokens=tokens, tags=("O",) * len(tokens))
            )
        return Corpus(name="c", labels=("author",), instances=tuple(instances))

    def test_paper_split_sizes(self):
        train, evals = rp.split(self._corpus(7800), 0.7, seed=7)
        assert (len(train), len(evals)) == (5460, 2340)

    def test_tiny_split(self):
        train, evals = rp.split(self._corpus(2), 0.5, seed=1)
        assert (len(train), len(evals)) == (1, 1)

    def test_same_seed_identical(self):
        c = self._corpus(50)
        a = rp.split(c, 0.7, seed=3)
        b = rp.split(c, 0.7, seed=3)
        assert a == b

    def test_partition_is_permutation(self):
        c = self._corpus(37)
        train, evals = rp.split(c, 0.33, seed=11)
        combined = sorted(i.raw for i in train.instances + evals.instances)
        assert combined == sorted(i.raw for i in c.instances)

    def test_bad_inputs(self):
        with pytest.raises(UsageError):
            rp.split(self._corpus(5), 1.5, seed=0)
        with pytest.raises(UsageError):
            rp.split(self._corpus(0), 0.5, seed=0)


class TestFilterFields:
    def _corpus(self, tmp_path):
        line = (
            "<author>A. B</author>. <title>T</title>. "
            "<location>Boston</location>: <publisher>MIT Press</publisher>."
        )
        return rp.read_inline_xml(write(tmp_path / "filter.xml", [line]))

    def test_keep_all_is_identity(self, tmp_path):
        c = self._corpus(tmp_path)
        assert rp.filter_fields(c, c.labels).instances == c.instances

    def test_removed_fields_become_o(self, tmp_path):
        c = self._corpus(tmp_path)
        kept = rp.filter_fields(c, ("author", "title", "publisher"))
        (inst,) = kept.instances
        assert inst.fields() == {"author", "title", "publisher"}
        # surviving tags identical to the original
        orig = c.instances[0]
        for got, was in zip(inst.tags, orig.tags):
            if was != "O" and "location" not in was:
                assert got == was

    def test_all_removed_instance_retained(self, tmp_path):
        c = self._corpus(tmp_path)
        kept = rp.filter_fields(c, ("date",))
        assert len(kept) == 1
        assert set(kept.instances[0].tags) == {"O"}
        assert kept.labels == ("date",)

    def test_empty_keep_rejected(self, tmp_path):
        with pytest.raises(UsageError):
            rp.filter_fields(self._corpus(tmp_path), ())


class TestSample:
    def _corpus(self, n=20):
        instances = tuple(
            rp.LabeledReference(
                raw=f"r {i}",
                tokens=rp.tokenize(f"r {i}"),
                tags=("O", "O"),
            )
            for i in range(n)
        )
        return Corpus(name="c", labels=("author",), instances=instances)

    def test_full_sample_is_permutation(self):
        c = self._corpus()
        s = rp.sample(c, len(c), seed=2)
        assert sorted(i.raw for i in s.instances) == sorted(i.raw for i in c.instances)

    def test_single_stable(self):
        c = self._corpus()
        assert rp.sample(c, 1, seed=5) == rp.sample(c, 1, seed=5)

    def test_without_replacement(self):
        c = self._corpus()
        s = rp.sample(c, 15, seed=1)
        assert len({i.raw for i in s.instances}) == 15

    def test_overdraw_rejected(self):
        with pytest.raises(UsageError):
            rp.sample(self._corpus(5), 6, seed=0)


def test_observed_labels_in_canonical_order(tmp_path):
    line = "<date>2001</date> <author>A</author>"
    p = tmp_path / "c.xml"
    p.write_text(line + "\n", encoding="utf-8")
    corpus = rp.read_inline_xml(p)
    assert corpus.labels == ("author", "date")


def test_format_inline_xml_escapes(tmp_path):
    inst = rp.LabeledReference(
        raw="a & b",
        tokens=rp.tokenize("a & b"),
        tags=("B-title", "I-title", "I-title"),
    )
    assert format_inline_xml(inst) == "<title>a &amp; b</title>"


# words the tokenizer splits in several ways, with the characters the format
# escapes, and words opening with "#", which starts a comment line
_WORDS = st.lists(
    st.sampled_from(
        ["Smith", "J.", "2019", "(3):", "a&b", "<title>", "x&lt;y", "Über", "pp.1-4",
         "#1", "#", "#labels:"]
    ),
    min_size=1,
    max_size=8,
)


def _tagged(data, raw):
    """`raw` tokenized, with IOB2 tags drawn at random."""
    tokens = rp.tokenize(raw)
    # per token a field or None for O, and whether it opens a new run
    choices = data.draw(st.lists(
        st.tuples(st.sampled_from([None, "author", "title"]), st.booleans()),
        min_size=len(tokens), max_size=len(tokens),
    ))
    tags, prev = [], None
    for field, begin in choices:
        kind = "B" if begin or prev != field else "I"
        tags.append("O" if field is None else f"{kind}-{field}")
        prev = field
    return rp.LabeledReference(raw=raw, tokens=tokens, tags=tuple(tags))


@given(_WORDS, st.data())
def test_format_inline_xml_reads_back_to_the_same_tags(tmp_path_factory, words, data):
    raw = " ".join(words)
    inst = _tagged(data, raw)
    path = tmp_path_factory.getbasetemp() / "round_trip.xml"
    path.write_text(format_inline_xml(inst) + "\n", encoding="utf-8")
    (back,) = rp.read_inline_xml(path).instances
    assert (back.raw, back.tags) == (raw, inst.tags)


def test_reference_starting_with_hash_survives_a_corpus_round_trip(tmp_path):
    # first tokens tagged O, so no field tag opens the line
    refs = {
        "#1 Smith, 2019.": ("O", "O", "B-author", "O", "O", "O"),
        " # Jones": ("O", "B-author"),
        "Doe #2": ("O", "B-author", "I-author"),
    }
    instances = [
        rp.LabeledReference(raw=raw, tokens=rp.tokenize(raw), tags=tags)
        for raw, tags in refs.items()
    ]
    corpus = Corpus(name="c", labels=("author",), instances=tuple(instances))
    path = tmp_path / "hash.xml"
    rp.write_corpus(corpus, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[1:] == [
        "<ref>#1 <author>Smith</author>, 2019.</ref>",
        "<ref> # <author>Jones</author></ref>",
        "Doe <author>#2</author>",
    ]
    back = rp.read_corpus(path)
    assert [(i.raw, i.tags) for i in back.instances] == [(i.raw, i.tags) for i in instances]


# any text, mixed with words that hold a comment's "#" or a line break
_RAW = st.lists(
    st.one_of(st.text(), st.sampled_from(["#", "#3", "a\nb", "\r", "\r\n#", "x\n\n", "#\r"])),
    max_size=6,
).map("".join)


@pytest.mark.parametrize("suffix", ["xml", "conll"])
@given(raw=_RAW, data=st.data())
def test_every_written_reference_reads_back(tmp_path_factory, suffix, raw, data):
    inst = _tagged(data, raw)
    if suffix == "conll":
        assume(inst.tokens)  # CoNLL cannot hold a reference with no tokens
    path = tmp_path_factory.getbasetemp() / f"any_text.{suffix}"
    rp.write_corpus(Corpus(name="c", labels=("author", "title"), instances=(inst,)), path)
    (back,) = rp.read_corpus(path).instances
    assert (back.surfaces(), back.tags) == (inst.surfaces(), inst.tags)
    if suffix == "xml":
        assert back.raw.split() == raw.split()


@pytest.mark.parametrize(
    "call,shows",
    [(lambda c: rp.split(c, 10**5000, seed=0), "split ratio must be in \\(0, 1\\), got an int"),
     (lambda c: rp.split(c, 0.5, seed=-10**5000), "seed must be >= 0, got a negative int"),
     (lambda c: rp.sample(c, 10**5000, seed=0), "sample size an int")],
    ids=["split_ratio", "split_seed", "sample_size"],
)
def test_an_int_too_long_for_text_is_a_usage_error(call, shows):
    inst = rp.LabeledReference(raw="Smith", tokens=(rp.Token("Smith", 0, 5),), tags=("B-author",))
    corpus = Corpus(name="c", labels=("author",), instances=(inst, inst))
    with pytest.raises(UsageError, match=f"^{shows} of 5001 digits"):
        call(corpus)
