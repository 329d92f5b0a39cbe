import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
import refparse as rp
from refparse.errors import TemplateError, UsageError
from refparse.labels import check_iob2, normalize_segment_text
from refparse.synthgen import (
    SLOT_NAMES,
    StyleTemplate,
    format_authors,
    Group,
    Literal,
    Slot,
    parse_style_text,
    parse_template,
    record_from_dict,
)
from refparse.tokenizer import tags_from_spans, tokenize

from conftest import FIGURE1_RECORD, FIGURE1_TEXT

AUTHORS3 = (("C", "Lemke"), ("M", "Budka"), ("B", "Gabrys"))


def style(**kw) -> StyleTemplate:
    kw.setdefault("name", "t")
    kw.setdefault("elements", parse_template(kw.pop("format", "<title>")))
    return StyleTemplate(**kw)


class TestFormatAuthors:
    def test_family_first_initials_with_conjunction(self):
        s = style(
            name_order="family-first",
            initials="dotted",
            author_sep=", ",
            author_final=" and ",
        )
        assert format_authors(AUTHORS3, s) == "Lemke, C., Budka, M. and Gabrys, B."

    def test_single_author_has_no_delimiters(self):
        s = style(author_sep=", ", author_final=" and ")
        assert format_authors((("C", "Lemke"),), s) == "Lemke, C."

    def test_et_al_truncation(self):
        s = style(name_order="given-first", et_al_min=1, et_al_marker="et al.")
        assert format_authors(AUTHORS3, s) == "C. Lemke et al."

    def test_empty_author_list_rejected(self):
        with pytest.raises(UsageError):
            format_authors((), style())

    def test_plain_initials_and_bare_family(self):
        s = style(name_order="family-bare", initials="plain")
        assert format_authors((("Christiane", "Lemke"),), s) == "Lemke C"

    def test_full_given_names(self):
        s = style(name_order="given-first", initials="no")
        assert format_authors((("Christiane", "Lemke"),), s) == "Christiane Lemke"


class TestTemplateParsing:
    def test_literals_slots_groups(self):
        elems = parse_template("<author>, [vol. <volume>].")
        kinds = [type(e).__name__ for e in elems]
        assert kinds == ["Slot", "Literal", "Group", "Literal"]

    def test_escapes(self):
        (lit,) = parse_template(r"\<not a slot\]")
        assert lit.text == "<not a slot]"

    def test_unknown_slot(self):
        with pytest.raises(TemplateError):
            parse_template("<doi>")

    def test_unbalanced(self):
        with pytest.raises(TemplateError):
            parse_template("[<title>")
        with pytest.raises(TemplateError):
            parse_template("<title>]")

    def test_depth_limit(self):
        parse_template("[a[b<title>]]")  # depth 2 is fine
        with pytest.raises(TemplateError):
            parse_template("[a[b[c<title>]]]")

    def test_adjacent_text_and_escapes_merge_into_one_literal(self):
        assert parse_template("a\\<b\\[c") == (Literal("a<b[c"),)
        assert parse_template("x\\") == (Literal("x\\"),)  # a lone final backslash is text

    def test_error_messages(self):
        for fmt, message in [
            ("ab<title", "<template>: unterminated slot at column 2"),
            ("<title> <doi>", "<template>: unknown slot <doi>"),
            ("[[[", "<template>: groups nest at most two deep"),
            ("<title>]", "<template>: unbalanced ']'"),
            ("[<title>", "<template>: unclosed '['"),
        ]:
            with pytest.raises(TemplateError) as err:
                parse_template(fmt)
            assert str(err.value) == message

    def test_style_file_values(self):
        tmpl = parse_style_text(
            'name: x\nauthor-sep: ", "\net-al-min: 3\nformat: <title>\n'
        )
        assert tmpl.author_sep == ", "
        assert tmpl.et_al_min == 3

    def test_style_file_requires_name_and_format(self):
        with pytest.raises(TemplateError):
            parse_style_text("name: x\n")
        with pytest.raises(TemplateError):
            parse_style_text("format: <title>\n")

    def test_style_file_sets_every_field(self):
        text = (
            "# every key of the style-file schema\n"
            "name: full\nfamily: Z\nname-order: given-first\ninitials: plain\n"
            'author-sep: "; "\nauthor-final: " & "\net-al-min: 4\n'
            "et-al-marker: et al\ndate-style: parenthesized\ntitle-case: sentence\n"
            'pages-sep: "--"\nformat: <author>[, <pages>].\n'
        )
        assert parse_style_text(text) == StyleTemplate(
            name="full",
            elements=(Slot("author"), Group((Literal(", "), Slot("pages"))), Literal(".")),
            family="Z",
            name_order="given-first",
            initials="plain",
            author_sep="; ",
            author_final=" & ",
            et_al_min=4,
            et_al_marker="et al",
            date_style="parenthesized",
            title_case="sentence",
            pages_sep="--",
        )

    def test_style_file_defaults_are_the_dataclass_defaults(self):
        assert parse_style_text("name: x\nformat: <title>\n") == style(name="x")

    def test_initials_yes_means_dotted(self):
        tmpl = parse_style_text("name: x\ninitials: yes\nformat: <title>\n")
        assert tmpl.initials == "dotted"

    @pytest.mark.parametrize(
        "line",
        ["colour: red", "elements: <title>", "name_order: given-first",
         "name-order: surname-first", "initials: none", "et-al-min: three",
         "et-al-min: -2"],
    )
    def test_style_file_bad_line(self, line):
        with pytest.raises(TemplateError):
            parse_style_text(f"name: x\n{line}\nformat: <title>\n")


class TestRender:
    def test_figure_record_ieee_shape(self):
        ieee = next(s for s in rp.builtin_styles() if s.name == "b-ieee")
        out = rp.render(FIGURE1_RECORD, ieee)
        assert out.text == FIGURE1_TEXT
        assert {f for f, _, _ in out.spans} == {
            "author", "title", "journal", "volume", "issue", "pages", "date",
        }
        for f, a, b in out.spans:
            assert out.text[a:b], f"empty span for {f}"

    def test_missing_volume_group_vanishes(self):
        s = style(format="<title>[, vol. <volume>].")
        rec = rp.BibRecord(authors=(), title="T", year=2000)
        out = rp.render(rec, s)
        assert out.text == "T."

    def test_group_of_groups_vanishes_with_its_groups(self):
        # no slot directly inside the outer group, so it needs a nested one
        s = style(format="<title>[, [vol. <volume>][no. <issue>]].")
        rec = rp.BibRecord(authors=(), title="T", year=2000)
        assert rp.render(rec, s).text == "T."
        rec = rp.BibRecord(authors=(), title="T", year=2000, issue="4")
        assert rp.render(rec, s).text == "T, no. 4."

    def test_group_with_a_slot_renders_without_its_groups(self):
        s = style(format="[<title>[, vol. <volume>]].")
        assert rp.render(rp.BibRecord(authors=(), title="T", year=2000), s).text == "T."

    def test_bare_slot_missing_is_template_error(self):
        s = style(format="<title>, vol. <volume>.")
        rec = rp.BibRecord(authors=(), title="T", year=2000)
        with pytest.raises(TemplateError):
            rp.render(rec, s)

    def test_deterministic(self):
        s = rp.builtin_styles()[0]
        assert rp.render(FIGURE1_RECORD, s) == rp.render(FIGURE1_RECORD, s)

    def test_container_kind_routes_label(self):
        s = style(format="<title>. [<container>.]")
        rec_j = rp.BibRecord(authors=(), title="T", year=2000, container="J")
        rec_p = rp.BibRecord(
            authors=(), title="T", year=2000, container="P",
            container_kind="proceedings",
        )
        assert {f for f, _, _ in rp.render(rec_j, s).spans} == {"title", "journal"}
        assert {f for f, _, _ in rp.render(rec_p, s).spans} == {"title", "booktitle"}

    def test_kind_specific_slot_absent_for_other_kind(self):
        s = style(format="<title>.[ In <booktitle>.][ <journal>.]")
        rec_j = rp.BibRecord(authors=(), title="T", year=2000, container="J")
        assert rp.render(rec_j, s).text == "T. J."

    def test_parenthesized_date_span_excludes_parens(self):
        s = style(format="<title> <date>.", date_style="parenthesized")
        rec = rp.BibRecord(authors=(), title="T", year=1999)
        out = rp.render(rec, s)
        assert out.text == "T (1999)."
        (_, a, b) = next(sp for sp in out.spans if sp[0] == "date")
        assert out.text[a:b] == "1999"

    def test_sentence_case(self):
        s = style(format="<title>", title_case="sentence")
        rec = rp.BibRecord(authors=(), title="A Survey OF Things", year=2000)
        assert rp.render(rec, s).text == "A survey of things"

    def test_per_author_mode_spans(self):
        s = style(format="<author>: <title>.")
        rec = rp.BibRecord(authors=AUTHORS3, title="T", year=2000)
        one = rp.render(rec, s, per_author=False)
        many = rp.render(rec, s, per_author=True)
        assert sum(1 for f, _, _ in one.spans if f == "author") == 1
        assert sum(1 for f, _, _ in many.spans if f == "author") == 3


# format-string pieces: every special character, escapes, valid and unknown
# slots, and text
_PIECES = st.sampled_from(
    ["<", ">", "[", "]", "\\", "\\<", "\\[", "\\]", "\\\\", "<doi>", "<>", "<ti tle>",
     *(f"<{name}>" for name in sorted(SLOT_NAMES))]
) | st.text(max_size=4)


def _outcome(call):
    try:
        return call()
    except TemplateError as exc:
        return f"TemplateError: {exc}"


@given(fmt=st.lists(_PIECES, max_size=12).map("".join))
def test_parse_template_matches_the_reference(fmt):
    assert _outcome(lambda: parse_template(fmt)) == _outcome(lambda: oracles.parse_template(fmt))


def _formats(depth: int = 0):
    """Format strings that parse: pieces without brackets, and groups."""
    atoms = st.sampled_from(
        ["\\[", "\\]", ", ", ". ", "(", ")", *(f"<{name}>" for name in sorted(SLOT_NAMES))]
    ) | st.text(alphabet=" ,.;:()-abc", max_size=3)
    if depth < 2:
        atoms = atoms | _formats(depth + 1).map(lambda inner: f"[{inner}]")
    return st.lists(atoms, max_size=6).map("".join)


@given(fmt=_formats())
def test_render_matches_the_reference(fmt, fixture_records):
    s = style(format=fmt)
    for record in fixture_records:
        for per_author in (False, True):
            ours = _outcome(lambda: rp.render(record, s, per_author=per_author))
            if not isinstance(ours, str):
                ours = ours.text, ours.spans
            assert ours == _outcome(lambda: oracles.render(record, s, per_author=per_author))


@pytest.mark.parametrize("separator", ["\x85", "\x0c", "\u2028"])
def test_style_lines_end_only_at_line_breaks(separator):
    # a line ends at "\n", "\r" or "\r\n" only, as corpus lines do
    text = f"name: x\nauthor-sep: a{separator}b\nformat: <title>{separator}<date>\n"
    tmpl = parse_style_text(text)
    assert tmpl.author_sep == f"a{separator}b"
    assert tmpl.elements == (Slot("title"), Literal(separator), Slot("date"))
    assert parse_style_text("name: x\rformat: <title>\r\n") == style(name="x")


class TestBuiltinStyles:
    def test_at_least_24_in_two_disjoint_families(self):
        styles = rp.builtin_styles()
        assert len(styles) >= 24
        names = [s.name for s in styles]
        assert len(set(names)) == len(names)
        a = {s.name for s in styles if s.family == "A"}
        b = {s.name for s in styles if s.family == "B"}
        assert a and b and not (a & b)
        assert len(a) + len(b) == len(styles)

    def test_every_style_renders_figure_record(self):
        for s in rp.builtin_styles():
            out = rp.render(FIGURE1_RECORD, s)
            assert out.text
            tokens = tokenize(out.text)
            check_iob2(tags_from_spans(tokens, out.spans))


class TestGenerateCorpus:
    def test_single_pair_matches_render(self, fixture_records):
        s = rp.style_family("A")[0]
        corpus = rp.generate_corpus(fixture_records[:1], [s], n=1, seed=0)
        assert corpus.instances[0].raw == rp.render(fixture_records[0], s).text

    def test_same_seed_identical(self, fixture_records):
        styles = rp.style_family("B")[:3]
        c1 = rp.generate_corpus(fixture_records, styles, n=50, seed=9)
        c2 = rp.generate_corpus(fixture_records, styles, n=50, seed=9)
        assert c1 == c2

    def test_pairs_are_distinct(self, fixture_records):
        styles = rp.style_family("A")[:2]
        corpus = rp.generate_corpus(fixture_records[:10], styles, n=20, seed=1)
        assert len({inst.raw for inst in corpus.instances}) == 20

    def test_overdraw_rejected(self, fixture_records):
        styles = rp.style_family("A")[:2]
        with pytest.raises(UsageError):
            rp.generate_corpus(fixture_records[:3], styles, n=7, seed=1)

    def test_round_trip_of_generated_instances(self, fixture_records):
        corpus = rp.generate_corpus(
            fixture_records[:30], rp.builtin_styles(), n=200, seed=13
        )
        for inst in corpus.instances:
            check_iob2(inst.tags)
            segs = rp.segments_from_tags(inst.tags, inst.tokens)
            for seg in segs:
                assert seg.field in corpus.labels


class TestRecordsIO:
    def test_jsonl_round_trip(self, fixture_records, tmp_path):
        path = tmp_path / "r.jsonl"
        rp.write_records(fixture_records, path)
        back = rp.read_records(path)
        assert back == fixture_records

    def test_record_validation(self):
        with pytest.raises(UsageError):
            rp.BibRecord(authors=(), title="", year=2000)
        with pytest.raises(UsageError):
            rp.BibRecord(authors=(), title="T", year=1200)
        with pytest.raises(UsageError):
            rp.BibRecord(authors=(), title="T", year=2000, pages=("30", "20"))

    def test_record_from_dict_passes_record_fields(self):
        data = {
            "authors": [["Ann", "Lee"], {"family": "Roe"}], "title": "T", "year": "2001",
            "container_kind": "proceedings", "pages": [117, "130"], "url": "u",
            "volume": None, "unknown": 1,
        }
        assert record_from_dict(data) == rp.BibRecord(
            authors=(("Ann", "Lee"), ("", "Roe")), title="T", year=2001,
            container_kind="proceedings", pages=("117", "130"), url="u",
        )

    def test_random_records_deterministic(self):
        assert rp.random_records(20, seed=5) == rp.random_records(20, seed=5)
        assert rp.random_records(20, seed=5) != rp.random_records(20, seed=6)


def test_canonical_span_text_matches_segment_text(fixture_records):
    """No separator leakage: spans and derived segments agree textually."""
    for s in rp.builtin_styles()[:6]:
        for rec in fixture_records[:20]:
            out = rp.render(rec, s)
            tokens = tokenize(out.text)
            tags = tags_from_spans(tokens, out.spans)
            segs = rp.segments_from_tags(tags, tokens)
            span_texts = [
                (f, normalize_segment_text(
                    " ".join(t.surface for t in tokenize(out.text[a:b]))
                ))
                for f, a, b in out.spans
            ]
            assert [(g.field, g.text) for g in segs] == span_texts


@pytest.mark.parametrize(
    "call,shows",
    [(lambda r: rp.random_records(-10**5000, seed=0), "record count must be >= 1, got a negative"),
     (lambda r: rp.generate_corpus(r, rp.style_family("A"), n=-10**5000, seed=0),
      "corpus size must be >= 1, got a negative"),
     (lambda r: dataclasses.replace(r[0], year=10**5000), "record year an")],
    ids=["record_count", "corpus_size", "record_year"],
)
def test_an_int_too_long_for_text_is_a_usage_error(call, shows, fixture_records):
    with pytest.raises(UsageError, match=f"^{shows} int of 5001 digits"):
        call(fixture_records)
