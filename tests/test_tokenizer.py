import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from refparse.errors import StructuralError
from refparse.labels import Token, check_iob2
from refparse.tokenizer import tags_from_spans, tokenize


def surfaces(text):
    return [t.surface for t in tokenize(text)]


def test_reference_fragments():
    assert surfaces("pp. 117-130, 2015.") == ["pp", ".", "117", "-", "130", ",", "2015", "."]
    assert surfaces("vol. 44, no. 1") == ["vol", ".", "44", ",", "no", ".", "1"]
    assert surfaces("") == []


def test_digit_letter_boundary():
    assert surfaces("COVID19") == ["COVID", "19"]


def test_punctuation_splitting():
    assert surfaces("117--130") == ["117", "-", "-", "130"]


def test_unicode_kept_verbatim():
    assert surfaces("Müller–Brown") == ["Müller", "–", "Brown"]


@pytest.mark.parametrize(
    "text, expected",
    [
        ("x\u00b2 2\u00b2", ["x", "\u00b2", "2\u00b2"]),  # superscript two is a digit
        ("1\u00bd\u00bd", ["1", "\u00bd", "\u00bd"]),  # one half is numeric, not a digit
        ("1\u0663", ["1\u0663"]),  # Arabic-Indic three is a digit
        ("a\x1cb", ["a", "b"]),  # the file separator is whitespace
        ("a_b", ["a", "_", "b"]),
        ("\u01c5x", ["\u01c5x"]),  # a titlecase letter
        ("e\u0301x", ["e", "\u0301", "x"]),  # a combining mark stands alone
    ],
    ids=[
        "superscript_two",
        "one_half",
        "arabic_indic_three",
        "file_separator",
        "underscore",
        "titlecase_dz",
        "combining_acute",
    ],
)
def test_character_classes(text, expected):
    assert surfaces(text) == expected
    assert tokenize(text) == oracles.tokenize(text)


@settings(max_examples=400)
@given(st.text())
def test_tokenize_matches_character_oracle(text):
    assert tokenize(text) == oracles.tokenize(text)


def test_tokens_are_tokens():
    (token,) = tokenize(" ab ")
    assert type(token) is Token
    assert (token.surface, token.start, token.end) == ("ab", 1, 3)


@given(st.text(max_size=80))
def test_offsets_reconstruct_raw(text):
    tokens = tokenize(text)
    rebuilt = list(text)
    for t in tokens:
        assert text[t.start : t.end] == t.surface
    # non-whitespace is fully covered, in order
    covered = sorted(i for t in tokens for i in range(t.start, t.end))
    expected = [i for i, ch in enumerate(text) if not ch.isspace()]
    assert covered == expected


@given(st.text(max_size=80))
def test_tokenize_deterministic(text):
    assert tokenize(text) == tokenize(text)


def test_tags_from_spans_exact():
    tokens = tokenize("Lemke 2015")
    tags = tags_from_spans(tokens, [("author", 0, 5), ("date", 6, 10)])
    assert tags == ("B-author", "B-date")


def test_tags_from_spans_no_spans():
    tokens = tokenize("a b c")
    assert tags_from_spans(tokens, []) == ("O", "O", "O")


def test_separator_between_spans_is_outside():
    # 50% rule hand-applied on a 3-token fixture: the ". " separator's
    # token overlaps neither span by half its width
    raw = "Lemke. 2015"
    tokens = tokenize(raw)
    assert [t.surface for t in tokens] == ["Lemke", ".", "2015"]
    tags = tags_from_spans(tokens, [("author", 0, 5), ("date", 7, 11)])
    assert tags == ("B-author", "O", "B-date")


def test_half_overlap_counts_as_inside():
    # token "ab" with exactly one of two chars inside the span
    tokens = (Token("ab", 0, 2),)
    assert tags_from_spans(tokens, [("title", 1, 2)]) == ("B-title",)


def test_overlapping_spans_rejected():
    tokens = tokenize("a b")
    with pytest.raises(StructuralError):
        tags_from_spans(tokens, [("title", 0, 2), ("date", 1, 3)])


def test_gap_inside_span_restarts_run():
    # a heavily uncovered middle token splits the covered run; the second
    # run must re-open with B to stay IOB2 well-formed
    tokens = (Token("aa", 0, 2), Token("xxxx", 2, 6), Token("bb", 6, 8))
    tags = tags_from_spans(tokens, [("title", 0, 3)])
    assert tags == ("B-title", "O", "O")
    check_iob2(tags)


def test_token_split_evenly_goes_to_the_earlier_span():
    tokens = (Token("ab", 0, 2),)
    assert tags_from_spans(tokens, [("title", 0, 1), ("date", 1, 2)]) == ("B-title",)


@pytest.mark.parametrize(
    "tokens",
    [
        (Token("b", 2, 3), Token("a", 0, 1)),  # out of order
        (Token("ab", 0, 2), Token("bc", 1, 3)),  # overlapping
        (Token("", 1, 1),),  # empty
    ],
    ids=["out_of_order", "overlapping", "empty"],
)
def test_tokens_must_be_ordered_non_overlapping_and_non_empty(tokens):
    with pytest.raises(StructuralError):
        tags_from_spans(tokens, [("title", 0, 3)])


FIELD = st.sampled_from(["author", "title", "date"])


@st.composite
def tokens_and_spans(draw):
    """Ordered, non-empty tokens (adjacent or spaced) and an unsorted span
    list: some of the disjoint spans between arbitrary cut points, so some
    are zero-width, some cover part of a token and some split a token evenly
    with their neighbour, plus at most one free span that may overlap them."""
    tokens, pos = [], 0
    for gap, width in draw(
        st.lists(st.tuples(st.integers(0, 2), st.integers(1, 4)), max_size=8)
    ):
        pos += gap
        tokens.append(Token("x" * width, pos, pos + width))
        pos += width
    cuts = sorted(draw(st.lists(st.integers(0, pos + 1), max_size=10)))
    spans = [(draw(FIELD), s, e) for s, e in zip(cuts, cuts[1:]) if draw(st.booleans())]
    for field, start, width in draw(
        st.lists(st.tuples(FIELD, st.integers(0, pos), st.integers(0, 4)), max_size=1)
    ):
        spans.append((field, start, start + width))
    return tuple(tokens), draw(st.permutations(spans))


def _outcome(fn, tokens, spans):
    try:
        return fn(tokens, spans)
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=400)
@given(tokens_and_spans())
def test_tags_from_spans_matches_quadratic_oracle(case):
    tokens, spans = case
    assert _outcome(tags_from_spans, tokens, spans) == _outcome(
        oracles.tags_from_spans, tokens, spans
    )
