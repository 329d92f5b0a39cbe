import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
import refparse as rp
from refparse.errors import StructuralError
from refparse.labels import (
    FIELD_LABELS,
    FieldSegment,
    check_iob2,
    normalize_segment_text,
    segments_from_tags,
    tags_from_segments,
)


def test_canonical_label_set():
    assert len(FIELD_LABELS) == 15
    assert FIELD_LABELS[0] == "author"
    assert set(FIELD_LABELS) >= {"location", "web", "tech", "institution", "note"}


def test_segments_basic():
    segs = segments_from_tags(
        ["B-author", "I-author", "I-author", "B-date"],
        ["C", ".", "Lemke", "2015"],
    )
    assert [(s.field, s.start, s.end, s.text) for s in segs] == [
        ("author", 0, 3, "C . Lemke"),
        ("date", 3, 4, "2015"),
    ]


def test_segments_all_outside():
    assert segments_from_tags(["O", "O"], ["a", "b"]) == []


def test_adjacent_b_tags_start_new_segments():
    segs = segments_from_tags(["B-title", "B-title"], ["x", "y"])
    assert [(s.field, s.start, s.end) for s in segs] == [
        ("title", 0, 1),
        ("title", 1, 2),
    ]


# runs of (field or None for O, length): neighbouring runs of one field are
# adjacent B tags, and lengths up to 12 make long I runs
_RUNS = st.lists(
    st.tuples(st.sampled_from([None, "title", "date"]), st.integers(1, 12)), max_size=6
)
_SURFACES = st.lists(
    st.sampled_from(["A", ".", "b ,", ";", "  c  d"]), min_size=72, max_size=72
)


@example([(None, 4)], ["a"] * 4)
@example([("title", 1), ("title", 2), ("title", 1)], ["x", "y .", "z,", ";"])
@example([("date", 12)], ["1999", ","] * 6)
@given(_RUNS, _SURFACES)
def test_segments_equal_the_walk_oracle(runs, surfaces):
    tags = []
    for field, n in runs:
        tags += ["O"] * n if field is None else [f"B-{field}"] + [f"I-{field}"] * (n - 1)
    surfaces = surfaces[: len(tags)]
    tokens = [rp.Token(s, 0, len(s)) for s in surfaces]  # offsets are not read
    assert segments_from_tags(tags, surfaces) == oracles.segments(tags, surfaces)
    assert segments_from_tags(tags, tokens) == oracles.segments(tags, tokens)


def test_malformed_iob2_rejected():
    with pytest.raises(StructuralError, match="position 0"):
        segments_from_tags(["I-author"], ["x"])
    with pytest.raises(StructuralError, match="position 1"):
        check_iob2(["B-title", "I-author"])
    with pytest.raises(StructuralError):
        segments_from_tags(["B-author"], ["x", "y"])


def test_normalize_segment_text():
    assert normalize_segment_text("Metalearning:  a survey .") == "Metalearning: a survey"
    assert normalize_segment_text("") == ""
    assert normalize_segment_text("2015,") == "2015"
    assert normalize_segment_text("  vol .  44 ; ") == "vol . 44"


@given(
    st.lists(
        st.tuples(st.sampled_from(FIELD_LABELS), st.integers(1, 3)),
        min_size=0,
        max_size=6,
    ),
    st.integers(0, 3),
)
def test_paint_then_derive_is_identity(runs, trailing_gap):
    """Painting tags from non-overlapping segments and re-deriving them
    returns the original segment list."""
    segments = []
    pos = 0
    for field, width in runs:
        segments.append(FieldSegment(field=field, start=pos, end=pos + width, text=""))
        pos += width + 1  # one-gap separation keeps same-field runs distinct
    length = pos + trailing_gap
    tags = tags_from_segments(segments, length)
    check_iob2(tags)
    derived = segments_from_tags(tags, ["w"] * length)
    assert [(s.field, s.start, s.end) for s in derived] == [
        (s.field, s.start, s.end) for s in segments
    ]


def test_paint_adjacent_same_field_segments_round_trip():
    segs = [
        FieldSegment("author", 0, 2, ""),
        FieldSegment("author", 2, 4, ""),
    ]
    tags = tags_from_segments(segs, 4)
    assert tags == ("B-author", "I-author", "B-author", "I-author")
    derived = segments_from_tags(tags, ["w"] * 4)
    assert [(s.start, s.end) for s in derived] == [(0, 2), (2, 4)]


def test_labeled_reference_validates_offsets():
    with pytest.raises(StructuralError):
        rp.LabeledReference(
            raw="ab", tokens=(rp.Token("b", 0, 1),), tags=("O",)
        )
    inst = rp.LabeledReference(
        raw="a b",
        tokens=(rp.Token("a", 0, 1), rp.Token("b", 2, 3)),
        tags=("B-title", "O"),
    )
    assert inst.fields() == {"title"}


def _message(fn, *args, **kwargs):
    with pytest.raises(StructuralError) as caught:
        fn(*args, **kwargs)
    return str(caught.value)


@pytest.mark.parametrize(
    "tags, message",
    [
        (["O", "X-title"], "invalid tag 'X-title' at position 1"),
        (["B-nonsense"], "invalid tag 'B-nonsense' at position 0"),
        (["O", "B-title", "o"], "invalid tag 'o' at position 2"),
        (["B-title", 1], "invalid tag 1 at position 1"),
        ([None], "invalid tag None at position 0"),
        ([["B-title"]], "invalid tag ['B-title'] at position 0"),
        (["I-author"], "I-author at position 0 does not continue a B-author/I-author run"),
        (["O", "I-date"], "I-date at position 1 does not continue a B-date/I-date run"),
        (
            ["B-title", "I-title", "I-author"],
            "I-author at position 2 does not continue a B-author/I-author run",
        ),
    ],
    ids=[
        "unknown_kind",
        "unknown_field",
        "lowercase_o",
        "int",
        "none",
        "unhashable",
        "i_opens",
        "i_after_o",
        "i_after_other_field",
    ],
)
def test_check_iob2_messages(tags, message):
    assert _message(check_iob2, tags) == message


TAG_OR_NOT = st.sampled_from(
    ["O", "B-title", "I-title", "B-date", "I-date", "I-note", "X-title", "B-", "I", "", 0]
)


@given(st.lists(TAG_OR_NOT, max_size=8))
def test_check_iob2_matches_rule_by_rule_oracle(tags):
    def outcome(check):
        try:
            return check(tags)
        except StructuralError as exc:
            return str(exc)

    assert outcome(check_iob2) == outcome(oracles.check_iob2)


@pytest.mark.parametrize(
    "raw, tokens, tags, message",
    [
        ("ab", (rp.Token("a", 0, 1),), ("O", "O"), "1 tokens vs 2 tags"),
        (
            "abc",
            (rp.Token("ab", 0, 2), rp.Token("bc", 1, 3)),
            ("O", "O"),
            "token 1 overlaps its predecessor",
        ),
        ("ab", (rp.Token("b", 0, 1),), ("O",), "token 0 surface 'b' != raw[0:1]"),
        (
            "a b",
            (rp.Token("a", 0, 1), rp.Token("b", 2, 3)),
            ("O", "I-title"),
            "I-title at position 1 does not continue a B-title/I-title run",
        ),
        ("a", (rp.Token("a", 0, 1),), (7,), "invalid tag 7 at position 0"),
    ],
    ids=["count", "overlap", "surface", "iob2", "tag_type"],
)
def test_labeled_reference_messages(raw, tokens, tags, message):
    assert _message(rp.LabeledReference, raw=raw, tokens=tokens, tags=tags) == message
