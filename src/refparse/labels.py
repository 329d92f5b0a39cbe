"""Canonical field vocabulary, IOB2 token tags, and the shared instance type.

Tags are plain strings: "O", or "B-<field>" / "I-<field>" with <field> drawn
from FIELD_LABELS. The order of FIELD_LABELS is the canonical tie-break order
used everywhere (tag ids, report rows, Viterbi ties).

A field segment is a B tag's run of tokens with the I tags after it.
`segments_from_tags` checks tags and gives each segment its normalized text;
writers and evaluation take bare runs from `_spans`, which checks nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .errors import StructuralError, UsageError

FIELD_LABELS: tuple[str, ...] = (
    "author",
    "title",
    "date",
    "journal",
    "booktitle",
    "pages",
    "volume",
    "issue",
    "publisher",
    "editor",
    "location",
    "institution",
    "note",
    "web",
    "tech",
)

_FIELD_SET = frozenset(FIELD_LABELS)

OUT = "O"


def is_field_label(name: str) -> bool:
    return name in _FIELD_SET


def sort_fields(fields: Iterable[str]) -> tuple[str, ...]:
    """Return the given fields in canonical order, validating membership."""
    uniq = set(fields)
    unknown = uniq - _FIELD_SET
    if unknown:
        raise UsageError(f"unknown field labels: {sorted(unknown)}")
    return tuple(f for f in FIELD_LABELS if f in uniq)


def make_tag(kind: str, field: str | None = None) -> str:
    if kind == OUT:
        return OUT
    if kind not in ("B", "I"):
        raise UsageError(f"tag kind must be B, I or O, got {kind!r}")
    if field not in _FIELD_SET:
        raise UsageError(f"unknown field label {field!r}")
    return f"{kind}-{field}"


def tag_kind(tag: str) -> str:
    """"B", "I" or "O"."""
    return tag[0]


def tag_field(tag: str) -> str | None:
    """The field of a B/I tag, None for O."""
    if tag == OUT:
        return None
    return tag[2:]


# each tag -> the tags it may follow: None for O and B tags, which may
# follow any tag; I-f continues only a B-f/I-f run
_PREDECESSORS: dict[str, tuple[str, str] | None] = {OUT: None}
_PREDECESSORS.update({f"B-{f}": None for f in FIELD_LABELS})
_PREDECESSORS.update({f"I-{f}": (f"B-{f}", f"I-{f}") for f in FIELD_LABELS})


def check_iob2(tags: Sequence[str]) -> None:
    """Raise StructuralError if the tag sequence is not IOB2 well-formed."""
    prev = OUT
    for i, tag in enumerate(tags):
        try:
            allowed = _PREDECESSORS[tag]
        except (KeyError, TypeError):  # TypeError: an unhashable tag
            raise StructuralError(f"invalid tag {tag!r} at position {i}") from None
        if allowed is not None and prev not in allowed:
            field = tag[2:]
            raise StructuralError(
                f"I-{field} at position {i} does not continue a B-{field}/I-{field} run"
            )
        prev = tag


class Token(NamedTuple):
    """A surface string plus its half-open character span in the raw text."""

    surface: str
    start: int
    end: int


@dataclass(frozen=True)
class LabeledReference:
    """One reference string with its tokens and per-token IOB2 tags.

    Tokens must be non-overlapping, ordered by start, and each surface must
    equal raw[start:end]; tags must be IOB2 well-formed and aligned 1:1 with
    tokens. Both are checked at construction.
    """

    raw: str
    tokens: tuple[Token, ...]
    tags: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.tokens) != len(self.tags):
            raise StructuralError(
                f"{len(self.tokens)} tokens vs {len(self.tags)} tags"
            )
        raw = self.raw
        prev_end = 0
        for i, (surface, start, end) in enumerate(self.tokens):
            if start < prev_end:
                raise StructuralError(f"token {i} overlaps its predecessor")
            if raw[start:end] != surface:
                raise StructuralError(f"token {i} surface {surface!r} != raw[{start}:{end}]")
            prev_end = end
        check_iob2(self.tags)

    def surfaces(self) -> tuple[str, ...]:
        return tuple(t.surface for t in self.tokens)

    def fields(self) -> set[str]:
        """The set of field labels carried by this instance."""
        return {t[2:] for t in set(self.tags) if t != OUT}


@dataclass(frozen=True)
class FieldSegment:
    """A maximal run of same-field tokens: [start, end) token indices."""

    field: str
    start: int
    end: int
    text: str


def normalize_segment_text(text: str) -> str:
    """Collapse whitespace runs to one space, trim, and strip trailing
    field-final punctuation (. , ; :)."""
    text = " ".join(text.split())
    return text.rstrip(" .,;:")


def segments_from_tags(
    tags: Sequence[str], tokens: Sequence[Token] | Sequence[str]
) -> list[FieldSegment]:
    """Derive maximal field segments from an IOB2 tag sequence.

    Segment text is the normalized space-joined surfaces of the covered
    tokens. Accepts Token tuples or bare surface strings.
    """
    if len(tags) != len(tokens):
        raise StructuralError(f"{len(tags)} tags vs {len(tokens)} tokens")
    check_iob2(tags)
    surfaces = [t.surface if isinstance(t, Token) else t for t in tokens]
    return [
        FieldSegment(field, start, end, normalize_segment_text(" ".join(surfaces[start:end])))
        for field, start, end in _spans(tags)
    ]


def _spans(tags: Sequence[str]) -> list[list]:
    """Runs of tags known to be IOB2 as [field, start, end] lists, end exclusive:
    a B tag opens a run and an I tag extends the last one. Checks nothing."""
    spans: list[list] = []
    for i, tag in enumerate(tags):
        if tag[0] == "B":
            spans.append([tag[2:], i, i + 1])
        elif tag[0] == "I":
            spans[-1][2] = i + 1
    return spans


def tags_from_segments(segments: Iterable[FieldSegment], length: int) -> tuple[str, ...]:
    """Paint an IOB2 tag sequence from non-overlapping segments (left inverse
    of segments_from_tags)."""
    tags = [OUT] * length
    for seg in segments:
        if not (0 <= seg.start < seg.end <= length):
            raise StructuralError(f"segment span [{seg.start},{seg.end}) out of range")
        for i in range(seg.start, seg.end):
            if tags[i] != OUT:
                raise StructuralError(f"overlapping segments at token {i}")
            tags[i] = make_tag("I", seg.field)
        tags[seg.start] = make_tag("B", seg.field)
    return tuple(tags)
