"""Deterministic, reversible tokenization of reference strings.

Tokens partition the non-whitespace characters of the input: maximal letter
runs, maximal digit runs, and every other character standing alone. Offsets
are exact, so joining tokens by their recorded offsets reconstructs the raw
string (whitespace included via the gaps).
"""

from __future__ import annotations

from typing import Sequence

from .errors import StructuralError
from .labels import OUT, Token, make_tag


def _char_class(ch: str) -> str:
    if ch.isspace():
        return "space"
    if ch.isalpha():
        return "alpha"
    if ch.isdigit():
        return "digit"
    return "punct"


def tokenize(raw: str) -> tuple[Token, ...]:
    """Split raw text into offset-carrying tokens. Empty input -> ()."""
    tokens: list[Token] = []
    start = -1
    cls = "space"
    for i, ch in enumerate(raw):
        c = _char_class(ch)
        if start >= 0 and (c != cls or c == "punct"):
            tokens.append(Token(raw[start:i], start, i))
            start = -1
        if c != "space" and start < 0:
            start = i
        cls = c
    if start >= 0:
        tokens.append(Token(raw[start:], start, len(raw)))
    return tuple(tokens)


def tags_from_spans(
    tokens: Sequence[Token], spans: Sequence[tuple[str, int, int]]
) -> tuple[str, ...]:
    """Convert (field, char_start, char_end) spans to per-token IOB2 tags.

    A token belongs to a span iff at least half of its characters lie inside
    it (exact halves count as inside). Each covered run of consecutive tokens
    opens with B; uncovered tokens are O.
    """
    ordered = sorted(spans, key=lambda s: (s[1], s[2]))
    for (_, _, prev_end), (field, start, end) in zip(ordered, ordered[1:]):
        if start < prev_end:
            raise StructuralError(f"overlapping span ({field}, {start}, {end})")

    assigned: list[int] = []  # span index per token, -1 for none
    for tok in tokens:
        width = tok.end - tok.start
        best, best_overlap = -1, 0
        for si, (_, s, e) in enumerate(ordered):
            overlap = min(tok.end, e) - max(tok.start, s)
            if overlap > best_overlap:
                best, best_overlap = si, overlap
        if best >= 0 and 2 * best_overlap >= width and width > 0:
            assigned.append(best)
        else:
            assigned.append(-1)

    tags: list[str] = []
    prev_span = -1
    for si in assigned:
        if si < 0:
            tags.append(OUT)
        elif si == prev_span:
            tags.append(make_tag("I", ordered[si][0]))
        else:
            tags.append(make_tag("B", ordered[si][0]))
        prev_span = si
    return tuple(tags)
