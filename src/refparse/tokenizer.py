"""Deterministic, reversible tokenization of reference strings.

Tokens partition the non-whitespace characters of the input: maximal letter
runs, maximal digit runs, and every other character standing alone. Offsets
are exact, so joining tokens by their recorded offsets reconstructs the raw
string (whitespace included via the gaps).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
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

    A token belongs to the first span, in start order, that holds at least
    half of its characters; a token split evenly between two spans goes to
    the earlier one. Each span's tokens open with B; uncovered tokens are O.
    Tokens must be non-empty, ordered and non-overlapping, as `tokenize`
    returns them.
    """
    ordered = sorted(spans, key=lambda s: (s[1], s[2]))
    for (_, _, prev_end), (field, start, end) in zip(ordered, ordered[1:]):
        if start < prev_end:
            raise StructuralError(f"overlapping span ({field}, {start}, {end})")
    starts = [tok.start for tok in tokens]
    ends = [tok.end for tok in tokens]
    if any(s >= e for s, e in zip(starts, ends)) or any(
        s < e for s, e in zip(starts[1:], ends)
    ):
        raise StructuralError("tokens must be non-empty, ordered and non-overlapping")

    tags = [OUT] * len(tokens)
    for field, start, end in ordered:
        kind = "B"
        # the tokens that end after the span starts and start before it ends
        for i in range(bisect_right(ends, start), bisect_left(starts, end)):
            held = min(ends[i], end) - max(starts[i], start)
            if tags[i] == OUT and 2 * held >= ends[i] - starts[i]:
                tags[i] = make_tag(kind, field)
                kind = "I"
    return tuple(tags)
