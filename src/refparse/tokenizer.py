"""Deterministic, reversible tokenization of reference strings.

Tokens partition the non-whitespace characters of the input: maximal letter
runs, maximal digit runs, and every other character standing alone. Offsets
are exact, so joining tokens by their recorded offsets reconstructs the raw
string (whitespace included via the gaps).

Each character falls in exactly one class, tested in this order with
Python's `str` predicates: space (`isspace`), letter (`isalpha`), digit
(`isdigit`), other. So `"x²"` is two tokens, `"x"` and the digit run `"²"`,
while `"½"` (numeric but not a digit) is a token by itself, as is `"_"`. A
combining mark such as U+0301 is neither letter nor digit and stands alone.
Model files record this tokenizer as `tokenizer_config`; changing a class
changes what a saved model sees.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from operator import itemgetter, le, lt
from typing import Sequence

from .errors import StructuralError
from .labels import OUT, Token, make_tag


class _Classes(dict):
    """Code point -> class letter ("s", "a", "d" or "p") for `str.translate`,
    filled on first sight: at most one entry per code point."""

    def __missing__(self, code: int) -> str:
        ch = chr(code)
        cls = "s" if ch.isspace() else "a" if ch.isalpha() else "d" if ch.isdigit() else "p"
        self[code] = cls
        return cls


_CLASSES = _Classes()
_RUN = re.compile(r"a+|d+|p")
_new_token = tuple.__new__  # a Token without the Python frame of Token.__new__


def tokenize(raw: str) -> tuple[Token, ...]:
    """Split raw text into offset-carrying tokens. Empty input -> ()."""
    return tuple(
        _new_token(Token, (raw[s:e], s, e))
        for s, e in map(re.Match.span, _RUN.finditer(raw.translate(_CLASSES)))
    )


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
    ordered = sorted(spans, key=itemgetter(1, 2))
    for (_, _, prev_end), (field, start, end) in zip(ordered, ordered[1:]):
        if start < prev_end:
            raise StructuralError(f"overlapping span ({field}, {start}, {end})")
    _, starts, ends = zip(*tokens) if tokens else ((), (), ())
    if not (all(map(lt, starts, ends)) and all(map(le, ends, starts[1:]))):
        raise StructuralError("tokens must be non-empty, ordered and non-overlapping")

    tags = [OUT] * len(tokens)
    for field, start, end in ordered:
        # the tokens that end after the span starts and start before it ends;
        # all but the first and the last lie wholly inside the span, and only
        # the first can belong to an earlier span already
        lo, hi = bisect_right(ends, start), bisect_left(starts, end)
        if lo < hi and (tags[lo] != OUT or not _half_held(starts[lo], ends[lo], start, end)):
            lo += 1
        if lo < hi and not _half_held(starts[hi - 1], ends[hi - 1], start, end):
            hi -= 1
        if lo < hi:
            begin = make_tag("B", field)
            tags[lo:hi] = [begin] + ["I" + begin[1:]] * (hi - lo - 1)
    return tuple(tags)


def _half_held(tok_start: int, tok_end: int, start: int, end: int) -> bool:
    """Whether [start, end) holds at least half of the token's characters."""
    return 2 * (min(tok_end, end) - max(tok_start, start)) >= tok_end - tok_start
