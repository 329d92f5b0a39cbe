"""Labeled-corpus containers, file formats, splits, and label filtering.

Two interchange formats, one writer (`_write`) and one line rule
(`text_lines`): a line ends only at ``\\n``, ``\\r`` or ``\\r\\n``.

* inline XML: one reference per line, fields marked like
  ``<author>C. Lemke</author>, <title>Metalearning</title>.`` with an
  optional ``#labels: author,title,...`` header declaring the label subset.
  Only ``&amp; &lt; &gt;`` entities are used. A ``<ref>...</ref>`` wrapper
  (possibly spanning lines) is accepted on input, and written only around
  a reference whose line would otherwise be blank or start with ``#``.
* CoNLL TSV: ``surface<TAB>tag`` per token, blank line between references,
  same optional ``#labels:`` header. ``#<TAB>tag`` is a token, not a comment.

Seeded shuffles use numpy's PCG64 generator (`seeded_rng`, shared with record
synthesis, generation and experiments), so splits and samples are
reproducible bit-for-bit across runs and platforms for a given seed >= 0.
"""

from __future__ import annotations

import io
import math
import re
from dataclasses import dataclass, replace
from itertools import accumulate

import numpy as np

from .errors import DataError, StructuralError, UsageError, shown
from .labels import (
    _PREDECESSORS,
    OUT,
    LabeledReference,
    Token,
    _spans,
    is_field_label,
    sort_fields,
    tag_field,
)
from .tokenizer import tags_from_spans, tokenize


@dataclass(frozen=True)
class Corpus:
    """A named list of labeled references plus the declared label subset."""

    name: str
    labels: tuple[str, ...]
    instances: tuple[LabeledReference, ...]

    def __post_init__(self) -> None:
        declared = set(sort_fields(self.labels))
        object.__setattr__(self, "labels", sort_fields(self.labels))
        for i, inst in enumerate(self.instances):
            extra = inst.fields() - declared
            if extra:
                raise DataError(
                    f"instance {i} of corpus {self.name!r} carries labels "
                    f"outside the declared subset: {sorted(extra)}"
                )

    def __len__(self) -> int:
        return len(self.instances)


def observed_labels(instances) -> tuple[str, ...]:
    fields: set[str] = set()
    for inst in instances:
        fields |= inst.fields()
    return sort_fields(fields)


def text_lines(text: str) -> list[str]:
    """`text` cut into lines by universal-newline reading, as files are read."""
    return [line.rstrip("\n") for line in io.StringIO(text, newline=None)]


def _write(corpus: Corpus, path, format_one) -> None:
    """The #labels header, then a line break after each `format_one(reference)`."""
    text = "".join(format_one(inst) + "\n" for inst in corpus.instances)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("#labels: " + ",".join(corpus.labels) + "\n" + text)


# ---------------------------------------------------------------------------
# inline XML
# ---------------------------------------------------------------------------

_TAG_RE = re.compile(r"<(/?)([a-zA-Z]+)>")


def _unescape(text: str) -> str:
    return text.replace("&lt;", "<").replace("&gt;", ">").replace("&amp;", "&")


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _parse_inline_line(line: str, lineno: int) -> LabeledReference:
    raw_parts: list[str] = []
    spans: list[tuple[str, int, int]] = []
    pos = length = 0
    open_field: str | None = None
    open_start = 0
    for m in _TAG_RE.finditer(line):
        text = _unescape(line[pos : m.start()])
        raw_parts.append(text)
        length += len(text)
        closing, name = m.group(1), m.group(2).lower()
        if name == "ref":
            if open_field is not None:
                raise DataError(f"<{name}> nested inside <{open_field}>", lineno)
            pos = m.end()
            continue
        if not is_field_label(name):
            raise DataError(f"unknown field tag <{name}>", lineno)
        if closing:
            if open_field != name:
                raise DataError(f"unexpected closing tag </{name}>", lineno)
            spans.append((open_field, open_start, length))
            open_field = None
        else:
            if open_field is not None:
                raise DataError(f"<{name}> nested inside <{open_field}>: nesting is not allowed",
                                lineno)
            open_field = name
            open_start = length
        pos = m.end()
    if open_field is not None:
        raise DataError(f"unclosed tag <{open_field}>", lineno)
    raw_parts.append(_unescape(line[pos:]))
    raw = "".join(raw_parts).rstrip()
    tokens = tokenize(raw)
    tags = tags_from_spans(tokens, [s for s in spans if s[2] > s[1]])
    return LabeledReference(raw=raw, tokens=tokens, tags=tags)


def _parse_labels_header(line: str, lineno: int) -> tuple[str, ...]:
    names = [p.strip() for p in line.split(":", 1)[1].split(",") if p.strip()]
    for name in names:
        if not is_field_label(name):
            raise DataError(f"unknown field label {name!r} in #labels header", lineno)
    return sort_fields(names)


def read_inline_xml(path, name: str | None = None) -> Corpus:
    """Read an inline-XML corpus; one reference per line or per <ref> block."""
    declared: tuple[str, ...] | None = None
    instances: list[LabeledReference] = []
    pending: list[str] = []
    pending_line = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            lower = line.lower()  # tags match in any case, as in _parse_inline_line
            if pending:  # a line inside an open block belongs to it, "#" or not
                pending.append(line)
                if "</ref>" in lower:
                    instances.append(_parse_inline_line(" ".join(pending), pending_line))
                    pending = []
                continue
            if line.startswith("#labels:"):
                declared = _parse_labels_header(line, lineno)
                continue
            if line.startswith("#"):
                continue
            if "<ref>" in lower and "</ref>" not in lower:
                pending = [line]
                pending_line = lineno
                continue
            instances.append(_parse_inline_line(line, lineno))
    if pending:
        raise DataError("unterminated <ref> block", pending_line)
    labels = declared if declared is not None else observed_labels(instances)
    return Corpus(name=name or str(path), labels=labels, instances=tuple(instances))


def write_inline_xml(corpus: Corpus, path) -> None:
    _write(corpus, path, format_inline_xml)


def format_inline_xml(inst: LabeledReference) -> str:
    """One reference as a single inline-XML line, "\\n" and "\\r" (whitespace to
    the tokenizer) written as spaces, wrapped in <ref>...</ref> if blank or "#..."."""
    out: list[str] = []
    cursor = 0
    for field, first, last in _spans(inst.tags):
        start, end = inst.tokens[first].start, inst.tokens[last - 1].end
        out.append(_escape(inst.raw[cursor:start]))
        out.append(f"<{field}>{_escape(inst.raw[start:end])}</{field}>")
        cursor = end
    out.append(_escape(inst.raw[cursor:]))
    line = "".join(out).replace("\n", " ").replace("\r", " ")
    return line if line.lstrip()[:1] not in ("", "#") else f"<ref>{line}</ref>"


# ---------------------------------------------------------------------------
# CoNLL TSV
# ---------------------------------------------------------------------------

def read_conll(path, name: str | None = None) -> Corpus:
    """Read a CoNLL TSV corpus. Raw text is reconstructed by joining
    surfaces with single spaces (the format does not keep spacing)."""
    declared: tuple[str, ...] | None = None
    instances: list[LabeledReference] = []
    rows: list[tuple[str, str, int]] = []  # surface, tag, line number

    def flush() -> None:
        if not rows:
            return
        surfaces, tags, _ = zip(*rows)
        starts = accumulate((len(s) + 1 for s in surfaces), initial=0)
        tokens = tuple(Token(s, start, start + len(s)) for s, start in zip(surfaces, starts))
        try:
            instances.append(LabeledReference(raw=" ".join(surfaces), tokens=tokens, tags=tags))
        except StructuralError as exc:
            raise DataError(str(exc), rows[0][2]) from None
        rows.clear()

    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                flush()
                continue
            parts = line.split("\t")
            if line.startswith("#") and (len(parts) != 2 or parts[1] not in _PREDECESSORS):
                if line.startswith("#labels:"):
                    declared = _parse_labels_header(line, lineno)
                continue  # a comment; "#<TAB>tag" is a token
            if len(parts) != 2 or not parts[0]:
                raise DataError(f"expected 'surface<TAB>tag', got {line!r}", lineno)
            surface, tag = parts
            if tag not in _PREDECESSORS:
                raise DataError(f"malformed tag {tag!r}", lineno)
            rows.append((surface, tag, lineno))
    flush()
    labels = declared if declared is not None else observed_labels(instances)
    return Corpus(name=name or str(path), labels=labels, instances=tuple(instances))


def write_conll(corpus: Corpus, path) -> None:
    _write(corpus, path, format_conll)


def format_conll(inst: LabeledReference) -> str:
    """One reference's token lines, each with its line break, so the break after
    them leaves a blank line. CoNLL cannot hold a reference with no tokens."""
    if not inst.tokens:
        raise UsageError(f"CoNLL cannot hold a reference with no tokens: {inst.raw!r}")
    return "".join(f"{token.surface}\t{tag}\n" for token, tag in zip(inst.tokens, inst.tags))


def _is_conll(path) -> bool:
    """The format of a corpus path: .conll/.tsv is CoNLL, anything else inline XML."""
    return str(path).rsplit(".", 1)[-1].lower() in ("conll", "tsv")


def read_corpus(path, name: str | None = None) -> Corpus:
    """Read a corpus in the format its extension names (`_is_conll`)."""
    try:
        return (read_conll if _is_conll(path) else read_inline_xml)(path, name=name)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text: {exc.reason}") from None


def write_corpus(corpus: Corpus, path) -> None:
    (write_conll if _is_conll(path) else write_inline_xml)(corpus, path)


# ---------------------------------------------------------------------------
# splits, filtering, sampling
# ---------------------------------------------------------------------------

def seeded_rng(seed: int) -> np.random.Generator:
    """numpy's PCG64 generator for an integer seed >= 0."""
    if seed < 0:
        raise UsageError(f"seed must be >= 0, got {shown(seed)}")
    return np.random.Generator(np.random.PCG64(seed))


def split(corpus: Corpus, ratio: float, seed: int) -> tuple[Corpus, Corpus]:
    """Seeded shuffle then prefix split; |train| = floor(ratio * N)."""
    if not 0.0 < ratio < 1.0:
        raise UsageError(f"split ratio must be in (0, 1), got {shown(ratio)}")
    n = len(corpus)
    if n == 0:
        raise UsageError("cannot split an empty corpus")
    order = seeded_rng(seed).permutation(n)
    # absorb float representation error toward the mathematical floor
    n_train = int(math.floor(ratio * n + 1e-9))
    train_idx, eval_idx = order[:n_train], order[n_train:]
    return (
        replace(
            corpus,
            name=f"{corpus.name}/train",
            instances=tuple(corpus.instances[i] for i in train_idx),
        ),
        replace(
            corpus,
            name=f"{corpus.name}/eval",
            instances=tuple(corpus.instances[i] for i in eval_idx),
        ),
    )


def filter_fields(corpus: Corpus, keep) -> Corpus:
    """Coarsen labels: tags outside `keep` become O; declared subset = keep."""
    kept = sort_fields(keep)
    if not kept:
        raise UsageError("filter_fields needs a non-empty label set")
    instances = tuple(
        replace(inst, tags=filter_tags_sequence(inst.tags, kept))
        for inst in corpus.instances
    )
    return Corpus(name=corpus.name, labels=kept, instances=instances)


def sample(corpus: Corpus, n: int, seed: int) -> Corpus:
    """Seeded uniform sample without replacement, order-stable given seed."""
    if not 1 <= n <= len(corpus):
        raise UsageError(f"sample size {shown(n)} not in [1, {len(corpus)}]")
    idx = seeded_rng(seed).choice(len(corpus), size=n, replace=False)
    return replace(
        corpus,
        name=f"{corpus.name}/sample{n}",
        instances=tuple(corpus.instances[i] for i in idx),
    )


def filter_tags_sequence(tags, keep) -> tuple[str, ...]:
    """The filter_fields coarsening applied to a bare tag sequence."""
    keep_set = set(keep)
    return tuple(t if t == OUT or tag_field(t) in keep_set else OUT for t in tags)
