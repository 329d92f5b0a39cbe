"""Independent oracles shared by the CRF tests and the acceptance suite.

Everything here recomputes quantities by brute force (exhaustive path
enumeration, direct summation, a token-by-span scan, a character-by-character
tokenizer, a close-and-open segment walk, greedy segment matching, an
L-BFGS that allocates every vector afresh, a character-stepping template
parser, a counting template renderer and a name-level feature walk) so the
tests never trust the code path they check. Enumeration is vectorized over
the full path table to keep hundreds of oracle comparisons fast.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from typing import Iterable, Iterator, Sequence

import numpy as np
from scipy import sparse

from refparse import crf, features, metrics, optim
from refparse.errors import StructuralError, TemplateError
from refparse.features import FeatureConfig, FeatureIndex
from refparse.labels import (
    FIELD_LABELS,
    OUT,
    FieldSegment,
    Token,
    make_tag,
    normalize_segment_text,
    tag_field,
    tag_kind,
)
from refparse.synthgen import SLOT_NAMES, Group, Literal, Slot, _slot_parts

FIELDS = ("author", "title", "date")


def random_model(
    rng: np.random.Generator, n_fields: int = 2, n_feats: int = 8, scale: float = 2.0
):
    """A model with weights uniform in [-scale, scale] on all free parameters."""
    index = FeatureIndex(names=tuple(f"f{i}" for i in range(n_feats)))
    model = crf.empty_model(
        FIELDS[:n_fields], index, FeatureConfig(gazetteers={})
    )
    tmask, bmask = crf._structure_masks(model.tags)
    return replace(
        model,
        emission=rng.uniform(-scale, scale, size=model.emission.shape),
        transition=np.where(
            tmask, rng.uniform(-scale, scale, size=model.transition.shape), -np.inf
        ),
        begin=np.where(bmask, rng.uniform(-scale, scale, size=model.begin.shape), -np.inf),
        end=rng.uniform(-scale, scale, size=model.end.shape),
    )


def id_matrix(id_lists, n_features: int) -> sparse.csr_matrix:
    """The reference rows: a CSR matrix with one row per id list and
    `n_features` columns, holding 1 at each id of a row, in the row's order."""
    id_lists = [list(ids) for ids in id_lists]
    indptr = np.cumsum([0] + [len(ids) for ids in id_lists])
    indices = np.array([i for ids in id_lists for i in ids], dtype=np.int64)
    return sparse.csr_matrix(
        (np.ones(len(indices)), indices, indptr), shape=(len(id_lists), n_features)
    )


def instance(rows, n_feats: int, gold=None):
    """A VectorizedInstance whose position t has the feature ids rows[t]."""
    return crf.VectorizedInstance(x=id_matrix(rows, n_feats), gold=gold)


def emissions(inst, model) -> np.ndarray:
    """(T, L) emission scores: model.emission rows summed over each row's ids."""
    x = inst.x
    return np.array(
        [
            model.emission[x.indices[x.indptr[t] : x.indptr[t + 1]]].sum(axis=0)
            for t in range(x.shape[0])
        ]
    ).reshape(x.shape[0], model.emission.shape[1])


def random_instance(
    rng: np.random.Generator, model, length: int, with_gold: bool = False
):
    rows = [
        np.sort(
            rng.choice(
                len(model.feature_index),
                size=int(rng.integers(1, 4)),
                replace=False,
            )
        )
        for _ in range(length)
    ]
    gold = None
    if with_gold:
        tags = []
        prev = None
        for _ in range(length):
            options = [
                t
                for t in model.tags
                if t == "O"
                or t.startswith("B-")
                or (prev is not None and prev != "O" and t == "I-" + prev[2:])
            ]
            tag = options[int(rng.integers(len(options)))]
            tags.append(tag)
            prev = tag
        gold = np.array([model.tags.index(t) for t in tags], dtype=np.int64)
    return instance(rows, len(model.feature_index), gold)


def path_score_by_summation(inst, model, path) -> float:
    """score_path recomputed by direct summation over one path."""
    e = emissions(inst, model)
    total = model.begin[path[0]] + e[0, path[0]]
    for t in range(1, len(path)):
        total += model.transition[path[t - 1], path[t]] + e[t, path[t]]
    return float(total + model.end[path[-1]])


def nll(instances, model) -> float:
    """Unregularized batch NLL: enumerated logZ minus the gold path score."""
    return sum(
        enumerate_all(inst, model)[0] - path_score_by_summation(inst, model, inst.gold)
        for inst in instances
    )


def _all_paths(n_tags: int, length: int) -> np.ndarray:
    """(n_tags**length, length) array of every tag path."""
    grids = np.meshgrid(*([np.arange(n_tags)] * length), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def enumerate_all(inst, model):
    """(logZ, argmax path, marginal table) by exhaustive enumeration.

    The argmax tie-break mirrors the decoder's stated rule: among maximal
    paths, the one whose tags are smallest reading from the last position
    backwards (lowest tag id wins at each backpointer).
    """
    n_tags = len(model.tags)
    length = len(inst)
    e = emissions(inst, model)
    paths = _all_paths(n_tags, length)
    with np.errstate(invalid="ignore"):
        scores = model.begin[paths[:, 0]] + e[0, paths[:, 0]] + model.end[paths[:, -1]]
        for t in range(1, length):
            scores = scores + model.transition[paths[:, t - 1], paths[:, t]]
            scores = scores + e[t, paths[:, t]]
    scores = np.where(np.isnan(scores), -np.inf, scores)  # -inf + inf never occurs; nan only from -inf arithmetic
    finite = scores > -np.inf
    m = scores[finite].max()
    logz = float(m + np.log(np.exp(scores[finite] - m).sum()))

    best_mask = scores == scores[finite].max()
    candidates = paths[best_mask]
    # reversed-lexicographic minimum: lexsort keys are last-significant-first
    order = np.lexsort(tuple(candidates[:, t] for t in range(length)))
    best = tuple(int(x) for x in candidates[order[0]])

    weights = np.where(finite, np.exp(scores - logz), 0.0)
    marginal = np.zeros((length, n_tags))
    for t in range(length):
        marginal[t] = np.bincount(paths[:, t], weights=weights, minlength=n_tags)
    return logz, best, marginal


def segments(tags: Sequence[str], tokens) -> list[FieldSegment]:
    """The field segments of IOB2 tags by a close-and-open walk: a B or O tag
    closes the open segment, and a B tag opens the next one."""
    surfaces = [t.surface if isinstance(t, Token) else t for t in tokens]
    found: list[FieldSegment] = []

    def close(field, start, end):
        text = normalize_segment_text(" ".join(surfaces[start:end]))
        found.append(FieldSegment(field=field, start=start, end=end, text=text))

    start = -1
    field = None
    for i, tag in enumerate(tags):
        kind = tag_kind(tag)
        if kind == "I":
            continue
        if field is not None:
            close(field, start, i)
        if kind == "B":
            start, field = i, tag_field(tag)
        else:
            start, field = -1, None
    if field is not None:
        close(field, start, len(tags))
    return found


def field_report(gold, pred: Sequence[Sequence[str]]) -> metrics.LevelReport:
    """Field-level scores by greedy left-to-right matching: each predicted
    segment takes the first not-yet-matched gold segment of its reference
    with the same field and normalized text (a TP), or is an FP; the gold
    segments left over are FNs."""
    confusion: Counter = Counter()  # as metrics._level_report reads it
    for inst, tags in zip(gold.instances, pred):
        unmatched = segments(inst.tags, inst.tokens)
        for seg in segments(tags, inst.tokens):
            hit = next(
                (g for g in unmatched if g.field == seg.field and g.text == seg.text),
                None,
            )
            if hit is not None:
                unmatched.remove(hit)
                confusion[seg.field, seg.field] += 1
            else:
                confusion["", seg.field] += 1
        for g in unmatched:
            confusion[g.field, ""] += 1
    return metrics._level_report(gold.labels, confusion)


def check_iob2(tags: Sequence[str]) -> None:
    """The IOB2 check rule by rule: every tag is O, B-f or I-f for a known
    field f, and I-f follows B-f or I-f."""
    prev = OUT
    for i, tag in enumerate(tags):
        valid = tag == OUT or (
            isinstance(tag, str)
            and tag[:2] in ("B-", "I-")
            and tag[2:] in FIELD_LABELS
        )
        if not valid:
            raise StructuralError(f"invalid tag {tag!r} at position {i}")
        if tag[0] == "I":
            field = tag[2:]
            if prev == OUT or prev[2:] != field:
                raise StructuralError(
                    f"I-{field} at position {i} does not continue a B-{field}/I-{field} run"
                )
        prev = tag


def _char_class(ch: str) -> str:
    if ch.isspace():
        return "space"
    if ch.isalpha():
        return "alpha"
    if ch.isdigit():
        return "digit"
    return "punct"


def tokenize(raw: str) -> tuple[Token, ...]:
    """The tokenizer one character at a time: a token ends where the class
    changes, and every "punct" character stands alone."""
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


def minimize(fun, x0, max_iter: int = 200, rel_tol: float = 1e-4) -> optim.OptResult:
    """`optim.minimize`'s L-BFGS, written with a fresh array for every
    vector and list-held (s, y) pairs: the arithmetic that the in-place
    version must reproduce bit for bit."""
    x = np.asarray(x0, dtype=np.float64).copy()
    f, g = fun(x)
    n_evals, log, pairs, converged = 1, [(0, f)], [], False
    for k in range(1, max_iter + 1):
        q = g.copy()
        alphas = []
        for s, y, rho in reversed(pairs):
            a = rho * float(s @ q)
            q = q - a * y
            alphas.append(a)
        if pairs:
            s, y, _ = pairs[-1]
            q = q * (float(s @ y) / float(y @ y))
        for (s, y, rho), a in zip(pairs, reversed(alphas)):
            q = q + (a - rho * float(y @ q)) * s
        d = -q
        gd = float(g @ d)
        if gd >= 0.0:
            d = -g
            gd = float(g @ d)
            if gd >= 0.0:
                converged = True
                break
        step = 1.0 if pairs else min(1.0, 1.0 / max(1.0, float(np.abs(g).sum())))
        for _ in range(optim.MAX_BACKTRACKS):
            x_new = x + step * d
            f_new, g_new = fun(x_new)
            n_evals += 1
            if np.isfinite(f_new) and f_new <= f + optim.C1 * step * gd:
                break
            step *= optim.SHRINK
        else:
            converged = True
            break
        s, y = x_new - x, g_new - g
        if float(s @ y) > 1e-10:
            pairs = [*pairs, (s, y, 1.0 / float(s @ y))][-optim.HISTORY :]
        rel_change = abs(f - f_new) / max(abs(f), abs(f_new), 1.0)
        x, f, g = x_new, f_new, g_new
        log.append((k, f))
        if rel_change < rel_tol:
            converged = True
            break
    return optim.OptResult(
        x=x, value=f, log=log, converged=converged, n_evals=n_evals,
        grad_norm=float(np.linalg.norm(g)),
    )


def parse_template(fmt: str, source: str = "<template>") -> tuple:
    """The template parser one character at a time: escapes and text go to a
    literal buffer that a slot, a bracket or the end flushes."""
    stack: list[list] = [[]]
    buf: list[str] = []

    def flush() -> None:
        if buf:
            stack[-1].append(Literal("".join(buf)))
            buf.clear()

    i = 0
    while i < len(fmt):
        ch = fmt[i]
        if ch == "\\" and i + 1 < len(fmt):
            buf.append(fmt[i + 1])
            i += 2
            continue
        if ch == "<":
            end = fmt.find(">", i)
            if end < 0:
                raise TemplateError(f"{source}: unterminated slot at column {i}")
            name = fmt[i + 1 : end]
            if name not in SLOT_NAMES:
                raise TemplateError(f"{source}: unknown slot <{name}>")
            flush()
            stack[-1].append(Slot(name))
            i = end + 1
        elif ch == "[":
            flush()
            if len(stack) > 2:
                raise TemplateError(f"{source}: groups nest at most two deep")
            stack.append([])
            i += 1
        elif ch == "]":
            flush()
            if len(stack) == 1:
                raise TemplateError(f"{source}: unbalanced ']'")
            group = Group(tuple(stack.pop()))
            stack[-1].append(group)
            i += 1
        else:
            buf.append(ch)
            i += 1
    flush()
    if len(stack) != 1:
        raise TemplateError(f"{source}: unclosed '['")
    return tuple(stack[0])


def _render_elements(elements, record, template, per_author: bool, top: bool):
    """The renderer counting slots, groups and rendered groups: a group with
    no slot, some groups and no rendered group does not render."""
    parts: list[str] = []
    spans: list[tuple[str, int, int]] = []
    pos = 0
    n_slots = n_groups = n_rendered_groups = 0
    for el in elements:
        if isinstance(el, Literal):
            parts.append(el.text)
            pos += len(el.text)
        elif isinstance(el, Slot):
            n_slots += 1
            rendered = _slot_parts(record, el, template, per_author)
            if rendered is None:
                if top:
                    raise TemplateError(
                        f"style {template.name!r}: record has no value for "
                        f"<{el.field}> outside any group"
                    )
                return None
            text, rel_spans = rendered
            parts.append(text)
            spans.extend((lbl, pos + s, pos + e) for lbl, s, e in rel_spans)
            pos += len(text)
        else:
            n_groups += 1
            sub = _render_elements(el.elements, record, template, per_author, top=False)
            if sub is None:
                continue
            n_rendered_groups += 1
            text, rel_spans = sub
            parts.append(text)
            spans.extend((lbl, pos + s, pos + e) for lbl, s, e in rel_spans)
            pos += len(text)
    if not top and n_slots == 0 and n_groups > 0 and n_rendered_groups == 0:
        return None
    return "".join(parts), spans


def render(record, template, per_author: bool = False) -> tuple[str, tuple]:
    """(text, spans) of `synthgen.render` by the counting renderer."""
    text, spans = _render_elements(template.elements, record, template, per_author, top=True)
    return text, tuple(spans)


def _rows(tokens: Sequence[tuple], bos: list, eos: list, buckets: list) -> Iterator[list]:
    """Every position's row in template order: the window offsets from
    -window to +window (`bos`/`eos` past the ends), the center token's
    affixes, then the position bucket. `tokens` holds each position's
    (window parts, affixes) as `features._token_names` returns them and the
    other arguments are `features._fixed_names`."""
    n = len(tokens)
    width = len(bos)
    pad = width // 2
    padded = [bos] * pad + [parts for parts, _ in tokens] + [eos] * pad
    for position, ((_, affixes), bucket) in enumerate(zip(tokens, features._buckets(n))):
        row: list = []
        for k, parts in enumerate(padded[position : position + width]):
            row += parts[k]  # what the token k - pad away gives at that offset
        row += affixes
        row += buckets[bucket]
        yield row


def extract(surfaces: Sequence[str], config: FeatureConfig) -> list[list[str]]:
    """Feature names for every position of one instance, walking each
    position's window name by name."""
    names = {s: features._token_names(s, config) for s in set(surfaces)}
    return list(_rows([names[s] for s in surfaces], *features._fixed_names(config)))


def corpus_features(
    instances: Iterable[Sequence[str]], config: FeatureConfig
) -> Iterator[list[str]]:
    """`features.corpus_features` by the name-level walk, one instance at a
    time."""
    for surfaces in instances:
        yield from extract(surfaces, config)
