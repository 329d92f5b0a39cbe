"""Linear-chain CRF: scoring, exact inference, and batch training.

The tag set is O plus B-f/I-f for every field in the model's label subset,
with ids ordered O first, then B/I per canonical field order. Transitions
into I-f from anything other than B-f/I-f carry -inf and are never treated
as parameters, so decoded output is IOB2-valid by construction.

Forward-backward (`_forward_backward`) takes one of two paths per batch.
A range check reads the batch's least and largest emission score and the
spreads of the free transition, begin and end weights. Where it passes, the
recursion runs in probability space with Rabiner's per-position scales
(Rabiner 1989, section V.A; Sutton & McCallum 2012, section 4.1): one exp
over the emission scores, then per step a product with the exponentiated
transitions, a multiply, a row sum and a multiply by its reciprocal; the
backward pass reuses the forward scales. `_forward_backward`'s docstring
proves that under the check no nonzero term of either pass leaves the normal
float range, so every result is exact to rounding. Every other batch takes
a log-space recursion with a full (row, from, to) logsumexp block per step,
which is exact at any finite weight and slow. Trained models, and every
objective evaluation of a training tried, take the first path.

Training evaluates its objective in memory it already holds. Each packing
keeps a workspace (`_Packing.buffer`) that it allocates on first use and
hands back on every later one: forward-backward's posteriors and step
tables, and the training batch's L2 scratch. Every element is written
before it is read, so the arithmetic, and the model bytes, are what fresh
arrays give. The posteriors `_forward_backward` returns are the workspace's,
overwritten by the next call on the same packing; `marginals` packs each
call afresh, so what it returns stays put.

Feature rows are factored by token surface in one key layout, which
training (features.training_factors) and inference (FeatureIds.keys)
share, so the emission scores and their gradient run over a few keys per
position instead of every feature id. One per-model cache holds each
surface's key ids. Decoding (`_decode`: `parse`, `eval` and every
experiment) packs its input in batches of _DECODE_CHUNK sequences and
scores the keys of a batch's distinct surfaces with one sparse product,
then runs one Viterbi pass per batch. A position's emission scores are its
2 * window + 3 key scores added in template order. They differ from the
sum over the position's feature ids only by rounding, and an instance
gets the same scores, bit for bit, alone and in any batch. The
per-instance API takes the same route: `nll_and_gradient` builds its batch
from the keys as `train` does, and `marginals` and `viterbi` score as
`_decode` does.

Viterbi keeps the full (to, from) block on steps narrower than
_PRUNE_ROWS rows, such as every step of a single instance. Wider steps
prune it exactly (the decided-row test of CarpeDiem, Esposito & Radicioni
2009, and of staggered decoding, Kaji et al. 2010): an I-f target compares
its only two predecessors, and for the O/B targets a row whose best
previous tag leads every other by more than the transition spread (plus
a few ulps) takes that tag without the block. Ties still go to the lowest
tag id, so both steps give the same paths.
"""

from __future__ import annotations

import base64
import functools
import gzip
import io
import json
import logging
import math
import sys
import zlib
from dataclasses import asdict, dataclass, replace
from typing import TYPE_CHECKING, Sequence

import numpy as np
from scipy import sparse

from . import optim
from .errors import DataError, NumericError, StructuralError, UsageError, check_number, shown
from .features import FeatureConfig, FeatureIds, FeatureIndex, ones_matrix, training_factors
from .labels import (
    OUT,
    LabeledReference,
    make_tag,
    sort_fields,
    tag_field,
    tag_kind,
)
from .tokenizer import tokenize

if TYPE_CHECKING:
    from .corpus import Corpus

log = logging.getLogger(__name__)

MODEL_FORMAT = "refparse-model-v1"

# how model files record the tokenizer that `tokenize` implements
_TOKENIZER_CONFIG = {"split_digit_letter": True, "split_punctuation": True}

NEG_INF = float("-inf")

# the largest `_reach` of a batch that `_forward_backward` runs in probability
# space; its docstring proves every term then stays in the normal float range
_REACH = 700.0

# rows per block of a sum over rows by matrix product: blocks of at most
# this many rows came out the same at every BLAS thread count tried
_SUM_ROWS = 1024

# Viterbi steps of at least this many rows take the pruned step; narrower
# ones, such as every step of a single instance, the full (to, from) block
_PRUNE_ROWS = 32

# the margin, in units of the float64 epsilon times the magnitudes summed,
# that a decided row's gap must clear beyond the transition spread
_GAP_ULPS = 8.0

# sequences `_decode` packs into one batch; keeps a batch's arrays to tens of MB
_DECODE_CHUNK = 1024


def tags_for_labels(labels: Sequence[str]) -> tuple[str, ...]:
    """["O", "B-f1", "I-f1", "B-f2", ...] in canonical field order."""
    return (OUT, *(make_tag(kind, f) for f in sort_fields(labels) for kind in "BI"))


def _structure_masks(tags: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """(transition mask, begin mask): True where the weight is a free
    parameter, False where it is structurally -inf. Only B-f and I-f may
    precede I-f, and no path begins on an I tag."""
    begin = np.array([tag_kind(t) != "I" for t in tags])
    fields = np.array([tag_field(t) or "" for t in tags])  # O has no field
    return begin[None, :] | (fields[:, None] == fields[None, :]), begin


@dataclass(frozen=True)
class TrainConfig:
    l2: float = 1.0
    max_epochs: int = 200
    tol: float = 1e-4

    def __post_init__(self) -> None:
        check_number("l2", self.l2)
        check_number("max_epochs", self.max_epochs, integer=True)
        check_number("tol", self.tol)
        # chained comparisons are exact for ints past the float range too
        if not 0 <= self.l2 <= sys.float_info.max:
            raise UsageError(f"l2 must be finite and >= 0, got {shown(self.l2)}")
        if not 0 < self.tol <= sys.float_info.max:
            raise UsageError(f"tol must be finite and > 0, got {shown(self.tol)}")
        if self.max_epochs < 1:
            raise UsageError(f"max_epochs must be >= 1, got {shown(self.max_epochs)}")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class CrfModel:
    """Immutable trained model. Weights are dense numpy arrays; the -inf
    structure of transition/begin never changes after construction."""

    labels: tuple[str, ...]
    tags: tuple[str, ...]
    emission: np.ndarray  # (F, L)
    transition: np.ndarray  # (L, L), -inf on forbidden entries
    begin: np.ndarray  # (L,), -inf on I tags
    end: np.ndarray  # (L,)
    feature_index: FeatureIndex
    feature_config: FeatureConfig

    def __post_init__(self) -> None:
        n = len(self.tags)
        if self.emission.shape != (len(self.feature_index), n):
            raise StructuralError("emission weight shape does not match index/tags")
        if self.transition.shape != (n, n) or self.begin.shape != (n,) or self.end.shape != (n,):
            raise StructuralError("transition weight shapes do not match tag set")
        finite = [self.emission, self.end]
        for arr in finite:
            if not np.all(np.isfinite(arr)):
                raise StructuralError("non-finite value in model weights")
        tmask, bmask = _structure_masks(self.tags)
        if not np.all(np.isfinite(self.transition[tmask])) or np.any(
            self.transition[~tmask] != NEG_INF
        ):
            raise StructuralError("transition weights violate the IOB2 structure")
        if not np.all(np.isfinite(self.begin[bmask])) or np.any(
            self.begin[~bmask] != NEG_INF
        ):
            raise StructuralError("begin weights violate the IOB2 structure")

    @property
    def tag_ids(self) -> dict[str, int]:
        return {t: i for i, t in enumerate(self.tags)}

    @functools.cached_property
    def feature_ids(self) -> FeatureIds:
        """The model's feature keys, with their per-surface id cache."""
        return FeatureIds(self.feature_index, self.feature_config)

    @functools.cached_property
    def viterbi_tables(self) -> "_ViterbiTables":
        """The transition tables of the pruned Viterbi step."""
        return _ViterbiTables(self.transition, _structure_masks(self.tags)[0])


class _ViterbiTables:
    """What the pruned Viterbi step needs of a model's transitions.

    The targets of `_structure_masks` split in two. An I target has at most
    two predecessors, its B-f and I-f; `i_from` holds them in id order (a
    tag with one predecessor holds it twice) and `i_trans` their transition
    weights into it. Every tag may precede an O/B target (`ob`), and
    `ob_trans` holds their columns. `spread` is the largest max - min of an
    O/B column and `scale` the largest magnitude in them."""

    def __init__(self, transition: np.ndarray, tmask: np.ndarray):
        free = tmask.all(axis=0)
        self.ob = np.flatnonzero(free)
        self.i_to = np.flatnonzero(~free)
        preds = [np.flatnonzero(tmask[:, j]) for j in self.i_to.tolist()]
        if any(len(p) > 2 for p in preds):
            raise StructuralError("an I tag has more than two predecessors")
        self.i_from = np.array([p[[0, -1]] for p in preds], dtype=np.intp).reshape(-1, 2)
        self.i_trans = transition[self.i_from, self.i_to[:, None]]
        self.ob_trans = cols = transition[:, self.ob]
        self.spread = float((cols.max(axis=0) - cols.min(axis=0)).max(initial=0.0))
        self.scale = float(np.abs(cols).max(initial=0.0))


def empty_model(
    labels: Sequence[str],
    feature_index: FeatureIndex,
    feature_config: FeatureConfig,
) -> CrfModel:
    """All-zero weights over the given label subset (structure applied)."""
    tags = tags_for_labels(labels)
    n = len(tags)
    tmask, bmask = _structure_masks(tags)
    transition = np.where(tmask, 0.0, NEG_INF)
    begin = np.where(bmask, 0.0, NEG_INF)
    return CrfModel(
        labels=sort_fields(labels),
        tags=tags,
        emission=np.zeros((len(feature_index), n)),
        transition=transition,
        begin=begin,
        end=np.zeros(n),
        feature_index=feature_index,
        feature_config=feature_config,
    )


# ---------------------------------------------------------------------------
# vectorized instances
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VectorizedInstance:
    """One token sequence's surfaces, plus optional gold tag ids."""

    surfaces: tuple[str, ...]
    gold: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.surfaces)


def vectorize(
    surfaces: Sequence[str],
    model: CrfModel,
    gold_tags: Sequence[str] | None = None,
    name: str = "<instance>",
) -> VectorizedInstance:
    """One token sequence and, optionally, its gold tags as the model's tag
    ids; unknown gold tags are a data error naming the instance. Its feature
    ids are looked up where it is scored (`FeatureIds.keys`)."""
    gold = None
    if gold_tags is not None:
        if len(gold_tags) != len(surfaces):
            raise StructuralError(f"{name}: gold tag count != token count")
        ids = model.tag_ids
        try:
            gold = np.array([ids[t] for t in gold_tags], dtype=np.int64)
        except KeyError as exc:
            raise DataError(f"{name}: tag {exc.args[0]!r} not in model tag set") from None
    return VectorizedInstance(surfaces=tuple(surfaces), gold=gold)


# ---------------------------------------------------------------------------
# inference
# ---------------------------------------------------------------------------

class _Packing:
    """Instances of the given `lengths` (all >= 1) packed for the recursions:
    sorted longest first (stable), then laid out time-major, so that every
    per-position array of the batch shares one (P, L) row order. Step t is
    the `widths[t]` rows from `starts[t]` on, and they continue the first
    `widths[t]` rows of step t-1. `source` maps each packed row to its row in
    the instances stacked one after another, `slot` to its instance's place
    in the sorted order, and `last[k]` is the last row of sorted instance k.
    `buffer` holds the packing's workspace arrays."""

    def __init__(self, lengths: np.ndarray):
        self._buffers: dict[str, np.ndarray] = {}
        order = np.argsort(-lengths, kind="stable")
        # the number of instances longer than t, for every step t
        self.widths = np.bincount(lengths - 1)[::-1].cumsum()[::-1]
        self.starts = np.cumsum(self.widths) - self.widths

        # packed row -> (step, slot in sorted order) -> instance-major row
        step = np.repeat(np.arange(len(self.widths)), self.widths)
        self.slot = np.arange(len(step)) - self.starts[step]
        first = np.cumsum(lengths) - lengths
        self.source = first[order[self.slot]] + step
        # the row of step t-1 continued by each row of steps 1, 2, ...
        w0 = self.widths[0]
        self.prev = np.arange(w0, len(step)) - np.repeat(self.widths[:-1], self.widths[1:])
        self.last = self.starts[lengths[order] - 1] + np.arange(len(lengths))

    def buffer(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        """The workspace array `name`: allocated on its first use with this
        shape, then the same array, contents and all, on every later use."""
        buf = self._buffers.get(name)
        if buf is None or buf.shape != shape:
            buf = self._buffers[name] = np.empty(shape)
        return buf


def _spread(w: np.ndarray) -> float:
    """max - min of the finite entries of `w`, in Python floats, which
    overflow to inf without a warning."""
    w = w[np.isfinite(w)]
    return float(w.max()) - float(w.min())


def _reach(e: np.ndarray, model: CrfModel) -> float:
    """R = m + 6s + 4d + 3 ln L of `_forward_backward`'s proof, for the
    emission scores `e` of a batch. NaN scores give NaN, which no check
    passes."""
    lo, hi = float(e.min()), float(e.max())
    s = max(_spread(model.transition), _spread(model.begin), _spread(model.end))
    return max(hi, -lo, 0.0) + 6.0 * s + 4.0 * (hi - lo) + 3.0 * math.log(e.shape[1])


def _forward_backward(
    e: np.ndarray, pack: _Packing, model: CrfModel
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact inference over a packed batch.

    `e` holds the (P, L) emission scores in the packing's row order. Returns
    the (P, L) tag posteriors in the same order, the (L, L) expected
    transition counts summed over the batch, and logz (N,) per instance,
    longest first. The posteriors are the packing's workspace array "mu",
    which the next call on the same packing overwrites.

    A batch whose `_reach` R is at most `_REACH` takes `_probability_space`,
    any other `_log_space`. With lo and hi the least and largest score in
    `e`, m = max(hi, -lo, 0), d = hi - lo and s the largest spread (max -
    min) of the free transition, begin and end weights,
    R = m + 6s + 4d + 3 ln L.

    Claim: if R <= 700, every nonzero number `_probability_space` computes
    lies in [exp(-R - ln 2), exp(R + ln 1024)], inside the normal range
    [exp(-708.39), exp(709.78)]. Its sums and products are of nonnegative
    numbers, so none cancels, and with nothing lost to underflow or overflow
    each result is within a few ulps per step of its exact value; logz adds
    the logs of the scales to the shifts taken out of the weights.

    Proof, for one instance of n positions (a batch's rows of different
    instances never mix before the final sums). X = exp(trans - max free
    trans) lies in [e^-s, 1] on free entries and is 0 elsewhere; so do the
    begin and end factors exp(w - max w); E = exp(e) lies in [e^lo, e^hi].
    Write a_t for the scaled alphas, which sum to 1: a_0 is the begin
    factor times E_0, and a_t is (a_{t-1} X) * E_t, each divided by its sum
    c_t. (1) (a X)_j <= sum(a) = 1, so c_t <= L e^hi. Every tag may precede
    O and each B tag, and both may begin, so for such a tag j
    (a X)_j >= e^-s, c_t >= e^(lo - s) and a_t(j) >= e^(-s - d) / L =: A1.
    An I tag at t >= 1 follows its B tag: a_t(I) >= A1 e^-s e^lo / c_t >=
    A := e^(-2s - 2d) / L^2. So the nonzero a lie in [A, 1], the terms of
    a X in [A e^-s, 1], the unscaled entries in [A e^(lo - s), e^hi] and
    1 / c in [e^-hi / L, e^(s - lo)]. (2) F = a_{n-1} . end factor lies in
    [e^-s, 1]. (3) Let b_{n-1} = end factor and b_{t-1} = X (E_t b_t) / c_t;
    then a_t . b_t = F at every t. Hence b_t(j) <= F / a_t(j) <= 1 / A where
    a_t(j) > 0. The X rows of B-f and I-f have the same support, so
    b_t(I-f) <= e^s b_t(B-f) <= e^s / A1 <= 1 / A, also where a_0(I-f) = 0.
    Every X row is >= e^-s on the O and B columns, and
    E(I-f) b(I-f) <= e^(d + s) E(B-f) b(B-f), so every b_t(j) is at least
    e^-s / (1 + e^(d + s)) times the largest b_t, which is >= F: b >= B :=
    e^(-3s - d) / 2 (at t = n - 1, b >= e^-s directly). (4) The code carries b / F in [B, e^s / A], its
    product with E in [e^lo B, e^(hi + s) / A], the posteriors a b / F in
    [A B, 1], right = E b / (F c) in [e^-d B / L, e^(d + 2s) / A], the
    terms of right X^T in [e^(-s - d) B / L, e^(d + 2s) / A] with sums up to
    L times that, and the pair terms a(i) right(j) in
    [A e^-d B / L, e^(d + 2s) / A], summed over at most `_SUM_ROWS` = 1024
    rows before the product with X, which leaves them at least e^-s times
    the least term. (5) With ln A = -2s - 2d - 2 ln L and
    ln B = -3s - d - ln 2, the log of every bound lies in
    [-R - ln 2, R + ln 1024].
    """
    if _reach(e, model) <= _REACH:
        return _probability_space(e, pack, model)
    return _log_space(e, pack, model)


def _probability_space(
    e: np.ndarray, pack: _Packing, model: CrfModel
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`_forward_backward` by scaled recursions in probability space; exact
    only where its range check passes."""
    widths, starts = pack.widths.tolist(), pack.starts.tolist()
    w0, n_tags = widths[0], e.shape[1]
    trans_max = model.transition[np.isfinite(model.transition)].max()
    x = np.exp(model.transition - trans_max)  # 0 where forbidden
    begin_max, end_max = model.begin.max(), model.end.max()
    end_x = np.exp(model.end - end_max)

    # forward: mu holds the scaled alphas, each row summing to 1, and c
    # each row's scale
    big_e = np.exp(e, out=pack.buffer("exp_e", e.shape))
    mu = pack.buffer("mu", e.shape)
    c = pack.buffer("c", (len(e),))
    inv_c = pack.buffer("inv_c", (len(e),))
    rows = np.multiply(big_e[:w0], np.exp(model.begin - begin_max), out=mu[:w0])
    for t in range(len(widths)):
        w, lo = widths[t], starts[t]
        if t:
            prev = starts[t - 1]
            rows = np.matmul(mu[prev : prev + w], x, out=mu[lo : lo + w])
            rows *= big_e[lo : lo + w]
        np.sum(rows, axis=1, out=c[lo : lo + w])
        np.divide(1.0, c[lo : lo + w], out=inv_c[lo : lo + w])
        rows *= inv_c[lo : lo + w, None]
    final = (mu[pack.last] * end_x).sum(axis=1)
    log_c = np.log(c)
    log_c[:w0] += begin_max
    log_c[w0:] += trans_max
    logz = np.bincount(pack.slot, weights=log_c) + (np.log(final) + end_max)

    # backward: beta holds the betas of the current step divided by the
    # scales and by each instance's `final`; the rows past a step's width
    # keep their instance's last value. A step's posteriors are its alphas
    # times its betas, and the pair terms of (r - 1, i) -> (r, j) are
    # alpha[r - 1, i] x[i, j] right[r, j] with right = exp(e) * beta / c
    beta = np.multiply((1.0 / final)[:, None], end_x, out=pack.buffer("beta", (w0, n_tags)))
    right_buf = pack.buffer("right", (w0, n_tags))
    expected_trans = np.zeros((n_tags, n_tags))
    for t in range(len(widths) - 1, 0, -1):
        w, lo, prev = widths[t], starts[t], starts[t - 1]
        right = np.multiply(big_e[lo : lo + w], beta[:w], out=right_buf[:w])
        mu[lo : lo + w] *= beta[:w]
        right *= inv_c[lo : lo + w, None]
        for k in range(0, w, _SUM_ROWS):
            pairs = mu[prev + k : prev + min(w, k + _SUM_ROWS)].T @ right[k : k + _SUM_ROWS]
            pairs *= x
            expected_trans += pairs
        np.matmul(right, x.T, out=beta[:w])
    mu[:w0] *= beta
    return mu, expected_trans, logz


def _logsumexp(x: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(x))) along `axis`, where every line holds a finite entry."""
    m = x.max(axis=axis, keepdims=True)
    return np.log(np.exp(x - m).sum(axis=axis)) + np.squeeze(m, axis)


def _log_space(
    e: np.ndarray, pack: _Packing, model: CrfModel
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`_forward_backward` in log space, with a full (row, from, to) block
    per step: exact at any finite weight."""
    widths, starts = pack.widths.tolist(), pack.starts.tolist()
    w0, trans = widths[0], model.transition
    alpha = np.empty_like(e)
    alpha[:w0] = model.begin + e[:w0]
    for t in range(1, len(widths)):
        w, lo, prev = widths[t], starts[t], starts[t - 1]
        alpha[lo : lo + w] = _logsumexp(alpha[prev : prev + w, :, None] + trans, 1) + e[lo : lo + w]
    logz = _logsumexp(alpha[pack.last] + model.end, 1)

    beta = np.empty_like(e)
    beta[pack.last] = model.end
    expected_trans = np.zeros_like(trans)
    for t in range(len(widths) - 1, 0, -1):
        w, lo, prev = widths[t], starts[t], starts[t - 1]
        scores = trans + (e[lo : lo + w] + beta[lo : lo + w])[:, None, :]
        beta[prev : prev + w] = _logsumexp(scores, 2)
        scores += alpha[prev : prev + w, :, None] - logz[:w, None, None]
        expected_trans += np.exp(scores).sum(axis=0)
    mu = pack.buffer("mu", e.shape)
    np.exp(alpha + beta - logz[pack.slot, None], out=mu)
    return mu, expected_trans, logz


def _pruned_step(vp: np.ndarray, tables: _ViterbiTables) -> tuple[np.ndarray, np.ndarray]:
    """One Viterbi step from the path scores `vp` (rows, L) of the previous
    step: the best previous tag of each (row, target) and what it adds, both
    (rows, L), as the full (to, from) block would give them.

    An I target compares its two candidates. For the O/B targets, take a
    row whose best previous tag a beats every other tag f by a gap above
    the spread s. For every O/B target j, v[f] + T[f, j] < v[a] - s +
    max T[:, j] <= v[a] + T[a, j], so a wins, strictly. The gap must also
    clear a few ulps of the magnitudes summed, so that rounding the sums
    cannot make a tie, which the full block would break toward the lower id.
    Only the other rows get the (row, O/B target, from) block."""
    arg = np.empty(vp.shape, dtype=np.intp)
    add = np.empty_like(vp)
    cand = vp[:, tables.i_from] + tables.i_trans  # (row, I target, 2)
    later = cand[:, :, 1] > cand[:, :, 0]  # a tie keeps the lower id
    arg[:, tables.i_to] = np.where(later, tables.i_from[:, 1], tables.i_from[:, 0])
    add[:, tables.i_to] = cand.max(axis=2)

    rows = np.arange(len(vp))
    best = vp.argmax(axis=1)
    top = vp[rows, best]
    rest = vp.copy()
    rest[rows, best] = NEG_INF
    gap = top - rest.max(axis=1)
    margin = tables.spread + _GAP_ULPS * np.finfo(float).eps * (np.abs(top) + tables.scale)
    arg[:, tables.ob] = best[:, None]
    add[:, tables.ob] = top[:, None] + tables.ob_trans[best]
    open_ = np.flatnonzero(~(gap > margin))
    if len(open_):
        scores = vp[open_, None, :] + tables.ob_trans.T  # (row, O/B target, from)
        block = np.ix_(open_, tables.ob)
        arg[block] = best_from = scores.argmax(axis=2)  # first max -> lowest id
        add[block] = np.take_along_axis(scores, best_from[:, :, None], axis=2)[:, :, 0]
    return arg, add


def _viterbi(e: np.ndarray, pack: _Packing, model: CrfModel) -> np.ndarray:
    """Highest-scoring tag ids of a packed batch, in the packing's row order;
    ties break toward the lowest tag id. `e` holds the emission scores and
    is overwritten with the best path scores. Steps of `_PRUNE_ROWS` rows or
    more take `_pruned_step`, the others the full (row, to, from) block."""
    n_tags = e.shape[1]
    steps = pack.widths.tolist()
    starts = pack.starts.tolist()
    trans_to_from = model.transition.T
    # flat indices: of each row's tag 0 in `e`, and of (row, to, from 0) in a
    # full block's scores
    row_base = np.arange(0, e.size, n_tags)
    to_base = np.arange(0, steps[0] * n_tags * n_tags, n_tags).reshape(steps[0], n_tags)
    back = np.empty(e.shape, dtype=np.intp)  # flat index of the best previous (row, tag)
    v = e
    v[: steps[0]] += model.begin
    for t in range(1, len(steps)):
        w, lo, prev = steps[t], starts[t], starts[t - 1]
        rows = v[lo : lo + w]
        if w >= _PRUNE_ROWS:
            arg, add = _pruned_step(v[prev : prev + w], model.viterbi_tables)
            rows += add
        else:
            scores = v[prev : prev + w, None, :] + trans_to_from  # (row, to, from)
            arg = scores.argmax(axis=2)  # first max -> lowest id
            rows += scores.ravel()[arg + to_base[:w]]
        np.add(arg, row_base[prev : prev + w, None], out=back[lo : lo + w])
    # each instance's path ends at its last row; the rows of step t continue
    # the paths of step t+1 back through `back`
    last = pack.last
    best = np.empty(len(e), dtype=np.intp)  # flat index of each row's (row, tag)
    best[last] = (v[last] + model.end).argmax(axis=1) + row_base[last]
    flat_back = back.ravel()
    for t in range(len(steps) - 2, -1, -1):
        w, lo, nxt = steps[t + 1], starts[t], starts[t + 1]
        best[lo : lo + w] = flat_back[best[nxt : nxt + w]]
    return best - row_base


def _emissions(
    model: CrfModel, ids: np.ndarray, sizes: np.ndarray, keys: np.ndarray
) -> np.ndarray:
    """(P, L) emission scores of the positions whose keys are the rows of
    `keys`, with the keys' ids and sizes as `FeatureIds.keys` gives them:
    one product scores the keys, then each key column's scores are gathered
    and added, in column order."""
    scores = ones_matrix(ids, sizes, len(model.feature_index)) @ model.emission
    e = scores[keys[:, 0]]
    for column in keys.T[1:]:
        e += scores[column]
    return e


def _decode(model: CrfModel, surfaces: Sequence[Sequence[str]]) -> list[tuple[str, ...]]:
    """The tags of each token-surface sequence, decoded in packed batches of
    `_DECODE_CHUNK` sequences: one emission pass over a batch's keys and one
    Viterbi pass per batch. Empty sequences get ()."""
    tags: list[tuple[str, ...]] = [()] * len(surfaces)
    lengths = np.array([len(s) for s in surfaces], dtype=np.int64)
    for start in range(0, len(surfaces), _DECODE_CHUNK):
        kept = (start + np.flatnonzero(lengths[start : start + _DECODE_CHUNK])).tolist()
        if not kept:
            continue
        ids, sizes, keys = model.feature_ids.keys([surfaces[i] for i in kept])
        pack = _Packing(lengths[kept])
        best = np.empty(len(pack.source), dtype=np.intp)
        best[pack.source] = _viterbi(_emissions(model, ids, sizes, keys[pack.source]), pack, model)
        names = [model.tags[i] for i in best.tolist()]
        end = 0
        for i in kept:
            begin, end = end, end + len(surfaces[i])
            tags[i] = tuple(names[begin:end])
    return tags


def predict_tags(model: CrfModel, surfaces: Sequence[str]) -> tuple[str, ...]:
    """Decode one token sequence; empty input decodes to ()."""
    return _decode(model, [surfaces])[0]


def viterbi(inst: VectorizedInstance, model: CrfModel) -> tuple[str, ...]:
    """`predict_tags` of the instance's surfaces."""
    return predict_tags(model, inst.surfaces)


def marginals(model: CrfModel, surfaces: Sequence[str]) -> np.ndarray:
    """(T, L) tag posteriors of one token sequence, from the emission scores
    that decoding uses; rows sum to 1."""
    if not surfaces:
        raise StructuralError("marginals of a zero-length instance")
    e = _emissions(model, *model.feature_ids.keys([surfaces]))
    mu, _, _ = _forward_backward(e, _Packing(np.array([len(surfaces)])), model)
    return mu


def decode_many(model: CrfModel, raws: Sequence[str]) -> list[LabeledReference]:
    """Tokenize raw texts and decode them in packed batches (`_decode`)."""
    tokens = [tokenize(raw) for raw in raws]
    tags = _decode(model, [[t.surface for t in toks] for toks in tokens])
    return [LabeledReference(raw=r, tokens=k, tags=g) for r, k, g in zip(raws, tokens, tags)]


def decode(model: CrfModel, raw: str) -> LabeledReference:
    """Tokenize raw text and decode it."""
    return decode_many(model, [raw])[0]


# ---------------------------------------------------------------------------
# batch NLL and gradient
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CrfGradient:
    emission: np.ndarray
    transition: np.ndarray  # zeros on structurally forbidden entries
    begin: np.ndarray
    end: np.ndarray


class _Batch(_Packing):
    """Gold instances packed for `_forward_backward`, with the observed
    transition, begin and end counts. Their feature rows, stacked one
    instance after another, are `h @ xv`: `h` (P, K) picks each position's
    keys and `xv` (K, F) holds each key's feature ids, in the one key layout
    that `train` (`training_factors`) and `nll_and_gradient`
    (`FeatureIds.keys`) both build. `gold` holds the gold tag ids
    and `lengths` the instance lengths. The packing permutes the rows of `h`
    and `gold` only. `gold_flat` holds each packed row's flat index of its
    gold tag in a (P, L) array."""

    def __init__(
        self,
        h: sparse.csr_matrix,
        xv: sparse.csr_matrix,
        gold: np.ndarray,
        lengths: np.ndarray,
        n_tags: int,
    ):
        super().__init__(lengths)
        self.h = h[self.source]
        self.xv = xv
        g = gold[self.source]
        self.gold_flat = np.arange(len(g)) * n_tags + g
        w0 = self.widths[0]
        self.trans_counts = np.zeros((n_tags, n_tags))
        np.add.at(self.trans_counts, (g[self.prev], g[w0:]), 1.0)
        self.begin_counts = np.bincount(g[:w0], minlength=n_tags)
        self.end_counts = np.bincount(g[self.last], minlength=n_tags)


def _batch_nll_grad(
    batch: _Batch, model: CrfModel, l2: float
) -> tuple[float, CrfGradient]:
    tmask, bmask = _structure_masks(model.tags)
    w0 = batch.widths[0]
    e = batch.h @ (batch.xv @ model.emission)  # (P, L)
    mu, expected_trans, logz = _forward_backward(e, batch, model)

    # gold path score; e is dead after it, and freeing it now lets the
    # gradient's products reuse its memory
    gold_score = float(e.take(batch.gold_flat).sum())
    del e
    gold_score += float((model.transition[tmask] * batch.trans_counts[tmask]).sum())
    gold_score += float((model.begin[bmask] * batch.begin_counts[bmask]).sum())
    gold_score += float((model.end * batch.end_counts).sum())

    nll = float(logz.sum()) - gold_score

    # gradients: expected - observed (+ l2 * w)
    grad_trans = expected_trans - batch.trans_counts
    grad_trans[~tmask] = 0.0
    grad_begin = mu[:w0].sum(axis=0) - batch.begin_counts
    grad_begin[~bmask] = 0.0
    grad_end = mu[batch.last].sum(axis=0) - batch.end_counts
    residual = mu  # the workspace's, so ravel() is a view
    residual.ravel()[batch.gold_flat] -= 1.0
    grad_emission = batch.xv.T @ (batch.h.T @ residual)

    if l2:
        w = _pack(model, tmask, bmask, out=batch.buffer("l2", (_n_params(model, tmask, bmask),)))
        # numpy's pairwise sum, not a BLAS dot, so no thread count changes it;
        # w is dead after it, and its head holds l2 * emission
        nll += 0.5 * l2 * float(np.add.reduce(np.multiply(w, w, out=w)))
        l2_emission = w[: model.emission.size].reshape(model.emission.shape)
        grad_emission += np.multiply(l2, model.emission, out=l2_emission)
        grad_trans[tmask] += l2 * model.transition[tmask]
        grad_begin[bmask] += l2 * model.begin[bmask]
        grad_end += l2 * model.end

    return nll, CrfGradient(grad_emission, grad_trans, grad_begin, grad_end)


def nll_and_gradient(
    instances: Sequence[VectorizedInstance], model: CrfModel, l2: float = 0.0
) -> tuple[float, CrfGradient]:
    """Regularized negative log-likelihood of the batch and its gradient,
    over the rows that `train` builds: the instances' keys
    (`FeatureIds.keys`). `l2` is checked as `TrainConfig` checks it."""
    TrainConfig(l2=l2)
    if not instances:
        raise UsageError("batch must be non-empty")
    for inst in instances:
        if inst.gold is None:
            raise UsageError("batch instances need gold tags")
        if len(inst) == 0:
            raise StructuralError("zero-length instance in batch")
    ids, sizes, keys = model.feature_ids.keys([inst.surfaces for inst in instances])
    batch = _Batch(
        ones_matrix(keys.ravel(), np.full(len(keys), keys.shape[1]), len(sizes)),
        ones_matrix(ids, sizes, len(model.feature_index)),
        np.concatenate([inst.gold for inst in instances]),
        np.array([len(inst) for inst in instances], dtype=np.int64),
        len(model.tags),
    )
    return _batch_nll_grad(batch, model, l2)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def _n_params(model: CrfModel, tmask: np.ndarray, bmask: np.ndarray) -> int:
    return model.emission.size + int(tmask.sum()) + int(bmask.sum()) + len(model.end)


def _pack(
    model: CrfModel, tmask: np.ndarray, bmask: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    return np.concatenate(
        [
            model.emission.ravel(),
            model.transition[tmask],
            model.begin[bmask],
            model.end,
        ],
        out=out,
    )


def _unpack(
    x: np.ndarray, model: CrfModel, tmask: np.ndarray, bmask: np.ndarray
) -> CrfModel:
    n_tags = len(model.tags)
    n_em = model.emission.size
    n_tr = int(tmask.sum())
    n_bg = int(bmask.sum())
    emission = x[:n_em].reshape(model.emission.shape)
    transition = np.full((n_tags, n_tags), NEG_INF)
    transition[tmask] = x[n_em : n_em + n_tr]
    begin = np.full(n_tags, NEG_INF)
    begin[bmask] = x[n_em + n_tr : n_em + n_tr + n_bg]
    end = x[n_em + n_tr + n_bg :].copy()
    return replace(model, emission=emission, transition=transition, begin=begin, end=end)


def _grad_vector(grad: CrfGradient, tmask: np.ndarray, bmask: np.ndarray) -> np.ndarray:
    return np.concatenate(
        [grad.emission.ravel(), grad.transition[tmask], grad.begin[bmask], grad.end]
    )


def train(
    corpus: "Corpus",
    feature_config: FeatureConfig | None = None,
    train_config: TrainConfig | None = None,
) -> CrfModel:
    """Fit a model on a labeled corpus over its declared label subset.

    Deterministic given the corpus order and configs (weights start at zero
    and the optimizer has no stochastic component). Logs the (step, NLL)
    pairs at INFO level.
    """
    feature_config = feature_config or FeatureConfig()
    train_config = train_config or TrainConfig()
    usable = [inst for inst in corpus.instances if len(inst.tokens) > 0]
    if not usable:
        raise UsageError("corpus has no usable (non-empty) instances")

    index, h, xv = training_factors([inst.surfaces() for inst in usable], feature_config)
    model = empty_model(corpus.labels, index, feature_config)
    # a Corpus holds only tags of its declared labels, so every tag has an id
    ids = model.tag_ids
    batch = _Batch(
        h, xv,
        np.array([ids[t] for inst in usable for t in inst.tags], dtype=np.int64),
        np.array([len(inst.tokens) for inst in usable], dtype=np.int64),
        len(model.tags),
    )
    tmask, bmask = _structure_masks(model.tags)

    def objective(x: np.ndarray) -> tuple[float, np.ndarray]:
        m = _unpack(x, model, tmask, bmask)
        nll, grad = _batch_nll_grad(batch, m, train_config.l2)
        g = _grad_vector(grad, tmask, bmask)
        if np.isnan(nll) or np.isnan(g).any():
            raise NumericError(
                f"NaN in objective/gradient at |x|={np.abs(x).max():.3g}"
            )
        return nll, g

    x0 = _pack(model, tmask, bmask)
    result = optim.minimize(
        objective,
        x0,
        max_iter=train_config.max_epochs,
        rel_tol=train_config.tol,
    )
    for step, value in result.log:
        log.info("epoch %d: nll %.6f", step, value)
    if not result.converged:
        log.warning(
            "training stopped at max_epochs=%d before converging "
            "(%d steps, %d objective evaluations, gradient norm %.3g)",
            train_config.max_epochs, result.log[-1][0], result.n_evals, result.grad_norm,
        )
    return _unpack(result.x, model, tmask, bmask)


# ---------------------------------------------------------------------------
# model file I/O
# ---------------------------------------------------------------------------

def _encode_array(arr: np.ndarray) -> dict:
    finite = np.where(np.isfinite(arr), arr, 0.0)
    return {
        "shape": list(arr.shape),
        "data": base64.b64encode(finite.astype("<f8").tobytes()).decode("ascii"),
    }


def _decode_array(obj: dict) -> np.ndarray:
    data = np.frombuffer(base64.b64decode(obj["data"]), dtype="<f8")
    return data.reshape(obj["shape"]).astype(np.float64)


def save_model(model: CrfModel, path) -> None:
    """Write a gzip-compressed JSON container (stable bytes for equal models)."""
    payload = {
        "format": MODEL_FORMAT,
        "labels": list(model.labels),
        "tags": list(model.tags),
        "tokenizer_config": _TOKENIZER_CONFIG,
        "feature_config": model.feature_config.to_dict(),
        "feature_names": list(model.feature_index.names),
        "emission": _encode_array(model.emission),
        "transition": _encode_array(model.transition),
        "begin": _encode_array(model.begin),
        "end": _encode_array(model.end),
    }
    raw = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    buf = io.BytesIO()
    with gzip.GzipFile(fileobj=buf, mode="wb", mtime=0) as fh:
        fh.write(raw)
    with open(path, "wb") as out:
        out.write(buf.getvalue())


def load_model(path) -> CrfModel:
    """Read a model file; any malformed content raises DataError."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        if blob[:2] == b"\x1f\x8b":
            blob = gzip.decompress(blob)
        payload = json.loads(blob.decode("utf-8"))
    except (OSError, EOFError, zlib.error, ValueError) as exc:
        raise DataError(f"not a model file: {exc}") from None
    fmt = payload.get("format") if isinstance(payload, dict) else None
    if fmt != MODEL_FORMAT:
        raise DataError(f"unsupported model format {fmt!r}, expected {MODEL_FORMAT}")
    try:
        labels, tags = tuple(payload["labels"]), tuple(payload["tags"])
        if tags != tags_for_labels(labels):
            raise DataError(f"tags {list(tags)} are not the tag set of {list(labels)}")
        if payload["tokenizer_config"] != _TOKENIZER_CONFIG:
            raise DataError(
                f"tokenizer_config records {payload['tokenizer_config']!r}, "
                f"but this version implements only {_TOKENIZER_CONFIG!r}"
            )
        names = payload["feature_names"]
        if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            raise DataError("feature_names must be a list of strings")
        tmask, bmask = _structure_masks(tags)
        transition = _decode_array(payload["transition"])
        transition[~tmask] = NEG_INF
        begin = _decode_array(payload["begin"])
        begin[~bmask] = NEG_INF
        return CrfModel(
            labels=labels,
            tags=tags,
            emission=_decode_array(payload["emission"]),
            transition=transition,
            begin=begin,
            end=_decode_array(payload["end"]),
            feature_index=FeatureIndex(names=tuple(names)),
            feature_config=FeatureConfig.from_dict(payload["feature_config"]),
        )
    except (
        AttributeError, LookupError, TypeError, ValueError, StructuralError, UsageError
    ) as exc:
        raise DataError(f"malformed model file: {type(exc).__name__}: {exc}") from None
