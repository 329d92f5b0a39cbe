"""Linear-chain CRF: scoring, exact log-space inference, and batch training.

The tag set is O plus B-f/I-f for every field in the model's label subset,
with ids ordered O first, then B/I per canonical field order. Transitions
into I-f from anything other than B-f/I-f carry -inf and are never treated
as parameters, so decoded output is IOB2-valid by construction.

All recursions work in log space. Inside one forward/backward step the
log-sum-exp is computed as max-shift + exp + matmul against exp(transitions),
which keeps the per-step work in BLAS. Against brute-force enumeration this
was exact on every random model tried with weights in +-200 (pinned by
test_large_weights_match_enumeration) and wrong on 7 of 100 in +-400.
"""

from __future__ import annotations

import base64
import gzip
import io
import json
import logging
import zlib
from dataclasses import asdict, dataclass, replace
from typing import TYPE_CHECKING, Sequence

import numpy as np
from scipy import sparse

from . import optim
from .errors import DataError, NumericError, StructuralError, UsageError
from .features import (
    FeatureConfig, FeatureIndex, build_index, corpus_features, extract, id_matrix
)
from .labels import (
    OUT,
    LabeledReference,
    make_tag,
    sort_fields,
    tag_field,
    tag_kind,
)
from .tokenizer import DEFAULT_TOKENIZER, TokenizerConfig, tokenize

if TYPE_CHECKING:
    from .corpus import Corpus

log = logging.getLogger(__name__)

MODEL_FORMAT = "refparse-model-v1"

NEG_INF = float("-inf")

# exponent cap used when factoring exp(a+b) as exp(a)*exp(b) in the pairwise
# expectation; the module docstring gives the weight range where that is exact
_EXP_CAP = 600.0


def tags_for_labels(labels: Sequence[str]) -> tuple[str, ...]:
    """["O", "B-f1", "I-f1", "B-f2", ...] in canonical field order."""
    ordered = sort_fields(labels)
    tags: list[str] = [OUT]
    for f in ordered:
        tags.append(make_tag("B", f))
        tags.append(make_tag("I", f))
    return tuple(tags)


def _structure_masks(tags: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """(transition mask, begin mask): True where the weight is a free
    parameter, False where it is structurally -inf."""
    n = len(tags)
    trans = np.ones((n, n), dtype=bool)
    begin = np.ones(n, dtype=bool)
    for j, tj in enumerate(tags):
        if tag_kind(tj) != "I":
            continue
        fj = tag_field(tj)
        begin[j] = False
        for i, ti in enumerate(tags):
            if tag_kind(ti) == "O" or tag_field(ti) != fj:
                trans[i, j] = False
    return trans, begin


@dataclass(frozen=True)
class TrainConfig:
    l2: float = 1.0
    max_epochs: int = 200
    tol: float = 1e-4

    def __post_init__(self) -> None:
        if not (np.isfinite(self.l2) and self.l2 >= 0):
            raise UsageError(f"l2 strength must be finite and >= 0, got {self.l2}")
        if not (np.isfinite(self.tol) and self.tol > 0):
            raise UsageError(f"tolerance must be finite and > 0, got {self.tol}")
        if self.max_epochs < 1:
            raise UsageError(f"max_epochs must be >= 1, got {self.max_epochs}")

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
    tokenizer_config: TokenizerConfig = DEFAULT_TOKENIZER

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


def empty_model(
    labels: Sequence[str],
    feature_index: FeatureIndex,
    feature_config: FeatureConfig,
    tokenizer_config: TokenizerConfig = DEFAULT_TOKENIZER,
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
        tokenizer_config=tokenizer_config,
    )


# ---------------------------------------------------------------------------
# vectorized instances
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VectorizedInstance:
    """(T, F) feature matrix, 1 where a feature is active at a position,
    plus optional gold tag ids."""

    x: sparse.csr_matrix
    gold: np.ndarray | None = None

    def __len__(self) -> int:
        return self.x.shape[0]


def vectorize(
    surfaces: Sequence[str],
    model: CrfModel,
    gold_tags: Sequence[str] | None = None,
    name: str = "<instance>",
) -> VectorizedInstance:
    """Map one token sequence (and optionally its gold tags) onto the model's
    feature and tag ids. Unknown features are dropped; unknown gold tags are
    a data error naming the instance."""
    index = model.feature_index
    x = id_matrix(map(index.lookup_many, extract(surfaces, model.feature_config)), index)
    gold = None
    if gold_tags is not None:
        if len(gold_tags) != len(surfaces):
            raise StructuralError(f"{name}: gold tag count != token count")
        ids = model.tag_ids
        try:
            gold = np.array([ids[t] for t in gold_tags], dtype=np.int64)
        except KeyError as exc:
            raise DataError(f"{name}: tag {exc.args[0]!r} not in model tag set") from None
    return VectorizedInstance(x=x, gold=gold)


# ---------------------------------------------------------------------------
# inference
# ---------------------------------------------------------------------------

def score_path(inst: VectorizedInstance, tags: Sequence[str], model: CrfModel) -> float:
    """Sum of emission and transition weights along one tag path."""
    if len(tags) != len(inst):
        raise StructuralError(f"{len(tags)} tags for {len(inst)} positions")
    if len(inst) == 0:
        raise StructuralError("score_path of a zero-length instance")
    ids = model.tag_ids
    try:
        path = [ids[t] for t in tags]
    except KeyError as exc:
        raise StructuralError(f"tag {exc.args[0]!r} not in model tag set") from None
    e = inst.x @ model.emission
    total = model.begin[path[0]] + e[0, path[0]]
    for t in range(1, len(path)):
        total += model.transition[path[t - 1], path[t]] + e[t, path[t]]
    total += model.end[path[-1]]
    return float(total)


def _count_above(counts: np.ndarray) -> np.ndarray:
    """out[k] = number of counts above k: instance lengths -> step widths,
    and step widths -> the lengths sorted longest first."""
    return np.bincount(counts - 1)[::-1].cumsum()[::-1]


def _last_rows(widths: np.ndarray) -> np.ndarray:
    """Packed row of each instance's last position, longest instance first."""
    starts = np.cumsum(widths) - widths
    return starts[_count_above(widths) - 1] + np.arange(widths[0])


def _forward_backward(
    e: np.ndarray, widths: np.ndarray, model: CrfModel
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Log-space forward and backward tables over a packed batch.

    The instances are sorted longest first and laid out time-major: step t
    is one block of `widths[t]` rows, and its rows continue the first
    `widths[t]` rows of step t-1. `e` holds the (P, L) emission scores in
    that order. Returns alphas and betas (P, L) in the same order, and logz
    (N,) per instance, longest first.
    """
    starts = np.cumsum(widths) - widths
    exp_trans = np.exp(model.transition)

    alphas = np.empty_like(e)
    alphas[: widths[0]] = model.begin + e[: widths[0]]
    # rows on an instance's last position keep `end`; the rest are overwritten
    betas = np.tile(model.end, (len(e), 1))
    with np.errstate(divide="ignore"):
        for t in range(1, len(widths)):
            prev = slice(starts[t - 1], starts[t - 1] + widths[t])
            rows = slice(starts[t], starts[t] + widths[t])
            m = alphas[prev].max(axis=1, keepdims=True)
            alphas[rows] = m + np.log(np.exp(alphas[prev] - m) @ exp_trans) + e[rows]
        for t in range(len(widths) - 1, 0, -1):
            prev = slice(starts[t - 1], starts[t - 1] + widths[t])
            rows = slice(starts[t], starts[t] + widths[t])
            v = betas[rows] + e[rows]
            m = v.max(axis=1, keepdims=True)
            betas[prev] = m + np.log(np.exp(v - m) @ exp_trans.T)
    final = alphas[_last_rows(widths)] + model.end
    m = final.max(axis=1, keepdims=True)
    logz = m[:, 0] + np.log(np.exp(final - m).sum(axis=1))
    return alphas, betas, logz


def log_partition(inst: VectorizedInstance, model: CrfModel) -> float:
    """log of the summed exponentiated scores over all tag paths."""
    if len(inst) == 0:
        raise StructuralError("log_partition of a zero-length instance")
    e = inst.x @ model.emission
    _, _, logz = _forward_backward(e, np.ones(len(inst), dtype=np.int64), model)
    return float(logz[0])


def marginals(inst: VectorizedInstance, model: CrfModel) -> np.ndarray:
    """(T, L) per-position tag posteriors; rows sum to 1."""
    if len(inst) == 0:
        raise StructuralError("marginals of a zero-length instance")
    e = inst.x @ model.emission
    alphas, betas, logz = _forward_backward(e, np.ones(len(inst), dtype=np.int64), model)
    return np.exp(alphas + betas - logz[0])


def viterbi(inst: VectorizedInstance, model: CrfModel) -> tuple[str, ...]:
    """Highest-scoring tag path; ties break toward the lowest tag id."""
    if len(inst) == 0:
        raise StructuralError("viterbi of a zero-length instance")
    e = inst.x @ model.emission
    v = model.begin + e[0]
    backptr = np.zeros((len(e), len(model.tags)), dtype=np.int64)
    for t in range(1, len(e)):
        scores = v[:, None] + model.transition
        backptr[t] = scores.argmax(axis=0)  # first max -> lowest id
        v = scores[backptr[t], np.arange(scores.shape[1])] + e[t]
    last = int((v + model.end).argmax())
    path = [last]
    for t in range(len(e) - 1, 0, -1):
        path.append(int(backptr[t, path[-1]]))
    path.reverse()
    return tuple(model.tags[i] for i in path)


def predict_tags(model: CrfModel, surfaces: Sequence[str]) -> tuple[str, ...]:
    """Decode one token sequence; empty input decodes to ()."""
    if not surfaces:
        return ()
    return viterbi(vectorize(surfaces, model), model)


def decode(model: CrfModel, raw: str) -> LabeledReference:
    """Tokenize raw text with the model's tokenizer config and decode."""
    tokens = tokenize(raw, model.tokenizer_config)
    tags = predict_tags(model, tuple(t.surface for t in tokens))
    return LabeledReference(raw=raw, tokens=tokens, tags=tags)


# ---------------------------------------------------------------------------
# batch NLL and gradient
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CrfGradient:
    emission: np.ndarray
    transition: np.ndarray  # zeros on structurally forbidden entries
    begin: np.ndarray
    end: np.ndarray


class _Batch:
    """Vectorized gold instances packed for `_forward_backward`: sorted
    longest first (stable), then laid out time-major, so that every
    per-position array of the batch shares one (P, L) row order."""

    def __init__(self, instances: Sequence[VectorizedInstance], model: CrfModel):
        if not instances:
            raise UsageError("batch must be non-empty")
        for inst in instances:
            if inst.gold is None:
                raise UsageError("batch instances need gold tags")
            if len(inst) == 0:
                raise StructuralError("zero-length instance in batch")
        n_tags = len(model.tags)
        lengths = np.array([len(i) for i in instances], dtype=np.int64)
        order = np.argsort(-lengths, kind="stable")
        self.widths = _count_above(lengths)
        starts = np.cumsum(self.widths) - self.widths

        # packed row -> (step, slot in sorted order) -> instance-major row
        step = np.repeat(np.arange(len(self.widths)), self.widths)
        self.slot = np.arange(len(step)) - starts[step]
        first = np.cumsum(lengths) - lengths
        source = first[order[self.slot]] + step
        self.x = sparse.vstack([inst.x for inst in instances], format="csr")[source]
        self.gold = np.concatenate([inst.gold for inst in instances])[source]
        # the row of step t-1 continued by each row of steps 1, 2, ...
        w0 = self.widths[0]
        self.prev = np.arange(w0, len(step)) - np.repeat(self.widths[:-1], self.widths[1:])
        self.last = _last_rows(self.widths)

        # observed transition / begin / end counts
        g = self.gold
        self.trans_counts = np.zeros((n_tags, n_tags))
        np.add.at(self.trans_counts, (g[self.prev], g[w0:]), 1.0)
        self.begin_counts = np.bincount(g[:w0], minlength=n_tags)
        self.end_counts = np.bincount(g[self.last], minlength=n_tags)


def _batch_nll_grad(
    batch: _Batch, model: CrfModel, l2: float
) -> tuple[float, CrfGradient]:
    tmask, bmask = _structure_masks(model.tags)
    w0 = batch.widths[0]
    e = batch.x @ model.emission  # (P, L)
    alphas, betas, logz = _forward_backward(e, batch.widths, model)
    logz_rows = logz[batch.slot, None]

    # per-position posteriors; the exponent is <= 0 up to rounding
    mu = np.exp(np.minimum(alphas + betas - logz_rows, 0.0))

    # expected transition counts over every row r of steps 1, 2, ...:
    # sum_r exp(alpha[prev r, i]) exp(trans[i, j]) exp(e + beta - logz)[r, j]
    a_prev = alphas[batch.prev]
    s1 = a_prev.max(axis=1, keepdims=True)
    left = np.exp(a_prev - s1)
    right = np.exp(np.minimum(e[w0:] + betas[w0:] - logz_rows[w0:] + s1, _EXP_CAP))
    expected_trans = (left.T @ right) * np.exp(model.transition)

    # gold path score
    p_idx = np.arange(len(batch.gold))
    gold_score = float(e[p_idx, batch.gold].sum())
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
    residual = mu
    residual[p_idx, batch.gold] -= 1.0
    grad_emission = np.asarray(batch.x.T @ residual)

    if l2:
        w = _pack(model, tmask, bmask)
        nll += 0.5 * l2 * float(w @ w)
        grad_emission += l2 * model.emission
        grad_trans[tmask] += l2 * model.transition[tmask]
        grad_begin[bmask] += l2 * model.begin[bmask]
        grad_end += l2 * model.end

    return nll, CrfGradient(grad_emission, grad_trans, grad_begin, grad_end)


def nll_and_gradient(
    instances: Sequence[VectorizedInstance], model: CrfModel, l2: float = 0.0
) -> tuple[float, CrfGradient]:
    """Regularized negative log-likelihood of the batch and its gradient."""
    return _batch_nll_grad(_Batch(instances, model), model, l2)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def _pack(model: CrfModel, tmask: np.ndarray, bmask: np.ndarray) -> np.ndarray:
    return np.concatenate(
        [
            model.emission.ravel(),
            model.transition[tmask],
            model.begin[bmask],
            model.end,
        ]
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
    tokenizer_config: TokenizerConfig = DEFAULT_TOKENIZER,
    training_log: list[tuple[int, float]] | None = None,
) -> CrfModel:
    """Fit a model on a labeled corpus over its declared label subset.

    Deterministic given the corpus order and configs (weights start at zero
    and the optimizer has no stochastic component). Appends (step, NLL) pairs
    to `training_log` when given, and logs them at INFO level.
    """
    feature_config = feature_config or FeatureConfig()
    train_config = train_config or TrainConfig()
    usable = [inst for inst in corpus.instances if len(inst.tokens) > 0]
    if not usable:
        raise UsageError("corpus has no usable (non-empty) instances")

    index, x = build_index(
        corpus_features((inst.surfaces() for inst in usable), feature_config),
        feature_config.min_count,
    )
    model = empty_model(corpus.labels, index, feature_config, tokenizer_config)
    # a Corpus holds only tags of its declared labels, so every tag has an id
    ids = model.tag_ids
    starts = np.cumsum([0] + [len(inst.tokens) for inst in usable])
    vec = [
        VectorizedInstance(x[a:b], np.array([ids[t] for t in inst.tags], np.int64))
        for a, b, inst in zip(starts, starts[1:], usable)
    ]
    del x  # the batch is built from the per-instance slices alone
    batch = _Batch(vec, model)
    tmask, bmask = _structure_masks(model.tags)

    def objective(x: np.ndarray) -> tuple[float, np.ndarray]:
        m = _unpack(x, model, tmask, bmask)
        nll, grad = _batch_nll_grad(batch, m, train_config.l2)
        g = _grad_vector(grad, tmask, bmask)
        if np.isnan(nll) or np.isnan(g.dot(g)):
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
        if training_log is not None:
            training_log.append((step, value))
    if not result.converged:
        log.warning(
            "training stopped at max_epochs=%d before converging "
            "(%d steps, %d objective evaluations)",
            train_config.max_epochs, result.log[-1][0], result.n_evals,
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
        "tokenizer_config": model.tokenizer_config.to_dict(),
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
        tags = tuple(payload["tags"])
        tmask, bmask = _structure_masks(tags)
        transition = _decode_array(payload["transition"])
        transition[~tmask] = NEG_INF
        begin = _decode_array(payload["begin"])
        begin[~bmask] = NEG_INF
        return CrfModel(
            labels=tuple(payload["labels"]),
            tags=tags,
            emission=_decode_array(payload["emission"]),
            transition=transition,
            begin=begin,
            end=_decode_array(payload["end"]),
            feature_index=FeatureIndex(names=tuple(payload["feature_names"])),
            feature_config=FeatureConfig.from_dict(payload["feature_config"]),
            tokenizer_config=TokenizerConfig.from_dict(payload["tokenizer_config"]),
        )
    except (
        AttributeError, LookupError, TypeError, ValueError, StructuralError, UsageError
    ) as exc:
        raise DataError(f"malformed model file: {type(exc).__name__}: {exc}") from None
