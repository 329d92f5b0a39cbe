"""Independent oracles shared by the CRF tests and the acceptance suite.

Everything here recomputes quantities by brute force (exhaustive path
enumeration, direct summation) so the tests never trust the code path they
check. Enumeration is vectorized over the full path table to keep hundreds
of oracle comparisons fast.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from scipy import sparse

from refparse import crf
from refparse.features import FeatureConfig, FeatureIndex

FIELDS = ("author", "title", "date")


def random_model(
    rng: np.random.Generator, n_fields: int = 2, n_feats: int = 8, scale: float = 2.0
):
    """A model with weights uniform in [-scale, scale] on all free parameters."""
    index = FeatureIndex(names=tuple(f"f{i}" for i in range(n_feats)))
    model = crf.empty_model(
        FIELDS[:n_fields], index, FeatureConfig(use_gazetteers=False)
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


def instance(rows, n_feats: int, gold=None):
    """A VectorizedInstance whose position t has the feature ids rows[t]."""
    indptr = np.cumsum([0] + [len(r) for r in rows])
    indices = np.array([i for r in rows for i in r], dtype=np.int64)
    x = sparse.csr_matrix(
        (np.ones(len(indices)), indices, indptr), shape=(len(rows), n_feats)
    )
    return crf.VectorizedInstance(x=x, gold=gold)


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
