"""Sparse feature templates for the CRF.

Every template emits a readable string name like "w[-1]=vol" or "shape[0]=d";
names carry their template id and offset so they never collide across
templates. The mapping from names to dense ids (FeatureIndex) is frozen at
training time and serialized with the model, so unknown names at inference
simply score zero. One key layout (`_factors`) serves training and
inference: a position's row is the sum of 2 * window + 3 keys, each one a
surface (or bos/eos) at a window offset, a surface's affixes, or a position
bucket. Training names each distinct token surface once
(`training_factors`); at inference one cache (FeatureIds) holds each
surface's key ids, and `corpus_features` gives a position's names by
expanding its keys. The name-level walk over each position's window, which
names every position on its own, is kept in `tests/oracles.py` as the
reference that this layout is checked against.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass, field
from importlib import resources
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np
from scipy import sparse

from .corpus import text_lines
from .errors import DataError, StructuralError, UsageError, check_number, shown

_GAZETTEER_FILES = ("months", "ordinals", "containers")

# prefix and suffix lengths of the center token's affix features
AFFIX_LENGTHS = (1, 2, 3, 4)

# model-file keys of templates that are fixed, with the values implemented
_FIXED_TEMPLATES = {"affix_lengths": list(AFFIX_LENGTHS), "use_shape": True}

# the widest window offset a FeatureConfig accepts: a position's row holds
# 2 * window + 3 keys, so an unbounded window would allocate without end
MAX_WINDOW = 16


def load_gazetteer_file(path) -> frozenset[str]:
    """Read one word list: UTF-8, one lowercase word per line (lines end as
    in `corpus.text_lines`), '#' comments.

    Accepts anything with read_text (pathlib.Path, importlib resources).
    """
    words = set()
    for line in text_lines(path.read_text(encoding="utf-8")):
        line = line.strip()
        if line and not line.startswith("#"):
            words.add(line.lower())
    return frozenset(words)


@functools.cache
def builtin_gazetteers() -> Mapping[str, frozenset[str]]:
    """The word lists shipped with the package, read once per process."""
    root = resources.files("refparse") / "gazetteers"
    return MappingProxyType(
        {name: load_gazetteer_file(root / f"{name}.txt") for name in _GAZETTEER_FILES}
    )


@dataclass(frozen=True)
class FeatureConfig:
    """The settable feature templates of a model.

    `gazetteers` is resolved at construction into a read-only mapping sorted
    by list name: the given lists or, when None, the builtin ones; `{}`
    turns gazetteer features off.
    """

    window: int = 2
    gazetteers: Mapping[str, frozenset[str]] | None = None
    min_count: int = 1

    def __post_init__(self) -> None:
        check_number("window", self.window, integer=True)
        check_number("min_count", self.min_count, integer=True)
        if not 0 <= self.window <= MAX_WINDOW:
            raise UsageError(f"window must be in 0..{MAX_WINDOW}, got {shown(self.window)}")
        if self.min_count < 1:
            raise UsageError(f"min_count must be >= 1, got {shown(self.min_count)}")
        gaz = builtin_gazetteers() if self.gazetteers is None else self.gazetteers
        gaz = MappingProxyType({k: frozenset(v) for k, v in sorted(gaz.items())})
        object.__setattr__(self, "gazetteers", gaz)

    def to_dict(self) -> dict:
        """The model-file form, which also records the fixed templates."""
        return {
            "window": self.window,
            **_FIXED_TEMPLATES,
            "use_gazetteers": bool(self.gazetteers),
            "gazetteers": {k: sorted(v) for k, v in self.gazetteers.items()},
            "min_count": self.min_count,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FeatureConfig":
        """Inverse of `to_dict`. A fixed template recorded with another value,
        a `use_gazetteers` that is not a bool, or `gazetteers` that are not an
        object of string lists, raises DataError naming it (the constructor
        checks the rest); `use_gazetteers` false drops the lists."""
        for key, value in _FIXED_TEMPLATES.items():
            if data[key] != value:
                raise DataError(
                    f"feature_config records {key}={data[key]!r}, "
                    f"but this version implements only {value!r}"
                )
        gaz = data["gazetteers"]
        string_lists = isinstance(gaz, dict) and all(
            isinstance(words, list) and all(isinstance(w, str) for w in words)
            for words in gaz.values()
        )
        for key, ok, kind in (
            ("use_gazetteers", type(data["use_gazetteers"]) is bool, "a bool"),
            ("gazetteers", string_lists, "an object of string lists"),
        ):
            if not ok:
                raise DataError(f"feature_config {key} must be {kind}, got {data[key]!r}")
        return cls(
            window=data["window"],
            gazetteers=gaz if data["use_gazetteers"] else {},
            min_count=data["min_count"],
        )


def word_shape(s: str) -> str:
    """Collapsed case/digit/punct pattern: "Proceedings" -> "Xx", "2015" -> "d"."""
    out: list[str] = []
    for ch in s:
        if ch.isdigit():
            c = "d"
        elif ch.isalpha():
            c = "X" if ch.isupper() else "x"
        else:
            c = ch
        if not out or out[-1] != c:
            out.append(c)
    return "".join(out)


def _is_punct(s: str) -> bool:
    return bool(s) and all(not ch.isalnum() for ch in s)


def _attributes(s: str, config: FeatureConfig) -> list[tuple[str, str]]:
    """(template, value) pairs of one token; `_token_names` names them per
    offset."""
    low = s.lower()
    attrs = [("w", f"={low}"), ("shape", f"={word_shape(s)}")]
    if s.isdigit():
        attrs.append(("isdigit", ""))
    if _is_punct(s):
        attrs.append(("ispunct", ""))
    if s[:1].isupper():
        attrs.append(("iscap", ""))
    for name, words in config.gazetteers.items():
        if low in words:
            attrs.append(("gaz", f"={name}"))
    return attrs


_BUCKETS = ("first", "last", "early", "mid", "late")


def _buckets(n: int) -> list[int]:
    """The index into _BUCKETS of every position p of an instance of n
    tokens: first, last, and between them early while 3p < n, mid while
    3p < 2n, late after."""
    if n <= 1:
        return [0] * n
    early = min((n - 1) // 3, n - 2)  # the last p with 3p < n
    mid = min((2 * n - 1) // 3, n - 2)  # the last p with 3p < 2n
    return [0] + [2] * early + [3] * (mid - early) + [4] * (n - 2 - mid) + [1]


@functools.cache
def _marks(window: int) -> tuple[str, ...]:
    """The window offsets as names carry them: "[-2]", ..., "[2]"."""
    return tuple(f"[{off}]" for off in range(-window, window + 1))


def _token_names(s: str, config: FeatureConfig) -> tuple[list[list[str]], list[str]]:
    """The names token `s` contributes: its attributes, computed once and
    named at each window offset, and its affixes, which only the position
    it centers uses."""
    attrs = _attributes(s, config)
    window = [
        [f"{template}{mark}{value}" for template, value in attrs]
        for mark in _marks(config.window)
    ]
    low = s.lower()
    affixes: list[str] = []
    for k in AFFIX_LENGTHS:
        if len(low) >= k:
            affixes += (f"pre[{k}]={low[:k]}", f"suf[{k}]={low[-k:]}")
    return window, affixes


def _fixed_names(config: FeatureConfig) -> tuple[list[list[str]], ...]:
    """The names that do not depend on a token: bos and eos per window
    offset, and one per position bucket."""
    return (
        [["bos" + mark] for mark in _marks(config.window)],
        [["eos" + mark] for mark in _marks(config.window)],
        [[f"posbucket={b}"] for b in _BUCKETS],
    )


@dataclass
class FeatureIndex:
    """Frozen mapping from feature name to contiguous id starting at 0."""

    names: tuple[str, ...]
    _ids: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._ids = {name: i for i, name in enumerate(self.names)}
        if len(self._ids) != len(self.names):
            raise StructuralError("duplicate feature names in index")

    def __len__(self) -> int:
        return len(self.names)

    def lookup(self, name: str) -> int | None:
        """Dense id for a known name, None for unknown (never a new id)."""
        return self._ids.get(name)

    def lookup_many(self, names: Iterable[str]) -> list[int]:
        ids = self._ids
        out = [ids.get(n) for n in names]
        return [i for i in out if i is not None]


# distinct surfaces a FeatureIds holds; it is cleared when it reaches this
_SURFACE_CACHE_SIZE = 1 << 14


class FeatureIds:
    """Feature ids at inference, in the one key layout that
    `training_factors` also uses: `keys(instances)` gives the rows of their
    positions factored by surface, and each position's keys expand, in
    template order, to `index.lookup_many` of its names.

    One cache holds each distinct surface's key ids, looked up once: its
    known ids at each window offset and its affix ids (CRFsuite's split of
    token attributes from the features they fire)."""

    def __init__(self, index: FeatureIndex, config: FeatureConfig):
        self.index = index
        self.config = config
        # the fixed keys' ids: bos, then eos, per window offset, then the buckets
        self._fixed = _key_arrays(
            [index.lookup_many(names) for group in _fixed_names(config) for names in group]
        )
        # surface -> the ids of its 2 * window + 2 keys, concatenated, and their sizes
        self._surfaces: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def keys(
        self, instances: Sequence[Sequence[str]]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The rows of every position of the instances, stacked one instance
        after another, factored by surface as `training_factors` factors
        them: returns each key's ids laid end to end, each key's number of
        ids (`ones_matrix` of the two is `Xv`), and the (P, 2 * window + 3)
        key array of `_factors`, over the fixed keys and then the keys of
        each distinct surface of the call, in the order of first use."""
        parts = [self._fixed]
        first = dict.fromkeys(itertools.chain.from_iterable(instances))  # a surface's first key
        n_keys = len(self._fixed[1])
        cache, lookup = self._surfaces, self.index.lookup_many
        for s in first:
            first[s] = n_keys
            n_keys += 2 * self.config.window + 2
            arrays = cache.get(s)
            if arrays is None:
                if len(cache) >= _SURFACE_CACHE_SIZE:
                    cache.clear()
                window, affixes = _token_names(s, self.config)
                arrays = cache[s] = _key_arrays([*map(lookup, window), lookup(affixes)])
            parts.append(arrays)
        ids, sizes = zip(*parts)
        keys = _factors(instances, first, self.config.window)
        return np.concatenate(ids), np.concatenate(sizes), keys


def _key_arrays(id_lists: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """The ids of the lists concatenated, and the lists' sizes."""
    sizes = np.array([len(ids) for ids in id_lists], dtype=np.int64)
    return np.fromiter(itertools.chain.from_iterable(id_lists), np.int32, sizes.sum()), sizes


def ones_matrix(indices: np.ndarray, sizes: np.ndarray, n_columns: int) -> sparse.csr_matrix:
    """CSR matrix of `n_columns` columns with a row of `sizes[r]` entries
    per r, holding 1 at each of `indices`, in order, row after row."""
    indptr = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=indptr[1:])
    return sparse.csr_matrix(
        (np.ones(len(indices)), indices, indptr), shape=(len(sizes), n_columns)
    )


def _factors(
    instances: Sequence[Sequence[str]], first: Mapping[str, int], window: int
) -> np.ndarray:
    """The (P, 2 * window + 3) keys of every position of the instances, one
    instance after another, in template order: the token, bos or eos at
    each window offset, the center's affixes, the position bucket. The keys
    are numbered as the fixed ones (bos, then eos, per window offset, then
    the buckets), then the 2 * window + 2 keys of each surface from
    `first[surface]` on: its ids at each offset, then its affix ids."""
    width = 2 * window + 1
    # each instance's first keys, padded with `window` bos (first key 0)
    # and eos (first key `width`) slots on either side
    slots: list[int] = []
    bucket: list[int] = []
    for surfaces in instances:
        slots += [0] * window
        slots += map(first.__getitem__, surfaces)
        slots += [width] * window
        bucket += _buckets(len(surfaces))
    slots_a = np.array(slots, dtype=np.intp)
    tokens = np.flatnonzero(slots_a >= 2 * width + len(_BUCKETS))
    # a position's keys from the first keys of the padded slots: the slot
    # at each window offset, and the center's for the affixes
    offsets = np.array([*range(-window, window + 1), 0])
    keys = np.empty((len(tokens), width + 2), dtype=np.intp)
    keys[:, :-1] = slots_a[tokens[:, None] + offsets] + np.arange(width + 1)
    keys[:, -1] = np.add(bucket, 2 * width)
    return keys


def build_index(feature_lists: Iterable[Sequence[str]], min_count: int = 1) -> FeatureIndex:
    """Index every name occurring >= min_count times, with ids in
    first-occurrence order (equal corpora give byte-identical indices).
    Training builds the same index from its keys (`training_factors`)."""
    if min_count < 1:
        raise UsageError(f"min_count must be >= 1, got {shown(min_count)}")
    counts = Counter(itertools.chain.from_iterable(feature_lists))
    if not counts:
        raise UsageError("cannot build a feature index from a corpus without features")
    return FeatureIndex(names=tuple(n for n, c in counts.items() if c >= min_count))


def _key_names(
    instances: Sequence[Sequence[str]], config: FeatureConfig
) -> tuple[list[list[str]], np.ndarray]:
    """The name lists of the keys of the instances, in the layout of
    `_factors`: the fixed keys, then each distinct surface's 2 * window + 2
    keys in the order of first use; and the (P, 2 * window + 3) key array of
    every position. Each surface is named once."""
    keys = [names for group in _fixed_names(config) for names in group]
    first = dict.fromkeys(itertools.chain.from_iterable(instances))
    for s in first:
        first[s] = len(keys)
        window, affixes = _token_names(s, config)
        keys += window
        keys.append(affixes)
    return keys, _factors(instances, first, config.window)


def training_factors(
    instances: Sequence[Sequence[str]], config: FeatureConfig
) -> tuple[FeatureIndex, sparse.csr_matrix, sparse.csr_matrix]:
    """The feature index of a training corpus, and its rows stacked as
    `H @ Xv`. A key is one name list a row draws on: a surface (or bos/eos)
    at one window offset, a surface's affixes, or a position bucket. `H`
    picks each position's 2 * window + 3 keys and `Xv` holds each key's ids,
    in the layout of `_factors`, which `FeatureIds.keys` shares.
    A name occurs as often as the keys holding it, and the keys in the order
    the rows first use them hold the names in the order the rows do, so the
    index is `build_index(corpus_features(instances, config), min_count)`."""
    keys, h = _key_names(instances, config)
    used, first_use, uses = np.unique(h, return_index=True, return_counts=True)
    order = np.argsort(first_use)
    counts: Counter[str] = Counter()
    for k, n in zip(used[order].tolist(), uses[order].tolist()):
        for name in keys[k]:
            counts[name] += n
    index = FeatureIndex(tuple(n for n, c in counts.items() if c >= config.min_count))
    xv = ones_matrix(*_key_arrays([index.lookup_many(names) for names in keys]), len(index))
    return index, ones_matrix(h.ravel(), np.full(len(h), h.shape[1]), len(keys)), xv


def corpus_features(
    instances: Iterable[Sequence[str]], config: FeatureConfig
) -> Iterator[list[str]]:
    """Yield the names of every position of every surface-string sequence:
    its keys expanded in template order."""
    keys, h = _key_names(list(instances), config)
    for row in h.tolist():
        yield [name for k in row for name in keys[k]]
