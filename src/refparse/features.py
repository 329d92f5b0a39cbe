"""Sparse feature templates for the CRF.

Every template emits a readable string name like "w[-1]=vol" or "shape[0]=d";
names carry their template id and offset so they never collide across
templates. The mapping from names to dense ids (FeatureIndex) is frozen at
training time and serialized with the model, so unknown names at inference
simply score zero.
"""

from __future__ import annotations

import functools
import itertools
from array import array
from dataclasses import dataclass, field
from importlib import resources
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence, Sized

import numpy as np
from scipy import sparse

from .errors import StructuralError, UsageError

_GAZETTEER_FILES = ("months", "ordinals", "containers")


def load_gazetteer_file(path) -> frozenset[str]:
    """Read one word list: UTF-8, one lowercase word per line, '#' comments.

    Accepts anything with read_text (pathlib.Path, importlib resources).
    """
    words = set()
    for line in path.read_text(encoding="utf-8").splitlines():
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
    """Feature templates of a model.

    `gazetteers` is resolved at construction into a read-only mapping sorted
    by list name: empty without `use_gazetteers`, else the given lists or,
    when None, the builtin ones.
    """

    window: int = 2
    affix_lengths: tuple[int, ...] = (1, 2, 3, 4)
    use_shape: bool = True
    use_gazetteers: bool = True
    gazetteers: Mapping[str, frozenset[str]] | None = None
    min_count: int = 1

    def __post_init__(self) -> None:
        if self.window < 0:
            raise UsageError(f"window must be >= 0, got {self.window}")
        if not self.affix_lengths or min(self.affix_lengths) < 1:
            raise UsageError(f"need positive affix lengths, got {self.affix_lengths}")
        if self.min_count < 1:
            raise UsageError(f"min_count must be >= 1, got {self.min_count}")
        gaz = builtin_gazetteers() if self.gazetteers is None else self.gazetteers
        items = sorted(gaz.items()) if self.use_gazetteers else []
        gaz = MappingProxyType({k: frozenset(v) for k, v in items})
        object.__setattr__(self, "gazetteers", gaz)

    def to_dict(self) -> dict:
        return {
            "window": self.window,
            "affix_lengths": list(self.affix_lengths),
            "use_shape": self.use_shape,
            "use_gazetteers": self.use_gazetteers,
            "gazetteers": {k: sorted(v) for k, v in self.gazetteers.items()},
            "min_count": self.min_count,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FeatureConfig":
        return cls(
            window=int(data["window"]),
            affix_lengths=tuple(data["affix_lengths"]),
            use_shape=bool(data["use_shape"]),
            use_gazetteers=bool(data["use_gazetteers"]),
            gazetteers=data["gazetteers"],
            min_count=int(data["min_count"]),
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
    """(template, value) pairs of one token; extract names them per offset."""
    low = s.lower()
    attrs = [("w", f"={low}")]
    if config.use_shape:
        attrs.append(("shape", f"={word_shape(s)}"))
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


def extract(surfaces: Sequence[str], config: FeatureConfig) -> list[list[str]]:
    """Feature names for every position of one instance. Each token's
    attributes are computed once, then named per window offset."""
    n = len(surfaces)
    attrs = [_attributes(s, config) for s in surfaces]
    offsets = [(off, f"[{off}]") for off in range(-config.window, config.window + 1)]
    rows: list[list[str]] = []
    for position, s in enumerate(surfaces):
        feats: list[str] = []
        for off, mark in offsets:
            j = position + off
            if j < 0:
                feats.append("bos" + mark)
            elif j >= n:
                feats.append("eos" + mark)
            else:
                feats += [template + mark + value for template, value in attrs[j]]
        center = s.lower()
        for k in config.affix_lengths:
            if len(center) >= k:
                feats.append(f"pre[{k}]={center[:k]}")
                feats.append(f"suf[{k}]={center[-k:]}")
        if position == 0:
            bucket = "first"
        elif position == n - 1:
            bucket = "last"
        elif 3 * position < n:
            bucket = "early"
        elif 3 * position < 2 * n:
            bucket = "mid"
        else:
            bucket = "late"
        feats.append(f"posbucket={bucket}")
        rows.append(feats)
    return rows


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


def id_matrix(id_lists: Iterable[Sequence[int]], features: Sized) -> sparse.csr_matrix:
    """CSR matrix with one row per id list and `len(features)` columns,
    holding 1 at each id of a row, in the row's order. `features` is
    measured after `id_lists` is used up, so the lists may still grow it."""
    indices = array("q")
    indptr = array("q", [0])
    for ids in id_lists:
        indices.extend(ids)
        indptr.append(len(indices))
    cols = np.frombuffer(indices, np.int64)
    return sparse.csr_matrix(
        (np.ones(len(cols)), cols, np.frombuffer(indptr, np.int64)),
        shape=(len(indptr) - 1, len(features)),
    )


def build_index(
    feature_lists: Iterable[Sequence[str]], min_count: int = 1
) -> tuple[FeatureIndex, sparse.csr_matrix]:
    """Index every name occurring >= min_count times in one pass, with ids in
    first-occurrence order (equal corpora give byte-identical indices), and
    return it with the input's rows as one CSR matrix over it."""
    if min_count < 1:
        raise UsageError(f"min_count must be >= 1, got {min_count}")
    ids: dict[str, int] = {}
    x = id_matrix(
        ([ids.setdefault(name, len(ids)) for name in feats] for feats in feature_lists), ids
    )
    if x.shape[0] == 0:
        raise UsageError("cannot build a feature index from an empty corpus")
    keep = np.bincount(x.indices, minlength=len(ids)) >= min_count
    index = FeatureIndex(names=tuple(itertools.compress(ids, keep)))
    return index, x if keep.all() else x[:, keep]


def corpus_features(
    instances: Iterable[Sequence[str]],
    config: FeatureConfig,
) -> Iterable[list[str]]:
    """Yield the names of every position of every surface-string sequence."""
    for surfaces in instances:
        yield from extract(surfaces, config)
