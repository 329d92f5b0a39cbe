import numpy as np
import pytest
from scipy import sparse

import refparse as rp
from oracles import corpus_features, extract, id_matrix, key_rows
from refparse import crf, features
from refparse.errors import UsageError
from refparse.features import (
    MAX_WINDOW,
    FeatureConfig,
    FeatureIds,
    builtin_gazetteers,
    build_index,
    training_factors,
    word_shape,
)


def test_word_shape_collapses_runs():
    assert word_shape("Proceedings") == "Xx"
    assert word_shape("2015") == "d"
    assert word_shape(".") == "."
    assert word_shape("IEEE") == "X"
    assert word_shape("pp117") == "xd"


def test_single_digit_token_features():
    (feats,) = extract(["2015"], FeatureConfig(gazetteers={}))
    assert "shape[0]=d" in feats
    assert "isdigit[0]" in feats
    assert "posbucket=first" in feats
    assert "w[0]=2015" in feats


def test_boundary_sentinels_replace_neighbors():
    feats, feats_last = extract(["a", "b"], FeatureConfig(gazetteers={}))
    assert "bos[-2]" in feats and "bos[-1]" in feats
    assert not any(f.startswith("w[-1]") for f in feats)
    assert "eos[1]" in feats_last and "eos[2]" in feats_last


def test_gazetteer_hit():
    gaz = builtin_gazetteers()
    assert "proceedings" in gaz["containers"]
    (feats,) = extract(["Proceedings"], FeatureConfig())
    assert "gaz[0]=containers" in feats


def test_affixes_only_up_to_token_length():
    (feats,) = extract(["ab"], FeatureConfig(gazetteers={}))
    assert "pre[1]=a" in feats and "suf[2]=ab" in feats
    assert not any(f.startswith("pre[3]") for f in feats)


def test_position_buckets():
    cfg = FeatureConfig(gazetteers={})
    n = 10
    toks = [f"t{i}" for i in range(n)]
    buckets = [
        next(f for f in feats if f.startswith("posbucket=")) for feats in extract(toks, cfg)
    ]
    assert buckets[0] == "posbucket=first"
    assert buckets[-1] == "posbucket=last"
    assert "posbucket=early" in buckets and "posbucket=mid" in buckets
    assert "posbucket=late" in buckets


def test_position_buckets_follow_the_thirds():
    # first, last, then early while 3p < n, mid while 3p < 2n, late after
    def bucket(p, n):
        if p in (0, n - 1):
            return 0 if p == 0 else 1
        return 2 if 3 * p < n else 3 if 3 * p < 2 * n else 4

    for n in range(0, 40):
        assert features._buckets(n) == [bucket(p, n) for p in range(n)]


def test_index_respects_min_count():
    cfg = FeatureConfig(gazetteers={}, window=0)
    lists = list(corpus_features([["a", "a"], ["a"]], cfg))
    idx1 = build_index(lists, min_count=1)
    idx2 = build_index(lists, min_count=2)
    assert len(idx2) < len(idx1)
    # singletons dropped: 'posbucket=last' occurs once (two-token instance)
    assert idx1.lookup("posbucket=last") is not None
    assert idx2.lookup("posbucket=last") is None


def test_index_frozen_returns_absent():
    idx = build_index([["x", "y"]], min_count=1)
    assert idx.lookup("nope") is None
    assert idx.lookup_many(["x", "nope", "y"]) == [idx.lookup("x"), idx.lookup("y")]


def test_index_deterministic_across_runs():
    cfg = FeatureConfig(window=1)
    corpus = [["Proceedings", "of", "2015"], ["vol", ".", "44"]]
    a = build_index(corpus_features(corpus, cfg), 1)
    b = build_index(corpus_features(corpus, cfg), 1)
    assert a.names == b.names


def test_empty_corpus_rejected():
    with pytest.raises(UsageError):
        build_index([], min_count=1)


def test_config_round_trips_through_dict():
    cfg = FeatureConfig(window=1, min_count=2)
    back = FeatureConfig.from_dict(cfg.to_dict())
    assert back.window == 1 and back.min_count == 2
    assert back.gazetteers == cfg.gazetteers


def test_gazetteers_resolved_at_construction():
    off = FeatureConfig.from_dict(FeatureConfig(gazetteers={}).to_dict())
    assert dict(off.gazetteers) == {}
    cfg = FeatureConfig(gazetteers={"zeta": ["b", "a"], "alpha": {"c"}})
    assert list(cfg.gazetteers) == ["alpha", "zeta"]
    back = FeatureConfig.from_dict(cfg.to_dict())
    assert dict(back.gazetteers) == {"alpha": frozenset("c"), "zeta": frozenset("ab")}
    assert list(FeatureConfig().gazetteers) == sorted(builtin_gazetteers())


@pytest.mark.parametrize(
    "kwargs",
    [{"window": -1}, {"window": MAX_WINDOW + 1}, {"min_count": 0}],
    ids=["negative_window", "window_past_max", "zero_min_count"],
)
def test_config_rejects_bad_numbers(kwargs):
    with pytest.raises(UsageError):
        FeatureConfig(**kwargs)


@pytest.mark.parametrize(
    "field,value",
    [("window", 2.0), ("window", True), ("window", "2"), ("min_count", 1.5),
     ("min_count", True), ("min_count", None)],
)
def test_config_rejects_numbers_of_another_type(field, value):
    with pytest.raises(UsageError, match=field):
        FeatureConfig(**{field: value})


@pytest.mark.parametrize(
    "field,value,shows",
    [("window", 10**5000, "an int of 5001 digits"),
     ("window", -10**5000, "a negative int of 5001 digits"),
     ("min_count", -10**5000, "a negative int of 5001 digits"),
     ("window", [10**5000], r"\[an int of 5001 digits\]")],
    ids=["window_long", "window_long_negative", "min_count_long_negative", "window_list"],
)
def test_config_names_the_field_of_an_int_too_long_for_text(field, value, shows):
    with pytest.raises(UsageError, match=f"^{field} must be .*, got {shows}$"):
        FeatureConfig(**{field: value})


@pytest.mark.parametrize("separator", ["\x85", "\x0c", "\u2028"])
def test_word_list_lines_end_only_at_line_breaks(tmp_path, separator):
    path = tmp_path / "places.txt"
    path.write_text(f"# places\nnew{separator}york\r\nBoston\rparis\n", encoding="utf-8")
    assert features.load_gazetteer_file(path) == {f"new{separator}york", "boston", "paris"}


def test_config_accepts_the_widest_window():
    assert FeatureConfig(window=MAX_WINDOW).window == MAX_WINDOW


# One fixed sequence under the default config: bos/eos, shape, isdigit,
# ispunct, iscap, a gazetteer hit, affixes up to length 4, all five
# position buckets, and brace tokens that would break a str.format step.
GOLDEN_SURFACES = ["Proc", "{", "May", "12", "}", "."]
GOLDEN_FEATURES = [
    [
        "bos[-2]", "bos[-1]", "w[0]=proc", "shape[0]=Xx", "iscap[0]",
        "gaz[0]=containers", "w[1]={", "shape[1]={", "ispunct[1]", "w[2]=may",
        "shape[2]=Xx", "iscap[2]", "gaz[2]=months", "pre[1]=p", "suf[1]=c", "pre[2]=pr",
        "suf[2]=oc", "pre[3]=pro", "suf[3]=roc", "pre[4]=proc", "suf[4]=proc",
        "posbucket=first",
    ],
    [
        "bos[-2]", "w[-1]=proc", "shape[-1]=Xx", "iscap[-1]", "gaz[-1]=containers",
        "w[0]={", "shape[0]={", "ispunct[0]", "w[1]=may", "shape[1]=Xx", "iscap[1]",
        "gaz[1]=months", "w[2]=12", "shape[2]=d", "isdigit[2]", "pre[1]={", "suf[1]={",
        "posbucket=early",
    ],
    [
        "w[-2]=proc", "shape[-2]=Xx", "iscap[-2]", "gaz[-2]=containers", "w[-1]={",
        "shape[-1]={", "ispunct[-1]", "w[0]=may", "shape[0]=Xx", "iscap[0]",
        "gaz[0]=months", "w[1]=12", "shape[1]=d", "isdigit[1]", "w[2]=}", "shape[2]=}",
        "ispunct[2]", "pre[1]=m", "suf[1]=y", "pre[2]=ma", "suf[2]=ay", "pre[3]=may",
        "suf[3]=may", "posbucket=mid",
    ],
    [
        "w[-2]={", "shape[-2]={", "ispunct[-2]", "w[-1]=may", "shape[-1]=Xx",
        "iscap[-1]", "gaz[-1]=months", "w[0]=12", "shape[0]=d", "isdigit[0]", "w[1]=}",
        "shape[1]=}", "ispunct[1]", "w[2]=.", "shape[2]=.", "ispunct[2]", "pre[1]=1",
        "suf[1]=2", "pre[2]=12", "suf[2]=12", "posbucket=mid",
    ],
    [
        "w[-2]=may", "shape[-2]=Xx", "iscap[-2]", "gaz[-2]=months", "w[-1]=12",
        "shape[-1]=d", "isdigit[-1]", "w[0]=}", "shape[0]=}", "ispunct[0]", "w[1]=.",
        "shape[1]=.", "ispunct[1]", "eos[2]", "pre[1]=}", "suf[1]=}", "posbucket=late",
    ],
    [
        "w[-2]=12", "shape[-2]=d", "isdigit[-2]", "w[-1]=}", "shape[-1]=}",
        "ispunct[-1]", "w[0]=.", "shape[0]=.", "ispunct[0]", "eos[1]", "eos[2]",
        "pre[1]=.", "suf[1]=.", "posbucket=last",
    ],
]


def test_extract_golden_names_and_order():
    assert extract(GOLDEN_SURFACES, FeatureConfig()) == GOLDEN_FEATURES
    assert list(features.corpus_features([GOLDEN_SURFACES], FeatureConfig())) == GOLDEN_FEATURES


def _mixed_surfaces():
    records = rp.random_records(40, seed=3)
    return [
        inst.surfaces()
        for family, seed in (("A", 4), ("B", 5))
        for inst in rp.generate_corpus(
            records, rp.style_family(family), n=40, seed=seed
        ).instances
    ]


CONFIGS = pytest.mark.parametrize(
    "config",
    [FeatureConfig(), FeatureConfig(min_count=2), FeatureConfig(window=0),
     FeatureConfig(gazetteers={})],
    ids=["default", "min_count_2", "window_0", "no_gazetteers"],
)


@CONFIGS
def test_cached_rows_equal_looked_up_names(config):
    corpus = _mixed_surfaces()
    # index on the A half, so the B half holds names the index does not know
    index = build_index(corpus_features(corpus[:40], config), config.min_count)
    model = crf.empty_model(["author"], index, config)
    for surfaces in [GOLDEN_SURFACES] + corpus + corpus[::-1]:  # twice: the cache warm
        rows = key_rows(*model.feature_ids.keys([surfaces]))
        assert rows == [index.lookup_many(names) for names in extract(surfaces, config)]


@CONFIGS
def test_corpus_features_equal_the_name_walk(config):
    # an empty instance, a 1-token one, surfaces that recur in and across
    # instances, and a generator as input
    corpus = [[], ["Smith"], ["Smith", "2001", "Smith"], [], GOLDEN_SURFACES]
    corpus += _mixed_surfaces()
    got = list(features.corpus_features(iter(corpus), config))
    assert got == list(corpus_features(corpus, config))
    assert len(got) == sum(map(len, corpus))
    assert list(features.corpus_features([[]], config)) == []


def _key_matrix(keys, n_keys):
    """The CSR matrix that picks each position's keys, one row per position."""
    n, width = keys.shape
    return sparse.csr_matrix(
        (np.ones(keys.size), keys.ravel(), np.arange(0, keys.size + 1, width)),
        shape=(n, n_keys),
    )


@CONFIGS
def test_keys_multiply_to_the_cached_rows(config):
    # instances shorter than the window, surfaces that recur in and across
    # instances, surfaces the index does not know, and an empty instance
    corpus = [["Smith"], ["Smith", "2001"], [], GOLDEN_SURFACES] + _mixed_surfaces()
    index = build_index(corpus_features(corpus[:40], config), config.min_count)
    ids = FeatureIds(index, config)
    for batch in (corpus, corpus[::-1], corpus[3:4]):  # the cache cold, then warm
        key_ids, sizes, keys = ids.keys(batch)
        xv = id_matrix(np.split(key_ids, np.cumsum(sizes)[:-1]), len(index))
        n = sum(map(len, batch))
        width = 2 * config.window + 3
        assert keys.shape == (n, width) and xv.shape[1] == len(index)
        distinct = len({s for surfaces in batch for s in surfaces})
        assert xv.shape[0] == 2 * (width - 2) + 5 + distinct * (width - 1)
        rows = id_matrix(map(index.lookup_many, corpus_features(batch, config)), len(index))
        assert ((_key_matrix(keys, xv.shape[0]) @ xv) != rows).nnz == 0


@CONFIGS
def test_factors_multiply_to_the_index_rows(config):
    # instances shorter than the window, and surfaces that recur
    corpus = [["Smith"], ["Smith", "2001"], GOLDEN_SURFACES] + _mixed_surfaces()
    tokens = [s for surfaces in corpus for s in surfaces]
    assert len(set(tokens)) < len(tokens)
    index, h, xv = training_factors(corpus, config)
    want = build_index(corpus_features(corpus, config), config.min_count)
    assert index.names == want.names
    assert h.shape == (len(tokens), xv.shape[0]) and xv.shape[1] == len(index)
    assert set(h.data) == {1.0} and set(h.getnnz(axis=1)) == {2 * config.window + 3}
    assert xv.shape[0] < len(tokens)
    rows = id_matrix(map(index.lookup_many, corpus_features(corpus, config)), len(index))
    assert ((h @ xv) != rows).nnz == 0

    # inference factors the corpus as training does: the same keys' ids,
    # and each position's keys are the row of h
    key_ids, sizes, keys = FeatureIds(index, config).keys(corpus)
    np.testing.assert_array_equal(key_ids, xv.indices)
    np.testing.assert_array_equal(sizes, np.diff(xv.indptr))
    np.testing.assert_array_equal(keys.ravel(), h.indices)
    np.testing.assert_array_equal(np.arange(0, keys.size + 1, keys.shape[1]), h.indptr)
    assert (_key_matrix(keys, h.shape[1]) != h).nnz == 0
