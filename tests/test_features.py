import pytest

from refparse.errors import UsageError
from refparse.features import (
    FeatureConfig,
    builtin_gazetteers,
    build_index,
    corpus_features,
    extract,
    word_shape,
)


def test_word_shape_collapses_runs():
    assert word_shape("Proceedings") == "Xx"
    assert word_shape("2015") == "d"
    assert word_shape(".") == "."
    assert word_shape("IEEE") == "X"
    assert word_shape("pp117") == "xd"


def test_single_digit_token_features():
    (feats,) = extract(["2015"], FeatureConfig(use_gazetteers=False))
    assert "shape[0]=d" in feats
    assert "isdigit[0]" in feats
    assert "posbucket=first" in feats
    assert "w[0]=2015" in feats


def test_boundary_sentinels_replace_neighbors():
    feats, feats_last = extract(["a", "b"], FeatureConfig(use_gazetteers=False))
    assert "bos[-2]" in feats and "bos[-1]" in feats
    assert not any(f.startswith("w[-1]") for f in feats)
    assert "eos[1]" in feats_last and "eos[2]" in feats_last


def test_gazetteer_hit():
    gaz = builtin_gazetteers()
    assert "proceedings" in gaz["containers"]
    (feats,) = extract(["Proceedings"], FeatureConfig())
    assert "gaz[0]=containers" in feats


def test_affixes_only_up_to_token_length():
    (feats,) = extract(["ab"], FeatureConfig(use_gazetteers=False))
    assert "pre[1]=a" in feats and "suf[2]=ab" in feats
    assert not any(f.startswith("pre[3]") for f in feats)


def test_position_buckets():
    cfg = FeatureConfig(use_gazetteers=False)
    n = 10
    toks = [f"t{i}" for i in range(n)]
    buckets = [
        next(f for f in feats if f.startswith("posbucket=")) for feats in extract(toks, cfg)
    ]
    assert buckets[0] == "posbucket=first"
    assert buckets[-1] == "posbucket=last"
    assert "posbucket=early" in buckets and "posbucket=mid" in buckets
    assert "posbucket=late" in buckets


def test_index_respects_min_count():
    cfg = FeatureConfig(use_gazetteers=False, window=0)
    lists = list(corpus_features([["a", "a"], ["a"]], cfg))
    idx1, _ = build_index(lists, min_count=1)
    idx2, _ = build_index(lists, min_count=2)
    assert len(idx2) < len(idx1)
    # singletons dropped: 'posbucket=last' occurs once (two-token instance)
    assert idx1.lookup("posbucket=last") is not None
    assert idx2.lookup("posbucket=last") is None


def test_index_frozen_returns_absent():
    idx, _ = build_index([["x", "y"]], min_count=1)
    assert idx.lookup("nope") is None
    assert idx.lookup_many(["x", "nope", "y"]) == [idx.lookup("x"), idx.lookup("y")]


def test_index_deterministic_across_runs():
    cfg = FeatureConfig(window=1)
    corpus = [["Proceedings", "of", "2015"], ["vol", ".", "44"]]
    a, _ = build_index(corpus_features(corpus, cfg), 1)
    b, _ = build_index(corpus_features(corpus, cfg), 1)
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
    off = FeatureConfig(use_gazetteers=False, gazetteers={"months": {"may"}})
    assert dict(off.gazetteers) == {}
    cfg = FeatureConfig(gazetteers={"zeta": ["b", "a"], "alpha": {"c"}})
    assert list(cfg.gazetteers) == ["alpha", "zeta"]
    back = FeatureConfig.from_dict(cfg.to_dict())
    assert dict(back.gazetteers) == {"alpha": frozenset("c"), "zeta": frozenset("ab")}
    assert list(FeatureConfig().gazetteers) == sorted(builtin_gazetteers())


@pytest.mark.parametrize(
    "kwargs",
    [{"window": -1}, {"affix_lengths": ()}, {"affix_lengths": (0, 2)}, {"min_count": 0}],
    ids=["negative_window", "no_affixes", "zero_affix", "zero_min_count"],
)
def test_config_rejects_bad_numbers(kwargs):
    with pytest.raises(UsageError):
        FeatureConfig(**kwargs)


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
