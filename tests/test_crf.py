import logging
import threading

import numpy as np
import pytest
from dataclasses import replace
from scipy import sparse

import refparse as rp
from refparse import crf, features, optim
from refparse.corpus import Corpus
from refparse.errors import DataError, NumericError, StructuralError, UsageError
from refparse.features import (
    FeatureConfig,
    FeatureIndex,
    build_index,
    training_factors,
)

import oracles


def unconstrained_model(n_tags: int, n_feats: int = 4) -> crf.CrfModel:
    """A model whose tag set has no I tags, so every transition is free."""
    tags = ("O",) + tuple(f"B-{f}" for f in oracles.FIELDS[: n_tags - 1])
    index = FeatureIndex(names=tuple(f"f{i}" for i in range(n_feats)))
    return crf.CrfModel(
        labels=oracles.FIELDS[: n_tags - 1],
        tags=tags,
        emission=np.zeros((n_feats, n_tags)),
        transition=np.zeros((n_tags, n_tags)),
        begin=np.zeros(n_tags),
        end=np.zeros(n_tags),
        feature_index=index,
        feature_config=FeatureConfig(gazetteers={}),
    )


def simple_instance(feats_per_pos, gold=None, n_feats: int = 4):
    return oracles.instance(feats_per_pos, n_feats, gold)


class TestStructure:
    def test_masks_of_two_fields(self):
        m = crf.empty_model(
            ["title", "author"], FeatureIndex(names=("f0",)), FeatureConfig(gazetteers={})
        )
        assert m.tags == ("O", "B-author", "I-author", "B-title", "I-title")
        trans, begin = crf._structure_masks(m.tags)
        # row: from tag, column: to tag; only B-f and I-f may precede I-f
        np.testing.assert_array_equal(
            trans,
            [
                [True, True, False, True, False],
                [True, True, True, True, False],
                [True, True, True, True, False],
                [True, True, False, True, True],
                [True, True, False, True, True],
            ],
        )
        np.testing.assert_array_equal(begin, [True, True, False, True, False])


class TestVectorize:
    def test_rows_hold_extracted_ids(self):
        cfg = FeatureConfig(window=1)
        index = build_index(oracles.corpus_features([["Proceedings", "of", "2015"]], cfg))
        m = crf.empty_model(["author"], index, cfg)
        surfaces = ["Proceedings", "vol", "2015", "."]
        x = crf.vectorize(surfaces, m).x
        assert x.shape == (len(surfaces), len(index))
        for t, feats in enumerate(oracles.extract(surfaces, cfg)):
            row = x.indices[x.indptr[t] : x.indptr[t + 1]]
            assert row.tolist() == index.lookup_many(feats)
        np.testing.assert_array_equal(x.data, 1.0)

        # training rows (h @ xv) and inference rows (from vectorize) follow
        # one id rule, also when min_count drops names
        corpus = [["Proceedings", "of", "2015"], ["Proc", "of", "the", "2015", "."]]
        sizes = []
        for min_count in (1, 2):
            cfg = FeatureConfig(window=1, min_count=min_count)
            index, h, xv = training_factors(corpus, cfg)
            sizes.append(len(index))
            m = crf.empty_model(["author"], index, cfg)
            train_x = h @ xv
            infer_x = sparse.vstack([crf.vectorize(s, m).x for s in corpus], format="csr")
            assert train_x.shape == infer_x.shape
            assert (train_x != infer_x).nnz == 0
        assert sizes[1] < sizes[0]


@pytest.mark.parametrize("max_epochs", [0, -1])
def test_train_config_rejects_no_epochs(max_epochs):
    with pytest.raises(UsageError):
        crf.TrainConfig(max_epochs=max_epochs)


@pytest.mark.parametrize("field", ["l2", "tol"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_train_config_rejects_non_finite(field, value):
    with pytest.raises(UsageError, match="finite"):
        crf.TrainConfig(**{field: value})


@pytest.mark.parametrize("field", ["l2", "tol"])
def test_train_config_rejects_ints_past_the_float_range(field):
    with pytest.raises(UsageError, match=f"^{field} must be finite"):
        crf.TrainConfig(**{field: 10**400})


@pytest.mark.parametrize(
    "field,value,shows",
    [("l2", 10**5000, "an int of 5001 digits"), ("tol", 10**5000, "an int of 5001 digits"),
     ("max_epochs", -10**5000, "a negative int of 5001 digits")],
    ids=["l2", "tol", "max_epochs"],
)
def test_train_config_names_the_field_of_an_int_too_long_for_text(field, value, shows):
    with pytest.raises(UsageError, match=f"^{field} must be .*, got {shows}$"):
        crf.TrainConfig(**{field: value})


@pytest.mark.parametrize("digits", [40, 41, 300, 4300])
def test_config_messages_count_the_digits_of_a_long_int(digits):
    for value in (10 ** (digits - 1), 10**digits - 1):
        shows = str(-value) if digits <= 40 else f"a negative int of {digits} digits"
        with pytest.raises(UsageError, match=f"^l2 must be finite and >= 0, got {shows}$"):
            crf.TrainConfig(l2=-value)


@pytest.mark.parametrize(
    "field,value",
    [("max_epochs", 2.5), ("max_epochs", True), ("max_epochs", "9"), ("l2", True),
     ("l2", "1"), ("tol", "x"), ("tol", None)],
)
def test_train_config_rejects_values_of_another_type(field, value):
    with pytest.raises(UsageError, match=field):
        crf.TrainConfig(**{field: value})


class TestScorePath:
    def test_zero_weights_score_zero(self):
        m = unconstrained_model(2)
        inst = simple_instance([[0], [1, 2]])
        assert crf.score_path(inst, ["O", "B-author"], m) == 0.0

    def test_single_active_feature(self):
        m = unconstrained_model(2)
        em = m.emission.copy()
        em[1, 1] = 3.0  # feature 1 under tag B-author
        m = replace(m, emission=em)
        inst = simple_instance([[1]])
        assert crf.score_path(inst, ["B-author"], m) == pytest.approx(3.0)
        assert crf.score_path(inst, ["O"], m) == 0.0

    def test_matches_direct_resummation(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = oracles.random_model(rng, n_fields=2)
            inst = oracles.random_instance(rng, m, int(rng.integers(1, 6)))
            path = [int(rng.integers(len(m.tags))) for _ in range(len(inst))]
            tags = [m.tags[i] for i in path]
            expected = oracles.path_score_by_summation(inst, m, path)
            got = crf.score_path(inst, tags, m)
            if np.isfinite(expected):
                assert got == pytest.approx(expected, rel=1e-12)
            else:
                assert got == -np.inf

    def test_length_mismatch(self):
        m = unconstrained_model(2)
        with pytest.raises(StructuralError):
            crf.score_path(simple_instance([[0]]), ["O", "O"], m)

    def test_zero_length_rejected(self):
        m = unconstrained_model(2)
        with pytest.raises(StructuralError):
            crf.score_path(simple_instance([]), [], m)


class TestLogPartition:
    def test_t1_counts_valid_start_tags(self):
        tags = crf.tags_for_labels(["author"])
        assert tags == ("O", "B-author", "I-author")
        m = crf.empty_model(
            ["author"],
            FeatureIndex(names=("f0",)),
            FeatureConfig(gazetteers={}),
        )
        inst = simple_instance([[0]], n_feats=1)
        # I-author cannot start, so 2 valid start tags
        assert crf.log_partition(inst, m) == pytest.approx(np.log(2))

    def test_t2_two_unconstrained_tags(self):
        m = unconstrained_model(2)
        inst = simple_instance([[0], [0]])
        assert crf.log_partition(inst, m) == pytest.approx(np.log(4))

    def test_zero_length_rejected(self):
        m = unconstrained_model(2)
        with pytest.raises(StructuralError):
            crf.log_partition(simple_instance([]), m)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            m = oracles.random_model(rng, n_fields=int(rng.integers(1, 4)))
            inst = oracles.random_instance(rng, m, int(rng.integers(1, 7)))
            logz = crf.log_partition(inst, m)
            logz_e, _, _ = oracles.enumerate_all(inst, m)
            assert abs(logz - logz_e) <= 1e-8 * max(1.0, abs(logz_e))


class TestViterbi:
    def test_all_zero_weights_tie_breaks_to_lowest_id(self):
        m = crf.empty_model(
            ["author", "date"],
            FeatureIndex(names=("f0",)),
            FeatureConfig(gazetteers={}),
        )
        inst = simple_instance([[0], [0], [0]], n_feats=1)
        assert crf.viterbi(inst, m) == ("O", "O", "O")

    def test_emission_pull_wins(self):
        m = unconstrained_model(3)
        em = m.emission.copy()
        em[2, 2] = 5.0  # feature 2 pulls toward B-title (id 2)
        m = replace(m, emission=em)
        inst = simple_instance([[0], [2], [0]])
        assert crf.viterbi(inst, m) == ("O", "B-title", "O")

    def test_matches_enumeration_argmax(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            m = oracles.random_model(rng, n_fields=int(rng.integers(1, 4)))
            inst = oracles.random_instance(rng, m, int(rng.integers(1, 7)))
            _, best, _ = oracles.enumerate_all(inst, m)
            got = tuple(m.tags.index(t) for t in crf.viterbi(inst, m))
            assert got == best

    def test_output_always_iob2_valid(self):
        from refparse.labels import check_iob2

        rng = np.random.default_rng(3)
        for _ in range(20):
            m = oracles.random_model(rng, n_fields=3)
            inst = oracles.random_instance(rng, m, int(rng.integers(1, 12)))
            check_iob2(crf.viterbi(inst, m))


def _mixed_lines() -> list[str]:
    """Mixed A/B references, shuffled, with 1-token lines, lines of equal
    token counts and duplicate lines."""
    records = rp.random_records(60, seed=11)
    lines = [
        inst.raw
        for family, seed in (("A", 12), ("B", 13))
        for inst in rp.generate_corpus(
            records, rp.style_family(family), n=60, seed=seed
        ).instances
    ]
    lines += ["2015", "Smith", ".", "Proc of IEEE", "vol 44 no", "pp 1 2"]
    lines += lines[:10]
    np.random.default_rng(14).shuffle(lines)
    return lines


class TestPackedViterbi:
    def test_each_packed_path_matches_enumeration_argmax(self):
        rng = np.random.default_rng(15)
        for _ in range(36):
            m = oracles.random_model(rng, n_fields=int(rng.integers(1, 4)))
            lengths = rng.integers(1, 7, size=int(rng.integers(2, 7)))
            lengths[-1] = lengths[0]  # at least two instances of equal length
            insts = [oracles.random_instance(rng, m, int(n)) for n in lengths]
            e = sparse.vstack([inst.x for inst in insts], format="csr") @ m.emission
            pack = crf._Packing(lengths)
            best = np.empty(len(e), dtype=np.intp)
            best[pack.source] = crf._viterbi(e[pack.source], pack, m)
            paths = np.split(best, np.cumsum(lengths)[:-1])
            for inst, path in zip(insts, paths):
                _, want, _ = oracles.enumerate_all(inst, m)
                assert tuple(path.tolist()) == want


def _packed_paths(insts, m) -> list[tuple[int, ...]]:
    """Each instance's path from one `_viterbi` pass over the packed batch."""
    lengths = np.array([len(inst) for inst in insts])
    e = sparse.vstack([inst.x for inst in insts], format="csr") @ m.emission
    pack = crf._Packing(lengths)
    best = np.empty(len(e), dtype=np.intp)
    best[pack.source] = crf._viterbi(e[pack.source], pack, m)
    return [tuple(p.tolist()) for p in np.split(best, np.cumsum(lengths)[:-1])]


def _full_block(vp: np.ndarray, transition: np.ndarray):
    """A step's best previous tags and what they add, from every (to, from)."""
    scores = vp[:, None, :] + transition.T
    arg = scores.argmax(axis=2)
    return arg, np.take_along_axis(scores, arg[:, :, None], axis=2)[:, :, 0]


def _two_tag_model(emission: np.ndarray, transition: np.ndarray) -> crf.CrfModel:
    m = unconstrained_model(2, n_feats=len(emission))
    return replace(m, emission=emission, transition=transition)


class TestPrunedViterbi:
    def test_tables_follow_the_structure_masks(self):
        m = oracles.random_model(np.random.default_rng(20), n_fields=3)
        tables = m.viterbi_tables
        # O, B-author, I-author, B-title, I-title, B-date, I-date
        assert tables.ob.tolist() == [0, 1, 3, 5]
        assert tables.i_to.tolist() == [2, 4, 6]
        assert tables.i_from.tolist() == [[1, 2], [3, 4], [5, 6]]
        cols = m.transition[:, tables.ob]
        assert tables.spread == (cols.max(axis=0) - cols.min(axis=0)).max()
        # a tag set without I tags has only O/B targets
        tables = unconstrained_model(3).viterbi_tables
        assert tables.ob.tolist() == [0, 1, 2] and tables.i_to.size == 0

    @pytest.mark.parametrize("scale", [0.1, 2.0, 50.0, 0.0])
    def test_wide_batches_match_enumeration(self, scale):
        # every step of these batches is at least _PRUNE_ROWS rows wide
        rng = np.random.default_rng(21)
        for _ in range(4):
            m = oracles.random_model(rng, n_fields=int(rng.integers(1, 4)), scale=scale)
            n = 2 * crf._PRUNE_ROWS + int(rng.integers(0, 8))
            lengths = rng.integers(1, 5, size=n)
            lengths[: crf._PRUNE_ROWS] = 4
            insts = [oracles.random_instance(rng, m, int(k)) for k in lengths]
            for inst, path in zip(insts, _packed_paths(insts, m)):
                _, want, _ = oracles.enumerate_all(inst, m)
                assert path == want
                if scale == 0.0:
                    assert path == (0,) * len(inst)

    def test_step_with_decided_and_undecided_rows(self):
        rng = np.random.default_rng(22)
        m = oracles.random_model(rng, n_fields=3)
        tables = m.viterbi_tables
        vp = rng.normal(size=(crf._PRUNE_ROWS, len(m.tags)))
        vp[:, [2, 4, 6]] = np.where(rng.random((len(vp), 3)) < 0.3, -np.inf, vp[:, [2, 4, 6]])
        # half the rows: one tag far ahead of the rest
        lead = rng.integers(len(m.tags), size=len(vp) // 2)
        vp[np.arange(len(lead)), lead] += 3 * tables.spread
        top2 = np.sort(vp, axis=1)[:, -2:]
        decided = top2[:, 1] - top2[:, 0] > tables.spread
        assert decided.any() and not decided.all()
        arg, add = crf._pruned_step(vp, tables)
        want_arg, want_add = _full_block(vp, m.transition)
        np.testing.assert_array_equal(arg, want_arg)
        np.testing.assert_array_equal(add, want_add)

    def test_gap_equal_to_the_spread_ties_to_the_lower_id(self):
        # v = [0, 1] and transition column 0 = [1, 0]: both candidates of
        # target 0 score 1, and the spread is 1, so the row is not decided
        m = _two_tag_model(
            np.array([[0.0, 1.0], [0.0, -5.0]]), np.array([[1.0, 0.0], [0.0, 0.0]])
        )
        assert m.viterbi_tables.spread == 1.0
        arg, _ = crf._pruned_step(np.array([[0.0, 1.0]]), m.viterbi_tables)
        assert arg.tolist() == [[0, 1]]
        insts = [simple_instance([[0], [1]], n_feats=2)] * (2 * crf._PRUNE_ROWS)
        assert crf.viterbi(insts[0], m) == ("O", "O")
        assert _packed_paths(insts, m) == [(0, 0)] * len(insts)

    def test_gap_within_rounding_of_the_spread_is_not_decided(self):
        # exactly, tag 1 wins target 0 by 2**-34 (its gap g beats the spread
        # s), but at magnitude 2**20 the sums round to a tie, which the full
        # block breaks toward tag 0
        big, g = 2.0**20, 1.0 + 2.0**-32
        s = g - 2.0**-34
        assert s < g and big + s == big + g
        m = _two_tag_model(
            np.array([[big, big + g], [0.0, -(2.0**21)]]), np.array([[s, 0.0], [0.0, 0.0]])
        )
        assert m.viterbi_tables.spread == s
        arg, _ = crf._pruned_step(np.array([[big, big + g]]), m.viterbi_tables)
        assert arg.tolist() == [[0, 1]]
        insts = [simple_instance([[0], [1]], n_feats=2)] * (2 * crf._PRUNE_ROWS)
        want = tuple(m.tags.index(t) for t in crf.viterbi(insts[0], m))
        assert want == (0, 0)
        assert _packed_paths(insts, m) == [want] * len(insts)


class TestDecodeEmissions:
    def _lines(self) -> list[list[str]]:
        """1-token lines, lines shorter than the window, repeated surfaces
        and surfaces the model has never seen."""
        lines = [[t.surface for t in rp.tokenize(line)] for line in _mixed_lines()]
        return lines + [["Zqxjvw"], ["Zqxjvw", "Qwxz", "Zqxjvw"], ["2015", "2015"]]

    def test_match_the_sparse_row_product(self, small_model_and_eval):
        model, _ = small_model_and_eval
        lines = self._lines()
        assert {1, 2, 3} <= {len(s) for s in lines}
        tokens = [s for line in lines for s in line]
        assert len(set(tokens)) < len(tokens)
        assert any(model.feature_index.lookup(f"w[0]={s.lower()}") is None for s in tokens)
        got = crf._emissions(model, *model.feature_ids.keys(lines))
        x = sparse.vstack([crf.vectorize(s, model).x for s in lines], format="csr")
        np.testing.assert_allclose(got, x @ model.emission, rtol=0, atol=1e-12)

    def test_alone_equal_in_a_batch(self, small_model_and_eval):
        model, _ = small_model_and_eval
        lines = self._lines()
        batch = crf._emissions(model, *model.feature_ids.keys(lines))
        alone = [crf._emissions(model, *model.feature_ids.keys([s])) for s in lines]
        np.testing.assert_array_equal(np.concatenate(alone), batch)


class TestDecodeMany:
    def test_matches_line_by_line_decode(self, small_model_and_eval):
        model, _ = small_model_and_eval
        lines = _mixed_lines()
        lengths = [len(rp.tokenize(line)) for line in lines]
        assert 1 in lengths and len(set(lengths)) < len(lengths)
        assert crf.decode_many(model, lines) == [crf.decode(model, line) for line in lines]

    def test_zero_weights_decode_all_o(self, small_model_and_eval):
        model, _ = small_model_and_eval
        zeroed = crf.empty_model(model.labels, model.feature_index, model.feature_config)
        lines = _mixed_lines()
        for inst in crf.decode_many(zeroed, lines):
            assert inst.tags == ("O",) * len(inst.tokens)

    def test_empty_lines_decode_to_no_tags(self, small_model_and_eval):
        model, _ = small_model_and_eval
        got = crf.decode_many(model, ["", "Smith", "  "])
        assert [inst.tags for inst in got] == [(), crf.decode(model, "Smith").tags, ()]
        assert crf.decode_many(model, []) == []

    def test_tags_survive_a_cleared_surface_cache(self, small_model_and_eval, monkeypatch):
        model, _ = small_model_and_eval
        lines = _mixed_lines()
        want = crf.decode_many(replace(model), lines)
        monkeypatch.setattr(features, "_SURFACE_CACHE_SIZE", 3)
        small = replace(model)  # a fresh model, with an empty cache
        assert crf.decode_many(small, lines) == want
        assert [crf.decode(small, line) for line in lines] == want
        assert 0 < len(small.feature_ids._surfaces) <= 3


class TestMarginals:
    def test_uniform_under_zero_weights(self):
        m = unconstrained_model(2)
        inst = simple_instance([[0], [0]])
        np.testing.assert_allclose(crf.marginals(inst, m), 0.5)

    def test_t1_is_softmax_of_emissions(self):
        m = unconstrained_model(2)
        em = m.emission.copy()
        em[0] = [1.0, -1.0]
        m = replace(m, emission=em)
        inst = simple_instance([[0]])
        e = np.array([1.0, -1.0])
        expected = np.exp(e) / np.exp(e).sum()
        np.testing.assert_allclose(crf.marginals(inst, m)[0], expected)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            m = oracles.random_model(rng, n_fields=int(rng.integers(1, 4)))
            inst = oracles.random_instance(rng, m, int(rng.integers(1, 7)))
            marg = crf.marginals(inst, m)
            _, _, marg_e = oracles.enumerate_all(inst, m)
            np.testing.assert_allclose(marg, marg_e, atol=1e-8)
            np.testing.assert_allclose(marg.sum(axis=1), 1.0, atol=1e-9)


class TestNllAndGradient:
    def test_zero_weight_nll_is_t_log_l(self):
        m = unconstrained_model(3)
        inst = simple_instance([[0], [1], [2], [3]], gold=np.array([0, 1, 2, 0]))
        nll, _ = crf.nll_and_gradient([inst], m, l2=0.0)
        assert nll == pytest.approx(4 * np.log(3))

    def test_uniform_expectation_minus_observed(self):
        # zero weights, two unconstrained tags, one feature active once
        # under the gold tag: gradient entry = 1/2 - 1 = -0.5
        m = unconstrained_model(2)
        inst = simple_instance([[1]], gold=np.array([1]))
        _, grad = crf.nll_and_gradient([inst], m, l2=0.0)
        assert grad.emission[1, 1] == pytest.approx(-0.5)
        assert grad.emission[1, 0] == pytest.approx(0.5)

    def test_batch_equals_sum_of_instances(self):
        rng = np.random.default_rng(5)
        m = oracles.random_model(rng, n_fields=2)
        insts = [
            oracles.random_instance(rng, m, int(rng.integers(1, 6)), with_gold=True)
            for _ in range(4)
        ]
        nll, _ = crf.nll_and_gradient(insts, m, l2=0.0)
        assert nll == pytest.approx(oracles.nll(insts, m), rel=1e-10)

    def test_batch_order_does_not_matter(self):
        # tied lengths, distinct lengths and length 1 all in one batch
        rng = np.random.default_rng(9)
        m = oracles.random_model(rng, n_fields=2)
        insts = [
            oracles.random_instance(rng, m, length, with_gold=True)
            for length in (3, 5, 1, 3, 6, 1, 5, 2, 3)
        ]
        nll, grad = crf.nll_and_gradient(insts, m, l2=0.5)
        shuffled = [insts[i] for i in rng.permutation(len(insts))]
        for order in (insts[::-1], shuffled):
            nll_o, grad_o = crf.nll_and_gradient(order, m, l2=0.5)
            assert nll_o == pytest.approx(nll, rel=1e-12)
            for part in ("emission", "transition", "begin", "end"):
                np.testing.assert_allclose(getattr(grad_o, part), getattr(grad, part))

    def test_factored_training_batch_matches_public_objective(self):
        # train's batch holds the rows factored by surface; the public
        # objective stacks each instance's rows
        corpus = rp.generate_corpus(
            rp.random_records(20, seed=4), rp.style_family("A"), n=40, seed=4
        )
        config = FeatureConfig()
        surfaces = [inst.surfaces() for inst in corpus.instances]
        index, h, xv = training_factors(surfaces, config)
        m = crf.empty_model(corpus.labels, index, config)
        tmask, bmask = crf._structure_masks(m.tags)
        rng = np.random.default_rng(11)
        m = crf._unpack(rng.normal(size=len(crf._pack(m, tmask, bmask))), m, tmask, bmask)
        ids = m.tag_ids
        batch = crf._Batch(
            h,
            xv,
            np.array([ids[t] for inst in corpus.instances for t in inst.tags]),
            np.array([len(s) for s in surfaces]),
            len(m.tags),
        )
        nll, grad = crf._batch_nll_grad(batch, m, 0.5)
        vec = [crf.vectorize(s, m, gold_tags=inst.tags) for s, inst in zip(surfaces, corpus.instances)]
        want_nll, want = crf.nll_and_gradient(vec, m, 0.5)
        assert nll == pytest.approx(want_nll, rel=1e-10)
        for part in ("emission", "transition", "begin", "end"):
            np.testing.assert_allclose(getattr(grad, part), getattr(want, part))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        h = 1e-5
        for _ in range(8):
            m = oracles.random_model(rng, n_fields=int(rng.integers(1, 3)))
            insts = [
                oracles.random_instance(rng, m, int(rng.integers(1, 5)), with_gold=True)
                for _ in range(2)
            ]
            l2 = float(rng.uniform(0, 1))
            tmask, bmask = crf._structure_masks(m.tags)
            _, grad = crf.nll_and_gradient(insts, m, l2)
            gvec = crf._grad_vector(grad, tmask, bmask)
            x0 = crf._pack(m, tmask, bmask)
            for i in range(len(x0)):
                xp = x0.copy()
                xp[i] += h
                xm = x0.copy()
                xm[i] -= h
                fp, _ = crf.nll_and_gradient(insts, crf._unpack(xp, m, tmask, bmask), l2)
                fm, _ = crf.nll_and_gradient(insts, crf._unpack(xm, m, tmask, bmask), l2)
                fd = (fp - fm) / (2 * h)
                assert abs(fd - gvec[i]) <= 1e-4 * max(1.0, abs(fd), abs(gvec[i]))

    def test_stacked_rows_are_vstack_and_objective_unchanged(self):
        rng = np.random.default_rng(12)
        m = oracles.random_model(rng, n_fields=2)
        insts = [
            oracles.random_instance(rng, m, int(rng.integers(1, 6)), with_gold=True)
            for _ in range(9)
        ]
        want = sparse.vstack([inst.x for inst in insts], format="csr")
        batch = crf._Batch(
            want,
            sparse.identity(want.shape[1], format="csr"),
            np.concatenate([inst.gold for inst in insts]),
            np.array([len(inst) for inst in insts]),
            len(m.tags),
        )
        want_nll, want_grad = crf._batch_nll_grad(batch, m, 0.5)
        nll, grad = crf.nll_and_gradient(insts, m, 0.5)
        assert nll == want_nll
        for part in ("emission", "transition", "begin", "end"):
            np.testing.assert_array_equal(getattr(grad, part), getattr(want_grad, part))
        wide = [
            crf.VectorizedInstance(sparse.hstack([inst.x, inst.x], format="csr"), inst.gold)
            for inst in insts
        ]
        with pytest.raises(StructuralError, match="model's 8 features"):
            crf.nll_and_gradient(wide, m)

    def test_gold_outside_tag_set_is_data_error(self):
        m = unconstrained_model(2)  # tags O, B-author only
        with pytest.raises(DataError, match="inst7"):
            crf.vectorize(["x"], m, gold_tags=["B-title"], name="inst7")

    def test_empty_batch_rejected(self):
        m = unconstrained_model(2)
        with pytest.raises(UsageError):
            crf.nll_and_gradient([], m, 0.0)


class TestNumericalRobustness:
    def test_no_overflow_extreme_weights_long_sequence(self):
        rng = np.random.default_rng(7)
        m = oracles.random_model(rng, n_fields=1, n_feats=4)
        tmask, bmask = crf._structure_masks(m.tags)
        m = replace(
            m,
            emission=np.where(rng.random(m.emission.shape) < 0.5, 50.0, -50.0),
            transition=np.where(m.transition == -np.inf, -np.inf, 50.0),
            begin=np.where(m.begin == -np.inf, -np.inf, -50.0),
            end=np.full(m.end.shape, 50.0),
        )
        length = 10_000
        inst = oracles.instance([[int(rng.integers(4))] for _ in range(length)], 4)
        logz = crf.log_partition(inst, m)
        assert np.isfinite(logz)
        marg = crf.marginals(inst, m)
        assert np.all(np.isfinite(marg))
        np.testing.assert_allclose(marg.sum(axis=1), 1.0, atol=1e-9)
        tags = crf.viterbi(inst, m)
        assert len(tags) == length

    def test_posteriors_exact_where_the_pair_factor_is_capped(self):
        # a model drawn in +-400 whose row 1 needs exp(m + m' - logZ) beyond
        # exp(_EXP_CAP): the only way into I-author passes B-author at 0,
        # far below the forward max there; its posterior is still 1
        m = crf.empty_model(("author",), FeatureIndex(("f0", "f1", "f2")), FeatureConfig())
        m = replace(
            m,
            emission=np.array([
                [-92.677, -746.246, 480.17],
                [-74.165, -598.791, 174.691],
                [330.865, -239.441, 156.045],
            ]),
            transition=np.array([
                [-138.131, -383.072, -np.inf],
                [-239.415, 287.893, -323.243],
                [-96.235, 28.407, 188.146],
            ]),
            begin=np.array([-53.472, 228.571, -np.inf]),
            end=np.array([-10.42, -254.668, 379.787]),
        )
        inst = oracles.instance([[0], [1], [2]], 3)
        _, _, marg_e = oracles.enumerate_all(inst, m)
        assert marg_e[1, 2] == pytest.approx(1.0)
        np.testing.assert_allclose(crf.marginals(inst, m), marg_e, atol=1e-8)

    def test_large_weights_match_enumeration(self):
        # far beyond trained weight sizes; all of 100 random models at
        # +-200 were exact, while at +-400 some already were not
        rng = np.random.default_rng(10)
        h = 1e-5
        for _ in range(20):
            m = oracles.random_model(rng, n_fields=int(rng.integers(1, 3)), scale=200.0)
            insts = [
                oracles.random_instance(rng, m, int(rng.integers(1, 5)), with_gold=True)
                for _ in range(3)
            ]
            for inst in insts:
                logz_e, _, marg_e = oracles.enumerate_all(inst, m)
                assert abs(crf.log_partition(inst, m) - logz_e) <= 1e-8 * max(1.0, abs(logz_e))
                np.testing.assert_allclose(crf.marginals(inst, m), marg_e, atol=1e-8)
            tmask, bmask = crf._structure_masks(m.tags)
            _, grad = crf.nll_and_gradient(insts, m, 0.0)
            gvec = crf._grad_vector(grad, tmask, bmask)
            x0 = crf._pack(m, tmask, bmask)
            for i in range(len(x0)):
                xp = x0.copy()
                xp[i] += h
                xm = x0.copy()
                xm[i] -= h
                fd = (
                    oracles.nll(insts, crf._unpack(xp, m, tmask, bmask))
                    - oracles.nll(insts, crf._unpack(xm, m, tmask, bmask))
                ) / (2 * h)
                assert abs(fd - gvec[i]) <= 1e-4 * max(1.0, abs(fd), abs(gvec[i]))


class TestTraining:
    def test_memorizes_single_instance(self):
        corpus = rp.generate_corpus(
            rp.random_records(1, seed=1), rp.style_family("A")[:1], n=1, seed=1
        )
        model = crf.train(
            corpus,
            FeatureConfig(),
            crf.TrainConfig(l2=0.0, max_epochs=500, tol=1e-9),
        )
        inst = corpus.instances[0]
        vec = crf.vectorize(inst.surfaces(), model, gold_tags=inst.tags)
        nll = crf.log_partition(vec, model) - crf.score_path(vec, inst.tags, model)
        assert nll < 0.01

    def test_huge_l2_collapses_weights_toward_zero(self):
        # at the optimum w = (observed - expected) / l2, so weights shrink
        # like 1/l2; in the exact-zero limit decoding is the tie-break path
        corpus = rp.generate_corpus(
            rp.random_records(5, seed=2), rp.style_family("A")[:2], n=8, seed=2
        )
        model = crf.train(
            corpus, FeatureConfig(), crf.TrainConfig(l2=1e6, max_epochs=50)
        )
        assert float(np.abs(model.emission).max()) < 1e-3
        assert float(np.abs(model.end).max()) < 1e-3
        zeroed = replace(
            model,
            emission=np.zeros_like(model.emission),
            transition=np.where(np.isfinite(model.transition), 0.0, -np.inf),
            begin=np.where(np.isfinite(model.begin), 0.0, -np.inf),
            end=np.zeros_like(model.end),
        )
        decoded = crf.predict_tags(zeroed, corpus.instances[0].surfaces())
        assert set(decoded) == {"O"}

    def test_training_log_monotone_and_deterministic(self, caplog):
        corpus = rp.generate_corpus(
            rp.random_records(30, seed=3), rp.style_family("A")[:3], n=60, seed=3
        )
        cfg = crf.TrainConfig(l2=1.0, max_epochs=40, tol=1e-6)

        def logged_train():
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="refparse.crf"):
                model = crf.train(corpus, FeatureConfig(), cfg)
            steps = [r.args for r in caplog.records if r.msg.startswith("epoch")]
            return model, steps

        m1, log1 = logged_train()
        m2, log2 = logged_train()
        assert len(log1) > 1
        nlls = [v for _, v in log1]
        assert all(b <= a for a, b in zip(nlls, nlls[1:]))
        assert log1 == log2
        np.testing.assert_array_equal(m1.emission, m2.emission)

    def test_warns_when_max_epochs_runs_out(self, caplog):
        corpus = rp.generate_corpus(
            rp.random_records(5, seed=2), rp.style_family("A")[:2], n=8, seed=2
        )
        with caplog.at_level(logging.WARNING, logger="refparse.crf"):
            crf.train(corpus, FeatureConfig(), crf.TrainConfig(max_epochs=1))
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1
        assert "max_epochs=1" in warnings[0] and "(1 steps, " in warnings[0]
        assert "objective evaluations, gradient norm " in warnings[0]

    def test_names_each_distinct_surface_once(self, monkeypatch):
        corpus = rp.generate_corpus(
            rp.random_records(5, seed=2), rp.style_family("A")[:2], n=8, seed=2
        )
        calls = []
        token_names = features._token_names

        def counting_token_names(surface, config):
            calls.append(surface)
            return token_names(surface, config)

        def forbidden(name):
            def call(*args, **kwargs):
                raise AssertionError(f"train must not call {name}")
            return call

        monkeypatch.setattr(features, "_token_names", counting_token_names)
        monkeypatch.setattr(features, "corpus_features", forbidden("corpus_features"))
        monkeypatch.setattr(crf, "vectorize", forbidden("vectorize"))
        crf.train(corpus, FeatureConfig(), crf.TrainConfig(max_epochs=2))
        surfaces = [s for inst in corpus.instances for s in inst.surfaces()]
        assert len(set(surfaces)) < len(surfaces)
        assert calls == list(dict.fromkeys(surfaces))

    def test_empty_corpus_rejected(self):
        empty = Corpus(name="e", labels=("author",), instances=())
        with pytest.raises(UsageError):
            crf.train(empty, FeatureConfig(), crf.TrainConfig())

    def test_heldout_token_accuracy(self, small_model_and_eval):
        # 500 clean synthetic references from 5 styles; held-out accuracy
        model, eval_c = small_model_and_eval
        correct = total = 0
        for inst in eval_c.instances:
            pred = crf.predict_tags(model, inst.surfaces())
            for g, p in zip(inst.tags, pred):
                correct += g == p
                total += 1
        assert correct / total >= 0.90


class TestOptimizer:
    def test_quadratic_converges(self):
        def f(x):
            return float(0.5 * x @ x), x

        res = optim.minimize(f, np.full(5, 3.0), max_iter=100, rel_tol=1e-12)
        assert res.value < 1e-8

    def test_nan_at_start_raises(self):
        def f(x):
            return float("nan"), x

        with pytest.raises(NumericError):
            optim.minimize(f, np.zeros(2))

    def test_log_values_non_increasing(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(6, 6))
        quad = a.T @ a + np.eye(6)
        b = rng.normal(size=6)

        def f(x):
            return float(0.5 * x @ quad @ x - b @ x), quad @ x - b

        res = optim.minimize(f, np.zeros(6), max_iter=60, rel_tol=1e-14)
        values = [v for _, v in res.log]
        assert all(y <= x for x, y in zip(values, values[1:]))

    def test_reports_final_gradient_norm(self):
        scale = np.array([1.0, 10.0, 100.0])

        def f(x):
            return float(0.5 * x @ (scale * x)), scale * x

        for max_iter, converged in ((2, False), (100, True)):
            res = optim.minimize(f, np.full(3, 2.0), max_iter=max_iter, rel_tol=1e-12)
            assert res.converged is converged
            assert res.grad_norm == pytest.approx(np.linalg.norm(f(res.x)[1]), rel=1e-12)
        assert res.grad_norm < 1e-4


def _corpus(seed: int, n: int = 40) -> Corpus:
    return rp.generate_corpus(
        rp.random_records(20, seed=seed), rp.style_family("A"), n=n, seed=seed
    )


def _training_batch(corpus: Corpus):
    """A random-weight model and the factored batch `train` builds."""
    surfaces = [inst.surfaces() for inst in corpus.instances]
    index, h, xv = training_factors(surfaces, FeatureConfig())
    m = crf.empty_model(corpus.labels, index, FeatureConfig())
    ids = m.tag_ids
    gold = np.array([ids[t] for inst in corpus.instances for t in inst.tags])
    lengths = np.array([len(s) for s in surfaces])
    return m, lambda: crf._Batch(h, xv, gold, lengths, len(m.tags))


def _trained_bytes(corpus: Corpus, path) -> bytes:
    """The model file of a short training on `corpus`."""
    crf.save_model(crf.train(corpus, FeatureConfig(), crf.TrainConfig(max_epochs=25)), path)
    return path.read_bytes()


class TestWorkspace:
    """Training reuses its arrays from one objective evaluation to the
    next; no result may depend on what an earlier evaluation left in them."""

    def test_batch_objective_at_a_b_a_is_bitwise_a_fresh_batchs(self):
        m, make_batch = _training_batch(_corpus(4))
        tmask, bmask = crf._structure_masks(m.tags)
        rng = np.random.default_rng(21)
        n = len(crf._pack(m, tmask, bmask))
        at_a, at_b = (crf._unpack(rng.normal(size=n), m, tmask, bmask) for _ in "ab")
        fresh = [crf._batch_nll_grad(make_batch(), w, 0.5) for w in (at_a, at_b)]
        assert fresh[0][0] != fresh[1][0]
        batch = make_batch()
        # the results are held, not copied, so a later call that wrote into
        # an array of an earlier result shows
        results = [crf._batch_nll_grad(batch, w, 0.5) for w in (at_a, at_b, at_a)]
        for (nll, grad), (want_nll, want) in zip(results, [fresh[0], fresh[1], fresh[0]]):
            assert nll == want_nll
            for part in ("emission", "transition", "begin", "end"):
                np.testing.assert_array_equal(getattr(grad, part), getattr(want, part))

    def test_two_marginals_results_are_independent(self):
        rng = np.random.default_rng(22)
        m = oracles.random_model(rng)
        first_inst, second_inst = (oracles.random_instance(rng, m, 4) for _ in "ab")
        first = crf.marginals(first_inst, m)
        kept = first.copy()
        second = crf.marginals(second_inst, m)
        assert not np.shares_memory(first, second)
        np.testing.assert_array_equal(first, kept)
        np.testing.assert_array_equal(crf.marginals(first_inst, m), kept)

    def test_minimize_never_writes_what_the_objective_returns(self):
        rng = np.random.default_rng(23)
        a = rng.normal(size=(8, 8))
        quad = a.T @ a + 0.1 * np.eye(8)
        b = rng.normal(size=8)

        def f(x, writable):
            g = quad @ x - b
            g.setflags(write=writable)
            return float(0.5 * x @ quad @ x - b @ x), g

        results = [
            optim.minimize(lambda x: f(x, writable), np.zeros(8), max_iter=60, rel_tol=1e-14)
            for writable in (True, False)
        ]
        assert results[0].log[-1][0] > optim.HISTORY  # the (s, y) ring came round
        np.testing.assert_array_equal(results[0].x, results[1].x)
        assert replace(results[0], x=None) == replace(results[1], x=None)

    def test_minimize_is_bitwise_the_allocating_oracle(self):
        rng = np.random.default_rng(24)
        a = rng.normal(size=(12, 12))
        quad = a.T @ a + 0.01 * np.eye(12)
        b = rng.normal(size=12)

        def f(x):
            # a quartic term makes the first steps backtrack
            return float(0.5 * x @ quad @ x - b @ x + (x @ x) ** 2), quad @ x - b + 4 * (x @ x) * x

        backtracks = 0
        for x0 in (np.zeros(12), np.full(12, 3.0)):
            got = optim.minimize(f, x0, max_iter=80, rel_tol=1e-15)
            want = oracles.minimize(f, x0, max_iter=80, rel_tol=1e-15)
            assert len(got.log) > optim.HISTORY + 2
            backtracks += got.n_evals - len(got.log)
            np.testing.assert_array_equal(got.x, want.x)
            assert replace(got, x=None) == replace(want, x=None)
        assert backtracks

    def test_training_is_bitwise_the_allocating_oracles(self, monkeypatch, tmp_path):
        # the oracle gets a copy of every gradient as it was returned, so an
        # objective that wrote into a gradient it returned earlier shows
        corpus = _corpus(5, n=30)
        got = _trained_bytes(corpus, tmp_path / "got.gz")

        def oracle_minimize(fun, x0, **kwargs):
            def copied(x):
                f, g = fun(x)
                return f, g.copy()

            return oracles.minimize(copied, x0, **kwargs)

        monkeypatch.setattr(optim, "minimize", oracle_minimize)
        assert _trained_bytes(corpus, tmp_path / "want.gz") == got

    def test_interleaved_trainings_each_reproduce_their_model(self, monkeypatch, tmp_path):
        corpora = [_corpus(6, n=20), _corpus(7, n=30)]
        alone = [_trained_bytes(c, tmp_path / f"alone{i}.gz") for i, c in enumerate(corpora)]

        # two trainings in two threads that hand over at every objective
        # evaluation, so their evaluations alternate and never overlap
        turns = [threading.Semaphore(1), threading.Semaphore(0)]
        done, order, files = [False, False], [], [None, None]
        local = threading.local()
        minimize = optim.minimize

        def taking_turns(fun, x0, **kwargs):
            i = local.i

            def evaluate(x):
                if not done[1 - i]:
                    turns[1 - i].release()
                    turns[i].acquire()
                order.append(i)
                return fun(x)

            return minimize(evaluate, x0, **kwargs)

        def run(i):
            local.i = i
            turns[i].acquire()
            try:
                files[i] = _trained_bytes(corpora[i], tmp_path / f"interleaved{i}.gz")
            finally:
                done[i] = True
                turns[1 - i].release()

        monkeypatch.setattr(optim, "minimize", taking_turns)
        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert order[:6] == [0, 1, 0, 1, 0, 1]
        assert files == alone


class TestModelIO:
    def test_save_load_round_trip(self, small_model_and_eval, tmp_path):
        model, eval_c = small_model_and_eval
        path = tmp_path / "model.json.gz"
        crf.save_model(model, path)
        loaded = crf.load_model(path)
        assert loaded.tags == model.tags
        assert loaded.labels == model.labels
        np.testing.assert_array_equal(loaded.emission, model.emission)
        np.testing.assert_array_equal(loaded.end, model.end)
        inst = eval_c.instances[0]
        assert crf.predict_tags(loaded, inst.surfaces()) == crf.predict_tags(
            model, inst.surfaces()
        )

    def test_save_is_byte_deterministic(self, small_model_and_eval, tmp_path):
        model, _ = small_model_and_eval
        p1, p2 = tmp_path / "m1", tmp_path / "m2"
        crf.save_model(model, p1)
        crf.save_model(model, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"not a model")
        with pytest.raises(DataError):
            crf.load_model(path)


def test_decode_round_trip_on_raw_string(small_model_and_eval):
    model, eval_c = small_model_and_eval
    inst = eval_c.instances[0]
    decoded = crf.decode(model, inst.raw)
    assert decoded.raw == inst.raw
    assert [t.surface for t in decoded.tokens] == list(inst.surfaces())
