import logging

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
    corpus_features,
    extract,
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
        feature_config=FeatureConfig(use_gazetteers=False),
    )


def simple_instance(feats_per_pos, gold=None, n_feats: int = 4):
    return oracles.instance(feats_per_pos, n_feats, gold)


class TestVectorize:
    def test_rows_hold_extracted_ids(self):
        cfg = FeatureConfig(window=1)
        index, _ = build_index(corpus_features([["Proceedings", "of", "2015"]], cfg))
        m = crf.empty_model(["author"], index, cfg)
        surfaces = ["Proceedings", "vol", "2015", "."]
        x = crf.vectorize(surfaces, m).x
        assert x.shape == (len(surfaces), len(index))
        for t, feats in enumerate(extract(surfaces, cfg)):
            row = x.indices[x.indptr[t] : x.indptr[t + 1]]
            assert row.tolist() == index.lookup_many(feats)
        np.testing.assert_array_equal(x.data, 1.0)

        # training rows (from build_index) and inference rows (from
        # vectorize) follow one id rule, also when min_count drops names
        corpus = [["Proceedings", "of", "2015"], ["Proc", "of", "the", "2015", "."]]
        sizes = []
        for min_count in (1, 2):
            cfg = FeatureConfig(window=1, min_count=min_count)
            index, train_x = build_index(corpus_features(corpus, cfg), min_count)
            sizes.append(len(index))
            m = crf.empty_model(["author"], index, cfg)
            infer_x = sparse.vstack([crf.vectorize(s, m).x for s in corpus], format="csr")
            assert train_x.shape == infer_x.shape
            np.testing.assert_array_equal(train_x.indptr, infer_x.indptr)
            np.testing.assert_array_equal(train_x.indices, infer_x.indices)
            np.testing.assert_array_equal(train_x.data, infer_x.data)
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
            FeatureConfig(use_gazetteers=False),
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
            FeatureConfig(use_gazetteers=False),
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
        log = []
        model = crf.train(
            corpus,
            FeatureConfig(),
            crf.TrainConfig(l2=0.0, max_epochs=500, tol=1e-9),
            training_log=log,
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

    def test_training_log_monotone_and_deterministic(self):
        corpus = rp.generate_corpus(
            rp.random_records(30, seed=3), rp.style_family("A")[:3], n=60, seed=3
        )
        cfg = crf.TrainConfig(l2=1.0, max_epochs=40, tol=1e-6)
        log1, log2 = [], []
        m1 = crf.train(corpus, FeatureConfig(), cfg, training_log=log1)
        m2 = crf.train(corpus, FeatureConfig(), cfg, training_log=log2)
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
        assert "objective evaluations" in warnings[0]

    def test_extracts_each_instance_once(self, monkeypatch):
        corpus = rp.generate_corpus(
            rp.random_records(5, seed=2), rp.style_family("A")[:2], n=8, seed=2
        )
        calls = []

        def counting_extract(surfaces, config):
            calls.append(tuple(surfaces))
            return extract(surfaces, config)

        def no_vectorize(*args, **kwargs):
            raise AssertionError("train must not call vectorize")

        monkeypatch.setattr(features, "extract", counting_extract)
        monkeypatch.setattr(crf, "vectorize", no_vectorize)
        crf.train(corpus, FeatureConfig(), crf.TrainConfig(max_epochs=2))
        assert calls == [inst.surfaces() for inst in corpus.instances]

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
