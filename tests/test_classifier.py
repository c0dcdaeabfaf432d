import numpy as np
import pytest

from cpe import tensor as T
from cpe.classifier import (ClassifierConfig, classification_loss, init_mlp,
                            mlp_forward, mlp_logits, predict_batch,
                            train_classifier)


def _zero_mlp(input_dim, num_labels):
    params = init_mlp(input_dim, num_labels, (4, 4, 4), seed=0)
    for p in params.values():
        p.data = np.zeros_like(p.data)
    return params


class TestMlpForward:
    def test_zero_params_multilabel_gives_half(self):
        params = _zero_mlp(5, 3)
        probs = mlp_forward(T.constant(np.ones(5, dtype=np.float32)), params, "multilabel")
        np.testing.assert_allclose(probs.data, [0.5, 0.5, 0.5])

    def test_zero_params_multiclass_uniform(self):
        params = _zero_mlp(5, 4)
        probs = mlp_forward(T.constant(np.ones(5, dtype=np.float32)), params, "multiclass")
        np.testing.assert_allclose(probs.data, [0.25] * 4)

    @pytest.mark.parametrize("seed", range(20))
    def test_multiclass_normalizes(self, seed):
        rng = np.random.default_rng(seed)
        params = init_mlp(6, 5, (8, 8, 8), seed=seed)
        x = T.constant(rng.standard_normal((7, 6)).astype(np.float32))
        probs = mlp_forward(x, params, "multiclass").data
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(probs > 0)

    def test_multilabel_probs_in_open_interval(self):
        params = init_mlp(4, 3, (4, 4, 4), seed=1)
        probs = mlp_forward(T.constant(np.ones((2, 4), np.float32)), params, "multilabel").data
        assert np.all((probs > 0) & (probs < 1))

    def test_dim_mismatch_errors(self):
        params = init_mlp(4, 3, (4, 4, 4), seed=0)
        with pytest.raises(T.ShapeError):
            mlp_forward(T.constant(np.ones((2, 9), np.float32)), params, "multiclass")


class TestPredict:
    def test_threshold_rule(self):
        # drive the head so probabilities land at [0.6, 0.4, 0.5]
        probs = np.array([0.6, 0.4, 0.5])
        labels = set(np.flatnonzero(probs >= 0.5).tolist())
        assert labels == {0, 2}

    def test_predict_multilabel_against_forward(self):
        params = init_mlp(4, 3, (4, 4, 4), seed=3)
        x = np.random.default_rng(0).standard_normal((6, 4)).astype(np.float32)
        want = mlp_forward(T.constant(x), params, "multilabel").data
        preds, probs = predict_batch(x, params, "multilabel", threshold=0.5)
        np.testing.assert_array_equal(probs, want)
        assert preds == [set(np.flatnonzero(row >= 0.5).tolist()) for row in want]

    def test_multiclass_tie_breaks_low_id(self):
        params = _zero_mlp(4, 2)  # all probabilities exactly 0.5
        preds, _ = predict_batch(np.ones((3, 4), np.float32), params, "multiclass")
        assert preds == [{0}] * 3

    def test_threshold_above_one_empty(self):
        params = init_mlp(4, 3, (4, 4, 4), seed=3)
        preds, _ = predict_batch(np.ones((2, 4), np.float32), params, "multilabel",
                                 threshold=1.0 + 1e-9)
        assert preds == [set(), set()]

    def test_predict_batch_matches_row_by_row(self):
        params = init_mlp(4, 3, (4, 4, 4), seed=5)
        x = np.random.default_rng(1).standard_normal((6, 4)).astype(np.float32)
        preds, probs = predict_batch(x, params, "multilabel", threshold=0.4)
        for i, row in enumerate(x):
            assert preds[i] == predict_batch(row[None], params, "multilabel",
                                             threshold=0.4)[0][0]
        assert probs.shape == (6, 3)


def _separable(n=60, dim=8, seed=0):
    rng = np.random.default_rng(seed)
    half = n // 2
    embs = np.concatenate([rng.standard_normal((half, dim)) * 0.3 + 3,
                           rng.standard_normal((half, dim)) * 0.3 - 3]).astype(np.float32)
    labels = [0] * half + [1] * half
    return embs, labels


class TestTrainClassifier:
    def test_separable_data_perfect_training_accuracy(self):
        embs, labels = _separable()
        cfg = ClassifierConfig(epochs=20, batch_size=16, lr=1e-2, seed=0)
        params = train_classifier(embs, labels, 2, "multiclass", cfg)
        preds, _ = predict_batch(embs, params, "multiclass")
        assert all(p == {l} for p, l in zip(preds, labels))

    def test_zero_epochs_is_noop(self):
        embs, labels = _separable()
        cfg = ClassifierConfig(epochs=0, seed=4)
        params = train_classifier(embs, labels, 2, "multiclass", cfg)
        init = init_mlp(embs.shape[1], 2, cfg.hidden, cfg.seed)
        for k in params:
            np.testing.assert_array_equal(params[k].data, init[k].data)

    def test_deterministic_per_seed(self):
        embs, labels = _separable()
        cfg = ClassifierConfig(epochs=3, lr=1e-3, seed=9)
        a = train_classifier(embs, labels, 2, "multiclass", cfg)
        b = train_classifier(embs, labels, 2, "multiclass", cfg)
        for k in a:
            np.testing.assert_array_equal(a[k].data, b[k].data)

    def test_out_of_range_label_errors(self):
        embs, _ = _separable(n=4)
        with pytest.raises(ValueError, match="out of range"):
            train_classifier(embs, [0, 1, 2, 5], 3, "multiclass",
                             ClassifierConfig(epochs=1))

    def test_multilabel_training_learns(self):
        rng = np.random.default_rng(2)
        embs = rng.standard_normal((80, 6)).astype(np.float32)
        labels = [set(np.flatnonzero(row[:3] > 0).tolist()) for row in embs]
        cfg = ClassifierConfig(epochs=40, lr=1e-2, seed=0)
        params = train_classifier(embs, labels, 3, "multilabel", cfg)
        preds, _ = predict_batch(embs, params, "multilabel")
        agree = np.mean([p == l for p, l in zip(preds, labels)])
        assert agree > 0.9

    def test_training_loss_nonincreasing_epoch_means(self):
        embs, labels = _separable(n=40)
        cfg = ClassifierConfig(epochs=1, lr=2e-5, seed=0)
        params = None
        means = []
        for _ in range(5):
            params = train_classifier(embs, labels, 2, "multiclass", cfg, params=params)
            logits = mlp_logits(T.constant(embs), params)
            means.append(classification_loss(logits,
                                             np.eye(2, dtype=np.float32)[labels],
                                             "multiclass").item())
        assert means[-1] <= means[0]

