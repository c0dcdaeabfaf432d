import gc
import weakref

import numpy as np
import pytest

from cpe import classifier
from cpe import tensor as T
from cpe.classifier import (ClassifierConfig, classification_loss, init_mlp, mlp_logits,
                            predict_batch, train_classifier)
import oracle_ops as O
from test_encoder import _closure_tensors, _tape_nodes


def _zero_mlp(input_dim, num_labels):
    params = init_mlp(input_dim, num_labels, (4, 4, 4), seed=0)
    for p in params.values():
        p.data = np.zeros_like(p.data)
    return params


class TestMlpForward:
    """The probabilities `predict_batch` computes from the head's logits."""

    def test_zero_params_multilabel_gives_half(self):
        params = _zero_mlp(5, 3)
        _, probs = predict_batch(np.ones((1, 5), np.float32), params, "multilabel")
        np.testing.assert_allclose(probs, [[0.5, 0.5, 0.5]])

    def test_zero_params_multiclass_uniform(self):
        params = _zero_mlp(5, 4)
        _, probs = predict_batch(np.ones((1, 5), np.float32), params, "multiclass")
        np.testing.assert_allclose(probs, [[0.25] * 4])

    @pytest.mark.parametrize("seed", range(20))
    def test_multiclass_normalizes(self, seed):
        rng = np.random.default_rng(seed)
        params = init_mlp(6, 5, (8, 8, 8), seed=seed)
        x = rng.standard_normal((7, 6)).astype(np.float32)
        _, probs = predict_batch(x, params, "multiclass")
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(probs > 0)

    def test_multilabel_probs_in_open_interval(self):
        params = init_mlp(4, 3, (4, 4, 4), seed=1)
        _, probs = predict_batch(np.ones((2, 4), np.float32), params, "multilabel")
        assert np.all((probs > 0) & (probs < 1))

    def test_dim_mismatch_errors(self):
        params = init_mlp(4, 3, (4, 4, 4), seed=0)
        with pytest.raises(T.ShapeError):
            predict_batch(np.ones((2, 9), np.float32), params, "multiclass")


class TestPredict:
    def test_threshold_rule(self):
        # drive the head so probabilities land at [0.6, 0.4, 0.5]
        probs = np.array([0.6, 0.4, 0.5])
        labels = set(np.flatnonzero(probs >= 0.5).tolist())
        assert labels == {0, 2}

    def test_predict_multilabel_against_forward(self):
        params = init_mlp(4, 3, (4, 4, 4), seed=3)
        x = np.random.default_rng(0).standard_normal((6, 4)).astype(np.float32)
        logits = mlp_logits(T.constant(x), params).data.astype(np.float64)
        preds, probs = predict_batch(x, params, "multilabel", threshold=0.5)
        np.testing.assert_allclose(probs, 1.0 / (1.0 + np.exp(-logits)), rtol=1e-6)
        assert preds == [set(np.flatnonzero(row >= 0.5).tolist()) for row in probs]

    def test_multiclass_probs_are_exp_log_softmax_bitwise(self):
        # the head's probabilities as the composed exp(log_softmax(z)) gave
        # them, bit for bit, so fixed-seed predictions do not move
        params = init_mlp(4, 5, (4, 4, 4), seed=3)
        x = np.random.default_rng(1).standard_normal((6, 4)).astype(np.float32)
        want = O.exp(O.log_softmax(mlp_logits(T.constant(x), params))).data
        _, probs = predict_batch(x, params, "multiclass")
        assert probs.dtype == np.float32
        np.testing.assert_array_equal(probs, want)

    def test_unknown_task_rejected(self):
        params = init_mlp(4, 3, (4, 4, 4), seed=0)
        with pytest.raises(ValueError, match="unknown task"):
            predict_batch(np.ones((1, 4), np.float32), params, "ranking")

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


class TestLoss:
    TARGETS = {"multiclass": np.eye(3, dtype=np.float32)[[0, 2, 1, 2, 0]],
               "multilabel": np.array([[1, 0, 1], [0, 0, 0], [1, 1, 1], [0, 1, 0], [0, 0, 1]],
                                      dtype=np.float32)}

    @pytest.mark.parametrize("task", sorted(TARGETS))
    def test_step_tape_is_the_head_and_one_loss_node(self, task):
        # four linears, three tanhs and one loss node: the loss folds no chain
        params = init_mlp(6, 3, (4, 4, 4), seed=0)
        x = np.random.default_rng(0).standard_normal((5, 6)).astype(np.float32)
        loss = classification_loss(mlp_logits(T.constant(x), params), self.TARGETS[task], task)
        assert _tape_nodes(loss) == 4 + 3 + 1

    def test_no_backward_closure_holds_a_tensor(self, monkeypatch):
        walked, original = [], T.backward

        def spy(loss):
            walked.append(_closure_tensors(loss))
            original(loss)

        monkeypatch.setattr(T, "backward", spy)
        x = np.random.default_rng(0).standard_normal((5, 6)).astype(np.float32)
        train_classifier(x, [0, 2, 1, 2, 0], 3, "multiclass",
                         ClassifierConfig(epochs=1, batch_size=5, hidden=(4, 4, 4), seed=0))
        assert walked == [(0, 4 + 3 + 1 + 8)]  # the nodes, and the head's eight leaves

    @pytest.mark.parametrize("task", sorted(TARGETS))
    def test_grad_check_through_the_head(self, task):
        params = init_mlp(6, 3, (4, 4, 4), seed=1)
        x = np.random.default_rng(1).standard_normal((5, 6))

        def fn(p):
            return classification_loss(mlp_logits(T.constant(x, np.float64), p),
                                       self.TARGETS[task], task)

        assert O.grad_check(fn, params, num_samples=6) < 1e-6

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_saturated_multilabel_logits_keep_their_gradient(self, dtype):
        # |z| = 50 on the wrong side of its target: p rounds to 1 or 0, where
        # a loss built as log(p + eps) on p has a zero gradient
        z = np.array([[50.0, -50.0], [-50.0, 50.0]], dtype=dtype)
        y = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=dtype)
        t = T.parameter(z)
        loss = classification_loss(t, y, "multilabel")
        T.backward(loss)
        want = (1.0 / (1.0 + np.exp(-z.astype(np.float64))) - y) / z.size
        assert t.grad.dtype == dtype
        np.testing.assert_allclose(t.grad, want, rtol=1e-6)
        np.testing.assert_allclose(loss.data, 50.0, rtol=1e-6)

    def test_unknown_task_rejected(self):
        with pytest.raises(ValueError, match="unknown task"):
            classification_loss(T.constant(np.zeros((1, 2))), np.zeros((1, 2)), "ranking")


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

    def test_trained_head_keeps_no_optimizer_state_alive(self, monkeypatch):
        # the returned head holds its parameters alone: no gradient, no moment
        buffers = []
        step = classifier.adamw_step

        def spy(params, state, hyper):
            out = step(params, state, hyper)
            buffers.append(weakref.ref(state.buffer))
            return out

        monkeypatch.setattr(classifier, "adamw_step", spy)
        embs, labels = _separable(n=20)
        params = train_classifier(embs, labels, 2, "multiclass", ClassifierConfig(epochs=2))
        gc.collect()
        assert buffers and buffers[-1]() is None
        assert all(p.grad is None for p in params.values())
        assert params.flat.base is None
        assert params.flat.size == sum(p.data.size for p in params.values())

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

