"""MLP classification head trained on frozen document embeddings."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .encoder import _build
from .optim import AdamWConfig, AdamWState, adamw_step


@dataclass
class ClassifierConfig:
    epochs: int = 20
    batch_size: int = 16
    lr: float = 1e-3
    hidden: tuple = (64, 64, 64)
    threshold: float = 0.5
    weight_decay: float = 0.001
    seed: int = 0

    def validate(self):
        if self.epochs < 0:
            raise ValueError(f"classifier.epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"classifier.batch_size must be >= 1, got {self.batch_size}")
        if self.lr <= 0:
            raise ValueError(f"classifier.lr must be positive, got {self.lr}")
        if len(self.hidden) != 3 or min(self.hidden) < 1:
            raise ValueError(f"classifier.hidden must be three widths >= 1, got {self.hidden}")


def param_specs(input_dim, num_labels, hidden):
    """Name -> (shape, fill) of every head parameter, in creation order: what
    a `clf.bin` of a head over `input_dim`-wide embeddings holds. Layer i is
    h{i}_w (truncated normal) and h{i}_b (zeros), from `input_dim` through
    the `hidden` widths to `num_labels`."""
    dims = [input_dim, *hidden, num_labels]
    specs = {}
    for i in range(len(dims) - 1):
        specs[f"h{i}_w"] = ((dims[i], dims[i + 1]), "normal")
        specs[f"h{i}_b"] = ((dims[i + 1],), "zeros")
    return specs


def init_mlp(input_dim, num_labels, hidden, seed):
    """The parameters of `param_specs(input_dim, num_labels, hidden)`."""
    return _build(param_specs(input_dim, num_labels, hidden), seed)


def mlp_logits(x, params):
    """Three tanh hidden layers, then a linear output layer."""
    n_layers = len(params) // 2
    h = x if isinstance(x, T.Tensor) else T.constant(x)
    for i in range(n_layers):
        h = T.linear(h, params[f"h{i}_w"], params[f"h{i}_b"])
        if i < n_layers - 1:
            h = T.tanh(h)
    return h


def _labels_to_targets(labels, num_labels, task):
    y = np.zeros((len(labels), num_labels), dtype=np.float32)
    for i, ls in enumerate(labels):
        ls = ls if isinstance(ls, (set, frozenset, list, tuple)) else [ls]
        for l in ls:
            if not (0 <= int(l) < num_labels):
                raise ValueError(f"label id {l} out of range [0, {num_labels})")
            y[i, int(l)] = 1.0
    if task == "multiclass" and not np.all(y.sum(axis=1) == 1):
        raise ValueError("multiclass documents must carry exactly one label")
    return y


def classification_loss(logits, targets, task):
    """Mean cross-entropy as one tape node: categorical (multiclass) or
    per-label binary on the logits (multilabel)."""
    if task == "multiclass":
        return T.softmax_cross_entropy(logits, targets)
    if task == "multilabel":
        return T.bce_with_logits(logits, targets)
    raise ValueError(f"unknown task '{task}'")


def train_classifier(embeddings, labels, num_labels, task, config, params=None):
    """Train the MLP head on frozen embeddings; deterministic per seed."""
    config.validate()
    embeddings = np.asarray(embeddings, dtype=np.float32)
    targets = _labels_to_targets(labels, num_labels, task)
    if params is None:
        params = init_mlp(embeddings.shape[1], num_labels, config.hidden, config.seed)
    rng = np.random.default_rng(config.seed)
    state = AdamWState()
    hyper = AdamWConfig(lr=config.lr, weight_decay=config.weight_decay)
    for _ in range(config.epochs):
        order = rng.permutation(len(embeddings))
        for lo in range(0, len(order), config.batch_size):
            idx = order[lo:lo + config.batch_size]
            logits = mlp_logits(T.constant(embeddings[idx]), params)
            loss = classification_loss(logits, targets[idx], task)
            T.backward(loss)
            adamw_step(params, state, hyper)
    return params


def predict_batch(embeddings, params, task, threshold=0.5):
    """Label sets and probabilities for (N, D) embeddings: softmax over the
    labels (multiclass) or a logistic per label (multilabel), computed from
    the logits with the loss nodes' helpers. Multilabel: the labels with
    probability >= threshold. Multiclass: {argmax} with lowest-id tie-break."""
    logits = mlp_logits(np.asarray(embeddings, dtype=np.float32), params).data
    if task == "multiclass":
        probs = np.exp(T._log_probs(logits))
        preds = [{int(np.argmax(row))} for row in probs]
    elif task == "multilabel":
        probs = T._logistic(logits)
        preds = [set(np.flatnonzero(row >= threshold).tolist()) for row in probs]
    else:
        raise ValueError(f"unknown task '{task}'")
    return preds, probs
