"""MLP classification head over document embeddings, plus end-to-end
fine-tuning through the chunk encoder and aggregator."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .corpus import chunk
from .encoder import _trunc_normal
from .optim import AdamWConfig, AdamWState, adamw_step


@dataclass
class ClassifierConfig:
    epochs: int = 20
    batch_size: int = 16
    lr: float = 2e-5
    hidden: tuple = (64, 64, 64)
    threshold: float = 0.5
    weight_decay: float = 0.001
    seed: int = 0

    def validate(self):
        if self.epochs < 0 or self.batch_size < 1 or self.lr <= 0:
            raise ValueError("epochs/batch_size/lr must be positive")
        if len(self.hidden) != 3:
            raise ValueError("the head uses exactly three hidden layers")


def init_mlp(input_dim, num_labels, hidden=(64, 64, 64), seed=0):
    rng = np.random.default_rng(seed)
    params = {}
    dims = [input_dim, *hidden, num_labels]
    for i in range(len(dims) - 1):
        params[f"h{i}_w"] = T.parameter(_trunc_normal(rng, (dims[i], dims[i + 1])),
                                        name=f"h{i}_w")
        params[f"h{i}_b"] = T.parameter(np.zeros(dims[i + 1], dtype=np.float32),
                                        name=f"h{i}_b")
    return params


def mlp_logits(x, params):
    """Three tanh hidden layers, then a linear output layer."""
    n_layers = len(params) // 2
    h = x if isinstance(x, T.Tensor) else T.constant(x)
    for i in range(n_layers):
        h = T.linear(h, params[f"h{i}_w"], params[f"h{i}_b"])
        if i < n_layers - 1:
            h = T.tanh(h)
    return h


def mlp_forward(x, params, task):
    """Probability vector(s): sigmoid per label (multilabel) or softmax
    over labels (multiclass)."""
    z = mlp_logits(x, params)
    if task == "multilabel":
        return T.sigmoid(z)
    if task == "multiclass":
        return T.exp(T.log_softmax(z, axis=-1))
    raise ValueError(f"unknown task '{task}'")


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
    """Mean cross-entropy: categorical (multiclass) or per-label binary."""
    y = T.constant(targets) if not isinstance(targets, T.Tensor) else targets
    n = logits.shape[0]
    if task == "multiclass":
        logp = T.log_softmax(logits, axis=-1)
        return T.scale(T.sum_(T.mul(logp, y)), -1.0 / n)
    p = T.sigmoid(logits)
    eps = 1e-7
    ll = T.add(T.mul(y, T.log(T.add(p, eps))),
               T.mul(T.sub(1.0, y), T.log(T.add(T.sub(1.0, p), eps))))
    return T.scale(T.sum_(ll), -1.0 / (n * logits.shape[-1]))


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
            T.zero_gradients(params)
            T.backward(loss)
            adamw_step(params, T.collect_gradients(params), state, hyper)
    return params


def predict(embedding, params, task, threshold=0.5):
    """Multilabel: labels with probability >= threshold. Multiclass: argmax
    with lowest-id tie-break."""
    probs = mlp_forward(T.constant(np.atleast_2d(embedding)), params, task).data
    if task == "multiclass":
        out = [int(np.argmax(row)) for row in probs]
    else:
        out = [set(np.flatnonzero(row >= threshold).tolist()) for row in probs]
    return out if np.asarray(embedding).ndim > 1 else out[0]


def predict_batch(embeddings, params, task, threshold=0.5):
    probs = mlp_forward(T.constant(np.asarray(embeddings, dtype=np.float32)),
                        params, task).data
    if task == "multiclass":
        preds = [{int(np.argmax(row))} for row in probs]
    else:
        preds = [set(np.flatnonzero(row >= threshold).tolist()) for row in probs]
    return preds, probs


@dataclass
class FinetuneResult:
    encoder_params: dict
    aggregator_params: dict
    head_params: dict
    log_lines: list = field(default_factory=list)


def finetune_end2end(docs, encoder_params, encoder_config, aggregator, head_params,
                     num_labels, task, config, chunk_len=128, n_chunks=32,
                     max_tokens=4096, freeze_encoder=False):
    """Joint training of head + aggregator (+ chunk encoder unless frozen)."""
    from .training import embed_chunked_batch

    config.validate()
    agg_params, agg_config = aggregator
    labels = [d.labels for d in docs]
    targets = _labels_to_targets(labels, num_labels, task)
    chunked = [chunk(d, chunk_len, n_chunks, max_tokens) for d in docs]

    trainable = dict(head_params)
    trainable.update({f"agg.{k}": v for k, v in agg_params.items()})
    if not freeze_encoder:
        trainable.update({f"enc.{k}": v for k, v in encoder_params.items()})

    rng = np.random.default_rng(config.seed)
    state = AdamWState()
    hyper = AdamWConfig(lr=config.lr, weight_decay=config.weight_decay)
    result = FinetuneResult(encoder_params, agg_params, head_params)
    step = 0
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(docs))
        for lo in range(0, len(order), config.batch_size):
            idx = order[lo:lo + config.batch_size]
            embs = embed_chunked_batch([chunked[i] for i in idx], encoder_params,
                                       encoder_config, pooling="transformer",
                                       train=True, rng=rng,
                                       aggregator=(agg_params, agg_config))
            logits = mlp_logits(embs, params=head_params)
            loss = classification_loss(logits, targets[idx], task)
            T.zero_gradients(trainable)
            if not freeze_encoder:
                T.zero_gradients(encoder_params)
            T.backward(loss)
            adamw_step(trainable, T.collect_gradients(trainable), state, hyper)
            step += 1
            result.log_lines.append(f"{step}\t{epoch}\tfinetune\t{loss.item():.6f}")
    return result
