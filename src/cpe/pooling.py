"""Chunk-to-document aggregation: mean/max pooling and a trainable
two-layer transformer over chunk vectors."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .encoder import EncoderConfig, _block, init_params


def pool_mean(chunk_embs, chunk_mask):
    """Mean over unmasked chunk vectors.

    Accepts (n, D) with mask (n,) or batched (B, n, D) with mask (B, n).
    Masked slots are excluded from both the sum and the denominator, so
    the result is invariant to padding.
    """
    chunk_mask = np.asarray(chunk_mask, dtype=bool)
    axis = 0 if chunk_embs.ndim == 2 else 1
    if not chunk_mask.any(axis=-1 if chunk_mask.ndim > 1 else 0).all():
        raise ValueError("pool_mean: document with zero unmasked chunks")
    return T.masked_mean(chunk_embs, chunk_mask, axis=axis)


def pool_max(chunk_embs, chunk_mask):
    """Elementwise max over unmasked chunk vectors; same shapes as pool_mean."""
    chunk_mask = np.asarray(chunk_mask, dtype=bool)
    axis = 0 if chunk_embs.ndim == 2 else 1
    if not chunk_mask.any(axis=-1 if chunk_mask.ndim > 1 else 0).all():
        raise ValueError("pool_max: document with zero unmasked chunks")
    return T.masked_max(chunk_embs, chunk_mask, axis=axis)


POOLERS = {"mean": pool_mean, "max": pool_max}


@dataclass
class AggregatorConfig:
    dim: int = 64
    layers: int = 2
    heads: int = 4
    ff: int = 128
    max_chunks: int = 32
    dropout: float = 0.1


def init_aggregator(config, seed):
    """Chunk-position embeddings + transformer blocks over chunk vectors."""
    enc_cfg = EncoderConfig(vocab_size=1, dim=config.dim, layers=config.layers,
                            heads=config.heads, ff=config.ff,
                            max_positions=config.max_chunks, dropout=config.dropout)
    params = init_params(enc_cfg, seed)
    del params["tok_emb"]  # aggregator input is chunk vectors, not token ids
    return params


def aggregate_transformer(chunk_embs, chunk_mask, params, config, train=False, rng=None):
    """Contextualize chunk vectors with a small transformer, then max-pool.

    `chunk_embs` is (B, n, D) (or (n, D)) of per-chunk [CLS] vectors;
    masked slots never enter attention or the final pool.
    """
    single = chunk_embs.ndim == 2
    if single:
        chunk_embs = T.reshape(chunk_embs, (1,) + chunk_embs.shape)
    chunk_mask = np.atleast_2d(np.asarray(chunk_mask, dtype=bool))
    b, n, d = chunk_embs.shape
    if n > config.max_chunks:
        raise ValueError(f"{n} chunk slots exceed aggregator budget {config.max_chunks}")
    if not chunk_mask.any(axis=1).all():
        raise ValueError("aggregate_transformer: document with zero unmasked chunks")
    if train and rng is None:
        raise ValueError("train mode requires an rng for dropout")

    h = T.add(chunk_embs, T.reshape(params["pos_emb"][:n], (1, n, d)))
    h = T.dropout(h, config.dropout, rng, train)

    def attend(q, k, v):
        return T.attention(q, k, v, chunk_mask)

    for i in range(config.layers):
        h = _block(h, params, f"layer{i}.", config, attend, rng, train)
    h = T.layer_norm(h, params["lnf_g"], params["lnf_b"])

    out = T.masked_max(h, chunk_mask, axis=1)
    return out[0] if single else out
