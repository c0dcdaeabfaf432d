"""Chunk-to-document aggregation: masked mean or max pooling of the
per-chunk [CLS] vectors, selected by name through `POOLERS`."""

from __future__ import annotations

import numpy as np

from . import tensor as T


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

