"""Chunk-to-document aggregation: masked mean or max pooling of the
per-chunk [CLS] rows, selected by name through `POOLERS`.

Both take the encoded rows (R, D) of a batch's real chunks, in document
order, and the (B, n) chunk mask whose true slots they fill in row-major
order; each is one tape node (`tensor.masked_mean`/`masked_max`), so
padding slots never enter the result."""

from __future__ import annotations

from . import tensor as T


def pool_mean(rows, chunk_mask):
    """Mean (B, D) over each document's chunk rows."""
    return T.masked_mean(rows, chunk_mask)


def pool_max(rows, chunk_mask):
    """Elementwise max (B, D) over each document's chunk rows."""
    return T.masked_max(rows, chunk_mask)


POOLERS = {"mean": pool_mean, "max": pool_max}
