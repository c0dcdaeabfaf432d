"""Minimal dense tensors with reverse-mode automatic differentiation.

Values are numpy arrays (float32 by default, float64 for gradient
checking). Every operation that touches a gradient-tracked tensor records
a node on a dynamic tape; `backward` replays the tape in reverse
topological order.

Fused ops record one node with a closed-form backward pass: `linear`
(x @ w + b over the last axis), `attention` (masked scaled dot-product
attention), `sliding_attention` (a band of keys plus a global prefix, on
the private band kernels) and `cosine_nce` (the in-batch contrastive loss).
Both attention ops take and return (B, L, D), split the heads themselves in
both passes, and share one in-place masked softmax and its gradient.
`masked_mean` and `masked_max` pool rows (R, D) per document: the rows fill
the true slots of a (B, n) mask in row-major order, so scattering them into
a (B, n, D) array is the forward layout and indexing its gradient by the
mask is the backward.

The row kernels make as few full-size passes over their arrays as they
can. `layer_norm` flattens its input to rows (M, D) once, takes the row
means as a GEMV and the row dots with `einsum`, and updates in place. The
masked softmax sums its rows by GEMV and divides in place, and its gradient
takes the row dot with `einsum`. The attention ops scale the (..., L, d)
query by 1/sqrt(d) instead of the (..., L, L) scores, and in the backward
the q and k gradients instead of the score gradient. The `index_select`
backward sorts the ids once and sums each id's rows as one segment.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view


class ShapeError(ValueError):
    pass


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "name")

    def __init__(self, data, requires_grad=False, parents=(), backward=None, name=None):
        if not isinstance(data, np.ndarray):
            if isinstance(data, np.generic):
                data = np.asarray(data)  # keep numpy scalar dtype
            else:
                data = np.asarray(data, dtype=np.float32)
        self.data = data
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = parents
        self._backward = backward
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={self.requires_grad})"

    # operator sugar
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return slice_(self, key)

    def item(self):
        return float(self.data)

    def detach(self):
        return Tensor(self.data, requires_grad=False)


def parameter(data, name=None):
    return Tensor(np.asarray(data), requires_grad=True, name=name)


def constant(data, dtype=np.float32):
    return Tensor(np.asarray(data, dtype=dtype))


def _as_tensor(x, like=None):
    if isinstance(x, Tensor):
        return x
    dtype = like.data.dtype if like is not None else np.float32
    return Tensor(np.asarray(x, dtype=dtype))


def _unbroadcast(grad, shape):
    """Sum `grad` down to `shape` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _node(data, parents, backward, name=None):
    req = any(p.requires_grad for p in parents)
    return Tensor(data, requires_grad=req, parents=tuple(parents) if req else (),
                  backward=backward if req else None, name=name)


def _accum(t, g):
    """Add `g` into `t.grad`.

    The first write stores `g` itself when it has t's shape, so a stored
    gradient may be the very array another tensor holds (`add` hands the
    same `g` to both parents) or a view of the child's gradient. Hence the
    invariant: no code mutates a stored `.grad` or an incoming `g` in place;
    a later write rebinds `t.grad` to a new array.
    """
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g if g.shape == t.shape else np.zeros_like(t.data, dtype=g.dtype) + g
    else:
        t.grad = t.grad + g


# ---------------------------------------------------------------------------
# elementwise / arithmetic

def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b, like=a)
    try:
        out = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not broadcast")

    def bwd(g):
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(g, b.shape))

    return _node(out, (a, b), bwd)


def sub(a, b):
    a, b = _as_tensor(a), _as_tensor(b, like=a)
    out = a.data - b.data

    def bwd(g):
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(-g, b.shape))

    return _node(out, (a, b), bwd)


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b, like=a)
    try:
        out = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} do not broadcast")

    def bwd(g):
        _accum(a, _unbroadcast(g * b.data, a.shape))
        _accum(b, _unbroadcast(g * a.data, b.shape))

    return _node(out, (a, b), bwd)


def scale(a, c):
    a = _as_tensor(a)
    c = float(c)

    def bwd(g):
        _accum(a, g * c)

    return _node(a.data * c, (a,), bwd)


def exp(a):
    a = _as_tensor(a)
    out = np.exp(a.data)

    def bwd(g):
        _accum(a, g * out)

    return _node(out, (a,), bwd)


def log(a):
    a = _as_tensor(a)
    out = np.log(a.data)

    def bwd(g):
        _accum(a, g / a.data)

    return _node(out, (a,), bwd)


def relu(a):
    a = _as_tensor(a)
    out = np.maximum(a.data, 0)

    def bwd(g):
        _accum(a, g * (a.data > 0))

    return _node(out, (a,), bwd)


def tanh(a):
    a = _as_tensor(a)
    out = np.tanh(a.data)

    def bwd(g):
        _accum(a, g * (1.0 - out * out))

    return _node(out, (a,), bwd)


def sigmoid(a):
    a = _as_tensor(a)
    # stable: avoid exp overflow on large negatives
    out = np.where(a.data >= 0,
                   1.0 / (1.0 + np.exp(-np.abs(a.data))),
                   np.exp(-np.abs(a.data)) / (1.0 + np.exp(-np.abs(a.data))))

    def bwd(g):
        _accum(a, g * out * (1.0 - out))

    return _node(out, (a,), bwd)


# ---------------------------------------------------------------------------
# structural

def matmul(a, b):
    a, b = _as_tensor(a), _as_tensor(b, like=a)
    try:
        out = np.matmul(a.data, b.data)
    except ValueError:
        raise ShapeError(f"matmul: shapes {a.shape} and {b.shape} do not conform")

    def bwd(g):
        if a.ndim == 1 and b.ndim == 1:
            _accum(a, g * b.data)
            _accum(b, g * a.data)
            return
        ad = a.data if a.ndim > 1 else a.data[None, :]
        bd = b.data if b.ndim > 1 else b.data[:, None]
        gg = g
        if a.ndim == 1:
            gg = gg[..., None, :]
        if b.ndim == 1:
            gg = gg[..., :, None]
        ga = np.matmul(gg, np.swapaxes(bd, -1, -2))
        gb = np.matmul(np.swapaxes(ad, -1, -2), gg)
        if a.ndim == 1:
            ga = ga.reshape(ga.shape[:-2] + (ga.shape[-1],))
        if b.ndim == 1:
            gb = gb.reshape(gb.shape[:-1])
        _accum(a, _unbroadcast(ga, a.shape))
        _accum(b, _unbroadcast(gb, b.shape))

    return _node(out, (a, b), bwd)


def linear(x, w, b):
    """x @ w + b over the last axis of x, as one tape node.

    x (..., D) (1-D allowed), w (D, F), b (F,) -> (..., F). The leading
    axes are flattened into one GEMM, so the weight gradient is a single
    x2^T.g2 product rather than a batched one summed afterwards.
    """
    x, w, b = _as_tensor(x), _as_tensor(w, like=x), _as_tensor(b, like=x)
    if w.ndim != 2 or x.shape[-1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ShapeError(f"linear: shapes {x.shape}, {w.shape} and {b.shape} do not conform")
    x2 = x.data.reshape(-1, x.shape[-1])
    y = np.matmul(x2, w.data)
    y += b.data
    out = y.reshape(x.shape[:-1] + w.shape[1:])

    def bwd(g):
        g2 = g.reshape(-1, g.shape[-1])
        _accum(w, np.matmul(x2.T, g2))
        _accum(b, g2.sum(axis=0))
        _accum(x, np.matmul(g2, w.data.T).reshape(x.shape))

    return _node(out, (x, w, b), bwd)


def reshape(a, shape):
    a = _as_tensor(a)
    out = a.data.reshape(shape)

    def bwd(g):
        _accum(a, g.reshape(a.shape))

    return _node(out, (a,), bwd)


def _is_basic_key(key):
    """True for keys of slices, ints, None and Ellipsis, which pick each
    position at most once (numpy basic indexing)."""
    parts = key if isinstance(key, tuple) else (key,)
    return all(k is None or k is Ellipsis or isinstance(k, (slice, int, np.integer))
               for k in parts)


def slice_(a, key):
    a = _as_tensor(a)
    out = a.data[key]
    basic = _is_basic_key(key)

    def bwd(g):
        if not basic:  # an integer-array key may repeat positions
            full = np.zeros_like(a.data)
            np.add.at(full, key, g)
            _accum(a, full)
            return
        if a.grad is None:
            full = np.zeros_like(a.data, dtype=g.dtype)
            full[key] = g
        else:  # a copy: the stored gradient may be shared (see `_accum`)
            full = a.grad.copy()
            full[key] += g
        a.grad = full

    return _node(out, (a,), bwd)


def index_select(a, axis, indices):
    """Gather along `axis` with an integer index array. The backward sorts the
    ids once and sums the rows of each repeated id as one segment."""
    a = _as_tensor(a)
    indices = np.asarray(indices)
    out = np.take(a.data, indices, axis=axis)

    def bwd(g):
        # collapse the index dimensions gathered at `axis` to one
        gm = np.moveaxis(g, tuple(range(axis, axis + indices.ndim)), tuple(range(indices.ndim)))
        gm = gm.reshape((indices.size,) + gm.shape[indices.ndim:])
        full = np.zeros(np.moveaxis(a.data, axis, 0).shape, dtype=g.dtype)
        if indices.size:
            ids = indices.reshape(-1) % full.shape[0]  # negative ids wrap, as in `np.take`
            order = np.argsort(ids, kind="stable")
            ids = ids[order]
            starts = np.flatnonzero(np.concatenate(([True], ids[1:] != ids[:-1])))
            full[ids[starts]] = np.add.reduceat(gm[order], starts, axis=0)
        _accum(a, np.moveaxis(full, 0, axis))

    return _node(out, (a,), bwd)


def embedding(table, ids):
    """Look up rows of `table` (V, D) for an integer id array."""
    return index_select(table, 0, np.asarray(ids))


# ---------------------------------------------------------------------------
# banded attention
#
# A band of half-width w pairs row i with rows i-w .. i+w of the sequence
# axis (-2); slot j of row i holds offset j - w. Rows past either end read
# zero padding. Zero-padding x by w on both sides makes slot j of every row
# the shifted slice xp[..., j:j+L, :]; the 2w+1 slices are taken as one
# strided view, so no (..., L, 2w+1, d) array is ever gathered.

def _band_windows(x, w):
    """(..., L, d, 2w+1) view of x zero-padded by w: [..., i, :, j] = x[..., i+j-w, :]."""
    l = x.shape[-2]
    xp = np.zeros(x.shape[:-2] + (l + 2 * w, x.shape[-1]), dtype=x.dtype)
    xp[..., w:w + l, :] = x
    return sliding_window_view(xp, 2 * w + 1, axis=-2)


def _band_dot(a, b, w):
    """[..., i, j] = a[..., i, :] . b[..., i+j-w, :]"""
    return np.matmul(a[..., None, :], _band_windows(b, w))[..., 0, :]


def _band_mix(p, b, w):
    """[..., i, :] = sum_j p[..., i, j] * b[..., i+j-w, :]"""
    return np.matmul(_band_windows(b, w), p[..., None])[..., 0]


def _band_transpose(p, w):
    """Band of P^T for the L x L matrix P whose band is p (P[i, i+j-w] = p[i, j]):
    [..., n, j] = p[..., n+j-w, 2w-j], zero where n+j-w is out of range. A
    read-only diagonal view of a flipped, zero-padded copy of p."""
    l, span = p.shape[-2:]
    pf = np.zeros(p.shape[:-2] + (l + 2 * w, span), dtype=p.dtype)
    pf[..., w:w + l, :] = p[..., ::-1]
    row, col = pf.strides[-2:]
    return as_strided(pf, shape=p.shape, strides=pf.strides[:-2] + (row, row + col),
                      writeable=False)


# ---------------------------------------------------------------------------
# reductions

def sum_(a, axis=None, keepdims=False):
    a = _as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        if axis is None:
            _accum(a, np.broadcast_to(g, a.shape).copy())
            return
        gg = g
        if not keepdims:
            gg = np.expand_dims(gg, axis)
        _accum(a, np.broadcast_to(gg, a.shape).copy())

    return _node(out, (a,), bwd)


def _scatter_rows(rows, mask, fill, op):
    """Lay rows (R, D) over the true slots of a (B, n) bool mask, in
    row-major order, in a (B, n, D) array of `fill`. Every document needs
    a true slot, and the mask one true slot per row."""
    mask = np.asarray(mask, dtype=bool)
    if rows.ndim != 2 or mask.ndim != 2 or mask.sum() != rows.shape[0]:
        raise ShapeError(f"{op}: rows {rows.shape} do not fill the "
                         f"{int(mask.sum())} true slots of mask {mask.shape}")
    if not mask.any(axis=1).all():
        raise ValueError(f"{op}: a document has zero unmasked slots")
    full = np.full(mask.shape + rows.shape[1:], fill, dtype=rows.data.dtype)
    full[mask] = rows.data
    return full, mask


def masked_mean(rows, mask):
    """Per-document mean (B, D) of rows (R, D) laid out by a (B, n) mask."""
    rows = _as_tensor(rows)
    full, mask = _scatter_rows(rows, mask, 0.0, "masked_mean")
    cnt = mask.sum(axis=1, keepdims=True).astype(full.dtype)
    out = full.sum(axis=1) / cnt

    def bwd(g):
        _accum(rows, np.broadcast_to((g / cnt)[:, None], mask.shape + g.shape[1:])[mask])

    return _node(out, (rows,), bwd)


def masked_max(rows, mask):
    """Per-document elementwise max (B, D) of rows (R, D) laid out by a
    (B, n) mask."""
    rows = _as_tensor(rows)
    full, mask = _scatter_rows(rows, mask, -np.inf, "masked_max")
    idx = np.argmax(full, axis=1)[:, None]
    out = np.take_along_axis(full, idx, axis=1)[:, 0]

    def bwd(g):
        gfull = np.zeros_like(full)
        np.put_along_axis(gfull, idx, g[:, None], axis=1)
        _accum(rows, gfull[mask])

    return _node(out, (rows,), bwd)


# ---------------------------------------------------------------------------
# NN primitives

def _masked_softmax_(s, invalid):
    """Softmax over the last axis of the finite scores `s`, in place. Entries
    where `invalid` (broadcast to s) is true get probability exactly 0, and a
    row with no valid entry is all zeros (no NaN). Returns s."""
    # an additive -inf mask: a broadcast add is several times faster than
    # `np.copyto(..., where=)` with a broadcast mask
    s += np.where(invalid, -np.inf, 0.0).astype(s.dtype)
    mx = s.max(axis=-1, keepdims=True)
    mx[~np.isfinite(mx)] = 0.0
    s -= mx
    np.exp(s, out=s)  # invalid entries: exp(-inf) = 0
    denom = np.matmul(s, np.ones(s.shape[-1], dtype=s.dtype))[..., None]
    denom[denom == 0] = 1.0  # a row with no valid entry stays all zeros
    s /= denom
    return s


def _softmax_grad(p, dp):
    """Gradient of the scores s for p = softmax(s) given dL/dp:
    p * (dp - rowsum(dp * p)), written into dp and returned."""
    dp -= np.einsum("...j,...j->...", dp, p)[..., None]
    dp *= p
    return dp


def _split_heads(x, heads):  # (B, L, H*d) -> (B, H, L, d), a view
    return x.reshape(x.shape[:2] + (heads, -1)).transpose(0, 2, 1, 3)


def _merge_heads(x):  # (B, H, L, d) -> (B, L, H*d), a copy
    return x.transpose(0, 2, 1, 3).reshape(x.shape[0], x.shape[2], -1)


def attention(q, k, v, key_mask, heads, probs=None):
    """Masked multi-head scaled dot-product attention as one tape node.

    q (B,Lq,D), k and v (B,Lk,D), key_mask (B,Lk) bool -> context (B,Lq,D),
    over `heads` heads of d = D/heads. softmax(q.k^T / sqrt(d)) follows
    `_masked_softmax_`'s contract: masked keys get probability exactly 0,
    and a row with no readable key gets zero probabilities and a zero
    context (no NaN). Only the (B,H,Lq,Lk) probabilities are kept for the
    closed-form backward; when `probs` is a list, they are appended to it.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    qh, kh, vh = (_split_heads(t.data, heads) for t in (q, k, v))
    c = 1.0 / math.sqrt(qh.shape[-1])
    p = np.matmul(qh * c, np.swapaxes(kh, -1, -2))
    _masked_softmax_(p, ~np.asarray(key_mask, dtype=bool)[:, None, None, :])
    if probs is not None:
        probs.append(p)
    out = _merge_heads(np.matmul(p, vh))

    def bwd(g):
        gh = _split_heads(g, heads)
        _accum(v, _merge_heads(np.matmul(np.swapaxes(p, -1, -2), gh)))
        ds = _softmax_grad(p, np.matmul(gh, np.swapaxes(vh, -1, -2)))
        gq = np.matmul(ds, kh)
        gq *= c
        _accum(q, _merge_heads(gq))
        gk = np.matmul(np.swapaxes(ds, -1, -2), qh)
        gk *= c
        _accum(k, _merge_heads(gk))

    return _node(out, (q, k, v), bwd)


def sliding_attention(q, k, v, key_mask, heads, w, g, probs=None):
    """Sliding-window attention with a global prefix {0..g-1}, as one tape node.

    q, k, v (B,L,D), key_mask (B,L) bool -> context (B,L,D), over `heads`
    heads. Row i >= g reads keys i-w..i+w and the global keys; a global row
    reads every key. Both softmaxes follow `attention`'s contract. Only the
    probabilities are kept (and appended to `probs` when it is a list): a
    (B,H,L,2w+1+g) array whose slot j < 2w+1 is key i+j-w and whose last g
    columns are the global keys, 0 past either end, on a masked key, on a
    band slot of a global key and on the global rows; and the global rows'
    dense (B,H,g,L) array.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    qh, kh, vh = (_split_heads(t.data, heads) for t in (q, k, v))
    l, d = qh.shape[-2:]
    span = 2 * w + 1
    c = 1.0 / math.sqrt(d)
    key_mask = np.asarray(key_mask, dtype=bool)
    kg, vg = kh[:, :, :g], vh[:, :, :g]

    raw = np.arange(l)[:, None] + np.arange(-w, w + 1)  # (L, 2w+1): key of each slot
    keys = np.concatenate([np.clip(raw, 0, l - 1), np.broadcast_to(np.arange(g), (l, g))], 1)
    invalid = ~key_mask[:, None, keys]  # (B, 1, L, 2w+1+g)
    invalid[..., :span] |= (raw < g) | (raw >= l)
    invalid[:, :, :g] = True  # the global rows attend densely, in `pg`
    qs = qh * c  # forward only: the backward scales gq and gk instead
    p = np.empty(qh.shape[:-1] + (span + g,), dtype=qh.dtype)
    p[..., :span] = _band_dot(qs, kh, w)
    p[..., span:] = np.matmul(qs, np.swapaxes(kg, -1, -2))
    _masked_softmax_(p, invalid)
    pg = np.matmul(qs[:, :, :g], np.swapaxes(kh, -1, -2))
    _masked_softmax_(pg, ~key_mask[:, None, None, :])
    if probs is not None:
        probs += [p, pg]
    out = _band_mix(p[..., :span], vh, w)
    out += np.matmul(p[..., span:], vg)
    out[:, :, :g] = np.matmul(pg, vh)

    def bwd(grad):
        gr = _split_heads(grad, heads)
        gv = _band_mix(_band_transpose(p[..., :span], w), gr, w)
        gv[:, :, :g] += np.matmul(np.swapaxes(p[..., span:], -1, -2), gr)
        gv += np.matmul(np.swapaxes(pg, -1, -2), gr[:, :, :g])
        ds = np.empty_like(p)
        ds[..., :span] = _band_dot(gr, vh, w)
        ds[..., span:] = np.matmul(gr, np.swapaxes(vg, -1, -2))
        _softmax_grad(p, ds)
        dsg = _softmax_grad(pg, np.matmul(gr[:, :, :g], np.swapaxes(vh, -1, -2)))
        gq = _band_mix(ds[..., :span], kh, w)
        gq += np.matmul(ds[..., span:], kg)
        gq[:, :, :g] += np.matmul(dsg, kh)
        gq *= c
        gk = _band_mix(_band_transpose(ds[..., :span], w), qh, w)
        gk[:, :, :g] += np.matmul(np.swapaxes(ds[..., span:], -1, -2), qh)
        gk += np.matmul(np.swapaxes(dsg, -1, -2), qh[:, :, :g])
        gk *= c
        _accum(q, _merge_heads(gq))
        _accum(k, _merge_heads(gk))
        _accum(v, _merge_heads(gv))

    return _node(_merge_heads(out), (q, k, v), bwd)


def log_softmax(a, axis=-1):
    a = _as_tensor(a)
    mx = np.max(a.data, axis=axis, keepdims=True)
    z = a.data - mx
    lse = np.log(np.exp(z).sum(axis=axis, keepdims=True))
    out = z - lse
    p = np.exp(out)

    def bwd(g):
        _accum(a, g - p * g.sum(axis=axis, keepdims=True))

    return _node(out, (a,), bwd)


def layer_norm(a, gamma, beta, eps=1e-5):
    """Normalize the last axis, then apply learned scale/shift. The leading
    axes are flattened to rows (M, D) once; the gamma and beta gradients are
    one reduction each over the rows."""
    a, gamma, beta = _as_tensor(a), _as_tensor(gamma), _as_tensor(beta)
    d = a.shape[-1]
    x = a.data.reshape(-1, d)
    avg = np.full(d, 1.0 / d, dtype=x.dtype)
    xhat = x - np.matmul(x, avg)[:, None]
    inv = (1.0 / np.sqrt(np.einsum("ij,ij->i", xhat, xhat) / d + eps))[:, None]
    xhat *= inv
    out = xhat * gamma.data
    out += beta.data

    def bwd(g):
        g = g.reshape(-1, d)
        _accum(gamma, np.einsum("ij,ij->j", g, xhat))
        _accum(beta, np.matmul(np.ones(len(g), dtype=g.dtype), g))
        # inv * (dxhat - rowmean(dxhat) - xhat * rowmean(dxhat * xhat))
        dx = g * gamma.data
        dot = np.einsum("ij,ij->i", dx, xhat) / d
        dx -= np.matmul(dx, avg)[:, None]
        dx -= xhat * dot[:, None]
        dx *= inv
        _accum(a, dx.reshape(a.shape))

    return _node(out.reshape(a.shape), (a, gamma, beta), bwd)


def dropout(a, rate, rng, train):
    """Inverted dropout: identity in eval mode."""
    a = _as_tensor(a)
    if not train or rate <= 0.0:
        return a
    keep = (rng.random(a.shape) >= rate)
    factor = 1.0 / (1.0 - rate)
    k = keep.astype(a.data.dtype) * factor

    def bwd(g):
        _accum(a, g * k)

    return _node(a.data * k, (a,), bwd)


def cosine_nce(a, c, tau):
    """In-batch InfoNCE over cosine similarities, as one tape node: a, c (N, D)
    -> (loss, sims) with the (N, N) array sims[i, j] = cos(a_i, c_j) and
    loss = -(1/N) sum_i log softmax_j(sims[i, j] / tau)[i]. A zero-norm row
    in either input is a ValueError."""
    a, c = _as_tensor(a), _as_tensor(c, like=a)
    na = np.sqrt((a.data * a.data).sum(axis=-1, keepdims=True))
    nc = np.sqrt((c.data * c.data).sum(axis=-1, keepdims=True))
    if np.any(na <= 0) or np.any(nc <= 0):
        raise ValueError("cosine_nce: zero-norm row")
    an, cn = a.data / na, c.data / nc
    sims = np.matmul(an, cn.T)
    n, s = sims.shape[0], 1.0 / tau
    z = sims * s
    z -= z.max(axis=-1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    diag = np.arange(n)

    def unit_grad(gu, u, norm):  # through u = x / |x|
        return (gu - u * (gu * u).sum(axis=-1, keepdims=True)) / norm

    def bwd(g):
        ds = np.exp(logp)
        ds[diag, diag] -= 1.0
        ds *= g * (s / n)
        _accum(a, unit_grad(np.matmul(ds, cn), an, na))
        _accum(c, unit_grad(np.matmul(ds.T, an), cn, nc))

    loss = _node(logp[diag, diag].sum() * (-1.0 / n), (a, c), bwd)
    return loss, sims


# ---------------------------------------------------------------------------
# backward pass and gradient checking

def backward(loss):
    """Reverse-mode accumulation from a scalar loss to all tracked leaves."""
    if loss.data.ndim != 0 and loss.data.size != 1:
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.shape}")
    topo, seen = [], set()
    stack = [(loss, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None:
            node._backward(node.grad)


def collect_gradients(params):
    """Gradients for a name->Tensor map; untouched parameters get zeros."""
    return {k: (p.grad if p.grad is not None else np.zeros_like(p.data))
            for k, p in params.items()}


def zero_gradients(params):
    for p in params.values():
        p.grad = None


def grad_check(fn, params, eps=1e-5, num_samples=8, rng=None):
    """Max relative error between analytic and central-difference gradients.

    `fn` maps a name->Tensor dict to a scalar Tensor. The check runs in
    float64 regardless of the incoming dtype.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    p64 = {k: Tensor(v.data.astype(np.float64), requires_grad=True, name=k)
           for k, v in params.items()}
    loss = fn(p64)
    backward(loss)
    analytic = collect_gradients(p64)

    worst = 0.0
    for name, t in p64.items():
        flat = t.data.reshape(-1)
        n = flat.size
        coords = rng.choice(n, size=min(num_samples, n), replace=False)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + eps
            lp = fn(p64).item()
            flat[c] = orig - eps
            lm = fn(p64).item()
            flat[c] = orig
            numeric = (lp - lm) / (2 * eps)
            ana = analytic[name].reshape(-1)[c]
            err = abs(ana - numeric) / max(1.0, abs(numeric))
            worst = max(worst, err)
    return worst
