"""Minimal dense tensors with reverse-mode automatic differentiation.

Values are numpy arrays (float32 by default, float64 for gradient
checking). Every op takes `Tensor`s: `constant` wraps an array that needs
no gradient, `parameter` one that does. Every op that touches a
gradient-tracked tensor records a node on a dynamic tape. A node holds the
gradient, the backward closure, the parents' nodes and the shape and
dtype, not the value; each closure keeps its parents' nodes and only the
arrays its own backward reads, never a `Tensor`. So a value dies once
nothing reads it, neither the forward code nor a closure: the embedding
lookups, the residual sums and the projections added into them are freed
during the forward. `backward` replays the tape in reverse topological
order and consumes it as it goes: each node drops its gradient, its
closure and its parents once its closure has run, so the saved arrays and
interior gradients are freed during the sweep and only leaves keep
`.grad`. A second backward through a spent graph raises.

A model's parameters are a `Parameters` store: views of one contiguous
buffer, whose leaves' gradients one `np.concatenate` gathers (and clears)
into a flat buffer of the same layout, so an optimizer works on whole
buffers rather than on each parameter.

Fused ops record one node with a closed-form backward pass: `linear`
(x @ w + b over the last axis), `attention` (masked scaled dot-product
attention), `cls_attention` (attention of a few query rows, such as the
[CLS] rows, over keys and values it never projects: each head's key and
value projections are absorbed into its query), `sliding_attention` (a
band of keys plus the [CLS] key, the one global token, on the private band
kernels, over one or more segments per row) and the three losses:
`cosine_nce` (the in-batch contrastive loss), `softmax_cross_entropy` (the
multiclass head) and `bce_with_logits` (the multilabel head). The losses
take the log softmax and the logistic from two private helpers, which the
classifier's predictions share. The attention ops take and return
(B, L, D), split the heads themselves in both passes, and share one
in-place masked softmax and its gradient. `attention` runs both passes
over groups of whole sequences, about 1 MiB of probabilities each
(`_groups`), so a group's scores stay in the L2 cache across the passes
over them; every product is per sequence, so the grouping changes no
bit. Each attention op keeps its probabilities only when an input is
tracked (its backward reads them) or a `probs` list asks for them; an
untracked `attention` call without one computes each group's into one
group-sized buffer and never holds the (B,H,Lq,Lk) array.
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
the q and k gradients instead of the score gradient. The `embedding`
backward sorts the ids once and sums each id's rows as one segment.

Importing this module sets glibc's allocator policy for the process: no
array under 32 MiB is given its own mmap (`M_MMAP_THRESHOLD`), and the heap
is never trimmed (`M_TRIM_THRESHOLD` -1). Otherwise glibc hands a step's
freed arrays back to the kernel, and the next step faults the same pages in
again, zeroed: about 17,000 minor faults and 40 ms of system time per
1024-token `cpe-hier` round. Kept in the heap, the next step reuses them, as
a caching allocator would. The cost is that a process's RSS does not fall
after its peak; the peak itself stays within 2 MB. Arrays of 32 MiB or more
still go through mmap. Where libc has no `mallopt` (musl, macOS) nothing is
set.
"""

from __future__ import annotations

import ctypes
import math
import operator

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view


_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameters
_MMAP_THRESHOLD = 32 << 20  # above every array a workload allocates


def _keep_freed_arrays():
    """Set the allocator policy in the module docstring; True when both
    settings are in force. Either setting turns glibc's dynamic mmap
    threshold off, and the trim setting alone doubles the faults, so the
    trim setting goes in only after the threshold is accepted."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return (mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD) == 1
            and mallopt(_M_TRIM_THRESHOLD, -1) == 1)


_keep_freed_arrays()


class ShapeError(ValueError):
    pass


class _Node:
    """What the tape records for one tracked tensor: its gradient, its
    backward closure, its parents' nodes, and its shape and dtype. Not its
    value: the tensor holds that, and a closure only the arrays it reads."""
    __slots__ = ("grad", "_backward", "_parents", "shape", "dtype")

    def __init__(self, data, parents, backward):
        self.grad, self._backward, self._parents = None, backward, parents
        self.shape, self.dtype = data.shape, data.dtype


class Tensor:
    """An array `data` and, when gradient-tracked, its tape `node` (else
    None); `parents` are the parents' nodes."""
    __slots__ = ("data", "node", "name")

    def __init__(self, data, requires_grad=False, parents=(), backward=None, name=None):
        self.data = data = np.asarray(data)
        self.node = _Node(data, tuple(parents), backward) if requires_grad else None
        self.name = name

    # the tape's fields, read through the node (None for an untracked tensor)
    grad = property(lambda self: getattr(self.node, "grad", None),
                    lambda self, g: setattr(self.node, "grad", g))
    _backward = property(lambda self: getattr(self.node, "_backward", None),
                         lambda self, fn: setattr(self.node, "_backward", fn))

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={self.node is not None})"

    def __getitem__(self, key):
        return slice_(self, key)

    def item(self):
        return float(self.data)


def parameter(data, name=None):
    return Tensor(np.asarray(data), requires_grad=True, name=name)


class Parameters(dict):
    """A model's name -> parameter map whose values are views, in insertion
    order, of one contiguous buffer `flat`: the store an optimizer updates
    with whole-buffer operations, keeping its own per-element state in the
    same layout.

    `gather_gradients` takes the gradients backward left on the leaves into
    one flat buffer. A parameter whose `.data` was rebound to another array
    (or whose entry was replaced) no longer views `flat`; the gather raises
    rather than let the optimizer train a stale copy. Write into `.data` in
    place instead."""

    def __init__(self, arrays):
        arrays = {name: np.asarray(a) for name, a in arrays.items()}
        ends = np.cumsum([a.size for a in arrays.values()]).tolist()
        self._layout = [(name, a.shape, end - a.size, end)
                        for (name, a), end in zip(arrays.items(), ends)]
        self.flat = np.concatenate([a.ravel() for a in arrays.values()])
        views = self.split(self.flat)
        super().__init__((name, parameter(v, name=name)) for name, v in views.items())
        self._views = list(views.values())
        # what the gather reads for a parameter backward did not reach: zeros, no memory
        self._zeros = [np.broadcast_to(self.flat.dtype.type(0), v.shape) for v in self._views]

    def split(self, flat):
        """Name -> view of `flat`, an array in this store's layout."""
        return {name: flat[lo:hi].reshape(shape) for name, shape, lo, hi in self._layout}

    def gather_gradients(self, out):
        """Copy every parameter's `.grad` into `out`, in the store's layout,
        and clear them, in one `np.concatenate`: a parameter backward did not
        reach contributes zeros. Raises ValueError, naming the parameter,
        if one no longer views `flat`."""
        tensors = list(self.values())
        if not all(map(operator.is_, map(_DATA, tensors), self._views)):
            name = next(n for (n, p), v in zip(self.items(), self._views) if p.data is not v)
            raise ValueError(f"parameter '{name}' no longer views its store's buffer (its "
                             f".data or its entry was replaced); write into .data in place")
        np.concatenate(list(map(_take_grad, tensors, self._zeros)), axis=None, out=out)


_DATA = operator.attrgetter("data")


def _take_grad(p, zero):
    g, p.node.grad = p.node.grad, None
    return zero if g is None else g


def constant(data, dtype=np.float32):
    return Tensor(np.asarray(data, dtype=dtype))


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


def _node(data, parents, backward):
    nodes = tuple(p.node for p in parents if p.node is not None)
    return Tensor(data, bool(nodes), nodes, backward)


def _accum(n, g):
    """Add `g` into the gradient of node `n`; nothing when `n` is None (an
    untracked parent). The shape comes from the node, which keeps no value:
    a value dies once neither the forward code nor a closure still reads
    it, often long before backward reaches its node.

    The first write stores `g` itself when it has n's shape, so a stored
    gradient may be the very array another node holds (`add` hands the
    same `g` to both parents) or a view of the child's gradient. Hence the
    invariant: no code mutates a stored `.grad` or an incoming `g` in place;
    a later write rebinds `n.grad` to a new array.
    """
    if n is None:
        return
    if n.grad is None:
        n.grad = g if g.shape == n.shape else np.zeros(n.shape, dtype=g.dtype) + g
    else:
        n.grad = n.grad + g


# ---------------------------------------------------------------------------
# elementwise / arithmetic

def add(a, b):
    try:
        out = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not broadcast")
    an, bn, a_shape, b_shape = a.node, b.node, a.shape, b.shape

    def bwd(g):
        _accum(an, _unbroadcast(g, a_shape))
        _accum(bn, _unbroadcast(g, b_shape))

    return _node(out, (a, b), bwd)


def relu(a):
    out, an = np.maximum(a.data, 0), a.node

    def bwd(g):
        _accum(an, g * (out > 0))  # out > 0 exactly where a > 0

    return _node(out, (a,), bwd)


def tanh(a):
    out, an = np.tanh(a.data), a.node

    def bwd(g):
        _accum(an, g * (1.0 - out * out))

    return _node(out, (a,), bwd)


# ---------------------------------------------------------------------------
# structural

def matmul(a, b):
    try:
        out = np.matmul(a.data, b.data)
    except ValueError:
        raise ShapeError(f"matmul: shapes {a.shape} and {b.shape} do not conform")
    ad, bd, an, bn = a.data, b.data, a.node, b.node

    def bwd(g):
        if ad.ndim == 1 and bd.ndim == 1:
            _accum(an, g * bd)
            _accum(bn, g * ad)
            return
        a2 = ad if ad.ndim > 1 else ad[None, :]
        b2 = bd if bd.ndim > 1 else bd[:, None]
        gg = g
        if ad.ndim == 1:
            gg = gg[..., None, :]
        if bd.ndim == 1:
            gg = gg[..., :, None]
        ga = np.matmul(gg, np.swapaxes(b2, -1, -2))
        gb = np.matmul(np.swapaxes(a2, -1, -2), gg)
        if ad.ndim == 1:
            ga = ga.reshape(ga.shape[:-2] + (ga.shape[-1],))
        if bd.ndim == 1:
            gb = gb.reshape(gb.shape[:-1])
        _accum(an, _unbroadcast(ga, ad.shape))
        _accum(bn, _unbroadcast(gb, bd.shape))

    return _node(out, (a, b), bwd)


def linear(x, w, b):
    """x @ w + b over the last axis of x, as one tape node.

    x (..., D) (1-D allowed), w (D, F), b (F,) -> (..., F). The leading
    axes are flattened into one GEMM, so the weight gradient is a single
    x2^T.g2 product rather than a batched one summed afterwards, and the
    bias gradient one GEMV, not a strided column sum.
    """
    if w.ndim != 2 or x.shape[-1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ShapeError(f"linear: shapes {x.shape}, {w.shape} and {b.shape} do not conform")
    x2 = x.data.reshape(-1, x.shape[-1])
    y = np.matmul(x2, w.data)
    y += b.data
    out = y.reshape(x.shape[:-1] + w.shape[1:])
    xn, wn, bn, x_shape, wd = x.node, w.node, b.node, x.shape, w.data

    def bwd(g):
        g2 = g.reshape(-1, g.shape[-1])
        _accum(wn, np.matmul(x2.T, g2))
        _accum(bn, np.matmul(np.ones(len(g2), dtype=g2.dtype), g2))
        _accum(xn, np.matmul(g2, wd.T).reshape(x_shape))

    return _node(out, (x, w, b), bwd)


def _is_basic_key(key):
    """True for keys of slices, ints, None and Ellipsis, which pick each
    position at most once (numpy basic indexing)."""
    parts = key if isinstance(key, tuple) else (key,)
    return all(k is None or k is Ellipsis or isinstance(k, (slice, int, np.integer))
               for k in parts)


def slice_(a, key):
    out, an = a.data[key], a.node
    basic = _is_basic_key(key)

    def bwd(g):
        if not basic:  # an integer-array key may repeat positions
            full = np.zeros(an.shape, dtype=an.dtype)
            np.add.at(full, key, g)
            _accum(an, full)
            return
        if an.grad is None:
            full = np.zeros(an.shape, dtype=g.dtype)
            full[key] = g
        else:  # a copy: the stored gradient may be shared (see `_accum`)
            full = an.grad.copy()
            full[key] += g
        an.grad = full

    return _node(out, (a,), bwd)


def embedding(table, ids):
    """Rows of `table` (V, D) for an integer id array: (*ids.shape, D). The
    backward sorts the ids once and sums the rows of each repeated id as
    one segment."""
    ids = np.asarray(ids)
    out, tn = np.take(table.data, ids, axis=0), table.node

    def bwd(g):
        gm = g.reshape((ids.size,) + g.shape[ids.ndim:])
        full = np.zeros(tn.shape, dtype=g.dtype)
        if ids.size:
            flat = ids.reshape(-1) % full.shape[0]  # negative ids wrap, as in `np.take`
            order = np.argsort(flat, kind="stable")
            flat = flat[order]
            starts = np.flatnonzero(np.concatenate(([True], flat[1:] != flat[:-1])))
            full[flat[starts]] = np.add.reduceat(gm[order], starts, axis=0)
        _accum(tn, full)

    return _node(out, (table,), bwd)


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

def sum_(a, axis=None):
    out, an = a.data.sum(axis=axis), a.node

    def bwd(g):
        gg = g if axis is None else np.expand_dims(g, axis)
        _accum(an, np.broadcast_to(gg, an.shape).copy())

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
    full, mask = _scatter_rows(rows, mask, 0.0, "masked_mean")
    cnt = mask.sum(axis=1, keepdims=True).astype(full.dtype)
    out, rn = full.sum(axis=1) / cnt, rows.node

    def bwd(g):
        _accum(rn, np.broadcast_to((g / cnt)[:, None], mask.shape + g.shape[1:])[mask])

    return _node(out, (rows,), bwd)


def masked_max(rows, mask):
    """Per-document elementwise max (B, D) of rows (R, D) laid out by a
    (B, n) mask."""
    full, mask = _scatter_rows(rows, mask, -np.inf, "masked_max")
    idx = np.argmax(full, axis=1)[:, None]
    out = np.take_along_axis(full, idx, axis=1)[:, 0]
    rn, shape, dtype = rows.node, full.shape, full.dtype

    def bwd(g):
        gfull = np.zeros(shape, dtype=dtype)
        np.put_along_axis(gfull, idx, g[:, None], axis=1)
        _accum(rn, gfull[mask])

    return _node(out, (rows,), bwd)


# ---------------------------------------------------------------------------
# NN primitives

def _masked_softmax_(s, invalid):
    """Softmax over the last axis of the finite scores `s`, in place. Entries
    where `invalid` (broadcast to s) is true get probability exactly 0, and a
    row with no valid entry is all zeros (no NaN); None masks nothing.
    Returns s."""
    # an additive -inf mask: a broadcast add is several times faster than
    # `np.copyto(..., where=)` with a broadcast mask, and looking the mask's
    # bytes up in a two-entry table several times faster than `np.where`
    if invalid is not None:
        s += np.array([0.0, -np.inf], dtype=s.dtype).take(invalid.view(np.uint8))
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


_GROUP_BYTES = 1 << 20  # probabilities per group of sequences: half the L2


def _groups(n, seq_bytes):
    """Slices of n sequences, each group as many whole sequences as fit
    `_GROUP_BYTES` at `seq_bytes` each (at least one)."""
    size = max(1, _GROUP_BYTES // max(seq_bytes, 1))
    return [slice(i, i + size) for i in range(0, n, size)]


def attention(q, k, v, key_mask, heads, probs=None):
    """Masked multi-head scaled dot-product attention as one tape node.

    q (B,Lq,D), k and v (B,Lk,D), key_mask (B,Lk) bool, the keys every query
    may read -> context (B,Lq,D), over `heads` heads of d = D/heads.
    softmax(q.k^T / sqrt(d)) follows `_masked_softmax_`'s contract: masked
    keys get probability exactly 0, and a row with no readable key gets
    zero probabilities and a zero context (no NaN). A key mask of another
    shape is a ShapeError. The closed-form backward reads only the
    (B,H,Lq,Lk) probabilities. They are kept when an input is tracked, and
    appended to `probs` when it is a list; otherwise they are never whole:
    each group's are computed into one buffer the size of a group, which
    the next group reuses, with the same products and bits.

    Both passes run over groups of whole sequences (`_groups`), so each
    group's scores stay in cache across the passes over them; every
    product is per sequence, so the grouping changes no bit. The mask is
    added only to the groups that have a masked key.
    """
    qh, kh, vh = (_split_heads(t.data, heads) for t in (q, k, v))
    (b, h, lq, d), lk = qh.shape, kh.shape[2]
    c = 1.0 / math.sqrt(d)
    key_mask = np.asarray(key_mask, dtype=bool)
    if key_mask.shape != (b, lk):
        raise ShapeError(f"attention: key mask {key_mask.shape} is not (B, Lk) = {(b, lk)} "
                         f"for keys {k.shape}")
    invalid = ~key_mask[:, None, None, :]
    dtype = np.result_type(qh, kh)
    groups = _groups(b, h * lq * lk * dtype.itemsize)
    qn, kn, vn = q.node, k.node, v.node
    # untracked and unrequested, the groups take turns in one group-sized buffer
    keep = probs is not None or qn is not None or kn is not None or vn is not None
    rows = b if keep or not groups else min(b, groups[0].stop)
    p = np.empty((rows, h, lq, lk), dtype=dtype)
    out = np.empty((b, lq, h, d), dtype=np.result_type(p, vh))
    for g in groups:
        qg = qh[g] * c
        pg = np.matmul(qg, np.swapaxes(kh[g], -1, -2), out=p[g] if keep else p[:len(qg)])
        _masked_softmax_(pg, invalid[g] if invalid[g].any() else None)
        out[g] = np.matmul(pg, vh[g]).transpose(0, 2, 1, 3)
    if probs is not None:
        probs.append(p)

    def bwd(grad):
        gq, gk, gv = (np.empty(t.shape[:1] + (t.shape[2], h, d), dtype=grad.dtype)
                      for t in (qh, kh, vh))
        for g in groups:
            gh = _split_heads(grad[g], heads)
            gv[g] = np.matmul(np.swapaxes(p[g], -1, -2), gh).transpose(0, 2, 1, 3)
            ds = _softmax_grad(p[g], np.matmul(gh, np.swapaxes(vh[g], -1, -2)))
            t = np.matmul(ds, kh[g])
            t *= c
            gq[g] = t.transpose(0, 2, 1, 3)
            t = np.matmul(np.swapaxes(ds, -1, -2), qh[g])
            t *= c
            gk[g] = t.transpose(0, 2, 1, 3)
        _accum(vn, gv.reshape(gv.shape[:2] + (-1,)))
        _accum(qn, gq.reshape(gq.shape[:2] + (-1,)))
        _accum(kn, gk.reshape(gk.shape[:2] + (-1,)))

    return _node(out.reshape(b, lq, h * d), (q, k, v), bwd)


def cls_attention(q, x, w_k, w_v, b_v, key_mask, heads, probs=None):
    """`attention` of a few query rows over keys x W_k + b_k and values
    x W_v + b_v, as one tape node that projects no key or value.

    q (B,S,D), x (B,L,D), w_k and w_v (D,D), b_v (D,), key_mask (B,S,L) bool,
    the keys each query row may read -> context (B,S,D), over `heads` heads
    of d = D/heads, under `attention`'s contract; a key mask of another
    shape is a ShapeError. Head h's projections are
    absorbed into its query: its scores are x . (W_k,h q_h) / sqrt(d), and
    its context is (sum_j p_j x_j) W_v,h + b_v,h sum_j p_j, so a row with no
    readable key gets a zero context. The key bias adds the same score to every key,
    which the softmax cancels, so it is not an input and its gradient is 0.
    The per-head products are GEMMs batched over heads; the per-sequence
    ones, over the batch. Kept for backward: the (B,H,S,L) probabilities
    (appended to `probs` when it is a list), the absorbed queries and the
    probability-weighted rows of x."""
    (b, s, dm), l = q.shape, x.shape[1]
    key_mask = np.asarray(key_mask, dtype=bool)
    if key_mask.shape != (b, s, l):  # a (B, L) mask would broadcast across the heads
        raise ShapeError(f"cls_attention: key mask {key_mask.shape} is not (B, S, L) = "
                         f"{(b, s, l)} for queries {q.shape} and keys {x.shape}")
    d = dm // heads
    c = 1.0 / math.sqrt(d)
    xd = x.data

    def to_heads(t):  # (B,S,H*n) -> (H,B*S,n), a view
        return t.reshape(b * s, heads, -1).transpose(1, 0, 2)

    def to_rows(t):  # (H,B*S,n) -> (B,H*S,n), a copy
        return t.reshape(heads, b, s, -1).transpose(1, 0, 2, 3).reshape(b, heads * s, -1)

    def from_rows(t):  # (B,H*S,n) -> (H,B*S,n), a copy
        return t.reshape(b, heads, s, -1).transpose(1, 0, 2, 3).reshape(heads, b * s, -1)

    wk = w_k.data.reshape(dm, heads, d).transpose(1, 2, 0)  # (H,d,D): W_k,h^T
    wv = w_v.data.reshape(dm, heads, d).transpose(1, 0, 2)  # (H,D,d): W_v,h
    qs = to_heads(q.data) * c
    u = to_rows(np.matmul(qs, wk))  # (B,H*S,D): each row's W_k,h q_h / sqrt(d)
    p = np.matmul(u, np.swapaxes(xd, -1, -2)).reshape(b, heads, s, l)
    _masked_softmax_(p, ~key_mask[:, None])
    if probs is not None:
        probs.append(p)
    pr = p.reshape(b, heads * s, l)
    mass = from_rows(np.matmul(pr, np.ones(l, dtype=p.dtype))[..., None])  # (H,B*S,1)
    z = from_rows(np.matmul(pr, xd))  # (H,B*S,D): sum_j p_j x_j
    ctx = np.matmul(z, wv)
    ctx += mass * b_v.data.reshape(heads, 1, d)
    out = ctx.transpose(1, 0, 2).reshape(b, s, dm)
    qn, xn, wkn, wvn, bvn = q.node, x.node, w_k.node, w_v.node, b_v.node

    def bwd(grad):
        gh = to_heads(grad)  # (H,B*S,d)
        _accum(wvn, np.matmul(np.swapaxes(z, -1, -2), gh).transpose(1, 0, 2).reshape(dm, dm))
        _accum(bvn, np.matmul(np.swapaxes(mass, -1, -2), gh).reshape(dm))
        # the bias term's score gradient is one constant per row, which the
        # softmax gradient cancels
        dz = to_rows(np.matmul(gh, np.swapaxes(wv, -1, -2)))  # (B,H*S,D)
        pr = p.reshape(b, heads * s, l)
        ds = _softmax_grad(pr, np.matmul(dz, np.swapaxes(xd, -1, -2)))
        gu = from_rows(np.matmul(ds, xd))  # (H,B*S,D)
        gq = np.matmul(gu, np.swapaxes(wk, -1, -2))
        gq *= c
        _accum(qn, gq.transpose(1, 0, 2).reshape(b, s, dm))
        _accum(wkn, np.matmul(np.swapaxes(qs, -1, -2), gu).transpose(2, 0, 1).reshape(dm, dm))
        gx = np.matmul(np.swapaxes(pr, -1, -2), dz)
        gx += np.matmul(np.swapaxes(ds, -1, -2), u)
        _accum(xn, gx)

    return _node(out, (q, x, w_k, w_v, b_v), bwd)


def sliding_attention(q, k, v, key_mask, heads, w, probs=None, seg_start=None):
    """Sliding-window attention with a global [CLS], as one tape node.

    q, k, v (B,L,D), key_mask (B,L) bool -> context (B,L,D), over `heads`
    heads. The sequence axis holds S >= 1 segments, runs of positions that
    never read each other's keys: `seg_start` (L,) gives each position the
    first position of its segment, and the default (None) makes each row
    one segment. A segment's first position, its [CLS], is its one global
    token. Row i reads the keys i-w..i+w of its own segment and its
    segment's [CLS] key; a [CLS] row reads every key of its segment. Both
    softmaxes follow `attention`'s contract. Only the probabilities are kept
    (and appended to `probs` when it is a list): a (B,H,L,2w+2) array whose
    slot j < 2w+1 is key i+j-w and whose last column is the segment's [CLS]
    key, 0 outside the segment, on a masked key, on the band slot of the
    [CLS] key and on the [CLS] rows; and the [CLS] rows' dense (B,H,S,L)
    array.

    Every row scores all S [CLS] keys in one matrix product and keeps its
    own segment's; that column goes back to (B,H,L,S) by segment for the
    products after the softmax. The [CLS] rows read their segment's keys
    laid out (S, W), for segments of at most W positions, so their dense
    products are batched over segments and no [CLS] row scores another
    segment's keys.
    """
    qh, kh, vh = (_split_heads(t.data, heads) for t in (q, k, v))
    l, d = qh.shape[-2:]
    span = 2 * w + 1
    c = 1.0 / math.sqrt(d)
    key_mask = np.asarray(key_mask, dtype=bool)
    pos = np.arange(l)
    start = np.zeros(l, dtype=np.intp) if seg_start is None else np.asarray(seg_start)
    is_first = start == pos
    first = np.flatnonzero(is_first)  # (S,) the [CLS] positions
    size = np.diff(np.append(first, l))
    real = np.arange(size.max()) < size[:, None]  # (S, W)
    seg = np.where(real, first[:, None] + np.arange(real.shape[1]), first[:, None])
    seg_of = np.cumsum(is_first) - 1  # (L,) each row's segment
    rows, col = pos[:, None], seg_of[:, None]
    kg, vg = kh[:, :, first], vh[:, :, first]

    def by_seg(x):  # (B,H,L,1) [CLS] column -> (B,H,L,S), zero off each row's segment
        out = np.zeros(x.shape[:-1] + (len(first),), dtype=x.dtype)
        out[..., rows, col] = x
        return out

    invalid = _band_invalid(key_mask, start, (first + size)[seg_of], w)
    invalid[:, :, first] = True  # the [CLS] rows attend densely, in `pg`
    qs = qh * c  # forward only: the backward scales gq and gk instead
    p = np.empty(qh.shape[:-1] + (span + 1,), dtype=qh.dtype)
    p[..., :span] = _band_dot(qs, kh, w)
    p[..., span:] = np.matmul(qs, np.swapaxes(kg, -1, -2))[..., rows, col]
    _masked_softmax_(p, invalid)
    p_glob = by_seg(p[..., span:])
    ks, vs = kh[:, :, seg], vh[:, :, seg]  # (B,H,S,W,d)
    pg = np.matmul(qs[:, :, first[:, None]], np.swapaxes(ks, -1, -2))  # (B,H,S,1,W)
    _masked_softmax_(pg, ~(key_mask[:, seg] & real)[:, None, :, None, :])
    if probs is not None:
        probs += [p, _dense_rows(pg[..., 0, :], seg, real, l)]
    out = _band_mix(p[..., :span], vh, w)
    out += np.matmul(p_glob, vg)
    out[:, :, first] = np.matmul(pg, vs)[..., 0, :]
    qn, kn, vn = q.node, k.node, v.node

    def bwd(grad):
        gr = _split_heads(grad, heads)
        gr_glob = gr[:, :, first[:, None]]  # (B,H,S,1,d)
        gv = _band_mix(_band_transpose(p[..., :span], w), gr, w)
        gv[:, :, first] += np.matmul(np.swapaxes(p_glob, -1, -2), gr)
        gv += (np.swapaxes(pg, -1, -2) * gr_glob)[:, :, real]  # rank 1: a broadcast product
        ds = np.empty_like(p)
        ds[..., :span] = _band_dot(gr, vh, w)
        ds[..., span:] = np.matmul(gr, np.swapaxes(vg, -1, -2))[..., rows, col]
        _softmax_grad(p, ds)
        ds_glob = by_seg(ds[..., span:])
        dsg = _softmax_grad(pg, np.matmul(gr_glob, np.swapaxes(vs, -1, -2)))
        gq = _band_mix(ds[..., :span], kh, w)
        gq += np.matmul(ds_glob, kg)
        gq[:, :, first] += np.matmul(dsg, ks)[..., 0, :]
        gq *= c
        gk = _band_mix(_band_transpose(ds[..., :span], w), qh, w)
        gk[:, :, first] += np.matmul(np.swapaxes(ds_glob, -1, -2), qh)
        gk += (np.swapaxes(dsg, -1, -2) * qh[:, :, first[:, None]])[:, :, real]
        gk *= c
        _accum(qn, _merge_heads(gq))
        _accum(kn, _merge_heads(gk))
        _accum(vn, _merge_heads(gv))

    return _node(_merge_heads(out), (q, k, v), bwd)


def _band_invalid(key_mask, start, end, w):
    """(B, 1, L, 2w+2) true where row i may not read: band slot j (key
    i+j-w) on a masked key or outside [start_i + 1, end_i), the row's
    segment without its [CLS]; and the last column, the [CLS] key start_i,
    when it is masked. key_mask is (B, L); start and end are (L,)."""
    b, l = key_mask.shape
    span = 2 * w + 1
    shift = (w - np.arange(l))[:, None]  # key s is slot s - i + w of row i
    slot = np.arange(span)
    outside = (slot <= start[:, None] + shift) | (slot >= end[:, None] + shift)  # (L, 2w+1)
    masked = np.ones((b, l + 2 * w), dtype=bool)  # the padding is outside every segment
    masked[:, w:w + l] = ~key_mask
    invalid = np.empty((b, 1, l, span + 1), dtype=bool)
    np.logical_or(sliding_window_view(masked, span, axis=1), outside, out=invalid[:, 0, :, :span])
    invalid[:, 0, :, span] = ~key_mask[:, start]
    return invalid


def _dense_rows(rows, seg, real, l):
    """Per-segment probabilities rows (B,H,S,W) over the positions seg (S,W),
    of which `real` are in the segment, as dense rows (B,H,S,L)."""
    dense = np.zeros(rows.shape[:-1] + (l,), dtype=rows.dtype)
    r, j = np.nonzero(real)
    dense[:, :, r, seg[r, j]] = rows[:, :, r, j]
    return dense


_LN_EPS = 1e-5


def layer_norm(a, gamma, beta):
    """Normalize the last axis, then apply learned scale/shift. The leading
    axes are flattened to rows (M, D) once; the gamma and beta gradients are
    one reduction each over the rows."""
    d = a.shape[-1]
    x = a.data.reshape(-1, d)
    avg = np.full(d, 1.0 / d, dtype=x.dtype)
    xhat = x - np.matmul(x, avg)[:, None]
    inv = (1.0 / np.sqrt(np.einsum("ij,ij->i", xhat, xhat) / d + _LN_EPS))[:, None]
    xhat *= inv
    out = xhat * gamma.data
    out += beta.data
    an, gn, bn, a_shape, gd = a.node, gamma.node, beta.node, a.shape, gamma.data

    def bwd(g):
        g = g.reshape(-1, d)
        _accum(gn, np.einsum("ij,ij->j", g, xhat))
        _accum(bn, np.matmul(np.ones(len(g), dtype=g.dtype), g))
        # inv * (dxhat - rowmean(dxhat) - xhat * rowmean(dxhat * xhat))
        dx = g * gd
        dot = np.einsum("ij,ij->i", dx, xhat) / d
        dx -= np.matmul(dx, avg)[:, None]
        dx -= xhat * dot[:, None]
        dx *= inv
        _accum(an, dx.reshape(a_shape))

    return _node(out.reshape(a.shape), (a, gamma, beta), bwd)


def dropout(a, rate, rng, train):
    """Inverted dropout: identity in eval mode."""
    if not train or rate <= 0.0:
        return a
    keep = (rng.random(a.shape) >= rate)
    factor = 1.0 / (1.0 - rate)
    k, an = keep.astype(a.data.dtype) * factor, a.node

    def bwd(g):
        _accum(an, g * k)

    return _node(a.data * k, (a,), bwd)


def _log_probs(z):
    """log softmax over the last axis of the array z."""
    z = z - z.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def _logistic(z):
    """1 / (1 + exp(-z)) elementwise, with no exp of a positive number."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def cosine_nce(a, c, tau):
    """In-batch InfoNCE over cosine similarities, as one tape node: a, c (N, D)
    -> (loss, sims) with the (N, N) array sims[i, j] = cos(a_i, c_j) and
    loss = -(1/N) sum_i log softmax_j(sims[i, j] / tau)[i]. A zero-norm row
    in either input is a ValueError."""
    na = np.sqrt((a.data * a.data).sum(axis=-1, keepdims=True))
    nc = np.sqrt((c.data * c.data).sum(axis=-1, keepdims=True))
    if np.any(na <= 0) or np.any(nc <= 0):
        raise ValueError("cosine_nce: zero-norm row")
    an, cn = a.data / na, c.data / nc
    sims = np.matmul(an, cn.T)
    n, s = sims.shape[0], 1.0 / tau
    logp = _log_probs(sims * s)
    diag, a_node, c_node = np.arange(n), a.node, c.node

    def unit_grad(gu, u, norm):  # through u = x / |x|
        return (gu - u * (gu * u).sum(axis=-1, keepdims=True)) / norm

    def bwd(g):
        ds = np.exp(logp)
        ds[diag, diag] -= 1.0
        ds *= g * (s / n)
        _accum(a_node, unit_grad(np.matmul(ds, cn), an, na))
        _accum(c_node, unit_grad(np.matmul(ds.T, an), cn, nc))

    loss = _node(logp[diag, diag].sum() * (-1.0 / n), (a, c), bwd)
    return loss, sims


def softmax_cross_entropy(z, targets):
    """Mean categorical cross-entropy of the logits z (N, C) against one-hot
    targets y (N, C), as one tape node: -(1/N) sum_i y_i . log softmax(z_i).
    The backward is (softmax(z) - y) / N."""
    y = np.asarray(targets, dtype=z.data.dtype)
    n = z.shape[0]
    logp, zn = _log_probs(z.data), z.node

    def bwd(g):
        # p*s - y*s rounds as the composed log-softmax chain did; (p - y)*s does not
        s = g * (1.0 / n)
        dz = np.exp(logp) * s
        dz -= y * s
        _accum(zn, dz)

    return _node((logp * y).sum() * (-1.0 / n), (z,), bwd)


def bce_with_logits(z, targets):
    """Mean binary cross-entropy of the logits z (N, L) against 0/1 targets y
    (N, L), as one tape node: the mean over the N*L entries of
    max(z, 0) - y z + log1p(exp(-|z|)), which is -log p for the target's
    side of p = 1 / (1 + exp(-z)). The backward is (p - y) / (N L), which
    stays exact where p rounds to 0 or 1."""
    x = z.data
    y = np.asarray(targets, dtype=x.dtype)
    s, zn = 1.0 / x.size, z.node

    def bwd(g):
        dz = _logistic(x) - y
        dz *= g * s
        _accum(zn, dz)

    loss = (np.maximum(x, 0) - y * x + np.log1p(np.exp(-np.abs(x)))).sum() * s
    return _node(loss, (z,), bwd)


# ---------------------------------------------------------------------------
# backward pass

def _consumed(grad):
    raise RuntimeError("backward: this graph was consumed by an earlier backward; build it again")


def backward(loss):
    """Reverse-mode accumulation from a scalar loss to all tracked leaves.

    The sweep walks nodes, not tensors, and consumes the tape: once a
    node's closure has run, the node drops its gradient, its closure and its
    parents' nodes, so the arrays that closure kept and the interior
    gradients are freed as soon as nothing upstream needs them. A value no
    closure kept died during the forward. Only leaves (nodes with no
    closure, such as every `parameter`'s) keep `.grad`. A second backward
    through the same graph raises RuntimeError.
    """
    if loss.data.ndim != 0 and loss.data.size != 1:
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.shape}")
    if loss.node is None:
        return  # nothing tracked
    topo, seen = [], set()
    stack = [(loss.node, False)]
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
            if id(p) not in seen:
                stack.append((p, False))
    loss.node.grad = np.ones_like(loss.data)
    while topo:
        node = topo.pop()
        if node._backward is not None:
            node._backward(node.grad)
            node.grad, node._backward, node._parents = None, _consumed, ()

