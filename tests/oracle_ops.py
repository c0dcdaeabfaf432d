"""Elementwise tape ops and the gradient checker, for the tests only.

`cpe.tensor` records only the ops the model runs. The tests still compose
references for its fused ops from small steps (broadcast products, sums,
reshapes, a log-softmax) and reduce outputs to a scalar loss, so those
steps live here, on the same private tape machinery (`_node`, `_accum`,
`_unbroadcast`): each closure captures its parents' nodes and the arrays
it reads, never a `Tensor`. `test_tensor.py` grad-checks each of them.
Unlike the `cpe.tensor` ops, these also take raw arrays (`_tensor`), and
`index_select` gathers along any axis, as the band and dense oracles need.
"""

import numpy as np

from cpe import tensor as T


def _tensor(x, like=None):
    """x itself if a Tensor, else a constant of x, of `like`'s dtype if given."""
    if isinstance(x, T.Tensor):
        return x
    return T.constant(x, dtype=np.float32 if like is None else like.data.dtype)


def mul(a, b):
    a = _tensor(a)
    b = _tensor(b, like=a)
    ad, bd, an, bn = a.data, b.data, a.node, b.node

    def bwd(g):
        T._accum(an, T._unbroadcast(g * bd, ad.shape))
        T._accum(bn, T._unbroadcast(g * ad, bd.shape))

    return T._node(ad * bd, (a, b), bwd)


def scale(a, c):
    a, c = _tensor(a), float(c)
    n = a.node
    return T._node(a.data * c, (a,), lambda g: T._accum(n, g * c))


def exp(a):
    a = _tensor(a)
    out, n = np.exp(a.data), a.node
    return T._node(out, (a,), lambda g: T._accum(n, g * out))


def log(a):
    a = _tensor(a)
    x, n = a.data, a.node
    return T._node(np.log(x), (a,), lambda g: T._accum(n, g / x))


def sigmoid(a):
    a = _tensor(a)
    out, n = T._logistic(a.data), a.node
    return T._node(out, (a,), lambda g: T._accum(n, g * out * (1.0 - out)))


def log_softmax(a, axis=-1):
    a = _tensor(a)
    z = a.data - np.max(a.data, axis=axis, keepdims=True)
    out = z - np.log(np.exp(z).sum(axis=axis, keepdims=True))
    p, n = np.exp(out), a.node
    return T._node(out, (a,), lambda g: T._accum(n, g - p * g.sum(axis=axis, keepdims=True)))


def reshape(a, shape):
    a = _tensor(a)
    n = a.node
    return T._node(a.data.reshape(shape), (a,), lambda g: T._accum(n, g.reshape(n.shape)))


def index_select(a, axis, indices):
    """np.take of `a` along `axis` with an integer index array; repeated
    indices sum their gradients."""
    a, indices = _tensor(a), np.asarray(indices)
    n = a.node

    def bwd(g):
        full = np.zeros(n.shape, dtype=g.dtype)
        np.add.at(np.moveaxis(full, axis, 0), indices, np.moveaxis(
            g, tuple(range(axis, axis + indices.ndim)), tuple(range(indices.ndim))))
        T._accum(n, full)

    return T._node(np.take(a.data, indices, axis=axis), (a,), bwd)


def grad_check(fn, params, eps=1e-5, num_samples=8, rng=None):
    """Max relative error between analytic and central-difference gradients.

    `fn` maps a name->Tensor dict to a scalar Tensor. The check runs in
    float64 regardless of the incoming dtype.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    p64 = T.Parameters({k: v.data.astype(np.float64) for k, v in params.items()})
    T.backward(fn(p64))
    grads = np.empty_like(p64.flat)
    p64.gather_gradients(out=grads)
    analytic = p64.split(grads)

    worst = 0.0
    for name, t in p64.items():
        flat = t.data.reshape(-1)
        coords = rng.choice(flat.size, size=min(num_samples, flat.size), replace=False)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + eps
            lp = fn(p64).item()
            flat[c] = orig - eps
            lm = fn(p64).item()
            flat[c] = orig
            numeric = (lp - lm) / (2 * eps)
            err = abs(analytic[name].reshape(-1)[c] - numeric) / max(1.0, abs(numeric))
            worst = max(worst, err)
    return worst
