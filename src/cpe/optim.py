"""AdamW with decoupled weight decay, over a flat parameter store
(`tensor.Parameters`)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # the moment decays and the denominator's floor


@dataclass
class AdamWConfig:
    lr: float = 2e-5
    weight_decay: float = 0.001


@dataclass
class AdamWState:
    """The step count and one (4, n) buffer in the store's layout, made on
    the first step: the gathered gradient, the moments `m` and `v`, and a
    scratch row."""
    step: int = 0
    buffer: np.ndarray = None

    m = property(lambda self: self.buffer[1])
    v = property(lambda self: self.buffer[2])


def adamw_step(params, state, hyper):
    """One AdamW update of a `tensor.Parameters` store in place, at the
    learning rate and weight decay of `hyper` (an `AdamWConfig`), from the
    gradients backward left on its parameters; returns the gradient's L2
    norm, taken before the update.

    The gradients are gathered into the flat gradient row and cleared from
    the parameters, so the next backward starts from none. Weight decay is
    decoupled: the decay term never enters the moment estimates. A
    non-finite gradient raises FloatingPointError, naming its parameter,
    before anything is updated, so divergence surfaces instead of
    propagating silently. The update runs on whole flat arrays, the same
    operations in the same order for every element; every intermediate goes
    to the scratch row or, once the moments have read it, the gradient row,
    and `params.flat` is updated in place, so a step allocates nothing after
    the first and makes the same numpy calls, about fifteen, whatever the
    number of parameters.
    """
    p = params.flat
    if state.buffer is None:
        state.buffer = np.zeros((4, p.size), dtype=p.dtype)
    g, m, v, a = state.buffer
    params.gather_gradients(out=g)
    sq = float(np.vdot(g, g))  # unlike np.dot, no warning when the sum overflows to inf
    # sq is non-finite when any element is; only then is the search needed
    if not math.isfinite(sq) and not np.isfinite(g).all():
        name = next(n for n, x in params.split(g).items() if not np.isfinite(x).all())
        raise FloatingPointError(f"adamw_step: non-finite gradient for '{name}'")
    state.step += 1
    t = state.step
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    m *= BETA1
    m += np.multiply(1.0 - BETA1, g, out=a)
    v *= BETA2
    np.multiply(1.0 - BETA2, g, out=a)
    v += np.multiply(a, g, out=a)
    b = g  # read for the last time above: the second scratch row, one array fewer in cache
    # p * (1 - lr*wd) - lr * (m/bc1) / (sqrt(v/bc2) + eps)
    np.multiply(hyper.lr, np.divide(m, bc1, out=a), out=a)
    np.add(np.sqrt(np.divide(v, bc2, out=b), out=b), EPS, out=b)
    p *= 1.0 - hyper.lr * hyper.weight_decay
    p -= np.divide(a, b, out=a)
    return math.sqrt(sq)
