"""AdamW with decoupled weight decay, over name->Tensor parameter maps."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class AdamWConfig:
    lr: float = 2e-5
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.001


@dataclass
class AdamWState:
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    scratch: dict = field(default_factory=dict)  # name -> two buffers shaped like m


def adamw_step(params, grads, state, hyper=None):
    """One AdamW update in place.

    Weight decay is decoupled: the decay term never enters the moment
    estimates. Raises on NaN gradients so divergence surfaces instead of
    propagating silently. Every intermediate goes to one of two scratch
    buffers per parameter, and `p.data` is updated in place, so a step
    allocates nothing after the first.
    """
    if hyper is None:
        hyper = AdamWConfig()
    state.step += 1
    t = state.step
    bc1 = 1.0 - hyper.beta1 ** t
    bc2 = 1.0 - hyper.beta2 ** t
    for name, p in params.items():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"adamw_step: non-finite gradient for '{name}'")
        if g.shape != p.data.shape:
            raise ValueError(
                f"adamw_step: gradient shape {g.shape} != param shape {p.data.shape} for '{name}'")
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
            state.scratch[name] = (np.empty_like(p.data), np.empty_like(p.data))
        m, v = state.m[name], state.v[name]
        a, b = state.scratch[name]
        m *= hyper.beta1
        m += np.multiply(1.0 - hyper.beta1, g, out=a)
        v *= hyper.beta2
        np.multiply(1.0 - hyper.beta2, g, out=a)
        v += np.multiply(a, g, out=a)
        # p * (1 - lr*wd) - lr * (m/bc1) / (sqrt(v/bc2) + eps)
        np.multiply(hyper.lr, np.divide(m, bc1, out=a), out=a)
        np.add(np.sqrt(np.divide(v, bc2, out=b), out=b), hyper.eps, out=b)
        p.data *= 1.0 - hyper.lr * hyper.weight_decay
        p.data -= np.divide(a, b, out=a)
    return params, state
