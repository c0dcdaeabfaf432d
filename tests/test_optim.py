import numpy as np
import pytest

from cpe import tensor as T
from cpe.optim import AdamWConfig, AdamWState, adamw_step


def _param(value):
    return {"w": T.parameter(np.array(value, dtype=np.float64))}


def test_zero_grad_zero_decay_is_fixed_point():
    params = _param([1.5, -2.0])
    hyper = AdamWConfig(weight_decay=0.0)
    adamw_step(params, {"w": np.zeros(2)}, AdamWState(), hyper)
    np.testing.assert_allclose(params["w"].data, [1.5, -2.0])


def test_zero_grad_pure_decay_scales_params():
    params = _param([1.0, 4.0])
    hyper = AdamWConfig(lr=1.0, weight_decay=0.1)
    adamw_step(params, {"w": np.zeros(2)}, AdamWState(), hyper)
    np.testing.assert_allclose(params["w"].data, [0.9, 3.6])


def test_single_step_matches_hand_computed_update():
    # one step with g=1 on a scalar: m=(1-b1), v=(1-b2); after bias
    # correction mhat=1, vhat=1, so the update is w*(1-lr*wd) - lr/(1+eps)
    lr, wd, eps = 2e-5, 0.001, 1e-8
    params = _param(0.5)
    hyper = AdamWConfig(lr=lr, weight_decay=wd, eps=eps)
    adamw_step(params, {"w": np.array(1.0)}, AdamWState(), hyper)
    expected = 0.5 * (1 - lr * wd) - lr * 1.0 / (np.sqrt(1.0) + eps)
    np.testing.assert_allclose(params["w"].data, expected, rtol=1e-12)


def test_decay_is_decoupled_from_moments():
    # two configs differing only in weight decay must produce identical
    # moment estimates after the step
    s1, s2 = AdamWState(), AdamWState()
    p1, p2 = _param(2.0), _param(2.0)
    g = {"w": np.array(0.3)}
    adamw_step(p1, g, s1, AdamWConfig(weight_decay=0.0))
    adamw_step(p2, g, s2, AdamWConfig(weight_decay=0.5))
    np.testing.assert_array_equal(s1.m["w"], s2.m["w"])
    np.testing.assert_array_equal(s1.v["w"], s2.v["w"])


def test_nan_gradient_raises():
    params = _param(1.0)
    with pytest.raises(FloatingPointError, match="w"):
        adamw_step(params, {"w": np.array(np.nan)}, AdamWState(), AdamWConfig())


def test_step_count_increments():
    params = _param(1.0)
    state = AdamWState()
    for i in range(3):
        adamw_step(params, {"w": np.array(0.1)}, state, AdamWConfig())
    assert state.step == 3


def test_in_place_update_matches_reference_formula_bit_for_bit():
    # the textbook expression, one full-size temporary per operation
    hyper = AdamWConfig(lr=1e-3, weight_decay=0.01)
    rng = np.random.default_rng(0)
    w = rng.standard_normal((5, 3)).astype(np.float32)
    params, state = {"w": T.parameter(w.copy())}, AdamWState()
    m, v = np.zeros_like(w), np.zeros_like(w)
    for t in range(1, 6):
        g = rng.standard_normal(w.shape).astype(np.float32)
        adamw_step(params, {"w": g}, state, hyper)
        m = m * hyper.beta1 + (1.0 - hyper.beta1) * g
        v = v * hyper.beta2 + (1.0 - hyper.beta2) * g * g
        mhat, vhat = m / (1.0 - hyper.beta1 ** t), v / (1.0 - hyper.beta2 ** t)
        w = w * (1.0 - hyper.lr * hyper.weight_decay) \
            - hyper.lr * mhat / (np.sqrt(vhat) + hyper.eps)
        assert params["w"].data.dtype == np.float32
        np.testing.assert_array_equal(params["w"].data, w)
        np.testing.assert_array_equal(state.m["w"], m)
        np.testing.assert_array_equal(state.v["w"], v)
