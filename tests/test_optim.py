import numpy as np
import pytest

from cpe import tensor as T
from cpe.optim import AdamWConfig, AdamWState, adamw_step


def _param(value):
    return T.Parameters({"w": np.array(value, dtype=np.float64)})


def _step(params, grads, state, hyper):
    """Leave `grads` on the parameters, as backward would, and step."""
    for name, g in grads.items():
        params[name].grad = g
    return adamw_step(params, state, hyper)


def test_zero_grad_zero_decay_is_fixed_point():
    params = _param([1.5, -2.0])
    hyper = AdamWConfig(weight_decay=0.0)
    _step(params, {"w": np.zeros(2)}, AdamWState(), hyper)
    np.testing.assert_allclose(params["w"].data, [1.5, -2.0])


def test_zero_grad_pure_decay_scales_params():
    params = _param([1.0, 4.0])
    hyper = AdamWConfig(lr=1.0, weight_decay=0.1)
    _step(params, {"w": np.zeros(2)}, AdamWState(), hyper)
    np.testing.assert_allclose(params["w"].data, [0.9, 3.6])


def test_single_step_matches_hand_computed_update():
    # one step with g=1 on a scalar: m=(1-b1), v=(1-b2); after bias
    # correction mhat=1, vhat=1, so the update is w*(1-lr*wd) - lr/(1+eps)
    lr, wd, eps = 2e-5, 0.001, 1e-8
    params = _param(0.5)
    hyper = AdamWConfig(lr=lr, weight_decay=wd, eps=eps)
    _step(params, {"w": np.array(1.0)}, AdamWState(), hyper)
    expected = 0.5 * (1 - lr * wd) - lr * 1.0 / (np.sqrt(1.0) + eps)
    np.testing.assert_allclose(params["w"].data, expected, rtol=1e-12)


def test_decay_is_decoupled_from_moments():
    # two configs differing only in weight decay must produce identical
    # moment estimates after the step
    s1, s2 = AdamWState(), AdamWState()
    p1, p2 = _param(2.0), _param(2.0)
    _step(p1, {"w": np.array(0.3)}, s1, AdamWConfig(weight_decay=0.0))
    _step(p2, {"w": np.array(0.3)}, s2, AdamWConfig(weight_decay=0.5))
    np.testing.assert_array_equal(s1.m, s2.m)
    np.testing.assert_array_equal(s1.v, s2.v)


def test_nan_gradient_raises():
    params = _param(1.0)
    with pytest.raises(FloatingPointError, match="w"):
        _step(params, {"w": np.array(np.nan)}, AdamWState(), AdamWConfig())


def test_step_count_increments():
    params = _param(1.0)
    state = AdamWState()
    for i in range(3):
        _step(params, {"w": np.array(0.1)}, state, AdamWConfig())
    assert state.step == 3


def test_in_place_update_matches_reference_formula_bit_for_bit():
    # the textbook expression, one full-size temporary per operation
    hyper = AdamWConfig(lr=1e-3, weight_decay=0.01)
    rng = np.random.default_rng(0)
    w = rng.standard_normal((5, 3)).astype(np.float32)
    params, state = T.Parameters({"w": w.copy()}), AdamWState()
    m, v = np.zeros_like(w), np.zeros_like(w)
    for t in range(1, 6):
        g = rng.standard_normal(w.shape).astype(np.float32)
        _step(params, {"w": g}, state, hyper)
        m = m * hyper.beta1 + (1.0 - hyper.beta1) * g
        v = v * hyper.beta2 + (1.0 - hyper.beta2) * g * g
        mhat, vhat = m / (1.0 - hyper.beta1 ** t), v / (1.0 - hyper.beta2 ** t)
        w = w * (1.0 - hyper.lr * hyper.weight_decay) \
            - hyper.lr * mhat / (np.sqrt(vhat) + hyper.eps)
        assert params["w"].data.dtype == np.float32
        np.testing.assert_array_equal(params["w"].data, w)
        np.testing.assert_array_equal(params.split(state.m)["w"], m)
        np.testing.assert_array_equal(params.split(state.v)["w"], v)


def _store(rng):
    shapes = {"emb": (6, 4), "w": (4, 3), "b": (3,), "unused": (2, 2)}
    return T.Parameters({n: rng.standard_normal(s).astype(np.float32)
                         for n, s in shapes.items()})


def test_store_steps_match_the_per_tensor_formula_bit_for_bit():
    # several float32 steps over four views of one buffer, one of which no
    # backward reaches, against each tensor's own textbook update
    hyper = AdamWConfig(lr=1e-3, weight_decay=0.01)
    rng = np.random.default_rng(1)
    params, state = _store(rng), AdamWState()
    ref = {n: {"w": p.data.copy(), "m": np.zeros_like(p.data), "v": np.zeros_like(p.data)}
           for n, p in params.items()}
    for t in range(1, 6):
        x = T.constant(rng.standard_normal((5, 6)).astype(np.float32))
        h = T.linear(T.matmul(x, params["emb"]), params["w"], params["b"])
        T.backward(T.sum_(T.tanh(h)))
        grads = {n: (p.grad if p.grad is not None else np.zeros_like(p.data))
                 for n, p in params.items()}
        norm = adamw_step(params, state, hyper)
        assert params["unused"].grad is None and params["w"].grad is None
        assert norm == pytest.approx(np.sqrt(sum((g.astype(np.float64) ** 2).sum()
                                                 for g in grads.values())), rel=1e-5)
        for n, r in ref.items():
            g = grads[n]
            r["m"] = r["m"] * hyper.beta1 + (1.0 - hyper.beta1) * g
            r["v"] = r["v"] * hyper.beta2 + (1.0 - hyper.beta2) * g * g
            mhat = r["m"] / (1.0 - hyper.beta1 ** t)
            vhat = r["v"] / (1.0 - hyper.beta2 ** t)
            r["w"] = r["w"] * (1.0 - hyper.lr * hyper.weight_decay) \
                - hyper.lr * mhat / (np.sqrt(vhat) + hyper.eps)
            np.testing.assert_array_equal(params[n].data, r["w"], err_msg=n)
            np.testing.assert_array_equal(params.split(state.m)[n], r["m"], err_msg=n)
            np.testing.assert_array_equal(params.split(state.v)[n], r["v"], err_msg=n)
    assert all(p.data.base is params.flat for p in params.values())


def test_non_finite_gradient_in_one_view_names_it_and_updates_nothing():
    params = _store(np.random.default_rng(2))
    before = params.flat.copy()
    grads = {n: np.ones_like(p.data) for n, p in params.items()}
    grads["b"][1] = np.inf
    state = AdamWState()
    with pytest.raises(FloatingPointError, match="'b'"):
        _step(params, grads, state, AdamWConfig())
    np.testing.assert_array_equal(params.flat, before)
    assert state.step == 0 and not state.m.any()


def test_finite_gradient_whose_square_overflows_still_steps():
    params = _param([1.0, 2.0])
    state = AdamWState()
    norm = _step(params, {"w": np.array([1e154, 1e154])}, state, AdamWConfig())
    assert norm == np.inf and state.step == 1


@pytest.mark.parametrize("rebind", ["data", "entry"])
def test_parameter_rebound_away_from_the_store_is_an_error(rebind):
    # a copy outside the buffer would never see an update; it must not train silently
    params = _store(np.random.default_rng(3))
    if rebind == "data":
        params["w"].data = params["w"].data + 1.0
    else:
        params["w"] = T.parameter(params["w"].data.copy())
    for p in params.values():
        p.grad = np.ones_like(p.data)
    with pytest.raises(ValueError, match="'w' no longer views"):
        adamw_step(params, AdamWState(), AdamWConfig())


def test_in_place_write_keeps_the_parameter_in_the_store():
    params = _store(np.random.default_rng(4))
    params["w"].data[...] = 0.0
    assert not params.split(params.flat)["w"].any()
    for p in params.values():
        p.grad = np.ones_like(p.data)
    adamw_step(params, AdamWState(), AdamWConfig(weight_decay=0.0))
    assert (params["w"].data < 0).all()  # a step against a positive gradient reached it
