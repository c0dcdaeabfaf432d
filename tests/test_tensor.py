import ctypes
import os
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from cpe import tensor as T
import oracle_ops as O


class TestPrimitives:
    def test_cosine_orthogonal(self):
        _, sims = T.cosine_nce(T.constant([[1.0, 0.0], [0.0, 2.0]]),
                               T.constant([[0.0, 3.0], [1.0, 0.0]]), tau=0.05)
        np.testing.assert_allclose(sims, [[0.0, 1.0], [1.0, 0.0]], atol=1e-7)

    def test_softmax_uniform(self):
        # equal scores: every readable key gets the same probability
        probs = []
        k = T.constant(np.random.default_rng(0).standard_normal((1, 3, 2)))
        T.attention(T.constant(np.zeros((1, 1, 2))), k, k, np.ones((1, 3), bool), 1, probs=probs)
        np.testing.assert_allclose(probs[0], np.full((1, 1, 1, 3), 1 / 3), atol=1e-7)

    def test_masked_max_reduce(self):
        x = T.constant([[1.0, 3.0], [3.0, 1.0]])
        out = T.masked_max(x, np.array([[True, True]])).data
        np.testing.assert_allclose(out, [[3.0, 3.0]])

    def test_masked_softmax_zero_prob_and_row_sum(self):
        # the contract on `sliding_attention`'s probabilities: masked keys,
        # band slots past either end or on the [CLS] key, and the [CLS]
        # row's band entries are exactly 0; every row sums to 1
        rng = np.random.default_rng(0)
        b, l, w = 5, 9, 2
        q, k, v = (T.constant(rng.standard_normal((b, l, 2 * 3))) for _ in range(3))
        mask = rng.random((b, l)) > 0.4
        mask[:, 0] = True
        probs = []
        T.sliding_attention(q, k, v, mask, 2, w, probs=probs)
        p, pg = probs
        raw = np.arange(l)[:, None] + np.arange(-w, w + 1)
        slot_ok = ((raw > 0) & (raw < l))[None] & mask[:, np.clip(raw, 0, l - 1)]
        ok = np.concatenate([slot_ok, np.broadcast_to(mask[:, None, :1], (b, l, 1))], axis=-1)
        ok[:, 0] = False
        assert np.all(p[~np.broadcast_to(ok[:, None], p.shape)] == 0.0)
        assert np.all(pg[~np.broadcast_to(mask[:, None, None, :], pg.shape)] == 0.0)
        np.testing.assert_allclose(p[:, :, 1:].sum(axis=-1), 1.0, atol=1e-6)
        np.testing.assert_allclose(pg.sum(axis=-1), 1.0, atol=1e-6)

    def test_softmax_fully_masked_row_no_nan(self):
        # a batch row with no readable key: zero probabilities, zero context
        rng = np.random.default_rng(1)
        q, k, v = (T.constant(rng.standard_normal((2, 6, 2 * 3))) for _ in range(3))
        mask = np.ones((2, 6), dtype=bool)
        mask[1] = False
        probs = []
        ctx = T.sliding_attention(q, k, v, mask, 2, 1, probs=probs).data
        assert np.all(np.isfinite(ctx)) and np.all(ctx[1] == 0.0)
        assert all(np.all(p[1] == 0.0) for p in probs)

    def test_shape_mismatch_names_shapes(self):
        with pytest.raises(T.ShapeError, match="matmul"):
            T.matmul(T.constant(np.ones((2, 3))), T.constant(np.ones((4, 5))))

    def test_dropout_train_fraction_and_rescale(self):
        rng = np.random.default_rng(3)
        x = T.constant(np.ones((200, 200)))
        out = T.dropout(x, 0.3, rng, train=True).data
        frac = (out == 0).mean()
        assert abs(frac - 0.3) < 0.02
        survivors = out[out != 0]
        np.testing.assert_allclose(survivors, 1.0 / 0.7, rtol=1e-6)

    def test_dropout_eval_is_identity(self):
        x = T.constant(np.arange(6.0))
        out = T.dropout(x, 0.5, np.random.default_rng(0), train=False)
        assert out is x

    def test_forward_determinism(self):
        def run():
            rng = np.random.default_rng(11)
            x = T.constant(rng.standard_normal((4, 4)))
            return T.tanh(T.matmul(x, x)).data
        assert np.array_equal(run(), run())


def _owner(a):
    """The array that owns the memory of `a`, a view or not."""
    while a.base is not None:
        a = a.base
    return a


class TestBackward:
    def test_linear_map_gradient(self):
        x = np.array([1.0, 2.0, -1.0])
        w = T.parameter(np.zeros((3, 2)))
        loss = T.sum_(T.matmul(T.constant(x), w))
        T.backward(loss)
        np.testing.assert_allclose(w.grad, np.stack([x, x], axis=1))

    def test_tanh_derivative_at_zero(self):
        x = T.parameter(np.array(0.0))
        loss = O.scale(T.tanh(x), 3.0)
        T.backward(loss)
        np.testing.assert_allclose(x.grad, 3.0)  # tanh'(0) = 1

    def test_nonscalar_loss_rejected(self):
        with pytest.raises(T.ShapeError, match="scalar"):
            T.backward(T.parameter(np.ones(3)))

    def test_untouched_params_get_zero_gradients(self):
        params = T.Parameters({"used": np.ones(2), "unused": np.ones(2)})
        used = params["used"]
        T.backward(T.sum_(O.mul(used, used)))
        grads = np.full(4, np.nan)
        params.gather_gradients(out=grads)
        np.testing.assert_allclose(params.split(grads)["unused"], 0.0)
        np.testing.assert_allclose(params.split(grads)["used"], 2.0)
        assert used.grad is None  # the gather takes the gradients off the leaves

    def test_second_backward_through_a_spent_graph_raises(self):
        w = T.parameter(np.ones(3))
        loss = T.sum_(T.tanh(w))
        T.backward(loss)
        with pytest.raises(RuntimeError, match="consumed by an earlier backward"):
            T.backward(loss)

    def test_backward_frees_interior_arrays_and_keeps_leaf_gradients(self):
        rng = np.random.default_rng(0)
        x = T.constant(rng.standard_normal((4, 3)))
        w, b = T.parameter(rng.standard_normal((3, 5))), T.parameter(np.zeros(5))
        h = T.linear(x, w, b)
        y = T.layer_norm(h, T.parameter(np.ones(5)), T.parameter(np.zeros(5)))
        v, c = T.parameter(rng.standard_normal((5, 2))), T.parameter(np.zeros(2))
        loss = T.sum_(T.linear(y, v, c))
        h_ref, y_ref = weakref.ref(_owner(h.data)), weakref.ref(_owner(y.data))
        del h, y
        assert h_ref() is None  # only layer_norm's forward read it
        assert y_ref() is not None  # the linear's closure holds it until backward has passed
        T.backward(loss)
        assert y_ref() is None
        assert w.grad is not None and w.grad.shape == (3, 5)

    def test_three_layer_network_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        params = {f"w{i}": T.parameter(rng.standard_normal((5, 5)) * 0.3) for i in range(3)}
        x = T.constant(rng.standard_normal((2, 5)))

        def fn(p):
            h = x
            for i in range(3):
                h = T.tanh(T.matmul(h, p[f"w{i}"]))
            return T.sum_(O.mul(h, h))

        assert O.grad_check(fn, params, rng=np.random.default_rng(1)) < 1e-4


ROWS_MASK = np.array([[True, False, True], [True, True, False]])  # 4 true slots for 4 rows

PRIMITIVE_FNS = {
    "matmul": lambda p: T.sum_(T.matmul(p["a"], p["b"])),
    "add": lambda p: T.sum_(O.mul(T.add(p["a"], p["b"]), p["a"])),
    "mul": lambda p: T.sum_(O.mul(p["a"], p["b"])),
    "tanh": lambda p: T.sum_(T.tanh(p["a"])),
    "sigmoid": lambda p: T.sum_(O.sigmoid(p["a"])),
    "relu": lambda p: T.sum_(O.mul(T.relu(p["a"]), p["a"])),
    "exp": lambda p: T.sum_(O.exp(O.scale(p["a"], 0.3))),
    "log": lambda p: T.sum_(O.log(T.add(O.mul(p["a"], p["a"]), T.constant(1.0, np.float64)))),
    "softmax": lambda p: T.sum_(O.mul(O.exp(O.log_softmax(p["a"])), p["b"])),
    "log_softmax": lambda p: T.sum_(O.mul(O.log_softmax(p["a"]), p["b"])),
    "layer_norm": lambda p: T.sum_(O.mul(
        T.layer_norm(p["a"], p["ln_g"], p["ln_b"]), p["b"])),
    "masked_mean": lambda p: T.sum_(O.mul(T.masked_mean(p["a"], ROWS_MASK), p["b"][:2])),
    "masked_max": lambda p: T.sum_(O.mul(T.masked_max(p["a"], ROWS_MASK), p["b"][:2])),
    "concat_slice": lambda p: T.sum_(p["a"][1:3, 2:5]),
    "embedding": lambda p: T.sum_(O.mul(T.embedding(p["a"], np.array([0, 2, 2, 1])), p["b"])),
    "index_select": lambda p: T.sum_(O.mul(O.index_select(p["a"], 1, np.array([5, -1, 0])),
                                           p["b"][:, :3])),
    "cosine": lambda p: T.cosine_nce(p["a"], p["b"], tau=0.5)[0],
    "reshape_transpose": lambda p: T.sum_(O.mul(
        O.reshape(p["a"], (2, 2, 6)), O.reshape(p["b"], (2, 2, 6)))),
}


@pytest.mark.parametrize("name", sorted(PRIMITIVE_FNS))
@pytest.mark.parametrize("seed", range(5))
def test_primitive_grad_check(name, seed):
    rng = np.random.default_rng(seed)
    params = {
        "a": T.parameter(rng.standard_normal((4, 6))),
        "b": T.parameter(rng.standard_normal((4, 6)) if name != "matmul"
                         else rng.standard_normal((6, 4))),
        "ln_g": T.parameter(rng.standard_normal(6)),
        "ln_b": T.parameter(rng.standard_normal(6)),
    }
    err = O.grad_check(PRIMITIVE_FNS[name], params, rng=np.random.default_rng(seed + 100))
    assert err < 1e-4, f"{name}: grad error {err}"


class TestGradCheckHarness:
    def test_linear_function_near_exact(self):
        w = {"w": T.parameter(np.arange(6.0).reshape(2, 3))}
        fn = lambda p: T.sum_(O.scale(p["w"], 2.5))
        assert O.grad_check(fn, w) < 1e-9

    def test_detects_corrupted_gradient(self):
        # a doubled gradient on one weight must blow past the tolerance
        w = {"w": T.parameter(np.ones(4))}

        def fn(p):
            doubled = T.add(p["w"], T.Tensor(p["w"].data))  # analytic grad 1, true slope 2
            return T.sum_(O.mul(doubled, doubled))

        err = O.grad_check(fn, w, rng=np.random.default_rng(0))
        assert err > 0.4


class TestSliceBackward:
    def test_basic_key_gradient_lands_in_place(self):
        a = T.parameter(np.arange(24.0).reshape(2, 3, 4))
        T.backward(T.sum_(a[1, None, ..., 1:3]))
        want = np.zeros((2, 3, 4))
        want[1, :, 1:3] = 1.0
        np.testing.assert_array_equal(a.grad, want)

    def test_repeated_advanced_index_accumulates(self):
        a = T.parameter(np.arange(6.0).reshape(3, 2))
        T.backward(T.sum_(a[[0, 0, 1]]))
        np.testing.assert_array_equal(a.grad, [[2.0, 2.0], [1.0, 1.0], [0.0, 0.0]])

    def test_repeated_index_pairs_accumulate(self):
        a = T.parameter(np.ones((2, 2)))
        T.backward(T.sum_(a[np.array([0, 0, 1]), np.array([1, 1, 0])]))
        np.testing.assert_array_equal(a.grad, [[0.0, 2.0], [1.0, 0.0]])

    def test_basic_key_with_existing_gradient(self):
        # the second backward finds a stored gradient; the kept array must
        # not change, since a stored gradient may be shared (`_accum`)
        a = T.parameter(np.arange(12.0).reshape(3, 4))
        r = np.arange(3.0)
        T.backward(T.sum_(O.mul(a, a)))
        kept = a.grad
        before = kept.copy()
        T.backward(T.sum_(O.mul(a[:, 1], r)))
        np.testing.assert_array_equal(kept, before)
        want = before.copy()
        want[:, 1] += r
        np.testing.assert_array_equal(a.grad, want)

    @pytest.mark.parametrize("slice_first", [True, False])
    def test_slice_and_other_use_in_one_graph(self, slice_first):
        a = T.parameter(np.arange(12.0).reshape(3, 4))
        r = np.arange(3.0)
        parts = [T.sum_(O.mul(a[:, 1], r)), T.sum_(O.mul(a, a))]
        if not slice_first:
            parts.reverse()
        T.backward(T.add(*parts))
        want = 2 * a.data
        want[:, 1] += r
        np.testing.assert_array_equal(a.grad, want)


class TestAccumSharing:
    """`_accum` stores the first gradient it gets without a copy, so a stored
    gradient can be shared; later writes must not mutate it."""

    def test_tensor_consumed_twice(self):
        x0 = np.array([[1.0, -2.0, 3.0], [0.5, 4.0, -1.0]])
        cases = [
            (lambda x: T.sum_(T.add(x, x)), np.full_like(x0, 2.0)),
            (lambda x: T.sum_(O.mul(x, x)), 2 * x0),
        ]
        for fn, want in cases:
            x = T.parameter(x0.copy())
            T.backward(fn(x))
            np.testing.assert_array_equal(x.grad, want)

    def test_shared_gradient_survives_a_later_write(self):
        # add hands one array to both parents; x then gets a second term
        x = T.parameter(np.ones(3))
        y = T.parameter(np.ones(3))
        T.backward(T.sum_(T.add(T.add(x, y), O.scale(x, 3.0))))
        np.testing.assert_array_equal(x.grad, [4.0, 4.0, 4.0])
        np.testing.assert_array_equal(y.grad, [1.0, 1.0, 1.0])

    def test_kept_gradient_unchanged_by_second_accumulation(self):
        x = T.parameter(np.array([1.0, 2.0, 3.0]))
        T.backward(T.sum_(O.mul(x, x)))
        kept = x.grad
        before = kept.copy()
        T.backward(T.sum_(O.mul(x, x)))  # nothing takes the gradient in between: accumulates
        np.testing.assert_array_equal(kept, before)
        np.testing.assert_array_equal(x.grad, 2 * before)


def _linear_chain(x, w, b):
    return T.add(T.matmul(x, w), b)


class TestLinear:
    # x shapes: a single vector, a batch of rows, a batch of sequences
    SHAPES = [(5,), (4, 5), (2, 3, 5)]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_grad_check_every_coordinate(self, shape):
        rng = np.random.default_rng(len(shape))
        params = {"x": T.parameter(rng.standard_normal(shape)),
                  "w": T.parameter(rng.standard_normal((5, 3))),
                  "b": T.parameter(rng.standard_normal(3))}
        r = rng.standard_normal(shape[:-1] + (3,))

        def fn(p):
            return T.sum_(O.mul(T.linear(p["x"], p["w"], p["b"]), r))

        every = max(t.data.size for t in params.values())
        assert O.grad_check(fn, params, num_samples=every) < 1e-7

    @pytest.mark.parametrize("shape", SHAPES + [(8, 17, 64)])
    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    def test_matches_matmul_add_chain(self, shape, dtype, tol):
        rng = np.random.default_rng(7)
        d, f = shape[-1], 6
        data = {"x": rng.standard_normal(shape), "w": rng.standard_normal((d, f)),
                "b": rng.standard_normal(f)}
        r = rng.standard_normal(shape[:-1] + (f,)).astype(dtype)

        def run(op):
            t = {n: T.parameter(a.astype(dtype)) for n, a in data.items()}
            out = op(t["x"], t["w"], t["b"])
            T.backward(T.sum_(O.mul(out, r)))
            return out.data, {n: a.grad for n, a in t.items()}

        new_out, new_g = run(T.linear)
        old_out, old_g = run(_linear_chain)
        assert new_out.dtype == dtype and new_out.shape == old_out.shape
        np.testing.assert_allclose(new_out, old_out, rtol=tol, atol=tol)
        for name in ("x", "w", "b"):
            assert new_g[name].dtype == dtype and new_g[name].shape == data[name].shape
            np.testing.assert_allclose(new_g[name], old_g[name], rtol=tol, atol=tol)

    def test_shape_mismatch_names_shapes(self):
        with pytest.raises(T.ShapeError, match=r"\(4, 5\)"):
            T.linear(T.constant(np.ones((4, 5))), T.constant(np.ones((4, 3))),
                     T.constant(np.ones(3)))


def _old_band(q, k, v, p, w):
    """The gather formulation the band kernels replace: keys and values picked
    per row with `index_select` at clipped band positions, then `mul` + `sum_`."""
    b, h, l, d = q.shape
    idx = np.clip(np.arange(l)[:, None] + np.arange(-w, w + 1)[None, :], 0, l - 1).reshape(-1)
    k_band = O.reshape(O.index_select(k, 2, idx), (b, h, l, 2 * w + 1, d))
    v_band = O.reshape(O.index_select(v, 2, idx), (b, h, l, 2 * w + 1, d))
    scores = T.sum_(O.mul(O.reshape(q, (b, h, l, 1, d)), k_band), axis=-1)
    ctx = T.sum_(O.mul(O.reshape(p, (b, h, l, 2 * w + 1, 1)), v_band), axis=3)
    return scores, ctx


def _in_range(l, w):
    raw = np.arange(l)[:, None] + np.arange(-w, w + 1)[None, :]
    return (raw >= 0) & (raw < l)


def _dense_reference(q, k, v, allowed, heads):
    """Multi-head masked attention from unfused ops in a (B, Lq, Lk, H)
    layout: scores as broadcast `mul` + `sum_` of q and k, scaled, -1e30
    added where `allowed` (B, Lq, Lk) is false, exp(log_softmax(.)) over the
    keys, a factor that zeroes a row with no allowed key, and the context as
    broadcast `mul` + `sum_` of the probabilities and v. Returns (context
    (B, Lq, D), probabilities (B, H, Lq, Lk) as numpy)."""
    b, lq, d = q.shape
    lk, dh = k.shape[1], d // heads
    dtype = q.data.dtype
    bias = np.where(allowed, 0.0, -1e30).astype(dtype)[..., None]
    has_key = allowed.any(axis=-1).astype(dtype)[:, :, None, None]
    qs = O.reshape(q, (b, lq, 1, heads, dh))
    ks = O.reshape(k, (b, 1, lk, heads, dh))
    scores = O.scale(T.sum_(O.mul(qs, ks), axis=-1), 1.0 / np.sqrt(dh))  # (B, Lq, Lk, H)
    probs = O.mul(O.exp(O.log_softmax(T.add(scores, T.constant(bias, dtype)), axis=2)), has_key)
    ctx = T.sum_(O.mul(O.reshape(probs, (b, lq, lk, heads, 1)),
                       O.reshape(v, (b, 1, lk, heads, dh))), axis=2)
    return O.reshape(ctx, (b, lq, d)), np.moveaxis(probs.data, 3, 1)


def _band_global_mask(key_mask, w, seg_start=None):
    """(B, L, L) keys that `sliding_attention` lets each row read: its band,
    its segment's [CLS] key, and every key for the [CLS] rows, all within
    the row's segment (by default, one segment per row)."""
    l = key_mask.shape[1]
    start = np.zeros(l, dtype=int) if seg_start is None else np.asarray(seg_start)
    i, j = np.arange(l)[:, None], np.arange(l)[None, :]
    near = (np.abs(i - j) <= w) | (i == start[:, None]) | (j == start[None, :])
    return (near & (start[:, None] == start[None, :]))[None] & key_mask[:, None, :]


def _band_to_dense(p, pg, w):
    """The (B,H,L,L) probabilities that `sliding_attention`'s arrays stand
    for, with one segment per row."""
    l = p.shape[2]
    dense = np.zeros(p.shape[:-1] + (l,), dtype=p.dtype)
    raw = np.arange(l)[:, None] + np.arange(-w, w + 1)
    rows, slots = np.nonzero(_in_range(l, w))
    dense[..., rows, raw[rows, slots]] = p[..., rows, slots]
    dense[..., :1] += p[..., 2 * w + 1:]
    dense[..., :1, :] = pg
    return dense


def _attention_mask(b, lk):
    """Key masks with a partly masked row and, for b > 1, a fully masked one."""
    mask = np.ones((b, lk), dtype=bool)
    mask[0, lk // 2:] = False
    if b > 1:
        mask[-1] = False
    return mask


def _tokens_major(shape):
    """The (B, L, H*d) shape of q, k and v that the attention ops take for
    (B, H, L, d) heads."""
    b, h, l, d = shape
    return (b, l, h * d)


class TestBandOps:
    """The private band kernels and `sliding_attention`, the tape op built on them."""
    # (B, H, L, d) shapes; windows below, at and past the sequence length
    CASES = [((3, 2, 7, 3), 2), ((3, 2, 5, 4), 1), ((3, 1, 4, 3), 4), ((3, 1, 3, 2), 5)]

    @pytest.mark.parametrize("shape,w", CASES)
    def test_grad_check_every_coordinate(self, shape, w):
        # every coordinate is checked, so rows at both sequence edges are too;
        # the batch rows have a partly masked, a fully readable and no readable key
        rng = np.random.default_rng(sum(shape) + w)
        full = _tokens_major(shape)
        params = {n: T.parameter(rng.standard_normal(full)) for n in ("q", "k", "v")}
        mask = _attention_mask(shape[0], shape[2])
        r = rng.standard_normal(full)
        every = max(t.data.size for t in params.values())

        def fn(p):
            ctx = T.sliding_attention(p["q"], p["k"], p["v"], mask, shape[1], w)
            return T.sum_(O.mul(ctx, r))

        assert O.grad_check(fn, params, num_samples=every) < 1e-7

    @pytest.mark.parametrize("shape,w", CASES)
    def test_out_of_range_slots_read_zero(self, shape, w):
        rng = np.random.default_rng(1)
        out = T._band_dot(rng.standard_normal(shape), rng.standard_normal(shape), w)
        assert np.all(out[..., ~_in_range(shape[2], w)] == 0.0)

    @pytest.mark.parametrize("shape,w", CASES + [((4, 4, 65, 16), 16)])
    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    def test_matches_gather_formulation_on_valid_slots(self, shape, w, dtype, tol):
        # the kernels, and the backward identities `sliding_attention` builds
        # from them, against the tape gradients of the gather formulation
        rng = np.random.default_rng(2)
        ok = _in_range(shape[2], w)
        band = shape[:-1] + (2 * w + 1,)
        # probabilities are 0 on out-of-range slots, as the softmax mask makes them
        data = {"q": rng.standard_normal(shape), "k": rng.standard_normal(shape),
                "v": rng.standard_normal(shape), "p": rng.random(band) * ok}
        r_scores = (rng.standard_normal(band) * ok).astype(dtype)
        r_ctx = rng.standard_normal(shape).astype(dtype)

        q, k, v, p = (data[n].astype(dtype) for n in "qkvp")
        new_s, new_c = T._band_dot(q, k, w), T._band_mix(p, v, w)
        new_g = {"q": T._band_mix(r_scores, k, w),
                 "k": T._band_mix(T._band_transpose(r_scores, w), q, w),
                 "p": T._band_dot(r_ctx, v, w),
                 "v": T._band_mix(T._band_transpose(p, w), r_ctx, w)}
        t = {n: T.parameter(x.astype(dtype)) for n, x in data.items()}
        old_s, old_c = _old_band(t["q"], t["k"], t["v"], t["p"], w)
        T.backward(T.add(T.sum_(O.mul(old_s, r_scores)), T.sum_(O.mul(old_c, r_ctx))))
        np.testing.assert_allclose(new_s[..., ok], old_s.data[..., ok], rtol=tol, atol=tol)
        np.testing.assert_allclose(new_c, old_c.data, rtol=tol, atol=tol)
        for name in ("q", "k", "v"):
            np.testing.assert_allclose(new_g[name], t[name].grad, rtol=tol, atol=tol)
        np.testing.assert_allclose(new_g["p"][..., ok], t["p"].grad[..., ok], rtol=tol, atol=tol)

    # segment sizes of one row and the window: one segment longer or shorter
    # than the window, packed segments longer, shorter and both
    @pytest.mark.parametrize("sizes,w", [([9], 2), ([5], 8), ([6, 7, 5], 2), ([3, 1, 4, 2], 3),
                                         ([2, 6, 1], 4), ([4, 4], 0)])
    def test_band_mask_matches_gathered_keys(self, sizes, w):
        # the construction from gathered key ids that `_band_invalid` replaced
        l = sum(sizes)
        start = np.repeat(np.cumsum([0] + sizes[:-1]), sizes)
        end = start + np.repeat(sizes, sizes)
        key_mask = _attention_mask(4, l)  # a padded row, a full one, an empty one
        key_mask[2] = np.random.default_rng(l + w).random(l) < 0.6  # scattered masked keys
        raw = np.arange(l)[:, None] + np.arange(-w, w + 1)
        keys = np.concatenate([np.clip(raw, 0, l - 1), start[:, None]], 1)
        want = ~np.take(key_mask, keys, axis=1)[:, None]
        want[..., :2 * w + 1] |= (raw <= start[:, None]) | (raw >= end[:, None])
        got = T._band_invalid(key_mask, start, end, w)
        assert got.shape == want.shape and np.array_equal(got, want)

    @pytest.mark.parametrize("shape,w", CASES + [((4, 4, 65, 16), 16)])
    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    def test_sliding_attention_matches_dense_reference(self, shape, w, dtype, tol):
        rng = np.random.default_rng(4)
        heads, full = shape[1], _tokens_major(shape)
        data = {n: rng.standard_normal(full) for n in ("q", "k", "v")}
        mask = _attention_mask(shape[0], shape[2])
        r = rng.standard_normal(full).astype(dtype)

        def run(fused):
            t = {n: T.parameter(x.astype(dtype)) for n, x in data.items()}
            if fused:
                probs = []
                ctx = T.sliding_attention(t["q"], t["k"], t["v"], mask, heads, w, probs=probs)
                p = _band_to_dense(*probs, w)
            else:
                ctx, p = _dense_reference(t["q"], t["k"], t["v"],
                                          _band_global_mask(mask, w), heads)
            T.backward(T.sum_(O.mul(ctx, r)))
            return ctx.data, p, {n: x.grad for n, x in t.items()}

        new_c, new_p, new_g = run(fused=True)
        old_c, old_p, old_g = run(fused=False)
        assert new_c.dtype == dtype and new_p.dtype == dtype
        np.testing.assert_allclose(new_c, old_c, rtol=tol, atol=tol)
        np.testing.assert_allclose(new_p, old_p, rtol=tol, atol=tol)
        for name in ("q", "k", "v"):
            assert new_g[name].dtype == dtype
            np.testing.assert_allclose(new_g[name], old_g[name], rtol=tol, atol=tol)


class TestAttention:
    # (B, H, Lq, Lk, d), q being (B, Lq, H*d): square, Lq < Lk as for the
    # global rows, Lq > Lk
    CASES = [(3, 2, 4, 4, 3), (2, 2, 1, 6, 4), (3, 1, 5, 3, 2)]

    @pytest.mark.parametrize("b,h,lq,lk,d", CASES)
    def test_grad_check_every_coordinate(self, b, h, lq, lk, d):
        rng = np.random.default_rng(b * 100 + lq * 10 + lk)
        params = {"q": T.parameter(rng.standard_normal((b, lq, h * d))),
                  "k": T.parameter(rng.standard_normal((b, lk, h * d))),
                  "v": T.parameter(rng.standard_normal((b, lk, h * d)))}
        mask = _attention_mask(b, lk)
        r = rng.standard_normal((b, lq, h * d))

        def fn(p):
            return T.sum_(O.mul(T.attention(p["q"], p["k"], p["v"], mask, h), r))

        every = max(t.data.size for t in params.values())
        assert O.grad_check(fn, params, num_samples=every) < 1e-7

    def test_softmax_contract(self):
        rng = np.random.default_rng(0)
        q, k, v = (T.constant(rng.standard_normal((3, 4, 2 * 5))) for _ in range(3))
        mask = _attention_mask(3, 4)
        probs = []
        ctx = T.attention(q, k, v, mask, 2, probs=probs).data
        p = probs[0]
        assert p.shape == (3, 2, 4, 4)
        assert np.all(p[0, :, :, 2:] == 0.0)  # masked keys: exactly zero
        np.testing.assert_allclose(p[:2].sum(axis=-1), 1.0, atol=1e-6)
        assert np.all(p[2] == 0.0) and np.all(ctx[2] == 0.0)  # no readable key
        assert np.all(np.isfinite(ctx))

    def test_key_mask_of_another_shape_rejected(self):
        # a (B, Lq, Lk) mask used to broadcast against the (B, H, Lq, Lk) scores
        rng = np.random.default_rng(2)
        q, k, v = (T.constant(rng.standard_normal((2, 3, 4))) for _ in range(3))
        mask = np.ones((2, 3, 3), dtype=bool)
        with pytest.raises(T.ShapeError, match=r"\(2, 3, 3\).*\(2, 3\)"):
            T.attention(q, k, v, mask, 2)

    def test_untracked_call_never_holds_the_whole_probabilities(self):
        # the untracked forward reuses one group-sized buffer, about 1 MiB;
        # the call that asks for the probabilities allocates all of them
        b, l, dm, h = 64, 129, 64, 4
        rng = np.random.default_rng(4)
        q, k, v = (T.constant(rng.standard_normal((b, l, dm), dtype=np.float32))
                   for _ in range(3))
        mask = np.ones((b, l), dtype=bool)
        mask[::3, 100:] = False
        whole = b * h * l * l * 4  # 17 MB

        def peak(probs):
            tracemalloc.start()
            try:
                T.attention(q, k, v, mask, h, probs=probs)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(None) < whole / 4 < whole <= peak([])

    def test_probs_list_is_optional(self):
        rng = np.random.default_rng(1)
        q, k, v = (T.constant(rng.standard_normal((1, 3, 2))) for _ in range(3))
        mask = np.ones((1, 3), dtype=bool)
        probs = []
        a = T.attention(q, k, v, mask, 1, probs=probs).data
        b = T.attention(q, k, v, mask, 1).data
        assert np.array_equal(a, b) and len(probs) == 1

    @pytest.mark.parametrize("b,h,lq,lk,d", CASES + [(4, 4, 129, 129, 16)])
    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    def test_matches_composed_chain(self, b, h, lq, lk, d, dtype, tol):
        rng = np.random.default_rng(3)
        data = {"q": rng.standard_normal((b, lq, h * d)),
                "k": rng.standard_normal((b, lk, h * d)),
                "v": rng.standard_normal((b, lk, h * d))}
        mask = _attention_mask(b, lk)
        r = rng.standard_normal((b, lq, h * d)).astype(dtype)

        def run(fused):
            t = {n: T.parameter(x.astype(dtype)) for n, x in data.items()}
            if fused:
                probs = []
                ctx = T.attention(t["q"], t["k"], t["v"], mask, h, probs=probs)
                p = probs[0]
            else:
                ctx, p = _dense_reference(t["q"], t["k"], t["v"],
                                          np.broadcast_to(mask[:, None, :], (b, lq, lk)), h)
            T.backward(T.sum_(O.mul(ctx, r)))
            return ctx.data, p, {n: x.grad for n, x in t.items()}

        new_c, new_p, new_g = run(fused=True)
        old_c, old_p, old_g = run(fused=False)
        assert new_c.dtype == dtype and new_p.dtype == dtype
        np.testing.assert_allclose(new_c, old_c, rtol=tol, atol=tol)
        np.testing.assert_allclose(new_p, old_p, rtol=tol, atol=tol)
        for name in ("q", "k", "v"):
            assert new_g[name].dtype == dtype
            np.testing.assert_allclose(new_g[name], old_g[name], rtol=tol, atol=tol)


class TestAttentionGroups:
    """`attention` runs both passes over groups of whole sequences. With the
    group size forced small, it equals a one-group run bit for bit: the
    context, the probabilities and all three gradients."""

    # (B, Lq, Lk, sequences per group, key mask): padded sequences, then
    # unpadded ones from a group boundary on, which mask nothing; B not a
    # multiple of the group size
    CASES = [(4, 5, 5, 2, "padded_first"), (5, 5, 5, 2, "padded_first"),
             (7, 3, 6, 3, "scattered")]

    @staticmethod
    def _mask(kind, b, lq, lk):
        mask = np.ones((b, lk), dtype=bool)
        if kind == "padded_first":
            mask[:2, lk - 2:] = False
            mask[1] = False  # no readable key
        else:
            mask[[0, 4], 1:3] = False
        return mask

    @pytest.mark.parametrize("b,lq,lk,per_group,kind", CASES)
    def test_groups_change_no_bit(self, monkeypatch, b, lq, lk, per_group, kind):
        h, d = 2, 3
        rng = np.random.default_rng(b + lq)
        data = [rng.standard_normal((b, n, h * d)).astype(np.float32) for n in (lq, lk, lk)]
        g = rng.standard_normal((b, lq, h * d)).astype(np.float32)
        mask = self._mask(kind, b, lq, lk)

        def run(group_bytes):
            monkeypatch.setattr(T, "_GROUP_BYTES", group_bytes)
            ts, probs = [T.parameter(x.copy()) for x in data], []
            out = T.attention(*ts, mask, h, probs=probs)
            T.backward(T.sum_(O.mul(out, g)))
            return [out.data, probs[0]] + [t.grad for t in ts]

        seq_bytes = h * lq * lk * 4
        monkeypatch.setattr(T, "_GROUP_BYTES", per_group * seq_bytes)
        assert len(T._groups(b, seq_bytes)) == -(-b // per_group) > 1
        grouped, whole = run(per_group * seq_bytes), run(b * seq_bytes)
        for name, x, y in zip(("context", "probs", "q", "k", "v"), grouped, whole):
            assert x.dtype == y.dtype and np.array_equal(x, y), name

    @pytest.mark.parametrize("b,lq,lk,per_group,kind", CASES)
    def test_untracked_call_matches_the_tracked_and_requested_ones(self, monkeypatch, b, lq,
                                                                   lk, per_group, kind):
        # the untracked call computes each group into one reused buffer
        h, d = 2, 3
        rng = np.random.default_rng(b * lq)
        data = [rng.standard_normal((b, n, h * d)).astype(np.float32) for n in (lq, lk, lk)]
        mask = self._mask(kind, b, lq, lk)
        monkeypatch.setattr(T, "_GROUP_BYTES", per_group * h * lq * lk * 4)
        untracked = T.attention(*map(T.constant, data), mask, h)
        requested = T.attention(*map(T.constant, data), mask, h, probs=[])
        tracked = T.attention(*map(T.parameter, data), mask, h)
        assert untracked.node is None and tracked.node is not None
        for out in (requested, tracked):
            assert out.data.dtype == untracked.data.dtype
            assert np.array_equal(out.data, untracked.data)


class TestClsAttention:
    """`cls_attention` against attention over projected keys and values,
    softmax(q (x W_k + b_k)^T / sqrt(d)) (x W_v + b_v), built from unfused
    float64 ops: the context, the probabilities and every gradient, the key
    bias's (which the op never reads) being 0."""

    H, D = 2, 6

    def _data(self, rng, b, s, l):
        return {"q": rng.standard_normal((b, s, self.D)), "x": rng.standard_normal((b, l, self.D)),
                "w_k": rng.standard_normal((self.D, self.D)),
                "w_v": rng.standard_normal((self.D, self.D)),
                "b_k": rng.standard_normal(self.D), "b_v": rng.standard_normal(self.D)}

    def _run(self, data, mask, r, fused):
        t = {n: T.parameter(x.copy()) for n, x in data.items()}
        if fused:
            probs = []
            ctx = T.cls_attention(t["q"], t["x"], t["w_k"], t["w_v"], t["b_v"], mask, self.H,
                                  probs=probs)
            p = probs[0]
        else:
            k = T.add(T.matmul(t["x"], t["w_k"]), t["b_k"])
            v = T.add(T.matmul(t["x"], t["w_v"]), t["b_v"])
            ctx, p = _dense_reference(t["q"], k, v, mask, self.H)
        T.backward(T.sum_(O.mul(ctx, r)))
        return ctx.data, p, {n: x.grad for n, x in t.items()}

    def _check(self, data, mask, r):
        ctx, p, grads = self._run(data, mask, r, fused=True)
        want, want_p, want_grads = self._run(data, mask, r, fused=False)
        np.testing.assert_allclose(ctx, want, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(p, want_p, rtol=1e-12, atol=1e-12)
        assert grads.pop("b_k") is None
        np.testing.assert_allclose(want_grads.pop("b_k"), 0.0, atol=1e-12)
        for name, g in want_grads.items():
            np.testing.assert_allclose(grads[name], g, rtol=1e-10, atol=1e-12, err_msg=name)
        return ctx, p, grads

    @pytest.mark.parametrize("per_query", [False, True])
    def test_masked_keys_and_a_row_with_none(self, per_query):
        rng = np.random.default_rng(per_query)
        b, s, l = 3, 2, 7
        data = self._data(rng, b, s, l)
        mask = np.repeat(_attention_mask(b, l)[:, None], s, axis=1)  # row 0 partly masked, 2 fully
        if per_query:
            mask[1, 1, ::2] = False
        r = rng.standard_normal((b, s, self.D))
        ctx, p, grads = self._check(data, mask, r)
        assert np.all(ctx[2] == 0.0) and np.all(p[2] == 0.0)  # zero context, no NaN
        assert np.all(grads["q"][2] == 0.0) and np.all(grads["x"][2] == 0.0)
        assert all(np.isfinite(g).all() for g in grads.values())

    def test_no_readable_key_anywhere_gives_zero_gradients(self):
        rng = np.random.default_rng(5)
        data = self._data(rng, 2, 1, 4)
        mask = np.zeros((2, 1, 4), dtype=bool)
        ctx, _, grads = self._check(data, mask, rng.standard_normal((2, 1, self.D)))
        assert np.all(ctx == 0.0)
        assert all(np.all(g == 0.0) for g in grads.values())

    def test_packed_segments(self):
        # the packed sliding layout: one row of end-to-end segments, each
        # [CLS] row reading the unmasked keys of its own segment
        rng = np.random.default_rng(2)
        lengths = [5, 1, 8, 3]
        start = np.repeat(np.cumsum([0, *lengths[:-1]]), lengths)
        first = np.flatnonzero(start == np.arange(len(start)))
        key_mask = np.ones(len(start), dtype=bool)
        key_mask[[3, 9]] = False
        mask = (key_mask & (start[first][:, None] == start))[None]  # (1, S, L)
        data = self._data(rng, 1, len(lengths), len(start))
        self._check(data, mask, rng.standard_normal((1, len(lengths), self.D)))

    def test_grad_check(self):
        rng = np.random.default_rng(3)
        data = self._data(rng, 2, 2, 5)
        data.pop("b_k")
        mask = _attention_mask(2, 5)
        mask[1, 1:] = True
        mask = np.repeat(mask[:, None], 2, axis=1)
        r = rng.standard_normal((2, 2, self.D))

        def fn(p):
            ctx = T.cls_attention(p["q"], p["x"], p["w_k"], p["w_v"], p["b_v"], mask, self.H)
            return T.sum_(O.mul(ctx, r))

        params = {n: T.parameter(x) for n, x in data.items()}
        every = max(x.size for x in data.values())
        assert O.grad_check(fn, params, num_samples=every) < 1e-7


    def test_key_mask_of_another_rank_rejected(self):
        # a (B, L) mask used to broadcast as (1, B, 1, L): at B = H each head
        # read another document's mask
        rng = np.random.default_rng(6)
        data = self._data(rng, 2, 2, 5)
        mask = np.ones((2, 5), dtype=bool)
        with pytest.raises(T.ShapeError, match=r"\(2, 5\).*\(2, 2, 5\)"):
            T.cls_attention(*(T.constant(data[n]) for n in ("q", "x", "w_k", "w_v", "b_v")),
                            mask, self.H)


def _masked_softmax_oracle(s, invalid):
    """Softmax over the last axis with the `invalid` entries left out; a row
    with none left is all zeros. Row sums by `sum`, then a `where=` divide."""
    s = np.where(invalid, -np.inf, s)
    mx = s.max(axis=-1, keepdims=True)
    mx[~np.isfinite(mx)] = 0.0
    e = np.exp(s - mx)
    denom = e.sum(axis=-1, keepdims=True)
    return np.divide(e, denom, out=np.zeros_like(e), where=denom > 0)


class TestMaskedSoftmaxContract:
    """Both attention ops scale the query, not the scores, and normalise each
    row by a GEMV row sum; their probabilities against the formulas above
    on the scaled scores, where d = 12 makes the scale inexact."""

    @pytest.mark.parametrize("op", ["attention", "sliding_attention"])
    @pytest.mark.parametrize("d", [8, 12, 16])
    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    def test_probabilities_match_oracle(self, op, d, dtype, tol):
        rng = np.random.default_rng(d)
        b, h, l, w = 3, 2, 11, 2
        q, k, v = (rng.standard_normal((b, l, h * d)).astype(dtype) for _ in range(3))
        mask = _attention_mask(b, l)  # batch row 0 partly masked, the last fully
        qh, kh = (x.reshape(b, l, h, d).transpose(0, 2, 1, 3) for x in (q, k))
        probs = []
        if op == "attention":
            T.attention(T.Tensor(q), T.Tensor(k), T.Tensor(v), mask, h, probs=probs)
            p, allowed = probs[0], np.broadcast_to(mask[:, None, :], (b, l, l))
        else:
            T.sliding_attention(T.Tensor(q), T.Tensor(k), T.Tensor(v), mask, h, w, probs=probs)
            p, allowed = _band_to_dense(*probs, w), _band_global_mask(mask, w)
        allowed = np.broadcast_to(allowed[:, None], p.shape)
        assert p.dtype == dtype
        assert np.all(p[~allowed] == 0.0)  # exactly zero, not merely small
        assert np.all(p[-1] == 0.0)  # no readable key: all zeros, no NaN
        np.testing.assert_allclose(p[:-1].sum(axis=-1), 1.0, rtol=tol)
        scores = np.matmul(qh, np.swapaxes(kh, -1, -2)) / np.sqrt(d)
        np.testing.assert_allclose(p, _masked_softmax_oracle(scores, ~allowed),
                                   rtol=tol, atol=tol)


def _layer_norm_oracle(x, gamma, beta, g, eps=1e-5):
    """Layer norm over the last axis on the unflattened array: the output and
    the (x, gamma, beta) gradients for upstream gradient g."""
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + eps)
    xhat = xc * inv
    dxhat = g * gamma
    gx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True) / x.shape[-1])
    lead = tuple(range(x.ndim - 1))
    return xhat * gamma + beta, gx, (g * xhat).sum(axis=lead), g.sum(axis=lead)


class TestLayerNorm:
    @pytest.mark.parametrize("shape", [(7,), (5, 7), (3, 4, 7)])
    def test_matches_oracle(self, shape):
        rng = np.random.default_rng(len(shape))
        x = rng.standard_normal(shape) * 3.0 + 1.0
        gamma, beta, g = rng.standard_normal(7), rng.standard_normal(7), rng.standard_normal(shape)
        t = [T.parameter(v) for v in (x, gamma, beta)]
        out = T.layer_norm(*t)
        T.backward(T.sum_(O.mul(out, g)))
        got = [out.data] + [p.grad for p in t]
        for name, a, want in zip(("out", "x", "gamma", "beta"), got,
                                 _layer_norm_oracle(x, gamma, beta, g)):
            assert a.shape == want.shape and a.dtype == np.float64, name
            np.testing.assert_allclose(a, want, rtol=1e-12, atol=1e-12, err_msg=name)

    def test_keeps_float32(self):
        rng = np.random.default_rng(0)
        t = [T.parameter(rng.standard_normal(s).astype(np.float32)) for s in ((2, 3, 8), 8, 8)]
        out = T.layer_norm(*t)
        T.backward(T.sum_(out))
        assert out.data.dtype == np.float32
        assert all(p.grad.dtype == np.float32 for p in t)


class TestIndexSelectBackward:
    """The oracles' gather along any axis and, along axis 0, `embedding`,
    whose backward sorts the ids and sums each id's rows as one segment."""

    @pytest.mark.parametrize("shape,axis,ids", [
        ((6, 4), 0, [[3, 1, 3], [0, 3, 5]]),  # repeated and unsorted
        ((6, 4), 0, [5, -1, 0, -6, 0]),  # a negative id names the same row as np.take
        ((6, 4), 0, np.zeros(0, dtype=np.int64)),
        ((3, 5, 2), 1, [[4, 0], [4, 4], [2, 0]]),
        ((3, 5, 2), 1, np.zeros((2, 0), dtype=np.int64)),
        ((3, 5, 2), 2, [1, 1, 0]),
    ])
    def test_matches_add_at(self, shape, axis, ids):
        rng = np.random.default_rng(len(shape) + axis)
        ids = np.asarray(ids)
        gathers = [lambda a: O.index_select(a, axis, ids)]
        if axis == 0:
            gathers.append(lambda a: T.embedding(a, ids))
        for gather in gathers:
            a = T.parameter(rng.standard_normal(shape))
            out = gather(a)
            g = rng.standard_normal(out.shape)
            T.backward(T.sum_(O.mul(out, g)))
            want = np.zeros(shape)
            np.add.at(want, (slice(None),) * axis + (ids,), g)
            assert a.grad.shape == shape
            np.testing.assert_allclose(a.grad, want, rtol=1e-12, atol=1e-12)


class TestCosineNce:
    @pytest.mark.parametrize("n", [2, 5])
    def test_grad_check_every_coordinate(self, n):
        rng = np.random.default_rng(n)
        params = {"a": T.parameter(rng.standard_normal((n, 4))),
                  "c": T.parameter(rng.standard_normal((n, 4)))}

        def fn(p):
            return T.cosine_nce(p["a"], p["c"], tau=0.05)[0]

        assert O.grad_check(fn, params, num_samples=4 * n) < 1e-7

    def test_zero_norm_row_rejected(self):
        a = np.ones((2, 3))
        a[1] = 0.0
        for x, y in ((a, np.ones((2, 3))), (np.ones((2, 3)), a)):
            with pytest.raises(ValueError, match="zero-norm"):
                T.cosine_nce(T.constant(x), T.constant(y), tau=0.05)


def _classifier_case(seed, n=5, c=4):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, c)) * 3.0
    one_hot = np.eye(c)[rng.integers(0, c, n)]
    multi = (rng.random((n, c)) < 0.4).astype(np.float64)
    return z, one_hot, multi


class TestClassifierLosses:
    """`softmax_cross_entropy` and `bce_with_logits`, each one tape node."""

    @pytest.mark.parametrize("seed", range(3))
    def test_grad_check_every_coordinate(self, seed):
        z, one_hot, multi = _classifier_case(seed)
        params = {"z": T.parameter(z)}
        for op, y in ((T.softmax_cross_entropy, one_hot), (T.bce_with_logits, multi)):
            assert O.grad_check(lambda p: op(p["z"], y), params, num_samples=z.size) < 1e-7, op

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_softmax_cross_entropy_matches_composed_chain_bitwise(self, dtype):
        # the chain it replaces: -(1/N) sum(log_softmax(z) * y)
        z, y, _ = _classifier_case(3, n=16, c=5)
        y = y.astype(dtype)

        def run(op):
            t = T.parameter(z.astype(dtype))
            loss = op(t)
            T.backward(loss)
            return loss.data, t.grad

        new_loss, new_g = run(lambda t: T.softmax_cross_entropy(t, y))
        old_loss, old_g = run(lambda t: O.scale(T.sum_(O.mul(O.log_softmax(t), y)), -1.0 / 16))
        assert new_loss.dtype == dtype and new_g.dtype == dtype
        np.testing.assert_array_equal(new_loss, old_loss)
        np.testing.assert_array_equal(new_g, old_g)

    def test_bce_matches_probability_form(self):
        z, _, y = _classifier_case(4)
        p = 1.0 / (1.0 + np.exp(-z))
        want = -(y * np.log(p) + (1 - y) * np.log(1 - p)).mean()
        t = T.parameter(z)
        loss = T.bce_with_logits(t, y)
        T.backward(loss)
        np.testing.assert_allclose(loss.data, want, rtol=1e-12)
        np.testing.assert_allclose(t.grad, (p - y) / z.size, rtol=1e-12)


# One pretrain + embed round of 8 documents of 400 tokens (chunks of 128, dim
# 64), run twice in a fresh process; prints each round's minor page faults.
_ROUND_TWICE = """
import resource
from cpe import corpus as C
from cpe.encoder import EncoderConfig
from cpe.training import PretrainConfig, embed_documents, pretrain

records = C.gen_synthetic(C.SyntheticSpec(num_docs=8, doc_len_min=400, doc_len_max=400), 1)
vocab = C.build_vocab(r["text"] for r in records)
docs = C.encode_documents(records, vocab)
ecfg = EncoderConfig(vocab_size=vocab.size, dim=64)
pcfg = PretrainConfig(epochs=1, chunk_len=128, n_chunks=4, max_tokens=512)
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    params = pretrain(docs, ecfg, pcfg).params
    embed_documents(docs, params, ecfg, chunk_len=128, n_chunks=4, max_tokens=512)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"), reason="libc has no mallopt")
def test_second_round_reuses_the_freed_arrays():
    # with glibc's defaults the second round faults about 3,800 pages back
    # in; with the policy `tensor` sets at import, about 100
    assert T._keep_freed_arrays()  # glibc accepts both settings
    src = os.path.dirname(os.path.dirname(T.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", _ROUND_TWICE], env=env, check=True,
                         capture_output=True, text=True, timeout=300).stdout
    first, second = map(int, out.split())
    assert second < 500, (first, second)
