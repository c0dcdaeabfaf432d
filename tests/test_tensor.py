import numpy as np
import pytest

from cpe import tensor as T


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
        # band slots past either end or on a global key, and the global
        # rows' band entries are exactly 0; every row sums to 1
        rng = np.random.default_rng(0)
        b, l, w, g = 5, 9, 2, 2
        q, k, v = (T.constant(rng.standard_normal((b, l, 2 * 3))) for _ in range(3))
        mask = rng.random((b, l)) > 0.4
        mask[:, 0] = True
        probs = []
        T.sliding_attention(q, k, v, mask, 2, w, g, probs=probs)
        p, pg = probs
        raw = np.arange(l)[:, None] + np.arange(-w, w + 1)
        slot_ok = ((raw >= g) & (raw < l))[None] & mask[:, np.clip(raw, 0, l - 1)]
        ok = np.concatenate([slot_ok, np.broadcast_to(mask[:, None, :g], (b, l, g))], axis=-1)
        ok[:, :g] = False
        assert np.all(p[~np.broadcast_to(ok[:, None], p.shape)] == 0.0)
        assert np.all(pg[~np.broadcast_to(mask[:, None, None, :], pg.shape)] == 0.0)
        np.testing.assert_allclose(p[:, :, g:].sum(axis=-1), 1.0, atol=1e-6)
        np.testing.assert_allclose(pg.sum(axis=-1), 1.0, atol=1e-6)

    def test_softmax_fully_masked_row_no_nan(self):
        # a batch row with no readable key: zero probabilities, zero context
        rng = np.random.default_rng(1)
        q, k, v = (T.constant(rng.standard_normal((2, 6, 2 * 3))) for _ in range(3))
        mask = np.ones((2, 6), dtype=bool)
        mask[1] = False
        probs = []
        ctx = T.sliding_attention(q, k, v, mask, 2, 1, 1, probs=probs).data
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


class TestBackward:
    def test_linear_map_gradient(self):
        x = np.array([1.0, 2.0, -1.0])
        w = T.parameter(np.zeros((3, 2)))
        loss = T.sum_(T.matmul(T.constant(x), w))
        T.backward(loss)
        np.testing.assert_allclose(w.grad, np.stack([x, x], axis=1))

    def test_tanh_derivative_at_zero(self):
        x = T.parameter(np.array(0.0))
        loss = T.scale(T.tanh(x), 3.0)
        T.backward(loss)
        np.testing.assert_allclose(x.grad, 3.0)  # tanh'(0) = 1

    def test_nonscalar_loss_rejected(self):
        with pytest.raises(T.ShapeError, match="scalar"):
            T.backward(T.parameter(np.ones(3)))

    def test_untouched_params_get_zero_gradients(self):
        used = T.parameter(np.ones(2), name="used")
        unused = T.parameter(np.ones(2), name="unused")
        T.backward(T.sum_(T.mul(used, used)))
        grads = T.collect_gradients({"used": used, "unused": unused})
        np.testing.assert_allclose(grads["unused"], 0.0)
        np.testing.assert_allclose(grads["used"], 2.0)

    def test_three_layer_network_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        params = {f"w{i}": T.parameter(rng.standard_normal((5, 5)) * 0.3) for i in range(3)}
        x = T.constant(rng.standard_normal((2, 5)))

        def fn(p):
            h = x
            for i in range(3):
                h = T.tanh(T.matmul(h, p[f"w{i}"]))
            return T.sum_(T.mul(h, h))

        assert T.grad_check(fn, params, rng=np.random.default_rng(1)) < 1e-4


ROWS_MASK = np.array([[True, False, True], [True, True, False]])  # 4 true slots for 4 rows

PRIMITIVE_FNS = {
    "matmul": lambda p: T.sum_(T.matmul(p["a"], p["b"])),
    "add": lambda p: T.sum_(T.mul(T.add(p["a"], p["b"]), p["a"])),
    "mul": lambda p: T.sum_(T.mul(p["a"], p["b"])),
    "tanh": lambda p: T.sum_(T.tanh(p["a"])),
    "sigmoid": lambda p: T.sum_(T.sigmoid(p["a"])),
    "relu": lambda p: T.sum_(T.mul(T.relu(p["a"]), p["a"])),
    "exp": lambda p: T.sum_(T.exp(T.scale(p["a"], 0.3))),
    "log": lambda p: T.sum_(T.log(T.add(T.mul(p["a"], p["a"]), 1.0))),
    "softmax": lambda p: T.sum_(T.mul(T.exp(T.log_softmax(p["a"])), p["b"])),
    "log_softmax": lambda p: T.sum_(T.mul(T.log_softmax(p["a"]), p["b"])),
    "layer_norm": lambda p: T.sum_(T.mul(
        T.layer_norm(p["a"], p["ln_g"], p["ln_b"]), p["b"])),
    "masked_mean": lambda p: T.sum_(T.mul(T.masked_mean(p["a"], ROWS_MASK), p["b"][:2])),
    "masked_max": lambda p: T.sum_(T.mul(T.masked_max(p["a"], ROWS_MASK), p["b"][:2])),
    "concat_slice": lambda p: T.sum_(p["a"][1:3, 2:5]),
    "index_select": lambda p: T.sum_(T.index_select(p["a"], 0, np.array([0, 2, 2, 1]))),
    "cosine": lambda p: T.cosine_nce(p["a"], p["b"], tau=0.5)[0],
    "reshape_transpose": lambda p: T.sum_(T.mul(
        T.reshape(p["a"], (2, 2, 6)), T.reshape(p["b"], (2, 2, 6)))),
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
    err = T.grad_check(PRIMITIVE_FNS[name], params, rng=np.random.default_rng(seed + 100))
    assert err < 1e-4, f"{name}: grad error {err}"


class TestGradCheckHarness:
    def test_linear_function_near_exact(self):
        w = {"w": T.parameter(np.arange(6.0).reshape(2, 3))}
        fn = lambda p: T.sum_(T.scale(p["w"], 2.5))
        assert T.grad_check(fn, w) < 1e-9

    def test_detects_corrupted_gradient(self):
        # a doubled gradient on one weight must blow past the tolerance
        w = {"w": T.parameter(np.ones(4))}

        def fn(p):
            doubled = T.add(p["w"], p["w"].detach())  # analytic grad 1, true slope 2
            return T.sum_(T.mul(doubled, doubled))

        err = T.grad_check(fn, w, rng=np.random.default_rng(0))
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
        T.backward(T.sum_(T.mul(a, a)))
        kept = a.grad
        before = kept.copy()
        T.backward(T.sum_(T.mul(a[:, 1], r)))
        np.testing.assert_array_equal(kept, before)
        want = before.copy()
        want[:, 1] += r
        np.testing.assert_array_equal(a.grad, want)

    @pytest.mark.parametrize("slice_first", [True, False])
    def test_slice_and_other_use_in_one_graph(self, slice_first):
        a = T.parameter(np.arange(12.0).reshape(3, 4))
        r = np.arange(3.0)
        parts = [T.sum_(T.mul(a[:, 1], r)), T.sum_(T.mul(a, a))]
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
            (lambda x: T.sum_(T.mul(x, x)), 2 * x0),
        ]
        for fn, want in cases:
            x = T.parameter(x0.copy())
            T.backward(fn(x))
            np.testing.assert_array_equal(x.grad, want)

    def test_shared_gradient_survives_a_later_write(self):
        # add hands one array to both parents; x then gets a second term
        x = T.parameter(np.ones(3))
        y = T.parameter(np.ones(3))
        T.backward(T.sum_(T.add(T.add(x, y), T.scale(x, 3.0))))
        np.testing.assert_array_equal(x.grad, [4.0, 4.0, 4.0])
        np.testing.assert_array_equal(y.grad, [1.0, 1.0, 1.0])

    def test_kept_gradient_unchanged_by_second_accumulation(self):
        x = T.parameter(np.array([1.0, 2.0, 3.0]))
        T.backward(T.sum_(T.mul(x, x)))
        kept = x.grad
        before = kept.copy()
        T.backward(T.sum_(T.mul(x, x)))  # no zero_gradients: accumulates
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
            return T.sum_(T.mul(T.linear(p["x"], p["w"], p["b"]), r))

        every = max(t.data.size for t in params.values())
        assert T.grad_check(fn, params, num_samples=every) < 1e-7

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
            T.backward(T.sum_(T.mul(out, r)))
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
    k_band = T.reshape(T.index_select(k, 2, idx), (b, h, l, 2 * w + 1, d))
    v_band = T.reshape(T.index_select(v, 2, idx), (b, h, l, 2 * w + 1, d))
    scores = T.sum_(T.mul(T.reshape(q, (b, h, l, 1, d)), k_band), axis=-1)
    ctx = T.sum_(T.mul(T.reshape(p, (b, h, l, 2 * w + 1, 1)), v_band), axis=3)
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
    qs = T.reshape(q, (b, lq, 1, heads, dh))
    ks = T.reshape(k, (b, 1, lk, heads, dh))
    scores = T.scale(T.sum_(T.mul(qs, ks), axis=-1), 1.0 / np.sqrt(dh))  # (B, Lq, Lk, H)
    probs = T.mul(T.exp(T.log_softmax(T.add(scores, bias), axis=2)), has_key)
    ctx = T.sum_(T.mul(T.reshape(probs, (b, lq, lk, heads, 1)),
                       T.reshape(v, (b, 1, lk, heads, dh))), axis=2)
    return T.reshape(ctx, (b, lq, d)), np.moveaxis(probs.data, 3, 1)


def _band_global_mask(key_mask, w, g):
    """(B, L, L) keys that `sliding_attention` lets each row read: its band,
    the global prefix [:g], and every key for the global rows."""
    i, j = np.arange(key_mask.shape[1])[:, None], np.arange(key_mask.shape[1])[None, :]
    return ((np.abs(i - j) <= w) | (i < g) | (j < g))[None] & key_mask[:, None, :]


def _band_to_dense(p, pg, w):
    """The (B,H,L,L) probabilities that `sliding_attention`'s arrays stand for."""
    l, g = p.shape[2], pg.shape[2]
    dense = np.zeros(p.shape[:-1] + (l,), dtype=p.dtype)
    raw = np.arange(l)[:, None] + np.arange(-w, w + 1)
    rows, slots = np.nonzero(_in_range(l, w))
    dense[..., rows, raw[rows, slots]] = p[..., rows, slots]
    dense[..., :g] += p[..., 2 * w + 1:]
    dense[..., :g, :] = pg
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
        for g in (1, 3):
            def fn(p):
                ctx = T.sliding_attention(p["q"], p["k"], p["v"], mask, shape[1], w, g)
                return T.sum_(T.mul(ctx, r))

            assert T.grad_check(fn, params, num_samples=every) < 1e-7, f"g={g}"

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
        T.backward(T.add(T.sum_(T.mul(old_s, r_scores)), T.sum_(T.mul(old_c, r_ctx))))
        np.testing.assert_allclose(new_s[..., ok], old_s.data[..., ok], rtol=tol, atol=tol)
        np.testing.assert_allclose(new_c, old_c.data, rtol=tol, atol=tol)
        for name in ("q", "k", "v"):
            np.testing.assert_allclose(new_g[name], t[name].grad, rtol=tol, atol=tol)
        np.testing.assert_allclose(new_g["p"][..., ok], t["p"].grad[..., ok], rtol=tol, atol=tol)

    @pytest.mark.parametrize("shape,w", CASES + [((4, 4, 65, 16), 16)])
    @pytest.mark.parametrize("g", [1, 3])
    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    def test_sliding_attention_matches_dense_reference(self, shape, w, g, dtype, tol):
        rng = np.random.default_rng(4)
        heads, full = shape[1], _tokens_major(shape)
        data = {n: rng.standard_normal(full) for n in ("q", "k", "v")}
        mask = _attention_mask(shape[0], shape[2])
        r = rng.standard_normal(full).astype(dtype)

        def run(fused):
            t = {n: T.parameter(x.astype(dtype)) for n, x in data.items()}
            if fused:
                probs = []
                ctx = T.sliding_attention(t["q"], t["k"], t["v"], mask, heads, w, g,
                                          probs=probs)
                p = _band_to_dense(*probs, w)
            else:
                ctx, p = _dense_reference(t["q"], t["k"], t["v"],
                                          _band_global_mask(mask, w, g), heads)
            T.backward(T.sum_(T.mul(ctx, r)))
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
            return T.sum_(T.mul(T.attention(p["q"], p["k"], p["v"], mask, h), r))

        every = max(t.data.size for t in params.values())
        assert T.grad_check(fn, params, num_samples=every) < 1e-7

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
            T.backward(T.sum_(T.mul(ctx, r)))
            return ctx.data, p, {n: x.grad for n, x in t.items()}

        new_c, new_p, new_g = run(fused=True)
        old_c, old_p, old_g = run(fused=False)
        assert new_c.dtype == dtype and new_p.dtype == dtype
        np.testing.assert_allclose(new_c, old_c, rtol=tol, atol=tol)
        np.testing.assert_allclose(new_p, old_p, rtol=tol, atol=tol)
        for name in ("q", "k", "v"):
            assert new_g[name].dtype == dtype
            np.testing.assert_allclose(new_g[name], old_g[name], rtol=tol, atol=tol)


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
        b, h, l, w, g = 3, 2, 11, 2, 2
        q, k, v = (rng.standard_normal((b, l, h * d)).astype(dtype) for _ in range(3))
        mask = _attention_mask(b, l)  # batch row 0 partly masked, the last fully
        qh, kh = (x.reshape(b, l, h, d).transpose(0, 2, 1, 3) for x in (q, k))
        probs = []
        if op == "attention":
            T.attention(T.Tensor(q), T.Tensor(k), T.Tensor(v), mask, h, probs=probs)
            p, allowed = probs[0], np.broadcast_to(mask[:, None, :], (b, l, l))
        else:
            T.sliding_attention(T.Tensor(q), T.Tensor(k), T.Tensor(v), mask, h, w, g,
                                probs=probs)
            p, allowed = _band_to_dense(*probs, w), _band_global_mask(mask, w, g)
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
        T.backward(T.sum_(T.mul(out, g)))
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
        a = T.parameter(rng.standard_normal(shape))
        out = T.index_select(a, axis, ids)
        g = rng.standard_normal(out.shape)
        T.backward(T.sum_(T.mul(out, g)))
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

        assert T.grad_check(fn, params, num_samples=4 * n) < 1e-7

    def test_zero_norm_row_rejected(self):
        a = np.ones((2, 3))
        a[1] = 0.0
        for x, y in ((a, np.ones((2, 3))), (np.ones((2, 3)), a)):
            with pytest.raises(ValueError, match="zero-norm"):
                T.cosine_nce(T.constant(x), T.constant(y), tau=0.05)
