import weakref

import numpy as np
import pytest

from cpe import tensor as T
from cpe.corpus import CLS_ID, PAD_ID
from cpe.encoder import (EncoderConfig, _trunc_normal, encode_chunk, encode_packed,
                         encoder_forward, init_params)
import oracle_init
import oracle_ops as O
from test_tensor import _band_global_mask, _owner

DENSE = EncoderConfig(vocab_size=20, dim=16, layers=2, heads=4, ff=32,
                      max_positions=12, dropout=0.1)


def pad_to_length(tokens, length):
    """[CLS] + tokens, truncated/padded to `length`; returns (ids, mask)."""
    toks = [CLS_ID, *tokens][:length]
    ids = np.full(length, PAD_ID, dtype=np.int64)
    ids[:len(toks)] = toks
    return ids, np.arange(length) < len(toks)


def _batch(rng, b, l, cfg):
    ids = rng.integers(3, cfg.vocab_size, size=(b, l))
    ids[:, 0] = CLS_ID
    mask = np.ones((b, l), dtype=bool)
    return ids, mask


class TestDenseEncoder:
    def test_all_pad_except_cls_is_finite(self):
        params = init_params(DENSE, 0)
        ids = np.full((1, 8), PAD_ID)
        ids[0, 0] = CLS_ID
        mask = np.zeros((1, 8), dtype=bool)
        mask[0, 0] = True
        out = encode_chunk(ids, mask, params, DENSE)
        assert np.all(np.isfinite(out.data))

    def test_eval_mode_deterministic(self):
        params = init_params(DENSE, 0)
        ids, mask = _batch(np.random.default_rng(1), 2, 8, DENSE)
        a = encode_chunk(ids, mask, params, DENSE).data
        b = encode_chunk(ids, mask, params, DENSE).data
        assert np.array_equal(a, b)

    def test_train_mode_requires_rng(self):
        params = init_params(DENSE, 0)
        ids, mask = _batch(np.random.default_rng(1), 1, 6, DENSE)
        with pytest.raises(ValueError, match="rng"):
            encode_chunk(ids, mask, params, DENSE, train=True)

    def test_padding_invariance(self):
        # appending masked PAD must not change the CLS vector
        params = init_params(DENSE, 0)
        rng = np.random.default_rng(2)
        ids, mask = _batch(rng, 1, 6, DENSE)
        base = encode_chunk(ids, mask, params, DENSE).data
        padded_ids = np.concatenate([ids, np.full((1, 3), PAD_ID)], axis=1)
        padded_mask = np.concatenate([mask, np.zeros((1, 3), dtype=bool)], axis=1)
        padded = encode_chunk(padded_ids, padded_mask, params, DENSE).data
        np.testing.assert_allclose(padded, base, atol=1e-6)

    def test_too_long_sequence_errors(self):
        params = init_params(DENSE, 0)
        ids, mask = _batch(np.random.default_rng(0), 1, 13, DENSE)
        with pytest.raises(ValueError, match="max positions"):
            encode_chunk(ids, mask, params, DENSE)


class TestInitParams:
    def test_same_seed_identical(self):
        a = init_params(DENSE, 5)
        b = init_params(DENSE, 5)
        for k in a:
            assert np.array_equal(a[k].data, b[k].data), k

    def test_layer_norm_init(self):
        p = init_params(DENSE, 0)
        for k, v in p.items():
            if k.endswith(("ln1_g", "ln2_g", "lnf_g")):
                assert np.all(v.data == 1.0)
            if k.endswith("_b"):
                assert np.all(v.data == 0.0)

    def test_weight_scale(self):
        p = init_params(DENSE, 0)
        w = p["layer0.q_w"].data
        assert abs(w.std() - 0.02) < 0.005
        assert np.abs(w).max() <= 0.04 + 1e-6  # truncated at 2 sigma

    @pytest.mark.parametrize("shape", [(20, 16), (12, 16), (16, 32), (32,), (3, 4, 5), (0, 4)])
    @pytest.mark.parametrize("seed", range(4))
    def test_trunc_normal_matches_the_whole_array_rounds(self, shape, seed):
        # redrawing only the positions still out of range draws the same
        # numbers, in the same order, as testing the whole array each round
        got = _trunc_normal(np.random.default_rng(seed), shape)
        want = oracle_init.trunc_normal(np.random.default_rng(seed), shape)
        assert got.dtype == want.dtype == np.float32 and np.array_equal(got, want)

    def test_trunc_normal_matches_at_the_round_cap(self):
        # std 0.02 times draws of std 100: most positions are still out of
        # range after 8 rounds, so both stop at the cap and clip
        class Wide:
            def __init__(self, seed):
                self.rng = np.random.default_rng(seed)

            def standard_normal(self, size):
                return self.rng.standard_normal(size) * 100.0

        got = _trunc_normal(Wide(0), (64, 64))
        assert np.array_equal(got, oracle_init.trunc_normal(Wide(0), (64, 64)))
        assert np.sum(np.abs(got) == np.float32(0.04)) > 1000

    @pytest.mark.parametrize("seed", range(20))
    def test_forward_finite_at_init(self, seed):
        params = init_params(DENSE, seed)
        rng = np.random.default_rng(seed)
        ids, mask = _batch(rng, 3, 10, DENSE)
        mask[1, 6:] = False
        ids[1, 6:] = PAD_ID
        out = encoder_forward(ids, mask, params, DENSE)
        assert np.all(np.isfinite(out.data))


SLIDING = EncoderConfig(vocab_size=20, dim=16, layers=2, heads=4, ff=32,
                        max_positions=40, dropout=0.0, attention="sliding", window=2)


class TestSparseEncoder:
    def _dense_twin(self, cfg):
        d = EncoderConfig(**vars(cfg))
        d.attention = "dense"
        return d

    @pytest.mark.parametrize("seed", range(5))
    def test_wide_window_matches_dense(self, seed):
        cfg = EncoderConfig(**vars(SLIDING))
        cfg.window = 64  # >= L: must equal full attention
        params = init_params(cfg, seed)
        rng = np.random.default_rng(seed)
        ids, mask = _batch(rng, 2, 20, cfg)
        mask[0, 14:] = False
        ids[0, 14:] = PAD_ID
        capture = []
        h_sparse = encoder_forward(ids, mask, params, cfg, capture=capture)
        h_dense = encoder_forward(ids, mask, params, self._dense_twin(cfg))
        np.testing.assert_allclose(h_sparse.data, h_dense.data, atol=1e-5)
        # the sliding kernel ran, whatever the window: two arrays per layer,
        # the first in its band-and-[CLS] layout
        assert len(capture) == 2 * cfg.layers
        assert all(p.shape == (2, cfg.heads, 20, 2 * cfg.window + 2) for p in capture[::2])

    def test_narrow_window_attention_support(self):
        # token 5 with w=1 sees only {4,5,6} plus the [CLS] key
        cfg = EncoderConfig(**vars(SLIDING))
        cfg.window = 1
        params = init_params(cfg, 0)
        ids, mask = _batch(np.random.default_rng(0), 1, 8, cfg)
        capture = []
        encoder_forward(ids, mask, params, cfg, capture=capture)
        p, row, w = capture[0], 5, cfg.window
        # band slot j is key row+j-w; the last column, the [CLS] key 0
        keys = [row + j - w for j in range(2 * w + 1)] + [0]
        support = {key for key, pj in zip(keys, p[0, :, row].max(axis=0)) if pj > 0}
        assert support == {4, 5, 6} | {0}

    def test_per_row_support_bound(self):
        cfg = EncoderConfig(**vars(SLIDING))
        params = init_params(cfg, 3)
        ids, mask = _batch(np.random.default_rng(3), 1, 30, cfg)
        capture = []
        encoder_forward(ids, mask, params, cfg, capture=capture)
        bound = 2 * cfg.window + 1 + len(cfg.global_tokens)
        for p in capture[::2]:  # each layer's (B, H, L, 2w+2) band-and-[CLS] array
            assert (p[0] > 0).sum(axis=-1).max() <= bound

    def test_trailing_pad_invariance(self):
        params = init_params(SLIDING, 1)
        rng = np.random.default_rng(4)
        ids, mask = _batch(rng, 1, 18, SLIDING)
        cls_a = encoder_forward(ids, mask, params, SLIDING)[:, 0, :]
        ids2 = np.concatenate([ids, np.full((1, 6), PAD_ID)], axis=1)
        mask2 = np.concatenate([mask, np.zeros((1, 6), dtype=bool)], axis=1)
        cls_b = encoder_forward(ids2, mask2, params, SLIDING)[:, 0, :]
        np.testing.assert_allclose(cls_a.data, cls_b.data, atol=1e-6)

    def test_window_below_one_rejected(self):
        cfg = EncoderConfig(**vars(SLIDING))
        cfg.window = 0
        with pytest.raises(ValueError, match="window"):
            cfg.validate()

    def test_gradients_flow_through_banded_path(self):
        cfg = EncoderConfig(**vars(SLIDING))
        cfg.dim, cfg.heads, cfg.ff, cfg.layers = 8, 2, 16, 1
        params = init_params(cfg, 2)
        ids, mask = _batch(np.random.default_rng(2), 1, 12, cfg)

        def fn(p):
            cls = encoder_forward(ids, mask, p, cfg)[:, 0, :]
            return T.sum_(O.mul(cls, cls))

        assert O.grad_check(fn, params, num_samples=2,
                            rng=np.random.default_rng(0)) < 1e-4


def _dense_sliding_attention(q, k, v, key_mask, heads, w, probs=None, seg_start=None):
    """`T.sliding_attention` as dense attention: each row is its own batch
    entry of `T.attention`, reading all L keys under its band+[CLS] key
    mask, which is block-diagonal over the segments of `seg_start`."""
    b, l, d = q.shape
    rows = np.repeat(np.arange(b), l)
    allowed = _band_global_mask(key_mask, w, seg_start).reshape(b * l, l)
    ctx = T.attention(O.reshape(q, (b * l, 1, d)), O.index_select(k, 0, rows),
                      O.index_select(v, 0, rows), allowed, heads)
    return O.reshape(ctx, (b, l, d))


@pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
def test_sliding_encoder_matches_dense_reference(monkeypatch, dtype, tol):
    cfg = EncoderConfig(**vars(SLIDING))
    rng = np.random.default_rng(1)
    ids, mask = _batch(rng, 2, 24, cfg)
    mask[1, 15:] = False
    ids[1, 15:] = PAD_ID
    r = rng.standard_normal((2, 24, cfg.dim)).astype(dtype)

    def run():
        params = {n: T.parameter(p.data.astype(dtype)) for n, p in init_params(cfg, 4).items()}
        h = encoder_forward(ids, mask, params, cfg)
        T.backward(T.sum_(O.mul(h, r)))
        return h.data, {n: p.grad for n, p in params.items()}

    new_h, new_g = run()
    monkeypatch.setattr(T, "sliding_attention", _dense_sliding_attention)
    old_h, old_g = run()
    np.testing.assert_allclose(new_h, old_h, rtol=tol, atol=tol)
    for name in new_g:
        np.testing.assert_allclose(new_g[name], old_g[name], rtol=tol, atol=tol, err_msg=name)


# sequence lengths, [CLS] included: two shorter than the window of 4, then
# longer ones
PACKED_LENGTHS = [2, 3, 11, 20, 7]


def _segment_start(lengths):
    return np.repeat(np.cumsum([0, *lengths[:-1]]), lengths)


def _cls_only_grads(params, config):
    """Every parameter's gradient after a backward through [CLS]-only
    passes: the last layer's key bias, which none reads, is None, and its
    true gradient 0."""
    grads = {n: p.grad for n, p in params.items()}
    last = f"layer{config.layers - 1}.k_b"
    assert grads[last] is None and all(g is not None for n, g in grads.items() if n != last)
    grads[last] = np.zeros_like(params[last].data)
    return grads


@pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
def test_packed_cls_rows_match_each_sequence_alone(dtype, tol):
    # one packed pass against each sequence alone, padded to max_positions:
    # the [CLS] rows and every parameter's gradient
    cfg = EncoderConfig(**vars(SLIDING))
    cfg.window = 4
    rng = np.random.default_rng(1)
    seqs = [np.array([CLS_ID, *rng.integers(3, cfg.vocab_size, n - 1)]) for n in PACKED_LENGTHS]
    r = rng.standard_normal((len(seqs), cfg.dim)).astype(dtype)

    def run(packed):
        params = {n: T.parameter(p.data.astype(dtype)) for n, p in init_params(cfg, 4).items()}
        if packed:
            cls = encode_packed(seqs, params, cfg)
            loss = T.sum_(O.mul(cls, r))
        else:
            rows = [encode_chunk(*pad_to_length(s[1:], cfg.max_positions), params, cfg)
                    for s in seqs]
            cls = np.concatenate([row.data for row in rows])
            loss = T.sum_(O.mul(rows[0], r[:1]))
            for i, row in enumerate(rows[1:], 1):
                loss = T.add(loss, T.sum_(O.mul(row, r[i:i + 1])))
        T.backward(loss)
        return getattr(cls, "data", cls), _cls_only_grads(params, cfg)

    packed, packed_g = run(True)
    alone, alone_g = run(False)
    assert packed.dtype == dtype
    np.testing.assert_allclose(packed, alone, rtol=tol, atol=tol)
    for name in alone_g:
        np.testing.assert_allclose(packed_g[name], alone_g[name], rtol=tol, atol=tol,
                                   err_msg=name)


def test_sliding_attention_segments_match_block_diagonal_dense():
    # float64: the fused op with segments against dense attention under the
    # block-diagonal band+[CLS] mask, outputs and gradients; and the fused
    # op's gradient against central differences
    l, heads, w = sum(PACKED_LENGTHS), 2, 4
    seg_start = _segment_start(PACKED_LENGTHS)
    rng = np.random.default_rng(1)
    data = {n: rng.standard_normal((2, l, 6)) for n in ("q", "k", "v")}
    mask = np.ones((2, l), dtype=bool)
    mask[1, [4, 9, 20]] = False  # masked keys in the band
    r = rng.standard_normal((2, l, 6))

    def run(attend):
        t = {n: T.parameter(x.copy()) for n, x in data.items()}
        ctx = attend(t["q"], t["k"], t["v"], mask, heads, w, seg_start=seg_start)
        T.backward(T.sum_(O.mul(ctx, r)))
        return ctx.data, {n: x.grad for n, x in t.items()}

    fused, fused_g = run(T.sliding_attention)
    dense, dense_g = run(_dense_sliding_attention)
    np.testing.assert_allclose(fused, dense, rtol=1e-12, atol=1e-12)
    for name in dense_g:
        np.testing.assert_allclose(fused_g[name], dense_g[name], rtol=1e-12, atol=1e-12,
                                   err_msg=name)

    def fn(p):
        ctx = T.sliding_attention(p["q"], p["k"], p["v"], mask, heads, w, seg_start=seg_start)
        return T.sum_(O.mul(ctx, r))

    params = {n: T.parameter(x) for n, x in data.items()}
    assert O.grad_check(fn, params, num_samples=40) < 1e-7


def test_segment_positions_restart_and_bound():
    cfg = EncoderConfig(**vars(SLIDING))
    params = init_params(cfg, 0)
    seqs = [np.full(n, CLS_ID) for n in (cfg.max_positions, 5)]  # each fits alone
    assert encode_packed(seqs, params, cfg).shape == (2, cfg.dim)
    with pytest.raises(ValueError, match="max positions"):
        encode_packed([np.full(cfg.max_positions + 1, CLS_ID)], params, cfg)
    ids = np.full((1, 6), CLS_ID)
    with pytest.raises(ValueError, match="seg_start"):
        encoder_forward(ids, np.ones((1, 6), bool), params, cfg, seg_start=[0, 0, 2, 0, 4, 4])
    with pytest.raises(ValueError, match="sliding"):
        encoder_forward(ids, np.ones((1, 6), bool), init_params(DENSE, 0), DENSE,
                        seg_start=[0, 0, 0, 3, 3, 3])


def _tape_nodes(out):
    """Recorded nodes (nodes with a backward) that `out` depends on."""
    seen, stack = set(), [out.node]
    while stack:
        n = stack.pop()
        if id(n) not in seen and n._backward is not None:
            seen.add(id(n))
            stack.extend(n._parents)
    return len(seen)


def _closure_tensors(out):
    """(Tensors held by the backward closures of the tape under `out`, in a
    closure cell or in a tuple in one; the number of nodes walked)."""
    held, seen, stack = 0, set(), [out.node]
    while stack:
        n = stack.pop()
        if id(n) in seen:
            continue
        seen.add(id(n))
        for cell in getattr(n._backward, "__closure__", None) or ():
            v = cell.cell_contents
            held += sum(isinstance(x, T.Tensor) for x in (v if isinstance(v, tuple) else (v,)))
        stack.extend(n._parents)
    return held, len(seen)


@pytest.mark.parametrize("attention", ["dense", "sliding"])
def test_train_forward_frees_the_values_no_backward_reads(monkeypatch, attention):
    # each residual sum is read by the next layer norm's forward and by no
    # closure, so it dies as the forward drops it; the output's graph still
    # reaches every parameter
    cfg = EncoderConfig(**{**vars(DENSE), "attention": attention, "window": 2})
    refs, original = [], T.add

    def spy(a, b):
        out = original(a, b)
        refs.append(weakref.ref(out.data))
        return out

    monkeypatch.setattr(T, "add", spy)
    params = init_params(cfg, 0)
    ids, mask = _batch(np.random.default_rng(0), 2, 12, cfg)
    h = encoder_forward(ids, mask, params, cfg, train=True, rng=np.random.default_rng(1))
    assert len(refs) == 1 + 2 * cfg.layers and all(ref() is None for ref in refs)
    T.backward(T.sum_(h))
    assert all(p.grad is not None for p in params.values())


@pytest.mark.parametrize("cls_only", [False, True])
@pytest.mark.parametrize("attention", ["dense", "sliding"])
def test_untracked_forward_frees_each_attention_branch(monkeypatch, attention, cls_only):
    # an untracked pass holds the residual stream and one branch's arrays:
    # by the time a block's second layer norm runs, the block's LN1 output,
    # q, k, v, attention output and output projection are dead
    cfg = EncoderConfig(**{**vars(DENSE), "attention": attention, "window": 2})
    branch, checked = [], []

    def spy(fn):
        def recorded(*args, **kwargs):
            out = fn(*args, **kwargs)
            branch.append(weakref.ref(_owner(out.data)))
            return out
        return recorded

    for name in ("linear", "attention", "sliding_attention", "cls_attention"):
        monkeypatch.setattr(T, name, spy(getattr(T, name)))
    layer_norm = spy(T.layer_norm)

    def norm_spy(a, gamma, beta):
        if gamma.name.endswith("ln1_g"):
            branch.clear()
        elif gamma.name.endswith("ln2_g"):
            checked.append(len(branch))
            alive = [i for i, ref in enumerate(branch) if ref() is not None]
            assert not alive, (gamma.name, alive)
        return layer_norm(a, gamma, beta)

    monkeypatch.setattr(T, "layer_norm", norm_spy)
    params = {k: T.Tensor(p.data, name=k) for k, p in init_params(cfg, 0).items()}
    ids, mask = _batch(np.random.default_rng(0), 3, 12, cfg)
    mask[1, 8:] = False
    h = encoder_forward(ids, mask, params, cfg, cls_only=cls_only)
    assert h.node is None
    # LN1, q, k, v, attention and o per block; the [CLS]-only block has no k or v
    assert checked == [6] * (cfg.layers - 1) + [4 if cls_only else 6]


@pytest.mark.parametrize("attention", ["dense", "sliding"])
@pytest.mark.parametrize("layers", [1, 3])
@pytest.mark.parametrize("train", [True, False])
def test_tape_nodes_per_encoder_pass(attention, layers, train):
    # embedding, position slice, add, [dropout] and the final
    # layer norm; per block: two layer norms, six linears, attention, relu,
    # two residual adds and [two dropouts]. No node only moves heads around.
    # cls_only adds the last block's two row-0 slices, of its LN1 output
    # (the query) and of the residual stream, and drops its k and v
    # linears, which `tensor.cls_attention` absorbs: the same count.
    cfg = EncoderConfig(vocab_size=20, dim=16, layers=layers, heads=4, ff=32,
                        max_positions=12, dropout=0.1, attention=attention, window=2)
    ids, mask = _batch(np.random.default_rng(0), 2, 12, cfg)
    for cls_only in (False, True):
        h = encoder_forward(ids, mask, init_params(cfg, 0), cfg, train=train,
                            rng=np.random.default_rng(1), cls_only=cls_only)
        assert h.shape == (2, 1 if cls_only else 12, cfg.dim)
        assert _tape_nodes(h) == (5 + 14 * layers if train else 4 + 12 * layers)


@pytest.mark.parametrize("attention", ["dense", "sliding"])
@pytest.mark.parametrize("layers", [1, 3])
def test_cls_only_matches_full_pass_row0(attention, layers):
    # float64 oracle: the [CLS]-only last block gives row 0 of the full pass
    # and the same gradient for every parameter. layer{-1}.k_b's true
    # gradient is 0 (softmax ignores a shift shared by all keys): the
    # [CLS]-only block does not read it and leaves its .grad None, which
    # `_cls_only_grads` reads as 0. So the gradients are compared against
    # the largest one, not entry by entry.
    cfg = EncoderConfig(vocab_size=20, dim=16, layers=layers, heads=4, ff=32,
                        max_positions=24, dropout=0.0, attention=attention, window=2)
    rng = np.random.default_rng(layers + 1)
    ids, mask = _batch(rng, 3, 24, cfg)
    mask[1, 15:] = False
    ids[1, 15:] = PAD_ID
    r = rng.standard_normal((3, cfg.dim))

    def run(cls_only):
        params = {n: T.parameter(p.data.astype(np.float64)) for n, p in init_params(cfg, 4).items()}
        cls = encoder_forward(ids, mask, params, cfg, cls_only=cls_only)[:, 0, :]
        T.backward(T.sum_(O.mul(cls, r)))
        return cls.data, (_cls_only_grads(params, cfg) if cls_only
                          else {n: p.grad for n, p in params.items()})

    full, full_g = run(False)
    cls, cls_g = run(True)
    np.testing.assert_allclose(cls, full, rtol=0, atol=1e-12)
    scale = max(np.abs(g).max() for g in full_g.values())
    assert scale > 0
    for name, g in full_g.items():
        np.testing.assert_allclose(cls_g[name] / scale, g / scale, rtol=0, atol=1e-12,
                                   err_msg=name)


@pytest.mark.parametrize("attention", ["dense", "sliding"])
@pytest.mark.parametrize("global_tokens", [(0, 1, 2), (1,)])
def test_global_tokens_other_than_cls_rejected(attention, global_tokens):
    # [CLS] at position 0 is the one global token either path has
    cfg = EncoderConfig(vocab_size=20, attention=attention, global_tokens=global_tokens)
    with pytest.raises(ValueError, match=r"encoder\.global_tokens"):
        cfg.validate()


def test_cls_only_with_capture_rejected():
    ids, mask = _batch(np.random.default_rng(0), 1, 12, SLIDING)
    with pytest.raises(ValueError, match="cls_only"):
        encoder_forward(ids, mask, init_params(SLIDING, 0), SLIDING, capture=[],
                        cls_only=True)


def test_pad_to_length():
    ids, mask = pad_to_length([5, 6, 7], 6)
    assert ids.tolist() == [CLS_ID, 5, 6, 7, PAD_ID, PAD_ID]
    assert mask.tolist() == [True, True, True, True, False, False]
    ids, mask = pad_to_length(list(range(3, 13)), 6)
    assert ids.tolist() == [CLS_ID, 3, 4, 5, 6, 7]
