import math

import numpy as np
import pytest

from cpe import tensor as T
from cpe.corpus import CLS_ID, Document, chunk
from cpe.encoder import EncoderConfig, encode_chunk, init_params
from cpe.optim import AdamWConfig, AdamWState, adamw_step
from cpe.training import (PretrainConfig, embed_chunked_batch, embed_documents,
                          esimcse_augment, forward_cpe_hier, forward_cpe_long, forward_simcse,
                          mnr_loss, pretrain, sample_pair_hier, sample_pair_long)
from test_encoder import _tape_nodes

CFG = EncoderConfig(vocab_size=30, dim=16, layers=1, heads=2, ff=32,
                    max_positions=9, dropout=0.1)


def _doc(n, seed=0, doc_id="d"):
    rng = np.random.default_rng(seed)
    return Document(id=doc_id, tokens=tuple(rng.integers(3, 30, size=n).tolist()))


def naive_mnr(anchors, cands, tau):
    """Independent term-by-term evaluation of the in-batch ranking loss."""
    n = len(anchors)
    def cos(a, b):
        return float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))
    total = 0.0
    for i in range(n):
        num = math.exp(cos(anchors[i], cands[i]) / tau)
        den = sum(math.exp(cos(anchors[i], cands[j]) / tau) for j in range(n))
        total += math.log(num / den)
    return -total / n


class TestMnrLoss:
    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_uniform_similarities_give_ln_n(self, n):
        same = np.ones((n, 6), dtype=np.float32)
        loss, _ = mnr_loss(T.constant(same), T.constant(same), tau=0.05)
        assert abs(loss.item() - math.log(n)) < 1e-6

    def test_saturated_separation_near_zero(self):
        # cos(a_i, c_i) = 1 and cos(a_i, c_j) = -1 for i != j
        anchors = np.array([[1, 0], [-1, 0]], dtype=np.float32)
        cands = anchors.copy()
        loss, _ = mnr_loss(T.constant(anchors), T.constant(cands), tau=0.05)
        assert 0.0 <= loss.item() < 1e-10
        # orthogonal negatives still saturate at tau=0.05
        eye = np.eye(4, dtype=np.float32)
        loss2, _ = mnr_loss(T.constant(eye), T.constant(eye), tau=0.05)
        assert loss2.item() < 1e-8

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_naive_oracle(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((4, 8)).astype(np.float32)
        c = rng.standard_normal((4, 8)).astype(np.float32)
        loss, _ = mnr_loss(T.constant(a), T.constant(c), tau=0.05)
        assert abs(loss.item() - naive_mnr(a, c, 0.05)) < 1e-6

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.standard_normal((3, 5)).astype(np.float32)
            c = rng.standard_normal((3, 5)).astype(np.float32)
            loss, _ = mnr_loss(T.constant(a), T.constant(c))
            assert loss.item() >= 0.0

    def test_batch_of_one_rejected(self):
        with pytest.raises(ValueError, match="N >= 2"):
            mnr_loss(T.constant(np.ones((1, 4))), T.constant(np.ones((1, 4))))

    def test_zero_norm_vector_rejected(self):
        a = np.ones((2, 4), dtype=np.float32)
        a[0] = 0.0
        with pytest.raises(ValueError, match="zero-norm"):
            mnr_loss(T.constant(a), T.constant(np.ones((2, 4), np.float32)))


class TestPairSamplingHier:
    def test_definition(self):
        cd = chunk(_doc(32), chunk_len=8, n_chunks=4, max_tokens=32)
        rng = np.random.default_rng(0)
        pair = sample_pair_hier(cd, rng)
        h = pair.held_out_index
        assert not pair.anchor.chunk_mask[h]
        assert pair.anchor.chunk_mask.sum() == 3
        np.testing.assert_array_equal(pair.positive_ids, cd.chunks[h])
        # source document unchanged
        assert cd.chunk_mask.sum() == 4

    def test_single_chunk_doc_skipped(self):
        cd = chunk(_doc(5), chunk_len=8, n_chunks=4, max_tokens=32)
        assert sample_pair_hier(cd, np.random.default_rng(0)) is None

    def test_held_out_index_uniform(self):
        cd = chunk(_doc(32), chunk_len=8, n_chunks=4, max_tokens=32)
        rng = np.random.default_rng(42)
        counts = np.zeros(4)
        trials = 10_000
        for _ in range(trials):
            counts[sample_pair_hier(cd, rng).held_out_index] += 1
        sigma = math.sqrt(trials * 0.25 * 0.75)
        assert np.all(np.abs(counts - trials / 4) < 3.5 * sigma)


class TestPairSamplingLong:
    def test_definition_offset_zero(self):
        doc = _doc(256)
        class FixedRng:
            def integers(self, lo, hi=None):
                return 0
        pair = sample_pair_long(doc, chunk_len=128, budget=200, rng=FixedRng())
        assert pair.positive_ids[0] == CLS_ID
        np.testing.assert_array_equal(pair.positive_ids[1:129], doc.tokens[:128])
        np.testing.assert_array_equal(pair.anchor[0][1:129], doc.tokens[128:256])

    def test_short_doc_skipped(self):
        assert sample_pair_long(_doc(100), 128, 200, np.random.default_rng(0)) is None

    def test_offset_range(self):
        doc = _doc(200)
        rng = np.random.default_rng(1)
        offsets = {sample_pair_long(doc, 128, 300, rng).held_out_index for _ in range(500)}
        assert min(offsets) >= 0 and max(offsets) <= 72

    @pytest.mark.parametrize("seed", range(10))
    def test_span_removal_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(64, 200))
        doc = _doc(n, seed=seed)
        pair = sample_pair_long(doc, chunk_len=16, budget=n + 1, rng=rng)
        off = pair.held_out_index
        pos = pair.positive_ids[1:17].tolist()
        ref = pair.anchor[0][pair.anchor[1]][1:].tolist()  # unmasked, minus CLS
        rebuilt = ref[:off] + pos + ref[off:]
        assert rebuilt == list(doc.tokens)


class TestAugmentations:
    def test_esimcse_identity_at_zero(self):
        toks = list(range(3, 20))
        assert esimcse_augment(toks, 0.0, np.random.default_rng(0)) == toks

    def test_esimcse_doubles_at_one(self):
        toks = [3, 4, 5]
        out = esimcse_augment(toks, 1.0, np.random.default_rng(0))
        assert out == [3, 3, 4, 4, 5, 5]

    def test_esimcse_expected_inflation(self):
        rng = np.random.default_rng(5)
        toks = list(range(3, 23))
        lengths = [len(esimcse_augment(toks, 0.15, rng)) for _ in range(1000)]
        assert abs(np.mean(lengths) / len(toks) - 1.15) < 0.01

    def test_simcse_zero_dropout_identical_embeddings(self):
        cfg = EncoderConfig(**vars(CFG))
        cfg.dropout = 0.0
        params = init_params(cfg, 0)
        chunked = [chunk(_doc(20, seed=i, doc_id=str(i)), 8, 3, 24) for i in range(3)]
        a, b = forward_simcse(chunked, params, cfg, rng=np.random.default_rng(0))
        np.testing.assert_allclose(a.data, b.data, atol=1e-7)

    def test_simcse_dropout_passes_differ(self):
        params = init_params(CFG, 0)
        chunked = [chunk(_doc(20, seed=i, doc_id=str(i)), 8, 3, 24) for i in range(3)]
        a, b = forward_simcse(chunked, params, CFG, rng=np.random.default_rng(0))
        assert np.linalg.norm(a.data - b.data) > 0


class TestForwards:
    def _pairs(self, n=4):
        rng = np.random.default_rng(0)
        pairs = []
        for i in range(n):
            cd = chunk(_doc(32, seed=i, doc_id=str(i)), 8, 4, 32)
            pairs.append(sample_pair_hier(cd, rng))
        return pairs

    def test_hier_weight_sharing(self):
        # anchor and candidate encodings move together: one parameter set
        params = init_params(CFG, 0)
        pairs = self._pairs()
        a1, c1 = forward_cpe_hier(pairs, params, CFG)
        params["tok_emb"].data = params["tok_emb"].data + 0.05
        a2, c2 = forward_cpe_hier(pairs, params, CFG)
        assert np.abs(a1.data - a2.data).max() > 0
        assert np.abs(c1.data - c2.data).max() > 0

    def test_hier_smoke(self):
        params = init_params(CFG, 0)
        a, c = forward_cpe_hier(self._pairs(), params, CFG)
        assert a.shape == (4, CFG.dim) and c.shape == (4, CFG.dim)
        loss, _ = mnr_loss(a, c)
        assert math.isfinite(loss.item())

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_hier_one_pass_equals_two_calls(self, dtype):
        # eval mode: anchors pooled from the chunk pass, candidates encoded
        # in a pass of their own, as before the two were stacked
        params = {k: T.parameter(p.data.astype(dtype)) for k, p in init_params(CFG, 2).items()}
        pairs = self._pairs(5)
        a, c = forward_cpe_hier(pairs, params, CFG)
        want_a = embed_chunked_batch([p.anchor for p in pairs], params, CFG)
        want_c = encode_chunk(np.stack([p.positive_ids for p in pairs]),
                              np.stack([p.positive_mask for p in pairs]), params, CFG)
        np.testing.assert_allclose(a.data, want_a.data, rtol=0, atol=1e-6)
        np.testing.assert_allclose(c.data, want_c.data, rtol=0, atol=1e-6)
        # and each anchor is the max over its own real chunks, one document at a time
        for i, p in enumerate(pairs):
            cd = p.anchor
            own = encode_chunk(cd.chunks[cd.chunk_mask], cd.token_mask[cd.chunk_mask], params, CFG)
            np.testing.assert_allclose(a.data[i], own.data.max(axis=0), rtol=0, atol=1e-6)

    def test_hier_grad_check(self):
        params = init_params(CFG, 1)
        pairs = self._pairs(3)

        def fn(p):
            a, c = forward_cpe_hier(pairs, p, CFG)
            loss, _ = mnr_loss(a, c, tau=0.05)
            return loss

        assert T.grad_check(fn, params, num_samples=2,
                            rng=np.random.default_rng(0)) < 1e-4

    @pytest.mark.parametrize("layers", [1, 2])
    def test_tape_nodes_per_hier_step(self, layers):
        # one train-mode [CLS]-only encoder pass (its two row-0 slices
        # included), then the [CLS] slice, the anchor and candidate slices,
        # one pooling node and the loss: no node only moves rows around
        cfg = EncoderConfig(**{**vars(CFG), "layers": layers})
        a, c = forward_cpe_hier(self._pairs(), init_params(cfg, 0), cfg, train=True,
                                rng=np.random.default_rng(0))
        loss, _ = mnr_loss(a, c)
        assert _tape_nodes(loss) == 6 + 14 * layers + 2 + 5

    def test_long_smoke_and_grad(self):
        cfg = EncoderConfig(vocab_size=30, dim=8, layers=1, heads=2, ff=16,
                            max_positions=40, dropout=0.0,
                            attention="sliding", window=3)
        params = init_params(cfg, 0)
        rng = np.random.default_rng(0)
        pairs = [sample_pair_long(_doc(60, seed=i, doc_id=str(i)), 16, 40, rng)
                 for i in range(3)]
        a, c = forward_cpe_long(pairs, params, cfg)
        loss, _ = mnr_loss(a, c)
        assert math.isfinite(loss.item())

        def fn(p):
            aa, cc = forward_cpe_long(pairs, p, cfg)
            l, _ = mnr_loss(aa, cc, tau=0.05)
            return l

        assert T.grad_check(fn, params, num_samples=1,
                            rng=np.random.default_rng(1)) < 1e-4

    def test_in_batch_negative_exclusivity(self):
        # gradients only flow from the batch's own anchors/candidates:
        # an unrelated tracked tensor stays untouched
        params = init_params(CFG, 0)
        bystander = T.parameter(np.ones(3), name="bystander")
        a, c = forward_cpe_hier(self._pairs(), params, CFG)
        loss, _ = mnr_loss(a, c)
        T.backward(loss)
        assert bystander.grad is None
        assert params["tok_emb"].grad is not None


class TestClsOnlyForwards:
    """Every forward the CLI reaches runs the last block on [CLS] alone: with
    two layers, each encoder pass is one attention call over every row and
    then one whose query is the single [CLS] row."""

    LONG = EncoderConfig(vocab_size=30, dim=8, layers=2, heads=2, ff=16,
                         max_positions=40, dropout=0.1, attention="sliding", window=3)

    def _query_rows(self, monkeypatch):
        rows = []

        def record(op):
            def wrapped(q, *args, **kwargs):
                rows.append(q.shape[1])
                return op(q, *args, **kwargs)
            return wrapped

        for name in ("attention", "sliding_attention"):
            monkeypatch.setattr(T, name, record(getattr(T, name)))
        return rows

    def _assert_cls_only(self, rows, passes):
        assert len(rows) == 2 * passes and all(n > 1 for n in rows[::2]), rows
        assert rows[1::2] == [1] * passes, rows

    def _docs(self, n=4):
        return [_doc(32, seed=i, doc_id=str(i)) for i in range(n)]

    def test_forward_cpe_hier(self, monkeypatch):
        cfg = EncoderConfig(**{**vars(CFG), "layers": 2})
        rows = self._query_rows(monkeypatch)
        forward_cpe_hier(TestForwards()._pairs(), init_params(cfg, 0), cfg, train=True,
                         rng=np.random.default_rng(0))
        self._assert_cls_only(rows, 1)

    def test_forward_cpe_long(self, monkeypatch):
        rng = np.random.default_rng(0)
        pairs = [sample_pair_long(_doc(60, seed=i, doc_id=str(i)), 16, 40, rng)
                 for i in range(3)]
        rows = self._query_rows(monkeypatch)
        forward_cpe_long(pairs, init_params(self.LONG, 0), self.LONG, train=True, rng=rng)
        self._assert_cls_only(rows, 2)

    def test_embed_chunked_batch(self, monkeypatch):
        cfg = EncoderConfig(**{**vars(CFG), "layers": 2})
        rows = self._query_rows(monkeypatch)
        embed_chunked_batch([chunk(d, 8, 4, 32) for d in self._docs()],
                            init_params(cfg, 0), cfg)
        self._assert_cls_only(rows, 1)

    @pytest.mark.parametrize("sliding", [False, True])
    def test_embed_documents(self, monkeypatch, sliding):
        cfg = self.LONG if sliding else EncoderConfig(**{**vars(CFG), "layers": 2})
        rows = self._query_rows(monkeypatch)
        embs = embed_documents(self._docs(5), init_params(cfg, 0), cfg, chunk_len=8,
                               n_chunks=4, max_tokens=32, batch_size=2)
        assert embs.shape == (5, cfg.dim)
        self._assert_cls_only(rows, 3)


def _tiny_corpus(n=24, length=40):
    return [Document(id=str(i),
                     tokens=tuple(np.random.default_rng(i).integers(3, 30, size=length).tolist()))
            for i in range(n)]


class TestPretrain:
    def _cfg(self, **kw):
        base = dict(objective="cpe-hier", epochs=1, batch_size=4, chunk_len=8,
                    n_chunks=5, max_tokens=40, seed=3, lr=1e-3)
        base.update(kw)
        return PretrainConfig(**base)

    def test_first_step_loss_near_ln_batch(self):
        res = pretrain(_tiny_corpus(), CFG, self._cfg())
        first = float(res.log_lines[0].split("\t")[3])
        assert abs(first - math.log(4)) < 0.3

    def test_loss_decreases_across_epochs(self):
        res = pretrain(_tiny_corpus(48), CFG, self._cfg(epochs=3))
        per_epoch = {}
        for line in res.log_lines:
            _, epoch, _, loss = line.split("\t")
            per_epoch.setdefault(int(epoch), []).append(float(loss))
        assert np.mean(per_epoch[3]) < np.mean(per_epoch[1])

    def test_identical_seeds_identical_params(self):
        corpus = _tiny_corpus()
        r1 = pretrain(corpus, CFG, self._cfg())
        r2 = pretrain(corpus, CFG, self._cfg())
        for k in r1.params:
            assert np.array_equal(r1.params[k].data, r2.params[k].data), k

    def test_returned_params_hold_no_gradients(self):
        # a kept PretrainResult holds the model, not the last step's gradients
        res = pretrain(_tiny_corpus(), CFG, self._cfg())
        assert res.steps > 0 and all(p.grad is None for p in res.params.values())

    def test_all_docs_skipped_errors(self):
        shorts = [Document(id=str(i), tokens=(5, 6)) for i in range(8)]
        with pytest.raises(ValueError, match="skipped"):
            pretrain(shorts, CFG, self._cfg())

    def test_skip_counting(self):
        corpus = _tiny_corpus(12) + [Document(id="tiny", tokens=(5, 6, 7))]
        res = pretrain(corpus, CFG, self._cfg())
        assert res.skipped_docs == 1

    def test_log_line_format(self):
        res = pretrain(_tiny_corpus(), CFG, self._cfg())
        step, epoch, objective, loss = res.log_lines[0].split("\t")
        assert step == "1" and epoch == "1" and objective == "cpe-hier"
        float(loss)

    def test_objective_validation(self):
        with pytest.raises(ValueError, match="objective"):
            pretrain(_tiny_corpus(), CFG, self._cfg(objective="nope"))

    def test_cpe_long_needs_sliding_encoder(self):
        with pytest.raises(ValueError, match="sliding"):
            pretrain(_tiny_corpus(), CFG, self._cfg(objective="cpe-long"))

    @pytest.mark.parametrize("objective", ["simcse", "esimcse"])
    def test_baseline_objectives_run(self, objective):
        res = pretrain(_tiny_corpus(16), CFG, self._cfg(objective=objective))
        assert res.steps > 0
        assert all(line.split("\t")[2] == objective for line in res.log_lines)


def test_overfit_one_batch():
    # capacity sanity: a fixed 4-doc batch is driven below 0.05 in 500 steps
    cfg = EncoderConfig(vocab_size=30, dim=16, layers=1, heads=2, ff=32,
                        max_positions=9, dropout=0.0)
    params = init_params(cfg, 0)
    rng = np.random.default_rng(0)
    pairs = []
    for i in range(4):
        cd = chunk(_doc(32, seed=i, doc_id=str(i)), 8, 4, 32)
        pairs.append(sample_pair_hier(cd, rng))
    state = AdamWState()
    hyper = AdamWConfig(lr=1e-3, weight_decay=0.0)
    loss_val = None
    for step in range(500):
        a, c = forward_cpe_hier(pairs, params, cfg)
        loss, _ = mnr_loss(a, c, tau=0.05)
        loss_val = loss.item()
        if loss_val < 0.05:
            break
        T.zero_gradients(params)
        T.backward(loss)
        adamw_step(params, T.collect_gradients(params), state, hyper)
    assert loss_val < 0.05
