"""`long-1024` and `hier-1024`: one encoder size, one corpus, two paths.

Both workloads run in this process on the same documents and seeds.
`long-1024` trains `cpe-long` (sliding attention, window 16, CLS as the
only global token) over 1025 positions; `hier-1024` trains `cpe-hier` over
8 chunks of 128 tokens, the same 1024-token budget. A round pretrains on
the training documents and then embeds documents it did not train on;
rounds repeat until the run's time is up.

Document lengths are fixed: `LENGTHS` runs from 256 tokens to past the
budget, with the same number of documents of each length, so the seed
picks the words but not the amount of work. The first round is a warm-up
that the metrics leave out: it pays for the process's first touch of the
memory every later round reuses.

The program's functions are imported inside the functions that call them,
at call time, so a traced run calls the wrappers `tracing.Tracer` installs.
"""

from __future__ import annotations

import dataclasses
import math
import os
import statistics
import time

import numpy as np

import layers
import reference
from tracing import Tracer
from util import Checks, metric, peak_rss_mb

CHUNK_LEN, N_CHUNKS, MAX_TOKENS = 128, 8, 1024
WINDOW = 16
LENGTHS = [256 + 163 * i for i in range(8)]  # 256 .. 1397 tokens
TRAIN_PER_LENGTH, EMBED_PER_LENGTH = 1, 2
BATCH, EMBED_BATCH = 4, 8
SETUP_REPS = 16
LR = 2e-4   # from-scratch toy scale, as in the acceptance protocol
CORPUS = dict(num_docs=TRAIN_PER_LENGTH + EMBED_PER_LENGTH, num_topics=4, task="multiclass")
ENCODER = dict(dim=64, layers=2, heads=4, ff=128, dropout=0.1)

# float32 program against the float64 reference, on layer-normed outputs of order 1
FORWARD_TOL = 1e-4
LOSS_TOL = 1e-4          # relative, float32 loss against the float64 one
GRAD_TOL = 1e-4          # relative, float64 analytic against central differences
BATCH_INVARIANCE_TOL = 1e-5
GRAD_PARAMS = ("tok_emb", "pos_emb", "layer0.k_w")
GRAD_COORDS = 2
# ReLU and max pooling put kinks in the loss. The largest gradients sit on the
# CLS embedding, which feeds every ReLU of every chunk, so kinks can lie within
# 1e-6 of the point and spoil one step size: a coordinate passes when any of
# these steps agrees. A wrong gradient disagrees at every step.
GRAD_EPS = (1e-5, 1e-6, 1e-7, 1e-8)


def setup(seed):
    """Corpus generation, tokenization and chunking: the work before training."""
    from cpe import corpus as C

    by_length = []
    for i, length in enumerate(LENGTHS):
        spec = C.SyntheticSpec(doc_len_min=length, doc_len_max=length, **CORPUS)
        by_length.append([dict(r, id=f"len{length}-{r['id']}")
                          for r in C.gen_synthetic(spec, seed * len(LENGTHS) + i)])
    # training documents first, then held-out ones; every batch holds every length
    records = [rs[k] for k in range(CORPUS["num_docs"]) for rs in by_length]
    vocab = C.build_vocab(r["text"] for r in records)
    docs = C.encode_documents(records, vocab, task=CORPUS["task"])
    chunked = [C.chunk(d, CHUNK_LEN, N_CHUNKS, MAX_TOKENS) for d in docs]
    return vocab, docs, chunked


def configs(objective, vocab_size, seed):
    from cpe.encoder import EncoderConfig
    from cpe.training import PretrainConfig

    if objective == "cpe-long":
        ecfg = EncoderConfig(vocab_size=vocab_size, max_positions=MAX_TOKENS + 1,
                             attention="sliding", window=WINDOW, global_tokens=(0,), **ENCODER)
    else:
        ecfg = EncoderConfig(vocab_size=vocab_size, max_positions=CHUNK_LEN + 1, **ENCODER)
    pcfg = PretrainConfig(objective=objective, epochs=1, batch_size=BATCH, lr=LR,
                          chunk_len=CHUNK_LEN, n_chunks=N_CHUNKS, max_tokens=MAX_TOKENS,
                          pooling="max", seed=seed)
    return ecfg, pcfg


def embed(docs, params, ecfg):
    from cpe.training import embed_documents

    return embed_documents(docs, params, ecfg, pooling="max", chunk_len=CHUNK_LEN,
                           n_chunks=N_CHUNKS, max_tokens=MAX_TOKENS, batch_size=EMBED_BATCH)


def run_round(train, held, ecfg, pcfg):
    from cpe.training import pretrain

    t0 = time.perf_counter()
    result = pretrain(train, ecfg, pcfg)
    t1 = time.perf_counter()
    embs = embed(held, result.params, ecfg)
    t2 = time.perf_counter()
    return {"pretrain_s": t1 - t0, "steps": result.steps, "embed_s": t2 - t1,
            "params": result.params, "embs": embs}


def timed_setup(seed, setup_s):
    t0 = time.perf_counter()
    out = setup(seed)
    setup_s.append(time.perf_counter() - t0)
    return out


def run_rounds(train, held, ecfg, pcfg, seconds, seed=None, setup_s=None):
    """Rounds until they have taken `seconds`. With `setup_s`, the set-up is
    also timed between rounds until it has been timed SETUP_REPS times, as
    many times after each round as are due by then, so the set-ups are
    spread over the run: the speed of a shared machine drifts over seconds,
    and set-ups timed back to back would all see the same moment."""
    rounds, busy = [], 0.0
    while not rounds or busy < seconds:
        rounds.append(run_round(train, held, ecfg, pcfg))
        busy += rounds[-1]["pretrain_s"] + rounds[-1]["embed_s"]
        due = 0 if setup_s is None else min(SETUP_REPS, math.ceil(SETUP_REPS * busy / seconds))
        while setup_s is not None and len(setup_s) < due:
            timed_setup(seed, setup_s)
    return rounds


# ---------------------------------------------------------------------------
# correctness

def _grad_step_pairs(objective, train, pcfg):
    """Pairs of the pretrain step whose batch holds the longest training
    document, which runs past the budget. The batch is pretrain's own, from
    its permutation of the training set (every training document is
    eligible); the pairs come from its sampler and its rng after that
    permutation, which for the first step are the very pairs it trained on."""
    from cpe.corpus import chunk
    from cpe.training import sample_pair_hier, sample_pair_long

    rng = np.random.default_rng(pcfg.seed)
    order = rng.permutation(len(train)).tolist()
    longest = max(range(len(train)), key=lambda i: len(train[i].tokens))
    lo = order.index(longest) // BATCH * BATCH
    batch = [train[i] for i in order[lo:lo + BATCH]]
    if objective == "cpe-long":
        return [sample_pair_long(d, CHUNK_LEN, MAX_TOKENS + 1, rng) for d in batch]
    return [sample_pair_hier(chunk(d, CHUNK_LEN, N_CHUNKS, MAX_TOKENS), rng) for d in batch]


def _step_embeddings(objective, pairs, params, ecfg):
    """(anchors, candidates) of one step's forward, dropout off."""
    from cpe.training import forward_cpe_hier, forward_cpe_long

    if objective == "cpe-long":
        return forward_cpe_long(pairs, params, ecfg, train=False)
    return forward_cpe_hier(pairs, params, ecfg, pooling="max", train=False)


def _padded(tokens):
    from cpe.corpus import CLS_ID, PAD_ID

    toks = [CLS_ID, *tokens][:MAX_TOKENS + 1]
    ids = np.full(MAX_TOKENS + 1, PAD_ID, dtype=np.int64)
    ids[:len(toks)] = toks
    return ids, np.arange(MAX_TOKENS + 1) < len(toks)


def check_outputs(objective, rounds, train, held, chunked_held, ecfg, pcfg, checks):
    from cpe import tensor as T
    from cpe.encoder import encoder_forward
    from cpe.training import mnr_loss

    params = rounds[-1]["params"]
    embs = np.concatenate([r["embs"] for r in rounds])
    norms = np.linalg.norm(embs, axis=1)
    checks.expect("embeddings finite and non-zero",
                  bool(np.isfinite(embs).all() and (norms > 0).all()),
                  f"{len(embs)} rows, min norm {norms.min():.3g}")

    alone = np.concatenate([embed([d], params, ecfg) for d in held[:3]])
    diff = float(np.abs(alone - rounds[-1]["embs"][:3]).max())
    checks.expect("embedding alone equals embedding in batch", diff <= BATCH_INVARIANCE_TOL,
                  f"max |diff| {diff:.3g} (tol {BATCH_INVARIANCE_TOL})")

    # the shortest held-out document (mostly padding) and the longest (truncated)
    shortest, longest = 0, len(LENGTHS) - 1
    if objective == "cpe-long":
        ids, mask = map(np.stack, zip(*(_padded(held[i].tokens) for i in (shortest, longest))))
        window = WINDOW
    else:
        cds = [chunked_held[i] for i in (shortest, longest)]
        ids = np.concatenate([cd.chunks[cd.chunk_mask] for cd in cds])
        mask = np.concatenate([cd.token_mask[cd.chunk_mask] for cd in cds])
        window = None
    got = encoder_forward(ids, mask, params, ecfg).data
    want = reference.encoder_forward(ids, mask, {k: p.data for k, p in params.items()},
                                     ecfg.layers, ecfg.heads, window=window)
    diff = float(np.abs(got - want).max())
    checks.expect("encoder_forward matches the float64 L x L-mask reference",
                  diff <= FORWARD_TOL, f"{ids.shape}, max |diff| {diff:.3g} (tol {FORWARD_TOL})")

    nodrop = dataclasses.replace(ecfg, dropout=0.0)
    pairs = _grad_step_pairs(objective, train, pcfg)
    anchors, cands = _step_embeddings(objective, pairs, params, nodrop)
    loss, _ = mnr_loss(anchors, cands, tau=pcfg.tau)
    want = reference.mnr_loss(anchors.data, cands.data, pcfg.tau)
    rel = abs(loss.item() - want) / max(1.0, abs(want))
    checks.expect("mnr_loss equals the naive log-sum-exp", rel <= LOSS_TOL,
                  f"{loss.item():.6f} vs {want:.6f}")

    p64 = {k: T.parameter(p.data.astype(np.float64), name=k) for k, p in params.items()}

    def step_loss():
        a, c = _step_embeddings(objective, pairs, p64, nodrop)
        return mnr_loss(a, c, tau=pcfg.tau)[0]

    T.backward(step_loss())
    worst = 0.0
    for name in GRAD_PARAMS:
        grad = p64[name].grad.reshape(-1).copy()
        flat = p64[name].data.reshape(-1)
        for c in np.argsort(-np.abs(grad))[:GRAD_COORDS]:
            orig = flat[c]
            for eps in GRAD_EPS:
                flat[c] = orig + eps
                up = step_loss().item()
                flat[c] = orig - eps
                down = step_loss().item()
                flat[c] = orig
                numeric = (up - down) / (2 * eps)
                err = abs(grad[c] - numeric) / max(abs(numeric), 1e-8)
                if err <= GRAD_TOL:
                    break
            worst = max(worst, err)
    checks.expect("step-loss gradient matches central differences (float64)",
                  worst <= GRAD_TOL,
                  f"{', '.join(GRAD_PARAMS)}: worst relative error {worst:.3g} (tol {GRAD_TOL})")


# ---------------------------------------------------------------------------

def run(objective, seed, seconds, trace_dir, log):
    """One run; with `trace_dir` set, half the time is traced and the spans go there."""
    trace = trace_dir is not None
    setup_s = []
    vocab, docs, chunked = timed_setup(seed, setup_s)
    n_train = TRAIN_PER_LENGTH * len(LENGTHS)
    train, held = docs[:n_train], docs[n_train:]
    ecfg, pcfg = configs(objective, vocab.size, seed)

    warmup = run_round(train, held, ecfg, pcfg)
    rounds = run_rounds(train, held, ecfg, pcfg, seconds / 2 if trace else seconds,
                        seed, setup_s)
    rss = peak_rss_mb()
    log("setup_s samples: " + " ".join(f"{t:.4f}" for t in setup_s))
    traced = []
    if trace:
        tracer = Tracer().install()
        try:
            setup(seed)
            traced = run_rounds(train, held, ecfg, pcfg, seconds / 2)
        finally:
            tracer.uninstall()
        tracer.dump(os.path.join(trace_dir, "spans.npz"))
    all_rounds = [warmup, *rounds, *traced]
    for r in all_rounds:
        log(f"round: {r['steps']} steps in {r['pretrain_s']:.3f} s, "
            f"{len(r['embs'])} docs embedded in {r['embed_s']:.3f} s")

    checks = Checks(log)
    steps_expected = len(train) // BATCH
    checks.expect("every round takes every optimizer step",
                  all(r["steps"] == steps_expected for r in all_rounds),
                  f"{steps_expected} steps per round")
    check_outputs(objective, all_rounds, train, held, chunked[n_train:], ecfg, pcfg, checks)

    # Totals over the run, not medians over rounds: the machine's speed
    # switches between a fast and a slow mode for seconds at a time, and a
    # median takes whichever mode held more rounds, where a total weighs both.
    def round_s(rs):
        return statistics.fmean(r["pretrain_s"] + r["embed_s"] for r in rs)

    if trace:
        overhead = 100.0 * (round_s(traced) / round_s(rounds) - 1.0)
        metrics = layers.compute([tracer.table()], overhead_pct=overhead)
    else:
        metrics = {
            "setup_s": metric(statistics.fmean(setup_s), "s"),
            "pretrain_steps_per_s": metric(sum(r["steps"] for r in rounds)
                                           / sum(r["pretrain_s"] for r in rounds), "steps/s"),
            "embed_docs_per_s": metric(sum(len(r["embs"]) for r in rounds)
                                       / sum(r["embed_s"] for r in rounds), "docs/s"),
            "peak_rss_mb": metric(rss, "MB"),
            "pipeline_s": metric(round_s(rounds), "s"),
        }
    return {"correct": checks.all_passed, "attempted": 2 * len(all_rounds), "failed": 0,
            "metrics": metrics}
