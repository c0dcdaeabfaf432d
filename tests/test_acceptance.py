"""End-to-end acceptance suite.

Each test prints one pass/fail line. The expensive contrastive-pretraining
runs are shared through session-scoped fixtures: seeds 1-3 back the ranking,
downstream-gain, and clustering checks; seeds 4-5 extend the objective
comparison to five seeds.
"""

import math
import statistics
import time
from collections import Counter

import numpy as np
import pytest

from cpe import tensor as T
from cpe.classifier import (ClassifierConfig, classification_loss, init_mlp,
                            mlp_logits, predict_batch, train_classifier)
from cpe.cli import main as cli_main
from cpe.corpus import (SyntheticSpec, build_vocab, chunk, encode_documents,
                        gen_synthetic)
from cpe.encoder import EncoderConfig, encode_chunk, encoder_forward, init_params
from cpe.metrics import (dbscan, f1_scores, homogeneity_completeness)
from cpe.training import (PretrainConfig, embed_chunked_batch, embed_documents,
                          mnr_loss, pretrain, sample_pair_hier)
import oracle_ops as O

# ---------------------------------------------------------------------------
# shared synthetic protocol: 1k documents, 4 topics, toy-scale encoder

PROTO = dict(num_docs=1000, num_topics=4, doc_len_min=64, doc_len_max=160,
             vocab_per_topic=100, shared_vocab=100, noise_rate=0.3,
             task="multiclass")
CHUNK_LEN, N_CHUNKS, MAX_TOKENS = 16, 10, 160
NUM_TOPICS = 4
ENC = dict(dim=64, layers=2, heads=4, ff=128, max_positions=CHUNK_LEN + 1,
           dropout=0.1)
PRETRAIN_LR = 2e-4          # toy scale trains from scratch, not from a LM
CLF = dict(epochs=20, batch_size=16, lr=1e-3)


def _report(capsys, num, name, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {name}{tail}",
              flush=True)
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _make_corpus(seed):
    records = gen_synthetic(SyntheticSpec(**PROTO), seed)
    vocab = build_vocab((r["text"] for r in records), min_freq=1)
    docs = encode_documents(records, vocab, task="multiclass")
    perm = np.random.default_rng(seed).permutation(len(docs))
    cut = int(0.8 * len(docs))
    train = [docs[i] for i in perm[:cut]]
    test = [docs[i] for i in perm[cut:]]
    return vocab, train, test


def _pretrain(objective, train_docs, vocab, seed):
    pcfg = PretrainConfig(objective=objective, epochs=3, batch_size=4,
                          lr=PRETRAIN_LR, tau=0.05, chunk_len=CHUNK_LEN,
                          n_chunks=N_CHUNKS, max_tokens=MAX_TOKENS, seed=seed)
    ecfg = EncoderConfig(vocab_size=vocab.size, **ENC)
    return pretrain(train_docs, ecfg, pcfg)


def _embed(docs, params, ecfg):
    return embed_documents(docs, params, ecfg, pooling="max",
                           chunk_len=CHUNK_LEN, n_chunks=N_CHUNKS,
                           max_tokens=MAX_TOKENS)


def _macro_f1(train_embs, train_docs, test_embs, test_docs):
    cfg = ClassifierConfig(seed=0, **CLF)
    params = train_classifier(train_embs, [d.labels for d in train_docs],
                              NUM_TOPICS, "multiclass", cfg)
    preds, _ = predict_batch(test_embs, params, "multiclass")
    rep = f1_scores(preds, [set(d.labels) for d in test_docs], NUM_TOPICS)
    return rep.macro_f1


def _ranking_rate(test_docs, params, ecfg, seed, n_cands=8):
    """Fraction of held-out documents whose true held-out chunk outranks
    7 chunks taken from other documents."""
    rng = np.random.default_rng(seed + 1000)
    chunked = [chunk(d, CHUNK_LEN, N_CHUNKS, MAX_TOKENS) for d in test_docs]
    pairs = [p for p in (sample_pair_hier(cd, rng) for cd in chunked)
             if p is not None]
    anchors = embed_chunked_batch([p.anchor for p in pairs], params, ecfg,
                                  pooling="max").data
    cands = encode_chunk(np.stack([p.positive_ids for p in pairs]),
                         np.stack([p.positive_mask for p in pairs]),
                         params, ecfg).data
    anchors = anchors / np.linalg.norm(anchors, axis=1, keepdims=True)
    cands = cands / np.linalg.norm(cands, axis=1, keepdims=True)
    n = len(pairs)
    wins = 0
    for i in range(n):
        idx = [(i + k) % n for k in range(n_cands)]  # true candidate first
        sims = anchors[i] @ cands[idx].T
        wins += int(np.argmax(sims) == 0)
    return wins / n


@pytest.fixture(scope="session")
def runs():
    """Per-seed corpus + cpe-hier pretraining + frozen embeddings for both
    the trained and the random-initialization encoder."""
    out = {}
    for seed in (1, 2, 3):
        vocab, train, test = _make_corpus(seed)
        result = _pretrain("cpe-hier", train, vocab, seed)
        ecfg = result.encoder_config
        rand_params = init_params(ecfg, seed + 500)
        out[seed] = {
            "vocab": vocab, "train": train, "test": test, "ecfg": ecfg,
            "params": result.params, "rand_params": rand_params,
            "cpe_train_embs": _embed(train, result.params, ecfg),
            "cpe_test_embs": _embed(test, result.params, ecfg),
            "rand_train_embs": _embed(train, rand_params, ecfg),
            "rand_test_embs": _embed(test, rand_params, ecfg),
        }
    return out


@pytest.fixture(scope="session")
def objective_scores(runs):
    """Test-set macro-F1 per objective over seeds 1-5 (cpe-hier for seeds
    1-3 reuses the `runs` fixture)."""
    scores = {"cpe-hier": [], "simcse": [], "esimcse": []}
    corpora = {}
    for seed in (1, 2, 3, 4, 5):
        if seed in runs:
            corpora[seed] = (runs[seed]["vocab"], runs[seed]["train"],
                             runs[seed]["test"])
        else:
            corpora[seed] = _make_corpus(seed)
    for objective in scores:
        for seed in (1, 2, 3, 4, 5):
            vocab, train, test = corpora[seed]
            if objective == "cpe-hier" and seed in runs:
                r = runs[seed]
                scores[objective].append(_macro_f1(r["cpe_train_embs"], train,
                                                   r["cpe_test_embs"], test))
                continue
            result = _pretrain(objective, train, vocab, seed)
            tr = _embed(train, result.params, result.encoder_config)
            te = _embed(test, result.params, result.encoder_config)
            scores[objective].append(_macro_f1(tr, train, te, test))
    return scores


# ---------------------------------------------------------------------------
# 1. autodiff correctness

DENSE_SMALL = EncoderConfig(vocab_size=20, dim=8, layers=1, heads=2, ff=16,
                            max_positions=8, dropout=0.0)
SPARSE_SMALL = EncoderConfig(vocab_size=20, dim=8, layers=1, heads=2, ff=16,
                             max_positions=14, dropout=0.0,
                             attention="sliding", window=2)


def test_criterion_01_autodiff(capsys):
    start = time.time()
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        merged = {}
        merged.update({f"d.{k}": v for k, v in init_params(DENSE_SMALL, seed).items()})
        merged.update({f"s.{k}": v for k, v in init_params(SPARSE_SMALL, seed + 1).items()})
        merged.update({f"m.{k}": v for k, v in init_mlp(8, 3, (4, 4, 4), seed).items()})

        ids_a = rng.integers(3, 20, (3, 6)); ids_a[:, 0] = 2
        ids_c = rng.integers(3, 20, (3, 6)); ids_c[:, 0] = 2
        ids_sa = rng.integers(3, 20, (3, 12)); ids_sa[:, 0] = 2
        ids_sc = rng.integers(3, 20, (3, 12)); ids_sc[:, 0] = 2
        mask6 = np.ones((3, 6), dtype=bool)
        mask12 = np.ones((3, 12), dtype=bool)
        mask12[0, 9:] = False
        x = rng.standard_normal((4, 8)).astype(np.float32)
        targets = np.eye(3, dtype=np.float32)[rng.integers(0, 3, 4)]

        def fn(p):
            pd = {k[2:]: v for k, v in p.items() if k.startswith("d.")}
            ps = {k[2:]: v for k, v in p.items() if k.startswith("s.")}
            pm = {k[2:]: v for k, v in p.items() if k.startswith("m.")}
            a = encode_chunk(ids_a, mask6, pd, DENSE_SMALL)
            c = encode_chunk(ids_c, mask6, pd, DENSE_SMALL)
            l1, _ = mnr_loss(a, c)
            sa = encoder_forward(ids_sa, mask12, ps, SPARSE_SMALL)[:, 0, :]
            sc = encoder_forward(ids_sc, mask12, ps, SPARSE_SMALL)[:, 0, :]
            l2, _ = mnr_loss(sa, sc)
            l3 = classification_loss(mlp_logits(T.constant(x), pm), targets,
                                     "multiclass")
            return T.add(T.add(l1, l2), l3)

        # eps small enough that the sharp 1/tau softmax curvature does not
        # dominate the central-difference truncation term
        worst = max(worst, O.grad_check(fn, merged, eps=1e-6, num_samples=1,
                                        rng=np.random.default_rng(seed)))
    elapsed = time.time() - start
    ok = worst < 1e-4 and elapsed < 300
    _report(capsys, 1, "autodiff gradient checks",
            ok, f"max rel err {worst:.2e} over 100 seeds, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. sparse-attention oracle

def test_criterion_02_sparse_oracle(capsys):
    start = time.time()
    worst = 0.0
    L = 12
    for seed in range(50):
        cfg = EncoderConfig(vocab_size=20, dim=16, layers=2, heads=4, ff=32,
                            max_positions=L + 2, dropout=0.0,
                            attention="sliding", window=L + 4)
        dense_cfg = EncoderConfig(**{**vars(cfg), "attention": "dense"})
        params = init_params(cfg, seed)
        rng = np.random.default_rng(seed)
        ids = rng.integers(3, 20, (2, L)); ids[:, 0] = 2
        mask = np.ones((2, L), dtype=bool)
        mask[0, 9:] = False
        h_sparse = encoder_forward(ids, mask, params, cfg)
        h_dense = encoder_forward(ids, mask, params, dense_cfg)
        worst = max(worst, float(np.abs(h_sparse.data - h_dense.data).max()))

    # support bound for a genuinely narrow window
    narrow = EncoderConfig(vocab_size=20, dim=16, layers=2, heads=4, ff=32,
                           max_positions=34, dropout=0.0,
                           attention="sliding", window=3)
    params = init_params(narrow, 0)
    ids = np.random.default_rng(0).integers(3, 20, (1, 32)); ids[:, 0] = 2
    capture = []
    encoder_forward(ids, np.ones((1, 32), dtype=bool), params, narrow,
                  capture=capture)
    bound = 2 * narrow.window + 1 + len(narrow.global_tokens)
    support_ok = all(
        ((layer["band_probs"][0] > 0).sum(axis=-1)
         + (layer["global_probs"][0] > 0).sum(axis=-1)).max() <= bound
        for layer in capture)
    elapsed = time.time() - start
    ok = worst < 1e-5 and support_ok and elapsed < 120
    _report(capsys, 2, "sliding attention matches dense oracle",
            ok, f"max |diff| {worst:.2e} over 50 seeds, "
                f"support bound {'held' if support_ok else 'violated'}, "
                f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. loss closed forms

def _naive_mnr(a, c, tau):
    n = len(a)
    total = 0.0
    for i in range(n):
        logits = []
        for j in range(n):
            dot = sum(x * y for x, y in zip(a[i], c[j]))
            na = math.sqrt(sum(x * x for x in a[i]))
            nc = math.sqrt(sum(y * y for y in c[j]))
            logits.append(dot / (na * nc) / tau)
        m = max(logits)
        lse = m + math.log(sum(math.exp(v - m) for v in logits))
        total += logits[i] - lse
    return -total / n


def test_criterion_03_loss_closed_forms(capsys):
    # uniform similarities: identical rows -> loss = ln N
    uniform_err = 0.0
    for n in (2, 4, 8):
        rows = np.tile(np.array([[1.0, 2.0, 3.0]], dtype=np.float32), (n, 1))
        loss, _ = mnr_loss(T.constant(rows), T.constant(rows.copy()), tau=0.05)
        uniform_err = max(uniform_err, abs(loss.item() - math.log(n)))

    # saturated separation: antipodal pair at tau = 0.05
    a = T.constant(np.array([[1.0, 0.0], [-1.0, 0.0]], dtype=np.float32))
    sat, _ = mnr_loss(a, T.constant(a.data.copy()), tau=0.05)
    sat_val = sat.item()

    oracle_err = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        av = rng.standard_normal((5, 4))
        cv = rng.standard_normal((5, 4))
        loss, _ = mnr_loss(T.constant(av, dtype=np.float64),
                           T.constant(cv, dtype=np.float64), tau=0.05)
        oracle_err = max(oracle_err,
                         abs(loss.item() - _naive_mnr(av.tolist(), cv.tolist(), 0.05)))

    ok = uniform_err < 1e-6 and sat_val < 1e-10 and oracle_err < 1e-6
    _report(capsys, 3, "contrastive loss closed forms",
            ok, f"ln N err {uniform_err:.1e}, saturated {sat_val:.1e}, "
                f"oracle err {oracle_err:.1e}")


# ---------------------------------------------------------------------------
# 4. chunk-ranking property after pretraining

def test_criterion_04_ranking(capsys, runs):
    passes = 0
    details = []
    for seed, r in runs.items():
        trained = _ranking_rate(r["test"], r["params"], r["ecfg"], seed)
        untrained = _ranking_rate(r["test"], r["rand_params"], r["ecfg"], seed)
        details.append(f"seed {seed}: {trained:.3f} vs {untrained:.3f} untrained")
        if trained >= 0.35 and trained > untrained:
            passes += 1
    ok = passes >= 2
    _report(capsys, 4, "held-out chunk ranks first among 8 candidates",
            ok, f"{passes}/3 seeds above 0.35 and above the untrained rate; "
                + "; ".join(details) + "; chance 0.125")


# ---------------------------------------------------------------------------
# 5. downstream gain over a random-initialization encoder

def test_criterion_05_downstream_gain(capsys, runs):
    passes = 0
    details = []
    for seed, r in runs.items():
        cpe = _macro_f1(r["cpe_train_embs"], r["train"],
                        r["cpe_test_embs"], r["test"])
        rand = _macro_f1(r["rand_train_embs"], r["train"],
                         r["rand_test_embs"], r["test"])
        details.append(f"seed {seed}: {cpe:.3f} vs {rand:.3f}")
        if cpe - rand >= 0.10:
            passes += 1
    ok = passes == 3
    _report(capsys, 5, "pretrained encoder beats random init by >= 10 macro-F1",
            ok, f"{passes}/3 seeds; " + "; ".join(details))


# ---------------------------------------------------------------------------
# 6. objective ordering

def test_criterion_06_objective_ordering(capsys, objective_scores):
    med = {k: statistics.median(v) for k, v in objective_scores.items()}
    ok = med["cpe-hier"] >= med["simcse"] and med["cpe-hier"] >= med["esimcse"]
    _report(capsys, 6, "chunk prediction >= dropout-augmentation baselines",
            ok, "median macro-F1 over 5 seeds: "
                + ", ".join(f"{k} {v:.3f}" for k, v in med.items()))


# ---------------------------------------------------------------------------
# 7. clustering quality direction

def _normalize(x):
    return x / np.maximum(np.linalg.norm(x, axis=1, keepdims=True), 1e-12)


def test_criterion_07_clustering(capsys, runs):
    passes = 0
    details = []
    for seed, r in runs.items():
        gold = [min(d.labels) for d in r["test"]]
        scores = {}
        for arm, embs in (("cpe", r["cpe_test_embs"]),
                          ("rand", r["rand_test_embs"])):
            assign = dbscan(_normalize(embs), eps=0.2, min_pts=5)
            scores[arm] = homogeneity_completeness(assign, gold)
        (ch, cc), (rh, rc) = scores["cpe"], scores["rand"]
        details.append(f"seed {seed}: h {ch:.2f}>{rh:.2f}, c {cc:.2f}>{rc:.2f}")
        if ch > rh and cc > rc:
            passes += 1
    ok = passes == 3
    _report(capsys, 7, "clusters separate topics better after pretraining",
            ok, f"{passes}/3 seeds; " + "; ".join(details))


# ---------------------------------------------------------------------------
# 8. chunk-size sweep machinery

def test_criterion_08_sweep(capsys, tmp_path):
    out = tmp_path / "sweep"
    overrides = [
        f"run.output_dir={out}",
        "synthetic.num_docs=30", "synthetic.num_topics=3",
        "synthetic.doc_len_min=520", "synthetic.doc_len_max=700",
        "synthetic.vocab_per_topic=50", "synthetic.shared_vocab=50",
        "encoder.dim=16", "encoder.layers=1", "encoder.heads=2", "encoder.ff=32",
        "pretrain.epochs=1", "pretrain.max_tokens=1024", "pretrain.lr=2e-4",
        "classifier.epochs=2", "classifier.lr=1e-3",
    ]
    argv = []
    for kv in overrides:
        argv += ["--set", kv]
    code = cli_main([*argv, "sweep-chunk", "--sizes", "64,128,256,512"])
    lines = (out / "sweep.tsv").read_text().splitlines()
    sizes = [int(l.split("\t")[0]) for l in lines[1:]]
    ok = code == 0 and len(lines) == 5 and sizes == [64, 128, 256, 512]
    _report(capsys, 8, "chunk-size sweep emits a 4-row table",
            ok, f"exit {code}, rows {sizes}")


# ---------------------------------------------------------------------------
# 9. metric oracles

def _naive_f1(preds, gold, num_labels):
    f1s = []
    tp_s = fp_s = fn_s = 0
    for l in range(num_labels):
        tp = sum(l in p and l in g for p, g in zip(preds, gold))
        fp = sum(l in p and l not in g for p, g in zip(preds, gold))
        fn = sum(l in g and l not in p for p, g in zip(preds, gold))
        f1s.append(2 * tp / (2 * tp + fp + fn) if tp + fp + fn else 0.0)
        tp_s, fp_s, fn_s = tp_s + tp, fp_s + fp, fn_s + fn
    micro = 2 * tp_s / (2 * tp_s + fp_s + fn_s) if tp_s + fp_s + fn_s else 0.0
    return sum(f1s) / num_labels, micro


def _naive_dbscan(pts, eps, min_pts):
    n = len(pts)

    def region(i):
        return [j for j in range(n) if np.linalg.norm(pts[i] - pts[j]) <= eps]

    labels = [None] * n
    cluster = -1
    for i in range(n):
        if labels[i] is not None:
            continue
        nbrs = region(i)
        if len(nbrs) < min_pts:
            labels[i] = -1
            continue
        cluster += 1
        labels[i] = cluster
        seeds = list(nbrs)
        k = 0
        while k < len(seeds):
            j = seeds[k]; k += 1
            if labels[j] == -1:
                labels[j] = cluster
            if labels[j] is not None:
                continue
            labels[j] = cluster
            j_nbrs = region(j)
            if len(j_nbrs) >= min_pts:
                seeds.extend(j_nbrs)
    return labels


def _naive_h_c(assigns, gold):
    n = len(gold)

    def entropy(counter):
        return -sum(v / n * math.log(v / n) for v in counter.values())

    h_class, h_cluster = entropy(Counter(gold)), entropy(Counter(assigns))
    h_joint = entropy(Counter(zip(assigns, gold)))
    h = 1.0 if h_class == 0 else 1.0 - (h_joint - h_cluster) / h_class
    c = 1.0 if h_cluster == 0 else 1.0 - (h_joint - h_class) / h_cluster
    return h, c


def test_criterion_09_metric_oracles(capsys):
    f1_err = hc_err = 0.0
    dbscan_mismatches = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)

        num_labels = int(rng.integers(2, 6))
        n = int(rng.integers(1, 40))
        gold = [set(np.flatnonzero(rng.random(num_labels) < 0.4).tolist())
                for _ in range(n)]
        preds = [set(np.flatnonzero(rng.random(num_labels) < 0.4).tolist())
                 for _ in range(n)]
        rep = f1_scores(preds, gold, num_labels)
        mac, mic = _naive_f1(preds, gold, num_labels)
        f1_err = max(f1_err, abs(rep.macro_f1 - mac), abs(rep.micro_f1 - mic))

        pts = rng.standard_normal((int(rng.integers(5, 40)), 2))
        eps = float(rng.uniform(0.3, 1.2))
        min_pts = int(rng.integers(2, 5))
        got = dbscan(pts, eps, min_pts).tolist()
        if got != _naive_dbscan(pts, eps, min_pts):
            dbscan_mismatches += 1

        m = int(rng.integers(2, 50))
        assigns = rng.integers(0, 4, m).tolist()
        g = rng.integers(0, 3, m).tolist()
        h, c = homogeneity_completeness(assigns, g, noise_as_singletons=False)
        hr, cr = _naive_h_c(assigns, g)
        hc_err = max(hc_err, abs(h - hr), abs(c - cr))

    ok = f1_err < 1e-9 and hc_err < 1e-9 and dbscan_mismatches == 0
    _report(capsys, 9, "metrics match brute-force references",
            ok, f"F1 err {f1_err:.1e}, entropy err {hc_err:.1e}, "
                f"dbscan mismatches {dbscan_mismatches}/100")


# ---------------------------------------------------------------------------
# 10. pipeline determinism

def test_criterion_10_determinism(capsys, tmp_path):
    def run(out):
        overrides = [
            f"run.output_dir={out}",
            "synthetic.num_docs=60", "synthetic.num_topics=3",
            "synthetic.doc_len_min=24", "synthetic.doc_len_max=48",
            "synthetic.vocab_per_topic=30", "synthetic.shared_vocab=30",
            "encoder.dim=16", "encoder.layers=1", "encoder.heads=2",
            "encoder.ff=32",
            "pretrain.epochs=1", "pretrain.chunk_len=8", "pretrain.n_chunks=6",
            "pretrain.max_tokens=48",
            "classifier.epochs=3", "classifier.lr=1e-3",
        ]
        argv = []
        for kv in overrides:
            argv += ["--set", kv]
        for cmd in (["gen-synthetic"], ["pretrain", "--objective", "cpe-hier"],
                    ["embed", "--pooling", "max"], ["train-clf"],
                    ["eval", "--metrics", "f1,cluster"]):
            assert cli_main([*argv, *cmd]) == 0
        return (out / "metrics.txt").read_bytes()

    a = run(tmp_path / "a")
    b = run(tmp_path / "b")
    ok = a == b
    _report(capsys, 10, "pipeline reproduces metrics byte-identically",
            ok, f"{len(a)} bytes compared")
