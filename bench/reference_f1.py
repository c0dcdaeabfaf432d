"""One-off reference: test-split macro-F1 of cpe-hier against cpe-long at the
matched 1024-token budget. Not part of the timed benchmark.

    python3 bench/reference_f1.py

For each objective: pretrain one epoch on every document (as `cpe pretrain`
does), embed every document, train the MLP head on the training split and
report macro-F1 on the test split, with the split rule of `cpe eval`. The
encoder and the chunking are those of the long-1024 and hier-1024
workloads; DOCS documents of lengths uniform in 256-1400 tokens, made
from SEED.
"""

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import util  # noqa: E402

util.limit_threads()

DOCS, SEED = 400, 1


def main():
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))

    import numpy as np
    from cpe import corpus as C
    from cpe.classifier import ClassifierConfig, predict_batch, train_classifier
    from cpe.metrics import f1_scores
    from cpe.training import pretrain

    import workload_longdoc as W

    spec = C.SyntheticSpec(num_docs=DOCS, num_topics=4, doc_len_min=256,
                           doc_len_max=1400, task="multiclass")
    records = C.gen_synthetic(spec, SEED)
    vocab = C.build_vocab(r["text"] for r in records)
    docs = C.encode_documents(records, vocab, task="multiclass")
    perm = np.random.default_rng(SEED).permutation(len(docs))
    cut = int(0.8 * len(docs))
    train, test = perm[:cut], perm[cut:]
    labels = [d.labels for d in docs]
    for objective in ("cpe-hier", "cpe-long"):
        ecfg, pcfg = W.configs(objective, vocab.size, SEED)
        t0 = time.perf_counter()
        result = pretrain(docs, ecfg, pcfg)
        t1 = time.perf_counter()
        embs = W.embed(docs, result.params, ecfg)
        t2 = time.perf_counter()
        head = train_classifier(embs[train], [labels[i] for i in train], spec.num_topics,
                                "multiclass", ClassifierConfig(lr=1e-3, seed=SEED))
        preds, _ = predict_batch(embs[test], head, "multiclass")
        f1 = f1_scores(preds, [labels[i] for i in test], spec.num_topics, "multiclass")
        print(f"{objective}: macro_f1 {f1.macro_f1:.4f} on {len(test)} test documents; "
              f"{result.steps} steps in {t1 - t0:.1f} s, {len(docs)} docs embedded in "
              f"{t2 - t1:.1f} s; peak RSS so far {util.peak_rss_mb():.0f} MB", flush=True)


if __name__ == "__main__":
    main()
