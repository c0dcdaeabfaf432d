"""The synthetic corpus generator as it was before `corpus._Draws`, for the
tests only: every word is drawn by a call on the document's numpy
Generator. `test_corpus.py` asserts that `corpus.gen_synthetic` writes the
same bytes.
"""

from bisect import bisect_right

import numpy as np


def _doc_rng(seed, doc_index):
    # counter-based generator keyed per document: parallel-safe, deterministic
    return np.random.Generator(np.random.Philox(key=np.uint64(seed) * np.uint64(1_000_003)
                                                + np.uint64(doc_index)))


def gen_synthetic(spec, seed):
    """Generate raw {"id","text","labels"} records from a topic mixture.

    Each document draws a topic (or topic pair in multilabel mode) and a
    document-specific word distribution over that topic's vocabulary
    region; `noise_rate` of positions come from the shared region.
    """
    spec.validate()
    noise_rate, shared_vocab = spec.noise_rate, spec.shared_vocab
    shared = [f"sh{j}" for j in range(shared_vocab)]
    records = []
    for i in range(spec.num_docs):
        rng = _doc_rng(seed, i)
        random, integers = rng.random, rng.integers
        if spec.task == "multilabel":
            k = int(rng.integers(1, 3))
            topics = sorted(rng.choice(spec.num_topics, size=k, replace=False).tolist())
        else:
            topics = [int(rng.integers(spec.num_topics))]
        length = int(rng.integers(spec.doc_len_min, spec.doc_len_max + 1))
        # rng.choice(n, p=w) draws one rng.random() and returns its place in
        # the normalised CDF of w; building each CDF once per document gives
        # the same words without re-validating w on every draw
        regions = []
        for t in topics:
            cdf = rng.dirichlet(np.full(spec.vocab_per_topic, spec.doc_alpha)).cumsum()
            regions.append(((cdf / cdf[-1]).tolist(),
                            [f"t{t}w{j}" for j in range(spec.vocab_per_topic)]))
        # both shortcuts keep the stream draw for draw: integers(1) returns 0
        # without drawing, so a one-topic document skips the call, and
        # bisect_right on the same float64 values is searchsorted(side="right")
        n_regions = len(regions)
        words = []
        for _ in range(length):
            if shared and random() < noise_rate:
                words.append(shared[integers(shared_vocab)])
            else:
                cdf, names = regions[integers(n_regions) if n_regions > 1 else 0]
                words.append(names[bisect_right(cdf, random())])
        records.append({"id": f"doc{i:05d}", "text": " ".join(words), "labels": topics})
    return records

