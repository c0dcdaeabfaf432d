"""Self-supervised pair construction and contrastive pretraining.

Objectives: chunk prediction over the hierarchical path (cpe-hier) and the
sliding-window path (cpe-long), plus the SimCSE and ESimCSE baselines. All
share the in-batch multiple-negatives ranking loss over cosine
similarities, and each step of each is one encoder call over the N anchors
and then their N positives, split at N.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .corpus import CLS_ID, Document, chunk
from .encoder import EncoderConfig, encode_chunk, encode_packed, init_params
from .optim import AdamWConfig, AdamWState, adamw_step
from .pooling import POOLERS

OBJECTIVES = ("cpe-hier", "cpe-long", "simcse", "esimcse")


@dataclass
class PretrainConfig:
    objective: str = "cpe-hier"
    epochs: int = 3
    batch_size: int = 4
    lr: float = 2e-4
    weight_decay: float = 0.001
    tau: float = 0.05
    chunk_len: int = 16
    n_chunks: int = 10
    max_tokens: int = 160
    esimcse_rate: float = 0.15
    pooling: str = "max"
    seed: int = 0

    def validate(self):
        if self.objective not in OBJECTIVES:
            raise ValueError(f"unknown pretrain.objective '{self.objective}'")
        if self.epochs < 1:
            raise ValueError(f"pretrain.epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 2:  # the loss needs in-batch negatives
            raise ValueError(f"pretrain.batch_size must be >= 2, got {self.batch_size}")
        if self.chunk_len < 1:
            raise ValueError(f"pretrain.chunk_len must be >= 1, got {self.chunk_len}")
        if self.n_chunks < 1:
            raise ValueError(f"pretrain.n_chunks must be >= 1, got {self.n_chunks}")
        if self.max_tokens < self.chunk_len:
            raise ValueError(f"pretrain.max_tokens must be >= pretrain.chunk_len "
                             f"({self.chunk_len}), got {self.max_tokens}")
        if self.tau <= 0:
            raise ValueError(f"pretrain.tau must be positive, got {self.tau}")
        if self.lr <= 0:
            raise ValueError(f"pretrain.lr must be positive, got {self.lr}")
        if not 0 <= self.esimcse_rate <= 1:
            raise ValueError(f"pretrain.esimcse_rate must be in [0, 1], got {self.esimcse_rate}")
        if self.pooling not in POOLERS:
            raise ValueError(f"pretrain.pooling must be one of {', '.join(POOLERS)}, "
                             f"got '{self.pooling}'")


@dataclass
class CPEPair:
    anchor: object          # ChunkedDocument (hier) or unpadded reference ids (long)
    positive_ids: np.ndarray
    positive_mask: np.ndarray
    doc_id: str = ""
    held_out_index: int = -1


# ---------------------------------------------------------------------------
# pair sampling

def sample_pair_hier(chunked, rng):
    """Hold out one real chunk; the ablated document is the anchor.

    Returns None for documents with fewer than two real chunks (skip).
    """
    real = np.flatnonzero(chunked.chunk_mask)
    if len(real) < 2:
        return None
    h = int(real[rng.integers(len(real))])
    anchor = copy.copy(chunked)
    anchor.chunk_mask = chunked.chunk_mask.copy()
    anchor.chunk_mask[h] = False
    return CPEPair(anchor=anchor,
                   positive_ids=chunked.chunks[h].copy(),
                   positive_mask=chunked.token_mask[h].copy(),
                   doc_id=chunked.doc_id, held_out_index=h)


def sample_pair_long(doc, chunk_len, budget, rng):
    """Cut a random chunk_len span as the positive, [CLS] + span with an
    all-true mask; the anchor is [CLS] + the concatenated remainder, cut at
    `budget` and unpadded."""
    toks = list(doc.tokens)
    if len(toks) < chunk_len + 1:  # reference text must be non-empty
        return None
    off = int(rng.integers(0, len(toks) - chunk_len + 1))
    rest = toks[:off] + toks[off + chunk_len:]
    return CPEPair(anchor=np.array([CLS_ID, *rest][:budget], dtype=np.int64),
                   positive_ids=np.array([CLS_ID, *toks[off:off + chunk_len]], dtype=np.int64),
                   positive_mask=np.ones(chunk_len + 1, dtype=bool),
                   doc_id=doc.id, held_out_index=off)


def esimcse_augment(tokens, rate, rng):
    """Duplicate each token in place independently with probability `rate`."""
    out = []
    for t in tokens:
        out.append(t)
        if rate > 0 and rng.random() < rate:
            out.append(t)
    return out


# ---------------------------------------------------------------------------
# loss

def mnr_loss(anchors, cands, tau=0.05):
    """In-batch softmax contrastive loss over cosine similarities.

    loss = -(1/N) sum_i log softmax_j(cos(a_i, c_j)/tau)[i]; each anchor's
    negatives are the other anchors' positives. Returns (loss, the (N, N)
    cosine array); a zero-norm vector is a ValueError (`T.cosine_nce`).
    """
    n = anchors.shape[0]
    if n < 2:
        raise ValueError(f"mnr_loss needs N >= 2, got {n}")
    return T.cosine_nce(anchors, cands, tau)


# ---------------------------------------------------------------------------
# batched document embedding (hierarchical path)

def _collect_rows(chunked_docs):
    """Every real chunk of a batch as encoder rows, in document order.

    Returns (ids (M, L), mask (M, L), chunk_mask (B, n)); the rows fill
    the true slots of chunk_mask in row-major order. A document with no real
    chunk is a ValueError that names it."""
    for cd in chunked_docs:
        if not cd.chunk_mask.any():
            raise ValueError(f"document {cd.doc_id}: no token to embed")
    chunk_mask = np.stack([cd.chunk_mask for cd in chunked_docs])
    ids = np.concatenate([cd.chunks[cd.chunk_mask] for cd in chunked_docs])
    mask = np.concatenate([cd.token_mask[cd.chunk_mask] for cd in chunked_docs])
    return ids, mask, chunk_mask


def embed_chunked_batch(chunked_docs, params, config, pooling="max",
                        train=False, rng=None):
    """Encode every real chunk of a batch of ChunkedDocuments and pool per
    document. Returns a (B, D) Tensor on one autodiff graph."""
    ids, mask, chunk_mask = _collect_rows(chunked_docs)
    cls = encode_chunk(ids, mask, params, config, train=train, rng=rng)  # (M, D)
    return POOLERS[pooling](cls, chunk_mask)


# ---------------------------------------------------------------------------
# objective forwards: each returns (anchor_embs, cand_embs) Tensors (N, D)

def forward_cpe_hier(pairs, params, config, pooling="max", train=False, rng=None):
    """One encoder pass: the positives are stacked after the anchors' M real
    chunks (both chunk_len + 1 wide); the first M [CLS] rows are pooled per
    anchor and the rest are the candidates."""
    ids, mask, chunk_mask = _collect_rows([p.anchor for p in pairs])
    m = ids.shape[0]
    cls = encode_chunk(np.concatenate([ids, np.stack([p.positive_ids for p in pairs])]),
                       np.concatenate([mask, np.stack([p.positive_mask for p in pairs])]),
                       params, config, train=train, rng=rng)
    return POOLERS[pooling](cls[:m], chunk_mask), cls[m:]


def forward_cpe_long(pairs, params, config, train=False, rng=None):
    """One encoder pass: the anchors' unpadded reference texts and then the
    [CLS] + span positives are packed end to end into one row, one segment
    each (`encode_packed`), so the sliding pass computes no padding position."""
    cls = encode_packed([*(p.anchor for p in pairs), *(p.positive_ids for p in pairs)],
                        params, config, train=train, rng=rng)
    return cls[:len(pairs)], cls[len(pairs):]


def _embed_pairs(anchors, positives, params, config, pooling, rng):
    """One train-mode pass: the anchor documents and then their positives are
    pooled in one `embed_chunked_batch` call, split at N."""
    embs = embed_chunked_batch([*anchors, *positives], params, config, pooling=pooling,
                               train=True, rng=rng)
    return embs[:len(anchors)], embs[len(anchors):]


def forward_simcse(chunked_docs, params, config, pooling="max", rng=None):
    """The batch is its own positive: it is encoded twice within one pass, and
    the independent dropout of the two copies forms the positive pair."""
    return _embed_pairs(chunked_docs, chunked_docs, params, config, pooling, rng)


def forward_esimcse(docs, chunked_docs, params, config, cfg, rng):
    """Anchor = original document; positive = word-repetition augmentation,
    encoded in the anchors' pass."""
    aug = [chunk(Document(id=d.id, tokens=tuple(esimcse_augment(d.tokens, cfg.esimcse_rate, rng))),
                 cfg.chunk_len, cfg.n_chunks, cfg.max_tokens) for d in docs]
    return _embed_pairs(chunked_docs, aug, params, config, cfg.pooling, rng)


# ---------------------------------------------------------------------------
# training loop

@dataclass
class PretrainResult:
    params: dict
    encoder_config: EncoderConfig
    log_lines: list = field(default_factory=list)
    skipped_docs: int = 0
    hard_negative_batches: int = 0
    steps: int = 0


def _eligible(doc, cfg):
    if cfg.objective == "cpe-hier":
        return len(doc.tokens) > cfg.chunk_len  # needs >= 2 real chunks
    if cfg.objective == "cpe-long":
        return len(doc.tokens) >= cfg.chunk_len + 1
    return len(doc.tokens) >= 1


def pretrain(docs, encoder_config, cfg):
    """Contrastive pretraining; returns trained params plus run statistics,
    among them one tab-separated log line per step: step, epoch, objective,
    loss, the gradient's L2 norm before the update, and the margin, the
    mean over anchors of the positive's cosine minus the hardest in-batch
    negative's. The optimizer state dies with the call: the returned
    params hold neither gradients nor moments."""
    cfg.validate()
    encoder_config.validate()
    if cfg.objective == "cpe-long" and encoder_config.attention != "sliding":
        raise ValueError("cpe-long requires a sliding-attention encoder config")
    if cfg.objective == "cpe-hier":  # it holds out one of at least two chunks
        if cfg.n_chunks < 2:
            raise ValueError(f"pretrain.n_chunks must be >= 2 for cpe-hier, got {cfg.n_chunks}")
        if cfg.max_tokens <= cfg.chunk_len:
            raise ValueError(f"pretrain.max_tokens must be > pretrain.chunk_len "
                             f"({cfg.chunk_len}) for cpe-hier, got {cfg.max_tokens}")

    eligible = [d for d in docs if _eligible(d, cfg)]
    skipped = len(docs) - len(eligible)
    if len(eligible) < cfg.batch_size:
        raise ValueError(f"pretrain.batch_size={cfg.batch_size} needs as many eligible "
                         f"documents, got {len(eligible)} (skipped {skipped})")

    chunked = None
    if cfg.objective != "cpe-long":
        chunked = [chunk(d, cfg.chunk_len, cfg.n_chunks, cfg.max_tokens) for d in eligible]

    params = init_params(encoder_config, cfg.seed)
    rng = np.random.default_rng(cfg.seed)
    state = AdamWState()
    hyper = AdamWConfig(lr=cfg.lr, weight_decay=cfg.weight_decay)
    result = PretrainResult(params=params, encoder_config=encoder_config, skipped_docs=skipped)

    step = 0
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(eligible))
        for lo in range(0, len(order) - cfg.batch_size + 1, cfg.batch_size):
            batch_idx = order[lo:lo + cfg.batch_size]
            if cfg.objective == "cpe-hier":
                pairs = [sample_pair_hier(chunked[i], rng) for i in batch_idx]
                anchors, cands = forward_cpe_hier(pairs, params, encoder_config,
                                                  pooling=cfg.pooling, train=True, rng=rng)
            elif cfg.objective == "cpe-long":
                pairs = [sample_pair_long(eligible[i], cfg.chunk_len,
                                          encoder_config.max_positions, rng)
                         for i in batch_idx]
                anchors, cands = forward_cpe_long(pairs, params, encoder_config,
                                                  train=True, rng=rng)
            elif cfg.objective == "simcse":
                anchors, cands = forward_simcse([chunked[i] for i in batch_idx],
                                                params, encoder_config,
                                                pooling=cfg.pooling, rng=rng)
            else:
                anchors, cands = forward_esimcse([eligible[i] for i in batch_idx],
                                                 [chunked[i] for i in batch_idx],
                                                 params, encoder_config, cfg, rng)

            loss, sims = mnr_loss(anchors, cands, tau=cfg.tau)
            val = loss.item()
            if not math.isfinite(val):
                raise FloatingPointError(
                    f"NaN/Inf loss at step {step} (epoch {epoch}); aborting")
            off_diag = sims.copy()
            np.fill_diagonal(off_diag, -np.inf)
            margin = np.diag(sims) - off_diag.max(axis=1)
            if np.any(margin < 0):
                result.hard_negative_batches += 1

            T.backward(loss)
            grad_norm = adamw_step(params, state, hyper)

            step += 1
            result.log_lines.append(f"{step}\t{epoch}\t{cfg.objective}\t{val:.6f}"
                                    f"\t{grad_norm:.6f}\t{margin.mean():.6f}")
    result.steps = step
    return result


# ---------------------------------------------------------------------------
# inference-time embedding

def embed_documents(docs, params, encoder_config, pooling="max", *, chunk_len, n_chunks,
                    max_tokens, batch_size=32):
    """Eval-mode document embeddings, (B, D) numpy array.

    On the sliding path each document is [CLS] plus its tokens, cut at
    `max_positions`, unpadded; each group of `batch_size` documents is one
    packed encoder call (`encode_packed`). `batch_size` only groups the
    documents into calls: a document's embedding does not depend on it, nor
    on the other documents, up to float rounding. The hierarchical path
    encodes each group's real chunks as one batch. Untracked parameters, as
    the CLI's `embed` passes, build no tape, and a batch's pass holds only
    what it still reads: no dense attention probabilities beyond one group
    of sequences (`tensor.attention`) and no block temporaries beyond one
    residual branch's (`encoder.encoder_forward`). Tracked ones build each
    batch's graph, dropped before the next batch."""
    out = []
    if encoder_config.attention == "sliding":
        for lo in range(0, len(docs), batch_size):
            seqs = [np.array([CLS_ID, *d.tokens][:encoder_config.max_positions])
                    for d in docs[lo:lo + batch_size]]
            out.append(encode_packed(seqs, params, encoder_config).data)
        return np.concatenate(out, axis=0)
    for lo in range(0, len(docs), batch_size):
        group = docs[lo:lo + batch_size]
        chunked = [chunk(d, chunk_len, n_chunks, max_tokens) for d in group]
        out.append(embed_chunked_batch(chunked, params, encoder_config, pooling=pooling).data)
    return np.concatenate(out, axis=0)
