"""Transformer encoders: dense attention over chunks and sliding-window
sparse attention over long sequences, both exposing the position-0 [CLS]
vector as the sequence representation.

Each projection is one fused `tensor.linear` node and dense attention one
fused `tensor.attention` node, which keeps only the probabilities for its
closed-form backward, and untracked not even those; the attention ops
split the (B, L, D) projections into heads themselves. `encoder_forward`
holds the one pre-LN transformer block, written as its two residual
branches, `_attention_branch` and `_feed_forward_branch`: each returns what
it adds to the residual stream, and its own temporaries die when it
returns. So an untracked pass holds the stream plus one branch's arrays,
and a tracked one adds only what its tape keeps. The dense and sparse
paths differ only in the attention call.

By default it returns every row's hidden state, which the sliding path's
dense oracle reads; on that path `capture` collects each layer's
attention probabilities, the arrays `tensor.sliding_attention` itself
returns in `probs`, two per layer. Every training and embedding
path reads only the [CLS] rows, through `encode_chunk` or `encode_packed`,
which pass `cls_only`: the last block then runs its query, attention,
feed-forward, dropouts and the final norm on the [CLS] rows alone, and
projects no key or value. Its attention is one `tensor.cls_attention`
node, which absorbs the key and value projections into each [CLS] query,
so the last layer's key bias (which the softmax cancels) is not read.

Every sliding config, whatever its window, takes the sparse path. It is
banded and one fused `tensor.sliding_attention` node:
per-token scores are computed only against the 2w+1 window and the [CLS]
key, the one global token, never materializing an L x L score matrix. The
window is read as 2w+1 shifted slices of K and V zero-padded by w on the
sequence axis, so keys are never gathered per row. The [CLS] of each
segment is its first position; its own row attends densely within the
segment. A dense pass on the same weights serves as its correctness oracle.

On the sliding path one row may hold several sequences end to end, one
segment each (`seg_start`): `encode_packed` runs a batch of unpadded
sequences as one such row, so the encoder computes no padding position.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T


@dataclass
class EncoderConfig:
    vocab_size: int
    dim: int = 64
    layers: int = 2
    heads: int = 4
    ff: int = 128
    max_positions: int = 129
    dropout: float = 0.1
    attention: str = "dense"  # dense | sliding
    window: int = 16
    global_tokens: tuple = (0,)  # the [CLS] position, the one global token

    def validate(self):
        for name in ("dim", "heads", "layers", "ff"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"encoder.{name} must be >= 1, got {value}")
        if not 0 <= self.dropout < 1:
            raise ValueError(f"encoder.dropout must be in [0, 1), got {self.dropout}")
        if self.dim % self.heads != 0:
            raise ValueError(f"encoder.heads {self.heads} does not divide encoder.dim {self.dim}")
        if self.attention not in ("dense", "sliding"):
            raise ValueError(f"unknown encoder.attention '{self.attention}'")
        if self.attention == "sliding" and self.window < 1:
            raise ValueError(f"encoder.window must be >= 1, got {self.window}")
        if tuple(self.global_tokens) != (0,):
            raise ValueError(f"encoder.global_tokens must be (0,), the [CLS] position alone, "
                             f"got {self.global_tokens}")


def _trunc_normal(rng, shape, std=0.02):
    """Standard normals redrawn, in up to 8 rounds, where |x| > 2, clipped
    to [-2, 2] after, times `std`. Only a position redrawn in the last round
    can still be out of range, so each round tests those alone (in flat
    order, as a boolean mask over the whole array would pick them)."""
    x = rng.standard_normal(shape)
    flat = x.reshape(-1)
    bad = np.flatnonzero(np.abs(flat) > 2.0)
    for _ in range(8):
        if not bad.size:
            break
        flat[bad] = rng.standard_normal(bad.size)
        bad = bad[np.abs(flat[bad]) > 2.0]
    np.clip(x, -2.0, 2.0, out=x)
    return (x * std).astype(np.float32)


def param_specs(config):
    """Name -> (shape, fill) of every encoder parameter, in creation order:
    what a checkpoint of `config` holds. The fill is "normal" (truncated,
    std 0.02), "zeros" or "ones"."""
    d, f = config.dim, config.ff
    specs = {"tok_emb": ((config.vocab_size, d), "normal"),
             "pos_emb": ((config.max_positions, d), "normal")}
    for i in range(config.layers):
        pre = f"layer{i}."
        for proj, shape in (("q", (d, d)), ("k", (d, d)), ("v", (d, d)), ("o", (d, d)),
                            ("ff1", (d, f)), ("ff2", (f, d))):
            specs[pre + proj + "_w"] = (shape, "normal")
            specs[pre + proj + "_b"] = (shape[1:], "zeros")
        for norm in ("ln1", "ln2"):
            specs[pre + norm + "_g"] = ((d,), "ones")
            specs[pre + norm + "_b"] = ((d,), "zeros")
    specs["lnf_g"] = ((d,), "ones")
    specs["lnf_b"] = ((d,), "zeros")
    return specs


def _build(specs, seed):
    """The parameters of a name -> (shape, fill) map as one `T.Parameters`
    store, views of one float32 buffer, filled in the map's order from one
    seeded generator: truncated-normal weights (std 0.02), zeros or ones."""
    rng = np.random.default_rng(seed)
    fills = {"normal": lambda shape: _trunc_normal(rng, shape),
             "zeros": lambda shape: np.zeros(shape, dtype=np.float32),
             "ones": lambda shape: np.ones(shape, dtype=np.float32)}
    return T.Parameters({name: fills[fill](shape) for name, (shape, fill) in specs.items()})


def init_params(config, seed):
    """The parameters of `param_specs(config)`: truncated-normal weights
    (std 0.02), layer-norm scale 1 / shift 0."""
    config.validate()
    return _build(param_specs(config), seed)


def _linear(x, params, name):
    return T.linear(x, params[name + "_w"], params[name + "_b"])


def encoder_forward(ids, mask, params, config, train=False, rng=None, capture=None,
                    cls_only=False, seg_start=None):
    """Run the encoder over a batch; returns the (B, L, D) hidden states.

    `ids` is (B, L) int, `mask` is (B, L) bool (true for real tokens incl.
    CLS). Attention never reads masked keys. Each layer is a pre-LN block of
    two residual branches, attention and then a ReLU feed-forward, each added
    back after dropout. Each branch is its own function, whose layer norm,
    projections and attention arrays die when it returns: an untracked pass
    never holds a layer's q, k, v or context through its feed-forward.

    On the sliding path a row may hold several sequences laid end to end,
    each one segment: `seg_start` (L,) gives each position the first
    position of its segment, and the default (None) is one segment per row.
    Segments never read each other's keys (`tensor.sliding_attention`), and
    positions restart at 0 in each segment: the position table is indexed,
    and `max_positions` checked, by the position within the segment. The
    first position of each segment is its [CLS].

    With `cls_only`, the last block computes the [CLS] rows alone and the
    result is (B, S, D) for S segments per row: the query, the residual,
    the feed-forward, both dropouts and the final norm are the [CLS] rows'.
    [CLS] is a global row, so each reads every unmasked key of its own
    segment, in one `tensor.cls_attention` call on either path, which takes
    the keys and values from every row's LN1 output without projecting
    them. The rows equal the [CLS] rows of the full pass (up to float
    rounding); only the dropout draws differ, and the last layer's key bias
    gets no gradient (its true gradient is 0).

    With `capture` (a list) on the sliding path, each layer appends the
    two probability arrays `tensor.sliding_attention` returns in `probs`:
    the (B,H,L,2w+2) band-and-[CLS] array and the [CLS] rows' dense
    (B,H,1,L) one. It needs every row of one segment per row, so it
    combines with neither `cls_only` nor `seg_start`.
    """
    ids = np.atleast_2d(np.asarray(ids))
    mask = np.atleast_2d(np.asarray(mask, dtype=bool))
    l = ids.shape[1]
    pos = np.arange(l)
    start = np.zeros(l, dtype=np.intp) if seg_start is None else np.asarray(seg_start)
    if start.shape != (l,) or not np.all((start == pos) | (start == np.append(0, start[:-1]))):
        raise ValueError(f"seg_start must give each of the {l} positions the first position "
                         f"of its segment")
    if seg_start is not None and config.attention != "sliding":
        raise ValueError("segments need the sliding attention path")
    local = pos - start
    if l > 0 and local.max() >= config.max_positions:
        raise ValueError(f"sequence length {local.max() + 1} exceeds max positions "
                         f"{config.max_positions}")
    if train and rng is None:
        raise ValueError("train mode requires an rng for dropout")
    if capture is not None and (cls_only or seg_start is not None):
        raise ValueError("capture records every row of one segment per row; it cannot run "
                         "with cls_only or seg_start")

    h = T.add(T.embedding(params["tok_emb"], ids), T.embedding(params["pos_emb"], local))
    h = T.dropout(h, config.dropout, rng, train)
    cls_rows = np.flatnonzero(local == 0)
    # each [CLS] row of the cls_only block reads its own segment's keys
    cls_mask = mask[:, None, :] & (start[cls_rows][:, None] == start)

    for i in range(config.layers):
        pre = f"layer{i}."
        if cls_only and i == config.layers - 1:
            h = T.add(h[:, cls_rows], _attention_branch(h, params, pre, config, train, rng,
                                                        cls=(cls_rows, cls_mask)))
        else:
            h = T.add(h, _attention_branch(h, params, pre, config, train, rng, mask=mask,
                                           capture=capture, seg_start=seg_start))
        h = T.add(h, _feed_forward_branch(h, params, pre, config, train, rng))
    return T.layer_norm(h, params["lnf_g"], params["lnf_b"])


def _attention_branch(h, params, pre, config, train, rng, mask=None, capture=None,
                      seg_start=None, cls=None):
    """What a block's attention adds to the residual stream h: LN1, the
    attention, the output projection and its dropout. With `cls`, the pair
    (cls_rows, cls_mask), only the [CLS] rows query, in one
    `tensor.cls_attention` call; otherwise every row does, reading the keys
    `mask` allows. The branch's normalized input, projections and context
    die when it returns."""
    x = T.layer_norm(h, params[pre + "ln1_g"], params[pre + "ln1_b"])
    if cls is not None:
        rows, cls_mask = cls
        ctx = T.cls_attention(_linear(x[:, rows], params, pre + "q"), x, params[pre + "k_w"],
                              params[pre + "v_w"], params[pre + "v_b"], cls_mask, config.heads)
    else:
        q, k, v = (_linear(x, params, pre + name) for name in "qkv")
        if config.attention == "sliding":
            ctx = T.sliding_attention(q, k, v, mask, config.heads, config.window,
                                      probs=capture, seg_start=seg_start)
        else:
            ctx = T.attention(q, k, v, mask, config.heads)
    return T.dropout(_linear(ctx, params, pre + "o"), config.dropout, rng, train)


def _feed_forward_branch(h, params, pre, config, train, rng):
    """What a block's feed-forward adds to the residual stream h: LN2, the
    ReLU feed-forward and its dropout. Its temporaries die when it returns."""
    x = T.layer_norm(h, params[pre + "ln2_g"], params[pre + "ln2_b"])
    f = _linear(T.relu(_linear(x, params, pre + "ff1")), params, pre + "ff2")
    return T.dropout(f, config.dropout, rng, train)


def encode_chunk(ids, mask, params, config, train=False, rng=None):
    """[CLS] vectors, shape (B, D), for a batch of token sequences, one per
    row: padded chunks, including the held-out chunks of `cpe-hier`.

    The last block runs on the [CLS] row only (`encoder_forward`'s
    `cls_only`), since no other row of it is read."""
    h = encoder_forward(ids, mask, params, config, train=train, rng=rng, cls_only=True)
    return h[:, 0, :]


def encode_packed(seqs, params, config, train=False, rng=None):
    """[CLS] vectors, shape (N, D), of N unpadded token sequences, each
    starting with its [CLS], in one sliding-path encoder call: the sequences
    are laid end to end in one row, one segment each, so no position is
    padding (`encoder_forward`'s `seg_start`)."""
    lengths = [len(s) for s in seqs]
    ids = np.concatenate(seqs)[None]
    seg_start = np.repeat(np.cumsum([0, *lengths[:-1]]), lengths)
    h = encoder_forward(ids, np.ones(ids.shape, dtype=bool), params, config, train=train,
                        rng=rng, cls_only=True, seg_start=seg_start)
    return h[0]

