"""Plain numpy computations the benchmark checks the program against.

Nothing here imports `cpe`: each function restates the computation from
its definition, in float64, so an error in the program's own code cannot
cancel out in the comparison.
"""

from __future__ import annotations

import math

import numpy as np

LN_EPS = 1e-5


def layer_norm(x, gamma, beta):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + LN_EPS) * gamma + beta


def attention_mask(key_mask, window=None):
    """(B, L, L) bool: may query row i read key j.

    Dense (`window` None): every real key. Sliding: keys with |i - j| <=
    window plus the CLS key at position 0, the only global token; the CLS
    query row reads every real key.
    """
    key_mask = np.asarray(key_mask, dtype=bool)
    b, l = key_mask.shape
    allowed = np.broadcast_to(key_mask[:, None, :], (b, l, l)).copy()
    if window is not None:
        i = np.arange(l)
        band = np.abs(i[:, None] - i[None, :]) <= window
        cls = i == 0
        allowed &= (band | cls[None, :] | cls[:, None])[None]
    return allowed


def masked_softmax(scores, allowed):
    s = np.where(allowed, scores, -np.inf)
    mx = s.max(axis=-1, keepdims=True)
    mx = np.where(np.isfinite(mx), mx, 0.0)
    e = np.where(allowed, np.exp(s - mx), 0.0)
    denom = e.sum(axis=-1, keepdims=True)
    return np.divide(e, denom, out=np.zeros_like(e), where=denom > 0)


def encoder_forward(ids, key_mask, params, layers, heads, window=None):
    """Pre-LN transformer over (B, L) token ids with an explicit L x L mask.

    `params` maps the encoder's parameter names to arrays; returns the
    (B, L, D) float64 hidden states after the final layer norm.
    """
    p = {k: np.asarray(v, dtype=np.float64) for k, v in params.items()}
    ids = np.asarray(ids)
    b, l = ids.shape
    d = p["tok_emb"].shape[1]
    dh = d // heads
    allowed = attention_mask(key_mask, window)[:, None]  # (B,1,L,L)
    h = p["tok_emb"][ids] + p["pos_emb"][:l][None]

    def heads_first(x):
        return x.reshape(b, l, heads, dh).transpose(0, 2, 1, 3)

    for i in range(layers):
        pre = f"layer{i}."
        x = layer_norm(h, p[pre + "ln1_g"], p[pre + "ln1_b"])
        q, k, v = (heads_first(x @ p[pre + n + "_w"] + p[pre + n + "_b"]) for n in "qkv")
        probs = masked_softmax(q @ k.transpose(0, 1, 3, 2) / math.sqrt(dh), allowed)
        ctx = (probs @ v).transpose(0, 2, 1, 3).reshape(b, l, d)
        h = h + ctx @ p[pre + "o_w"] + p[pre + "o_b"]
        x = layer_norm(h, p[pre + "ln2_g"], p[pre + "ln2_b"])
        f = np.maximum(x @ p[pre + "ff1_w"] + p[pre + "ff1_b"], 0.0)
        h = h + f @ p[pre + "ff2_w"] + p[pre + "ff2_b"]
    return layer_norm(h, p["lnf_g"], p["lnf_b"])


def mnr_loss(anchors, cands, tau):
    """-(1/N) sum_i log softmax_j(cos(a_i, c_j) / tau)[i], one row at a time."""
    a = np.asarray(anchors, dtype=np.float64)
    c = np.asarray(cands, dtype=np.float64)
    total = 0.0
    for i in range(len(a)):
        logits = [float(a[i] @ c[j]) / (np.linalg.norm(a[i]) * np.linalg.norm(c[j])) / tau
                  for j in range(len(c))]
        m = max(logits)
        lse = m + math.log(sum(math.exp(z - m) for z in logits))
        total += lse - logits[i]
    return total / len(a)


def mlp_predict(x, weights):
    """Argmax labels of the classifier head: tanh hidden layers, linear output.

    `weights` is the ordered list [(W0, b0), (W1, b1), ...].
    """
    h = np.asarray(x, dtype=np.float64)
    for i, (w, bias) in enumerate(weights):
        h = h @ np.asarray(w, dtype=np.float64) + np.asarray(bias, dtype=np.float64)
        if i < len(weights) - 1:
            h = np.tanh(h)
    return np.argmax(h, axis=1)


def f1(predicted, gold, num_labels):
    """(macro, micro) F1 for single-label predictions: F1 = 2TP / (2TP + FP + FN)."""
    tp = fp = fn = 0
    per_label = []
    for label in range(num_labels):
        t = sum(1 for p, g in zip(predicted, gold) if p == label and g == label)
        f_pos = sum(1 for p, g in zip(predicted, gold) if p == label and g != label)
        f_neg = sum(1 for p, g in zip(predicted, gold) if p != label and g == label)
        denom = 2 * t + f_pos + f_neg
        per_label.append(2 * t / denom if denom else 0.0)
        tp, fp, fn = tp + t, fp + f_pos, fn + f_neg
    pooled = 2 * tp + fp + fn
    return sum(per_label) / num_labels, (2 * tp / pooled if pooled else 0.0)
