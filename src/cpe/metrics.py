"""Evaluation: micro/macro F1, DBSCAN clustering, homogeneity and
completeness, and TSV embedding export."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .corpus import read_lines


@dataclass
class F1Report:
    per_label: dict            # label -> {"tp","fp","fn","f1"}
    macro_f1: float
    micro_f1: float


def _as_label_set(x):
    if isinstance(x, (set, frozenset)):
        return set(x)
    if isinstance(x, (list, tuple)):
        return set(x)
    return {int(x)}


def f1_scores(predictions, gold, num_labels, task="multilabel"):
    """Per-label F1 (2TP / (2TP+FP+FN)), macro mean, micro from pooled counts.

    Multiclass inputs are treated as singleton label sets. Labels with no
    support and no predictions contribute F1 = 0 to the macro average. A
    label outside [0, num_labels) raises a ValueError.
    """
    if len(predictions) != len(gold):
        raise ValueError(f"predictions ({len(predictions)}) and gold ({len(gold)}) misaligned")
    tp = np.zeros(num_labels, dtype=np.int64)
    fp = np.zeros(num_labels, dtype=np.int64)
    fn = np.zeros(num_labels, dtype=np.int64)
    for p, g in zip(predictions, gold):
        ps, gs = _as_label_set(p), _as_label_set(g)
        for l in ps | gs:
            if not 0 <= l < num_labels:
                raise ValueError(f"label id {l} out of range [0, {num_labels})")
        for l in ps & gs:
            tp[l] += 1
        for l in ps - gs:
            fp[l] += 1
        for l in gs - ps:
            fn[l] += 1
    per_label = {}
    f1s = []
    for l in range(num_labels):
        denom = 2 * tp[l] + fp[l] + fn[l]
        f1 = 2 * tp[l] / denom if denom > 0 else 0.0
        per_label[l] = {"tp": int(tp[l]), "fp": int(fp[l]), "fn": int(fn[l]), "f1": f1}
        f1s.append(f1)
    pooled = 2 * tp.sum() + fp.sum() + fn.sum()
    micro = 2 * tp.sum() / pooled if pooled > 0 else 0.0
    return F1Report(per_label=per_label, macro_f1=float(np.mean(f1s)), micro_f1=float(micro))


# ---------------------------------------------------------------------------
# DBSCAN

NOISE = -1


def dbscan(points, eps, min_pts):
    """Standard DBSCAN with Euclidean distance.

    Cluster ids are assigned in discovery order over the given point
    order, so results are deterministic; noise points get -1.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if min_pts < 1:
        raise ValueError(f"min_pts must be >= 1, got {min_pts}")
    pts = np.asarray(points, dtype=np.float64)
    n = len(pts)
    if n == 0:
        return np.empty(0, dtype=np.int64)

    # neighborhoods include the point itself
    sq = (pts * pts).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (pts @ pts.T)
    np.maximum(d2, 0.0, out=d2)
    adj = d2 <= eps * eps
    neighbor_count = adj.sum(axis=1)
    core = neighbor_count >= min_pts

    labels = np.full(n, NOISE, dtype=np.int64)
    visited = np.zeros(n, dtype=bool)
    cluster = 0
    for i in range(n):
        if visited[i] or not core[i]:
            continue
        labels[i] = cluster
        visited[i] = True
        queue = deque(np.flatnonzero(adj[i]).tolist())
        while queue:
            j = queue.popleft()
            if labels[j] == NOISE:
                labels[j] = cluster  # border point
            if visited[j]:
                continue
            visited[j] = True
            labels[j] = cluster
            if core[j]:
                queue.extend(np.flatnonzero(adj[j]).tolist())
        cluster += 1
    return labels


# ---------------------------------------------------------------------------
# homogeneity / completeness

def _entropy(counts):
    total = counts.sum()
    p = counts[counts > 0] / total
    return float(-(p * np.log(p)).sum())


def homogeneity_completeness(assignments, gold_labels, noise_as_singletons=True):
    """Entropy-based clustering quality.

    h = 1 - H(class|cluster)/H(class); c = 1 - H(cluster|class)/H(cluster);
    0/0 conventions give 1. Noise points become singleton clusters.
    """
    assignments = list(assignments)
    gold_labels = list(gold_labels)
    if len(assignments) != len(gold_labels):
        raise ValueError("assignments and labels misaligned")
    if not assignments:
        raise ValueError("empty input")

    if noise_as_singletons:
        next_id = max([a for a in assignments if a != NOISE], default=-1) + 1
        fixed = []
        for a in assignments:
            if a == NOISE:
                fixed.append(next_id)
                next_id += 1
            else:
                fixed.append(a)
        assignments = fixed

    clusters = sorted(set(assignments))
    classes = sorted(set(gold_labels))
    cmap = {c: i for i, c in enumerate(clusters)}
    kmap = {k: i for i, k in enumerate(classes)}
    cont = np.zeros((len(clusters), len(classes)), dtype=np.float64)
    for a, g in zip(assignments, gold_labels):
        cont[cmap[a], kmap[g]] += 1
    n = cont.sum()

    h_class = _entropy(cont.sum(axis=0))
    h_cluster = _entropy(cont.sum(axis=1))
    h_class_given_cluster = 0.0
    h_cluster_given_class = 0.0
    for i in range(cont.shape[0]):
        row = cont[i]
        if row.sum() > 0:
            h_class_given_cluster += row.sum() / n * _entropy(row)
    for j in range(cont.shape[1]):
        col = cont[:, j]
        if col.sum() > 0:
            h_cluster_given_class += col.sum() / n * _entropy(col)

    h = 1.0 if h_class == 0.0 else 1.0 - h_class_given_cluster / h_class
    c = 1.0 if h_cluster == 0.0 else 1.0 - h_cluster_given_class / h_cluster
    return h, c


# ---------------------------------------------------------------------------
# embedding export

def export_embeddings(path, embeddings, ids, labels):
    """TSV: header id/label/dim_0..dim_{d-1}, full float precision.

    Multi-label label cells are comma-joined ids.
    """
    embeddings = np.asarray(embeddings)
    d = embeddings.shape[1] if embeddings.size else 0
    with open(path, "w") as f:
        f.write("id\tlabel\t" + "\t".join(f"dim_{i}" for i in range(d)) + "\n")
        for doc_id, label, row in zip(ids, labels, embeddings):
            if isinstance(label, (set, frozenset, list, tuple)):
                label = ",".join(str(x) for x in sorted(label))
            f.write(f"{doc_id}\t{label}\t" + "\t".join(repr(float(v)) for v in row) + "\n")


def load_embeddings(path):
    """Inverse of export_embeddings; returns (embeddings, ids, labels). A
    file that does not start with the id and label header, a line that is
    not UTF-8, a row with other than the header's column count, a label cell
    that is not comma-joined non-negative integers or a value that is not a
    finite float raises a ValueError naming the path and the line."""
    ids, labels, rows = [], [], []
    lines = read_lines(path)
    header = next(lines, (1, ""))[1].rstrip("\n").split("\t")
    if header[:2] != ["id", "label"]:
        raise ValueError(f"{path}: line 1 is not the id, label, dim_0, ... header")
    d = len(header) - 2
    for lineno, line in lines:
        parts = line.rstrip("\n").split("\t")
        if len(parts) != len(header):
            raise ValueError(f"{path}: line {lineno} has {len(parts)} columns, "
                             f"the header {len(header)}")
        try:
            ls = frozenset(map(int, parts[1].split(","))) if parts[1] else frozenset()
            if min(ls, default=0) < 0:
                raise ValueError(f"label id {min(ls)} is negative")
            rows.append([float(v) for v in parts[2:]])
        except ValueError as e:
            raise ValueError(f"{path}: line {lineno}: {e}") from None
        labels.append(ls)
        ids.append(parts[0])
    embs = np.asarray(rows, dtype=np.float64) if rows else np.empty((0, d))
    bad = np.flatnonzero(~np.isfinite(embs).all(axis=1))
    if bad.size:
        raise ValueError(f"{path}: line {bad[0] + 2} has a non-finite value")
    return embs, ids, labels


def write_metrics(path, metrics):
    """metric<TAB>value lines, keys in insertion order."""
    with open(path, "w") as f:
        for k, v in metrics.items():
            if isinstance(v, float):
                f.write(f"{k}\t{v:.6f}\n")
            else:
                f.write(f"{k}\t{v}\n")
