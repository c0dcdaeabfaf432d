import math
import re
from collections import Counter

import numpy as np
import pytest

from cpe.metrics import (NOISE, dbscan, export_embeddings, f1_scores,
                         homogeneity_completeness, load_embeddings,
                         write_metrics)


# ---------------------------------------------------------------------------
# reference implementations used as oracles

def naive_f1(predictions, gold, num_labels):
    """Recount per-label confusion cells one document at a time."""
    f1s = []
    tp_sum = fp_sum = fn_sum = 0
    for l in range(num_labels):
        tp = fp = fn = 0
        for p, g in zip(predictions, gold):
            in_p, in_g = l in p, l in g
            tp += in_p and in_g
            fp += in_p and not in_g
            fn += in_g and not in_p
        f1s.append(2 * tp / (2 * tp + fp + fn) if tp + fp + fn else 0.0)
        tp_sum, fp_sum, fn_sum = tp_sum + tp, fp_sum + fp, fn_sum + fn
    pooled = 2 * tp_sum + fp_sum + fn_sum
    micro = 2 * tp_sum / pooled if pooled else 0.0
    return sum(f1s) / num_labels, micro


def naive_dbscan(points, eps, min_pts):
    """Textbook DBSCAN with explicit region queries; no adjacency matrix."""
    pts = np.asarray(points, dtype=np.float64)
    n = len(pts)

    def region(i):
        return [j for j in range(n)
                if np.linalg.norm(pts[i] - pts[j]) <= eps]

    labels = [None] * n
    cluster = -1
    for i in range(n):
        if labels[i] is not None:
            continue
        nbrs = region(i)
        if len(nbrs) < min_pts:
            labels[i] = NOISE
            continue
        cluster += 1
        labels[i] = cluster
        seeds = list(nbrs)
        k = 0
        while k < len(seeds):
            j = seeds[k]
            k += 1
            if labels[j] == NOISE:
                labels[j] = cluster
            if labels[j] is not None:
                continue
            labels[j] = cluster
            j_nbrs = region(j)
            if len(j_nbrs) >= min_pts:
                seeds.extend(j_nbrs)
    return labels


def naive_h_c(assignments, gold):
    """Homogeneity/completeness from joint probabilities, independent of the
    contingency-table code path."""
    n = len(gold)
    joint = Counter(zip(assignments, gold))

    def entropy(counter):
        return -sum(c / n * math.log(c / n) for c in counter.values())

    h_class = entropy(Counter(gold))
    h_cluster = entropy(Counter(assignments))
    h_joint = entropy(joint)
    h_class_given_cluster = h_joint - h_cluster
    h_cluster_given_class = h_joint - h_class
    h = 1.0 if h_class == 0 else 1.0 - h_class_given_cluster / h_class
    c = 1.0 if h_cluster == 0 else 1.0 - h_cluster_given_class / h_cluster
    return h, c


def _same_partition(a, b):
    """True when two labelings induce the same partition, treating every
    noise point as its own block."""
    blocks = {}
    singleton = 0
    canon_a = []
    for x in a:
        if x == NOISE:
            canon_a.append(("s", singleton))
            singleton += 1
        else:
            canon_a.append(("c", x))
    canon_b = []
    singleton = 0
    for x in b:
        if x == NOISE:
            canon_b.append(("s", singleton))
            singleton += 1
        else:
            canon_b.append(("c", x))
    for x, y in zip(canon_a, canon_b):
        if x in blocks and blocks[x] != y:
            return False
        blocks[x] = y
    return len(set(blocks.values())) == len(blocks)


# ---------------------------------------------------------------------------

class TestF1:
    def test_perfect_predictions(self):
        gold = [{0}, {1}, {2}, {0, 1}]
        rep = f1_scores(gold, gold, 3)
        assert rep.macro_f1 == 1.0 and rep.micro_f1 == 1.0

    def test_hand_computed_example(self):
        # label 0: tp=1 fp=1 fn=0 -> f1 = 2/3; label 1: tp=0 fp=0 fn=1 -> 0
        preds = [{0}, {0}]
        gold = [{0}, {1}]
        rep = f1_scores(preds, gold, 2)
        assert abs(rep.per_label[0]["f1"] - 2 / 3) < 1e-12
        assert rep.per_label[1]["f1"] == 0.0
        assert abs(rep.macro_f1 - 1 / 3) < 1e-12
        # pooled: tp=1 fp=1 fn=1 -> micro = 2/4
        assert abs(rep.micro_f1 - 0.5) < 1e-12

    def test_zero_support_label_counts_as_zero(self):
        rep = f1_scores([{0}], [{0}], 3)
        assert abs(rep.macro_f1 - 1 / 3) < 1e-12
        assert rep.micro_f1 == 1.0

    def test_multiclass_ints_accepted(self):
        rep = f1_scores([0, 1, 1], [0, 1, 0], 2)
        ref = f1_scores([{0}, {1}, {1}], [{0}, {1}, {0}], 2)
        assert rep.macro_f1 == ref.macro_f1 and rep.micro_f1 == ref.micro_f1

    @pytest.mark.parametrize("preds,gold", [([{0}], [{9}]), ([{0}], [{-3}]), ([{3}], [{0}]),
                                            ([0], [-1])])
    def test_label_outside_the_range_rejected(self, preds, gold):
        # 9 used to be an IndexError, -3 to be counted as label 0
        with pytest.raises(ValueError, match=r"out of range \[0, 3\)"):
            f1_scores(preds, gold, 3, task="multiclass")

    def test_misaligned_lengths_error(self):
        with pytest.raises(ValueError, match="misaligned"):
            f1_scores([{0}], [{0}, {1}], 2)

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_naive_recount(self, seed):
        rng = np.random.default_rng(seed)
        num_labels = int(rng.integers(2, 7))
        n = int(rng.integers(1, 60))
        gold = [set(np.flatnonzero(rng.random(num_labels) < 0.4).tolist()) for _ in range(n)]
        preds = [set(np.flatnonzero(rng.random(num_labels) < 0.4).tolist()) for _ in range(n)]
        rep = f1_scores(preds, gold, num_labels)
        macro, micro = naive_f1(preds, gold, num_labels)
        assert abs(rep.macro_f1 - macro) < 1e-12
        assert abs(rep.micro_f1 - micro) < 1e-12


class TestDbscan:
    def test_two_obvious_blobs(self):
        rng = np.random.default_rng(0)
        pts = np.concatenate([rng.normal(0, 0.05, (20, 2)),
                              rng.normal(5, 0.05, (20, 2))])
        labels = dbscan(pts, eps=0.5, min_pts=3)
        assert set(labels[:20]) == {0} and set(labels[20:]) == {1}

    def test_isolated_point_is_noise(self):
        pts = np.array([[0, 0], [0.1, 0], [0, 0.1], [10, 10]])
        labels = dbscan(pts, eps=0.5, min_pts=3)
        assert labels[3] == NOISE
        assert set(labels[:3]) == {0}

    def test_chain_connectivity(self):
        # points spaced 0.9 apart with eps=1: one cluster
        pts = np.array([[0.9 * i, 0.0] for i in range(10)])
        labels = dbscan(pts, eps=1.0, min_pts=2)
        assert set(labels) == {0}

    def test_empty_input(self):
        assert dbscan(np.empty((0, 3)), 0.5, 3).size == 0

    def test_invalid_params(self):
        with pytest.raises(ValueError, match="eps"):
            dbscan(np.zeros((2, 2)), 0.0, 3)
        with pytest.raises(ValueError, match="min_pts"):
            dbscan(np.zeros((2, 2)), 0.5, 0)

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        pts = rng.standard_normal((50, 3))
        a = dbscan(pts, 0.8, 4)
        b = dbscan(pts, 0.8, 4)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_textbook_reference(self, seed):
        rng = np.random.default_rng(seed)
        centers = rng.uniform(-4, 4, (int(rng.integers(1, 4)), 2))
        pts = np.concatenate([c + rng.normal(0, 0.3, (15, 2)) for c in centers]
                             + [rng.uniform(-6, 6, (8, 2))])
        eps = float(rng.uniform(0.3, 1.0))
        min_pts = int(rng.integers(2, 6))
        got = dbscan(pts, eps, min_pts).tolist()
        ref = naive_dbscan(pts, eps, min_pts)
        # both scan points in index order, so cluster ids line up exactly
        assert got == ref


class TestHomogeneityCompleteness:
    def test_perfect_clustering(self):
        h, c = homogeneity_completeness([0, 0, 1, 1], ["a", "a", "b", "b"])
        assert h == 1.0 and c == 1.0

    def test_single_cluster_low_homogeneity(self):
        h, c = homogeneity_completeness([0, 0, 0, 0], ["a", "a", "b", "b"])
        assert h == 0.0 and c == 1.0

    def test_all_singletons(self):
        h, c = homogeneity_completeness([0, 1, 2, 3], ["a", "a", "b", "b"])
        # H(cluster|class) = log 2, H(cluster) = log 4
        assert h == 1.0 and abs(c - 0.5) < 1e-12

    def test_single_class_conventions(self):
        h, c = homogeneity_completeness([0, 1], ["a", "a"])
        assert h == 1.0  # H(class) = 0 -> convention
        assert c == 0.0

    def test_noise_becomes_singletons(self):
        direct = homogeneity_completeness([0, 0, 1, 2], ["a", "a", "b", "b"],
                                          noise_as_singletons=False)
        via_noise = homogeneity_completeness([0, 0, NOISE, NOISE],
                                             ["a", "a", "b", "b"])
        assert via_noise == pytest.approx(direct)

    def test_misaligned_error(self):
        with pytest.raises(ValueError, match="misaligned"):
            homogeneity_completeness([0], ["a", "b"])

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_joint_entropy_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 80))
        assigns = rng.integers(0, 5, n).tolist()
        gold = rng.integers(0, 4, n).tolist()
        h, c = homogeneity_completeness(assigns, gold, noise_as_singletons=False)
        h_ref, c_ref = naive_h_c(assigns, gold)
        assert abs(h - h_ref) < 1e-9
        assert abs(c - c_ref) < 1e-9


class TestEmbeddingIO:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "embs.tsv"
        rng = np.random.default_rng(0)
        embs = rng.standard_normal((5, 4)).astype(np.float32)
        ids = [f"doc{i}" for i in range(5)]
        labels = [frozenset({0}), frozenset({1, 2}), frozenset({0}),
                  frozenset({2}), frozenset({1})]
        export_embeddings(path, embs, ids, labels)
        got_embs, got_ids, got_labels = load_embeddings(path)
        np.testing.assert_array_equal(got_embs, embs.astype(np.float64))
        assert got_ids == ids
        assert got_labels == labels

    def test_header_format(self, tmp_path):
        path = tmp_path / "e.tsv"
        export_embeddings(path, np.zeros((1, 3)), ["x"], [frozenset({0})])
        header = path.read_text().splitlines()[0]
        assert header == "id\tlabel\tdim_0\tdim_1\tdim_2"

    @pytest.mark.parametrize("text,named", [
        ("", "line 1 is not the id, label"),
        ("x\ty\n", "line 1 is not the id, label"),
        ("id\tlabel\tdim_0\nd0\t-3\t0.5\n", "line 2: label id -3 is negative"),
        ("id\tlabel\tdim_0\nd0\t1,-2\t0.5\n", "line 2: label id -2 is negative"),
    ], ids=["empty", "no-header", "negative-label", "negative-of-two"])
    def test_bad_file_names_path_and_line(self, tmp_path, text, named):
        path = tmp_path / "e.tsv"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{path}: {named}")):
            load_embeddings(path)

    def test_undecodable_line_named(self, tmp_path):
        path = tmp_path / "e.tsv"
        path.write_bytes(b"id\tlabel\tdim_0\nd0\t0\t0.5\nd1\t0\t0.\xff5\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 3 is not UTF-8")):
            load_embeddings(path)

    def test_multilabel_cell_sorted_comma_joined(self, tmp_path):
        path = tmp_path / "e.tsv"
        export_embeddings(path, np.zeros((1, 2)), ["x"], [frozenset({2, 0})])
        row = path.read_text().splitlines()[1].split("\t")
        assert row[1] == "0,2"


def test_write_metrics_format(tmp_path):
    path = tmp_path / "metrics.txt"
    write_metrics(path, {"macro_f1": 0.5, "num_clusters": 3})
    assert path.read_text() == "macro_f1\t0.500000\nnum_clusters\t3\n"
