"""Self-tests of the benchmark's own helpers (span arithmetic, the numpy
references, the tracer). Each runs in well under a second."""

import json
import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402
import reference  # noqa: E402
import util  # noqa: E402
from tracing import SpanTable, Tracer  # noqa: E402


def _table(spans):
    """spans: (name, parent, start, end) tuples."""
    names = sorted({s[0] for s in spans})
    return SpanTable(names, np.array([names.index(s[0]) for s in spans]),
                     np.array([s[1] for s in spans]), np.array([s[2] for s in spans]),
                     np.array([s[3] for s in spans]), np.full(len(spans), -1))


def test_self_time_subtracts_direct_children_only():
    t = _table([("a", -1, 0, 100), ("b", 0, 10, 40), ("d", 1, 15, 25), ("c", 0, 50, 70)])
    assert t.self_time().tolist() == [50, 20, 10, 20]
    assert t.seconds(t.named("a"), self_only=True) == pytest.approx(50e-9)


def test_within_selects_spans_inside_named_spans():
    t = _table([("train", -1, 0, 10), ("op", 0, 2, 3), ("embed", -1, 20, 30), ("op", 2, 21, 22)])
    assert t.within("train").tolist() == [True, True, False, False]
    assert t.count(t.named("op") & t.within("embed")) == 1


def test_save_and_load_round_trip(tmp_path):
    t = _table([("a", -1, 0, 5), ("b", 0, 1, 2)])
    t.counters["x"] = 3.0
    t.save(tmp_path / "s.npz")
    u = SpanTable.load(tmp_path / "s.npz")
    assert u.names == t.names and u.counters == {"x": 3.0}
    assert u.duration.tolist() == [5, 1]


def test_attention_mask_band_plus_global():
    m = reference.attention_mask(np.array([[1, 1, 1, 1, 0]], dtype=bool), window=1)[0]
    want = np.array([[1, 1, 1, 1, 0],
                     [1, 1, 1, 0, 0],
                     [1, 1, 1, 1, 0],
                     [1, 0, 1, 1, 0],
                     [1, 0, 0, 1, 0]], dtype=bool)
    assert (m == want).all()


def test_masked_softmax_rows():
    allowed = np.array([[True, False, True], [False, False, False]])
    p = reference.masked_softmax(np.zeros((2, 3)), allowed)
    assert p.tolist() == [[0.5, 0.0, 0.5], [0.0, 0.0, 0.0]]


def test_reference_encoder_matches_program_on_tiny_case():
    from cpe.encoder import EncoderConfig, encoder_forward, init_params

    ids = np.array([[2, 5, 6, 7, 8, 9, 0], [2, 4, 4, 3, 0, 0, 0]])
    mask = ids != 0
    for attention in ("dense", "sliding"):
        cfg = EncoderConfig(vocab_size=10, dim=8, layers=2, heads=2, ff=16, max_positions=7,
                            dropout=0.0, attention=attention, window=1)
        params = init_params(cfg, 3)
        got = encoder_forward(ids, mask, params, cfg).data
        want = reference.encoder_forward(ids, mask, {k: p.data for k, p in params.items()},
                                         2, 2, window=1 if attention == "sliding" else None)
        assert np.abs(got - want).max() < 1e-5


def test_reference_mnr_loss_and_f1():
    same = np.ones((4, 3))
    assert reference.mnr_loss(same, same, 0.05) == pytest.approx(math.log(4))
    macro, micro = reference.f1([0, 0, 1, 2], [0, 1, 1, 2], 3)
    assert micro == pytest.approx(0.75)
    assert macro == pytest.approx((2 / 3 + 2 / 3 + 1) / 3)
    w = [(np.eye(2), np.zeros(2)), (np.array([[1.0, 0.0], [0.0, -1.0]]), np.zeros(2))]
    assert reference.mlp_predict(np.array([[1.0, 0.0], [0.0, 1.0]]), w).tolist() == [0, 0]


def test_tracer_records_forward_backward_and_uninstalls():
    from cpe import tensor as T
    from cpe import training

    original, imported = T.matmul, training.encode_chunk
    tracer = Tracer().install()
    try:
        assert T.matmul is not original and training.encode_chunk is not imported
        a = T.parameter(np.ones((2, 3), dtype=np.float32))
        T.backward(T.sum_(T.matmul(a, T.constant(np.ones((3, 2))))))
    finally:
        tracer.uninstall()
    assert T.matmul is original and training.encode_chunk is imported
    t = tracer.table()
    assert t.count(t.named("tensor.matmul")) == 1
    assert t.count(t.named("tensor.backward.matmul")) == 1
    assert t.count(t.within("tensor.backward")) == 3  # backward + the two nodes' closures
    assert t.count(t.node_bytes >= 0) == 2


def test_layer_metrics_of_a_tiny_traced_pretrain():
    from cpe import training
    from cpe.corpus import Document
    from cpe.encoder import EncoderConfig

    docs = [Document(id=str(i), tokens=tuple(range(3, 3 + 9 + i))) for i in range(4)]
    ecfg = EncoderConfig(vocab_size=20, dim=8, layers=1, heads=2, ff=8, max_positions=5)
    pcfg = training.PretrainConfig(epochs=1, batch_size=2, chunk_len=4, n_chunks=4, max_tokens=16)
    tracer = Tracer().install()
    try:
        result = training.pretrain(docs, ecfg, pcfg)  # looked up after install
        training.embed_documents(docs, result.params, ecfg, chunk_len=4, n_chunks=4, max_tokens=16)
    finally:
        tracer.uninstall()
    v = {k: m["value"] for k, m in layers.compute([tracer.table()]).items()}
    assert set(v) == {name for name, _ in layers.names_and_units()}
    assert v["training.steps"] == result.steps == 2
    assert v["tensor.tape_nodes_per_step"] > 0 and v["tensor.embed_tape_nodes"] > 0
    assert v["optim.adamw_s_per_step"] > 0 and v["checkpoint.save_s"] == 0


def test_benchmark_json_lists_the_per_layer_metrics():
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")) as f:
        listed = [(m["name"], m["unit"]) for m in json.load(f)["per_layer"]]
    assert listed == layers.names_and_units()
