import re
import struct

import numpy as np
import pytest

from cpe import classifier
from cpe import tensor as T
from cpe.checkpoint import (VERSION, Head, load_checkpoint, load_encoder, load_head,
                            save_checkpoint, save_encoder, save_head)
from cpe.corpus import Vocab, build_vocab
from cpe.encoder import EncoderConfig, init_params
from cpe.training import PretrainConfig


def set_zip_flag(data, bit):
    """`data`, a zip archive, with general-purpose flag `bit` set in its
    first local file header and its first central directory header."""
    data = bytearray(data)
    for signature, offset in ((b"PK\x03\x04", 6), (b"PK\x01\x02", 8)):
        at = data.index(signature) + offset
        struct.pack_into("<H", data, at, struct.unpack_from("<H", data, at)[0] | 1 << bit)
    return bytes(data)


def _params(seed=0):
    rng = np.random.default_rng(seed)
    return {"emb": T.parameter(rng.standard_normal((5, 3)).astype(np.float32)),
            "layer0.w": T.parameter(rng.standard_normal((3, 3)).astype(np.float32)),
            "bias": T.parameter(np.zeros(3, dtype=np.float32))}


def test_round_trip_params(tmp_path):
    path = tmp_path / "ckpt.bin"
    params = _params()
    save_checkpoint(path, params, config={"dim": 3, "lr": 0.01})
    loaded, config, vocab = load_checkpoint(path)
    assert set(loaded) == set(params)
    for k in params:
        np.testing.assert_array_equal(loaded[k].data, params[k].data)
        assert loaded[k].data.dtype == params[k].data.dtype
        assert loaded[k].requires_grad
    assert config == {"dim": 3, "lr": 0.01}
    assert vocab is None


def test_round_trip_vocab(tmp_path):
    path = tmp_path / "ckpt.bin"
    vocab = build_vocab(["alpha beta gamma", "beta gamma"], min_freq=1)
    save_checkpoint(path, _params(), vocab=vocab)
    _, _, loaded = load_checkpoint(path)
    assert loaded.tokens() == vocab.tokens()
    assert loaded.size == vocab.size


def test_empty_config_defaults_to_dict(tmp_path):
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, _params())
    _, config, _ = load_checkpoint(path)
    assert config == {}


def test_nested_config_survives(tmp_path):
    path = tmp_path / "ckpt.bin"
    cfg = {"encoder": {"dim": 8, "heads": 2}, "pretrain": {"tau": 0.05}}
    save_checkpoint(path, _params(), config=cfg)
    _, got, _ = load_checkpoint(path)
    assert got == cfg


def test_version_mismatch_rejected(tmp_path):
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, _params())
    with open(path, "rb") as f:
        z = dict(np.load(f))
    z["__version__"] = np.int64(VERSION + 1)
    with open(path, "wb") as f:
        np.savez(f, **z)
    with pytest.raises(ValueError, match="version"):
        load_checkpoint(path)


def test_missing_file_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_checkpoint(tmp_path / "nope.bin")


@pytest.mark.parametrize("damage", ["truncated", "middle-cut", "empty", "not-a-zip", "npy",
                                    "no-version", "no-config", "encrypted-flag",
                                    "patched-flag", "config-list"])
def test_damaged_file_names_the_path(tmp_path, damage):
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, _params(), config={"a": 1})
    data = path.read_bytes()
    if damage == "truncated":
        path.write_bytes(data[:len(data) // 2])
    elif damage == "middle-cut":  # the end-of-archive record survives
        path.write_bytes(data[:len(data) // 2] + data[len(data) // 2 + 16:])
    elif damage == "empty":
        path.write_bytes(b"")
    elif damage == "not-a-zip":
        path.write_text("hello\n")
    elif damage == "encrypted-flag":  # zipfile: RuntimeError
        path.write_bytes(set_zip_flag(data, 0))
    elif damage == "patched-flag":  # zipfile: NotImplementedError
        path.write_bytes(set_zip_flag(data, 5))
    elif damage == "config-list":  # valid JSON, but not an object
        save_checkpoint(path, _params(), config=["a", 1])
    elif damage == "npy":
        with open(path, "wb") as f:
            np.save(f, np.arange(3))
    else:
        with open(path, "rb") as f:
            z = dict(np.load(f))
        del z[{"no-version": "__version__", "no-config": "__config__"}[damage]]
        with open(path, "wb") as f:
            np.savez(f, **z)
    with pytest.raises(ValueError, match=re.escape(str(path))):
        load_checkpoint(path)


def _encoder_files(tmp_path):
    vocab = build_vocab(["alpha beta gamma", "beta gamma delta"], min_freq=1)
    ecfg = EncoderConfig(vocab_size=vocab.size, dim=8, layers=1, heads=2, ff=16, max_positions=9)
    pcfg = PretrainConfig(objective="simcse", chunk_len=8, pooling="mean", seed=3)
    params = init_params(ecfg, 0)
    path = tmp_path / "checkpoint.bin"
    save_encoder(path, params, ecfg, pcfg, vocab)
    return path, ecfg, pcfg, params, vocab


def test_encoder_round_trip(tmp_path):
    path, ecfg, pcfg, params, vocab = _encoder_files(tmp_path)
    got_ecfg, got_pcfg, got_params, got_vocab = load_encoder(path)
    assert got_ecfg == ecfg and got_pcfg == pcfg and got_ecfg.global_tokens == (0,)
    assert list(got_params) == list(params)
    for name, p in params.items():
        np.testing.assert_array_equal(got_params[name].data, p.data)
    assert got_vocab.tokens() == vocab.tokens()


def _head_files(tmp_path, **echo):
    head = Head(task="multilabel", num_labels=3, hidden=(4, 5, 6), threshold=0.5, seed=2,
                train_frac=0.8, num_docs=10)
    params = classifier.init_mlp(7, 3, head.hidden, 0)
    path = tmp_path / "clf.bin"
    save_head(path, params, head)
    if echo:
        _, meta, _ = load_checkpoint(path)
        save_checkpoint(path, params, config=meta | echo)
    return path, head, params


def test_head_round_trip(tmp_path):
    path, head, params = _head_files(tmp_path)
    got, got_params = load_head(path, 7)
    assert got == head and got.hidden == (4, 5, 6)
    for name, p in params.items():
        np.testing.assert_array_equal(got_params[name].data, p.data)


@pytest.mark.parametrize("echo,named", [
    ({"threshold": 1}, "threshold must be a finite float, got 1"),
    ({"threshold": float("inf")}, "threshold must be a finite float, got Infinity"),
    ({"num_labels": True}, "num_labels must be an integer, got true"),
    ({"hidden": [4, 5.0, 6]}, "hidden must be a list of integers"),
    ({"task": "regression"}, "task must be multiclass or multilabel"),
    ({"seed": -1}, "seed must be >= 0"),
    ({"train_frac": 0.05}, "train_frac 0.05 leaves an empty train or test split"),
    ({"hidden_layers": 3}, "unknown echo key hidden_layers"),
])
def test_head_echo_checked_key_by_key(tmp_path, echo, named):
    path, _, _ = _head_files(tmp_path, **echo)
    with pytest.raises(ValueError, match=re.escape(f"{path}: ") + ".*" + re.escape(named)):
        load_head(path, 7)


def test_head_over_other_embeddings_rejected(tmp_path):
    path, _, _ = _head_files(tmp_path)
    with pytest.raises(ValueError, match=re.escape(f"{path}: parameter h0_w is (7, 4) in the "
                                                   f"weights but (8, 4)")):
        load_head(path, 8)


def test_encoder_without_vocabulary_rejected(tmp_path):
    path, ecfg, pcfg, params, _ = _encoder_files(tmp_path)
    save_checkpoint(path, params, config={"encoder": vars(ecfg), "pretrain": vars(pcfg)})
    with pytest.raises(ValueError, match=re.escape(f"{path}: the vocabulary has 0 tokens")):
        load_encoder(path)
