import re
import struct

import numpy as np
import pytest

from cpe import tensor as T
from cpe.checkpoint import VERSION, load_checkpoint, save_checkpoint
from cpe.corpus import Vocab, build_vocab


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
                                    "patched-flag"])
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
