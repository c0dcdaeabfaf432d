"""Checkpoint container: config echo, vocabulary, named parameter tensors.

Layout (version 1): a zip archive written by numpy's savez containing
  __version__            scalar int
  __config__             JSON string with the config echo
  __vocab__              newline-joined token list (absent if no vocab)
  param/<name>           one array per parameter tensor
The container is stable across minor versions of this package.
"""

from __future__ import annotations

import json
import zipfile

import numpy as np

from . import tensor as T
from .corpus import Vocab

VERSION = 1


def save_checkpoint(path, params, config=None, vocab=None):
    arrays = {"__version__": np.int64(VERSION),
              "__config__": np.array(json.dumps(config or {}, sort_keys=True))}
    if vocab is not None:
        arrays["__vocab__"] = np.array("\n".join(vocab.tokens()))
    for name, p in params.items():
        arrays["param/" + name] = p.data if isinstance(p, T.Tensor) else np.asarray(p)
    with open(path, "wb") as f:
        np.savez(f, **arrays)


def load_checkpoint(path):
    """Returns (params name->Tensor, config dict, vocab or None).

    A file that is not a checkpoint of this version (not a zip archive, a
    damaged one, one whose members are flagged encrypted or patched, one
    without `__version__` or `__config__`) raises a
    ValueError that names `path`; a file that cannot be opened stays an
    OSError."""
    with open(path, "rb") as f:
        try:
            if not zipfile.is_zipfile(f):
                raise ValueError("not a zip archive")
            f.seek(0)
            with np.load(f, allow_pickle=False) as z:
                missing = sorted({"__version__", "__config__"} - set(z.files))
                if missing:
                    raise ValueError(f"no {' or '.join(missing)} entry")
                version = int(z["__version__"])
                if version != VERSION:
                    raise ValueError(f"unsupported checkpoint version {version}")
                config = json.loads(str(z["__config__"]))
                vocab = None
                if "__vocab__" in z.files:
                    tokens = str(z["__vocab__"])
                    vocab = Vocab.from_tokens(tokens.split("\n")) if tokens else Vocab()
                params = {name[len("param/"):]: T.parameter(z[name], name=name[len("param/"):])
                          for name in z.files if name.startswith("param/")}
        # OSError: a bad offset; RuntimeError: a member flagged as encrypted, or
        # (NotImplementedError) as a compressed patched file
        except (ValueError, OSError, RuntimeError, zipfile.BadZipFile) as e:
            raise ValueError(f"{path} is not a readable checkpoint: {e}") from None
    return params, config, vocab
