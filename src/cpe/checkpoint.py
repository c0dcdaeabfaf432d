"""Model artifacts: the checkpoint container, and what each artifact holds.

Container (version 1): a zip archive written by numpy's savez holding
`__version__` (scalar int), `__config__` (a JSON object, the config echo),
`__vocab__` (newline-joined tokens, absent if no vocab) and `param/<name>`
(one array per parameter). It is stable across minor versions.

Each model artifact has one writer and one validating reader:
- checkpoint.bin (`save_encoder`/`load_encoder`): the echo is {"encoder":
  the EncoderConfig fields, "pretrain": the PretrainConfig fields}, then the
  vocabulary and the `encoder.param_specs` parameters.
- clf.bin (`save_head`/`load_head`): the echo is the Head fields, then the
  `classifier.param_specs` parameters over the embedding width.
A reader rebuilds each dataclass from its echo and validates it, then checks
every parameter's name, shape and dtype (float32), and returns the
parameters as a `tensor.Parameters` store in `param_specs` order. A failure
is a ValueError naming the path, then the key or the parameter.
"""

from __future__ import annotations

import json
import math
import typing
import zipfile
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import classifier
from . import encoder
from . import tensor as T
from .corpus import Vocab
from .training import PretrainConfig

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
    without `__version__` or `__config__`, or whose `__config__` is not a
    JSON object) raises a ValueError that names `path`; a file that cannot
    be opened stays an OSError."""
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
                if not isinstance(config, dict):
                    raise ValueError("__config__ is not a JSON object")
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


@dataclass
class Head:
    """The head's task, labels, hidden widths and multilabel threshold, and
    the split of `num_docs` embeddings (seed, train_frac) it trained on."""
    task: str
    num_labels: int
    hidden: tuple
    threshold: float
    seed: int
    train_frac: float
    num_docs: int

    def validate(self):
        if self.task not in ("multiclass", "multilabel"):
            raise ValueError(f"task must be multiclass or multilabel, got '{self.task}'")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0 < int(self.train_frac * self.num_docs) < self.num_docs:
            raise ValueError(f"train_frac {self.train_frac} leaves an empty train or test "
                             f"split of num_docs {self.num_docs}")


_KINDS = {int: "an integer", float: "a finite float", str: "a string", tuple: "a list of integers"}


def _from_echo(cls, echo, section):
    """A validated `cls` from its echo: every field, no other key, each value
    of the field's declared type, a list of integers read as a tuple."""
    prefix = f"{section}." if section else ""
    if not isinstance(echo, dict):
        raise ValueError(f"the echo of {section} is not a JSON object")
    kinds = typing.get_type_hints(cls)
    names = [f.name for f in fields(cls)]
    unknown = sorted(echo.keys() - set(names))
    if unknown:
        raise ValueError(f"unknown echo key {prefix}{unknown[0]}")
    values = {}
    for name in names:
        if name not in echo:
            raise ValueError(f"the echo has no {prefix}{name}")
        value, kind = echo[name], kinds[name]
        if type(value) is list and all(type(x) is int for x in value):
            value = tuple(value)
        if type(value) is not kind or kind is float and not math.isfinite(value):
            raise ValueError(f"echo key {prefix}{name} must be {_KINDS[kind]}, "
                             f"got {json.dumps(echo[name])[:32]}")
        values[name] = value
    config = cls(**values)
    config.validate()
    return config


def _check_params(params, specs, echo):
    """Every parameter's name and shape against `specs`, in their creation
    order, then any parameter the specs lack; then every dtype."""
    for name in [*specs, *sorted(params.keys() - specs.keys())]:
        got = params[name].shape if name in params else "absent"
        want = specs[name][0] if name in specs else "absent"
        if got != want:
            raise ValueError(f"parameter {name} is {got} in the weights but {want} in {echo}")
    for name, p in params.items():
        if p.data.dtype != np.float32:
            raise ValueError(f"parameter {name} is {p.data.dtype}, not float32")


def save_encoder(path, params, ecfg, pcfg, vocab):
    save_checkpoint(path, params, config={"encoder": asdict(ecfg), "pretrain": asdict(pcfg)},
                    vocab=vocab)


def _store(params, specs):
    """The checked parameters as one `T.Parameters` store in `specs` order:
    the layout `encoder.init_params` or `classifier.init_mlp` gives, so an
    optimizer can step a loaded model too. One copy."""
    return T.Parameters({name: params[name].data for name in specs})


def load_encoder(path):
    """(EncoderConfig, PretrainConfig, params, vocab) of a `save_encoder`
    file, the params a `T.Parameters` store."""
    params, echo, vocab = load_checkpoint(path)
    try:
        if sorted(echo) != ["encoder", "pretrain"]:
            raise ValueError(f"the echo holds {sorted(echo)}, not encoder and pretrain")
        ecfg = _from_echo(encoder.EncoderConfig, echo["encoder"], "encoder")
        pcfg = _from_echo(PretrainConfig, echo["pretrain"], "pretrain")
        if vocab is None or vocab.size != ecfg.vocab_size:
            raise ValueError(f"the vocabulary has {0 if vocab is None else vocab.size} "
                             f"tokens, the encoder echo {ecfg.vocab_size}")
        specs = encoder.param_specs(ecfg)
        _check_params(params, specs, "the encoder echo")
    except ValueError as e:
        raise ValueError(f"{path}: {e}; re-run 'pretrain'") from None
    return ecfg, pcfg, _store(params, specs), vocab


def save_head(path, params, head):
    save_checkpoint(path, params, config=asdict(head))


def load_head(path, dim):
    """(Head, params) of a `save_head` file, its weights checked against a
    head over `dim`-wide embeddings; the params a `T.Parameters` store."""
    params, echo, _ = load_checkpoint(path)
    try:
        head = _from_echo(Head, echo, "")
        specs = classifier.param_specs(dim, head.num_labels, head.hidden)
        _check_params(params, specs, f"the echo for {dim}-wide embeddings")
    except ValueError as e:
        raise ValueError(f"{path}: {e}; re-run 'train-clf'") from None
    return head, _store(params, specs)
