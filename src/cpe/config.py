"""Experiment configuration: typed key=value sections (INI), with
command-line overrides. The `synthetic`, `encoder`, `pretrain` and
`classifier` keys are the fields of the dataclasses they build, less the
ones the program derives; a key's type is the type of its default. Load
rejects an unknown key, a malformed value and a value out of range (the
dataclasses' `validate` checks and `RANGES`) with a ConfigError naming it;
checks that depend on a stage's `--objective` run when it builds its configs."""

from __future__ import annotations

import configparser
import dataclasses
import math
from dataclasses import dataclass

from .classifier import ClassifierConfig
from .corpus import SyntheticSpec
from .encoder import EncoderConfig
from .training import PretrainConfig

SECTIONS = {"synthetic": SyntheticSpec, "encoder": EncoderConfig,
            "pretrain": PretrainConfig, "classifier": ClassifierConfig}
DERIVED = ("seed", "vocab_size", "max_positions", "global_tokens", "attention")
PLACEHOLDERS = {"encoder": {"vocab_size": 1}}  # derived fields without a default

DEFAULTS = {
    "run": {"seed": 1, "output_dir": "out"},
    "corpus": {"source": "synthetic", "min_freq": 1, "train_frac": 0.8},
    **{name: {f.name: f.default for f in dataclasses.fields(cls) if f.name not in DERIVED}
       for name, cls in SECTIONS.items()},
    "eval": {"dbscan_eps": 0.2, "dbscan_min_pts": 5, "normalize": True},
}

_EXPECTED = {bool: "true or false", int: "an integer", float: "a finite number",
             tuple: "comma-separated integers"}


class ConfigError(ValueError):
    pass


def _parse(key, text, default):
    """`text` as the type of `default`."""
    kind = type(default)
    try:
        if kind is bool:
            return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
        value = tuple(int(x) for x in text.split(",")) if kind is tuple else kind(text)
        if kind is float and not math.isfinite(value):
            raise ValueError(text)
        return value
    except (KeyError, ValueError):
        raise ConfigError(f"{key} must be {_EXPECTED[kind]}, got '{text}'") from None


def _text(value):
    """`value` as `_parse` reads it back."""
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


# ranges of the keys that no dataclass validates: (section, key, test, wording)
RANGES = [("run", "seed", lambda v: 0 <= v < 2**64, "in [0, 2**64)"),  # a Philox key
          ("corpus", "min_freq", lambda v: v >= 1, ">= 1"),
          ("corpus", "train_frac", lambda v: 0 < v < 1, "in (0, 1)"),
          ("eval", "dbscan_eps", lambda v: v > 0, "positive"),
          ("eval", "dbscan_min_pts", lambda v: v >= 1, ">= 1")]


def _check_ranges(values):
    try:
        for name, cls in SECTIONS.items():
            cls(**values[name], **PLACEHOLDERS.get(name, {})).validate()
    except ValueError as e:
        raise ConfigError(str(e)) from None
    for section, key, ok, wording in RANGES:
        value = values[section][key]
        if not ok(value):
            raise ConfigError(f"{section}.{key} must be {wording}, got {value}")


@dataclass
class ExperimentConfig:
    values: dict  # section -> key -> typed value

    @classmethod
    def load(cls, path=None, overrides=()):
        entries = []  # (section, key, text), file first so overrides win
        if path is not None:
            parser = configparser.ConfigParser(interpolation=None)
            parser.optionxform = str
            try:
                if not parser.read(path):
                    raise ConfigError(f"config file not found: {path}")
            except (configparser.Error, UnicodeDecodeError) as e:
                raise ConfigError(f"cannot read config file {path}: "
                                  + " ".join(str(e).split())) from None  # one line
            entries += [(section, key, text) for section in parser  # DEFAULT too
                        for key, text in parser[section].items()]
        for ov in overrides:
            key, eq, text = ov.partition("=")
            section, dot, name = key.partition(".")
            if not (eq and dot):
                raise ConfigError(f"override must look like section.key=value, got '{ov}'")
            entries.append((section, name, text))

        values = {section: dict(keys) for section, keys in DEFAULTS.items()}
        for section, name, text in entries:
            if section not in values:
                raise ConfigError(f"unknown config section '{section}' (in "
                                  f"{section}.{name}); sections: {', '.join(values)}")
            if name not in values[section]:
                raise ConfigError(f"unknown config key {section}.{name}; keys: "
                                  f"{', '.join(values[section])}")
            values[section][name] = _parse(f"{section}.{name}", text, DEFAULTS[section][name])
        _check_ranges(values)
        return cls(values)

    def get(self, section, key):
        return self.values[section][key]

    @property
    def seed(self):
        return self.get("run", "seed")

    @property
    def output_dir(self):
        return self.get("run", "output_dir")

    def synthetic_spec(self):
        return SyntheticSpec(**self.values["synthetic"])

    def pretrain_config(self, objective=None):
        p = self.values["pretrain"]
        return PretrainConfig(**dict(p, objective=objective or p["objective"]), seed=self.seed)

    def encoder_config(self, vocab_size, objective):
        p = self.values["pretrain"]
        attention = "sliding" if objective == "cpe-long" else "dense"
        tokens = p["max_tokens"] if attention == "sliding" else p["chunk_len"]
        return EncoderConfig(**self.values["encoder"], attention=attention,
                             vocab_size=vocab_size, max_positions=tokens + 1)

    def classifier_config(self):
        return ClassifierConfig(**self.values["classifier"], seed=self.seed)

    def dump(self):
        return "".join(f"[{section}]\n" + "".join(f"{k} = {_text(v)}\n" for k, v in keys.items())
                       + "\n" for section, keys in self.values.items())
