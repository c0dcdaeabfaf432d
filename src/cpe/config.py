"""Experiment configuration: flat typed key=value sections (INI), with
command-line overrides."""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass

from .classifier import ClassifierConfig
from .corpus import SyntheticSpec
from .encoder import EncoderConfig
from .training import PretrainConfig

DEFAULTS = {
    "run": {"seed": "1", "output_dir": "out"},
    "corpus": {"source": "synthetic", "min_freq": "1", "train_frac": "0.8"},
    "synthetic": {"num_docs": "1000", "num_topics": "4", "doc_len_min": "64",
                  "doc_len_max": "160", "vocab_per_topic": "100", "shared_vocab": "100",
                  "noise_rate": "0.3", "task": "multiclass", "doc_alpha": "0.3"},
    "encoder": {"dim": "64", "layers": "2", "heads": "4", "ff": "128",
                "dropout": "0.1", "attention": "dense", "window": "16",
                "max_positions": "auto"},
    "pretrain": {"objective": "cpe-hier", "epochs": "3", "batch_size": "4",
                 "lr": "2e-4", "weight_decay": "0.001", "tau": "0.05",
                 "chunk_len": "16", "n_chunks": "10", "max_tokens": "160",
                 "esimcse_rate": "0.15", "pooling": "max"},
    "classifier": {"epochs": "20", "batch_size": "16", "lr": "1e-3",
                   "hidden": "64,64,64", "threshold": "0.5", "weight_decay": "0.001"},
    "eval": {"dbscan_eps": "0.2", "dbscan_min_pts": "5", "normalize": "true"},
}


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    parser: configparser.ConfigParser

    @classmethod
    def load(cls, path=None, overrides=()):
        parser = configparser.ConfigParser()
        parser.read_dict(DEFAULTS)
        if path is not None:
            read = parser.read(path)
            if not read:
                raise ConfigError(f"config file not found: {path}")
        for ov in overrides:
            if "=" not in ov or "." not in ov.split("=", 1)[0]:
                raise ConfigError(f"override must look like section.key=value, got '{ov}'")
            key, value = ov.split("=", 1)
            section, name = key.split(".", 1)
            if section not in parser:
                parser[section] = {}
            parser[section][name] = value
        return cls(parser)

    def get(self, section, key):
        return self.parser[section][key]

    def getint(self, section, key):
        return self.parser.getint(section, key)

    def getfloat(self, section, key):
        return self.parser.getfloat(section, key)

    @property
    def seed(self):
        seed = self.getint("run", "seed")
        if seed < 0:
            raise ConfigError(f"run.seed must be >= 0, got {seed}")
        return seed

    @property
    def output_dir(self):
        return self.get("run", "output_dir")

    def synthetic_spec(self):
        s = self.parser["synthetic"]
        return SyntheticSpec(num_docs=s.getint("num_docs"),
                             num_topics=s.getint("num_topics"),
                             doc_len_min=s.getint("doc_len_min"),
                             doc_len_max=s.getint("doc_len_max"),
                             vocab_per_topic=s.getint("vocab_per_topic"),
                             shared_vocab=s.getint("shared_vocab"),
                             noise_rate=s.getfloat("noise_rate"),
                             task=s.get("task"),
                             doc_alpha=s.getfloat("doc_alpha"))

    def pretrain_config(self, objective=None):
        p = self.parser["pretrain"]
        return PretrainConfig(objective=objective or p.get("objective"),
                              epochs=p.getint("epochs"),
                              batch_size=p.getint("batch_size"),
                              lr=p.getfloat("lr"),
                              weight_decay=p.getfloat("weight_decay"),
                              tau=p.getfloat("tau"),
                              chunk_len=p.getint("chunk_len"),
                              n_chunks=p.getint("n_chunks"),
                              max_tokens=p.getint("max_tokens"),
                              esimcse_rate=p.getfloat("esimcse_rate"),
                              pooling=p.get("pooling"),
                              seed=self.seed)

    def encoder_config(self, vocab_size, objective):
        e = self.parser["encoder"]
        p = self.pretrain_config(objective)
        attention = "sliding" if objective == "cpe-long" else e.get("attention")
        mp = e.get("max_positions")
        if mp == "auto":
            max_positions = p.max_tokens + 1 if attention == "sliding" else p.chunk_len + 1
        else:
            max_positions = int(mp)
        return EncoderConfig(vocab_size=vocab_size, dim=e.getint("dim"),
                             layers=e.getint("layers"), heads=e.getint("heads"),
                             ff=e.getint("ff"), max_positions=max_positions,
                             dropout=e.getfloat("dropout"), attention=attention,
                             window=e.getint("window"))

    def classifier_config(self):
        c = self.parser["classifier"]
        hidden = tuple(int(x) for x in c.get("hidden").split(","))
        return ClassifierConfig(epochs=c.getint("epochs"),
                                batch_size=c.getint("batch_size"),
                                lr=c.getfloat("lr"), hidden=hidden,
                                threshold=c.getfloat("threshold"),
                                weight_decay=c.getfloat("weight_decay"),
                                seed=self.seed)

    def dump(self):
        buf = io.StringIO()
        self.parser.write(buf)
        return buf.getvalue()
