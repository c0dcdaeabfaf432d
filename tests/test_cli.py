import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import pathlib
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cpe import classifier, cli
from cpe import corpus as C
from cpe import tensor as T
from cpe.checkpoint import Head, load_checkpoint, load_encoder, load_head, save_checkpoint
from cpe.classifier import predict_batch
from cpe.cli import main
from cpe.config import DEFAULTS, ConfigError, ExperimentConfig
from cpe.encoder import EncoderConfig, encode_chunk, init_params, param_specs
from cpe.metrics import load_embeddings
from cpe.optim import AdamWConfig, AdamWState, adamw_step
from cpe.training import PretrainConfig, embed_documents
from test_checkpoint import set_zip_flag

FAST = [
    "synthetic.num_docs=60", "synthetic.num_topics=3",
    "synthetic.doc_len_min=24", "synthetic.doc_len_max=48",
    "synthetic.vocab_per_topic=30", "synthetic.shared_vocab=30",
    "encoder.dim=16", "encoder.layers=1", "encoder.heads=2", "encoder.ff=32",
    "pretrain.epochs=1", "pretrain.chunk_len=8", "pretrain.n_chunks=6",
    "pretrain.max_tokens=48",
    "classifier.epochs=3", "classifier.lr=1e-3",
]


STAGES = ["gen-synthetic", "pretrain", "embed", "train-clf", "eval"]


def _run(outdir, *argv, extra=()):
    sets = []
    for kv in [f"run.output_dir={outdir}", *FAST, *extra]:
        sets += ["--set", kv]
    return main([*sets, *argv])


TINY = ["synthetic.num_docs=24"]


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """The output directory of gen-synthetic, pretrain, embed and train-clf
    on 24 documents; tests mutate a copy."""
    out = tmp_path_factory.mktemp("tiny") / "run"
    for stage in STAGES[:4]:
        assert _run(out, stage, extra=TINY) == 0
    return out


@pytest.fixture
def tiny_copy(tiny_run, tmp_path):
    """A copy of `tiny_run` for one test to damage."""
    out = tmp_path / "x"
    shutil.copytree(tiny_run, out)
    return out


def _one_error(capsys, *named):
    """The stage's stderr, one `error:` line that names each of `named`."""
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    for text in named:
        assert str(text) in err, (text, err)
    return err


def _rewrite_echo(path, key, value=None, delete=False):
    """Set (or delete) one echo key of a checkpoint, `section.key` for a
    nested one; weights and vocabulary are kept."""
    params, meta, vocab = load_checkpoint(path)
    *section, key = key.split(".")
    holder = meta[section[0]] if section else meta
    if delete:
        del holder[key]
    else:
        holder[key] = value
    save_checkpoint(path, params, config=meta, vocab=vocab)


class TestConfig:
    def test_defaults_load(self):
        cfg = ExperimentConfig.load()
        assert cfg.seed == 1
        assert cfg.get("pretrain", "chunk_len") == 16

    def test_override_applies(self):
        cfg = ExperimentConfig.load(overrides=["run.seed=7", "encoder.dim=32"])
        assert cfg.seed == 7
        assert cfg.get("encoder", "dim") == 32

    def test_bad_override_rejected(self):
        with pytest.raises(ConfigError, match="section.key=value"):
            ExperimentConfig.load(overrides=["dim=32"])

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigError, match="not found"):
            ExperimentConfig.load("/nonexistent.ini")

    def test_file_then_override_precedence(self, tmp_path):
        ini = tmp_path / "exp.ini"
        ini.write_text("[encoder]\ndim = 24\n")
        cfg = ExperimentConfig.load(str(ini), overrides=["encoder.dim=48"])
        assert cfg.get("encoder", "dim") == 48

    @pytest.mark.parametrize("text,named", [
        ("[encoder]\ndim = 24\nwindw = 8\n", "encoder.windw"),
        ("[DEFAULT]\nepochs = 3\n", "DEFAULT.epochs"),
        ("epochs = 3\n", "no section headers"),
    ], ids=["unknown-key", "default-section", "no-section"])
    def test_bad_config_file_rejected(self, tmp_path, capsys, text, named):
        ini = tmp_path / "exp.ini"
        ini.write_text(text)
        assert main(["--config", str(ini), "gen-synthetic"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and named in err

    def test_auto_max_positions(self):
        cfg = ExperimentConfig.load(overrides=["pretrain.chunk_len=16",
                                               "pretrain.max_tokens=64"])
        assert cfg.encoder_config(10, "cpe-hier").max_positions == 17
        # the long-document objective switches to sliding attention
        long_cfg = cfg.encoder_config(10, "cpe-long")
        assert long_cfg.attention == "sliding"
        assert long_cfg.max_positions == 65


class TestPipeline:
    def test_full_pipeline_artifacts(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert _run(out, "gen-synthetic") == 0
        assert _run(out, "pretrain", "--objective", "cpe-hier") == 0
        assert _run(out, "embed", "--pooling", "max") == 0
        assert _run(out, "train-clf") == 0
        assert _run(out, "eval", "--metrics", "f1,cluster") == 0
        for name in ("corpus.jsonl", "labels.tsv", "checkpoint.bin", "vocab.txt",
                     "pretrain_log.tsv", "embeddings.tsv", "clf.bin",
                     "metrics.txt", "config_effective.ini"):
            assert (out / name).exists(), name
        text = (out / "metrics.txt").read_text()
        keys = [line.split("\t")[0] for line in text.splitlines()]
        assert keys == ["macro_f1", "micro_f1", "homogeneity", "completeness",
                        "num_clusters", "num_test_docs"]

    def test_pipeline_deterministic(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            _run(out, "gen-synthetic")
            _run(out, "pretrain", "--objective", "cpe-hier")
            _run(out, "embed", "--pooling", "max")
            _run(out, "train-clf")
            _run(out, "eval", "--metrics", "f1,cluster")
            outs.append(out)
        a = (outs[0] / "metrics.txt").read_bytes()
        b = (outs[1] / "metrics.txt").read_bytes()
        assert a == b
        for name in ("embeddings.tsv", "pretrain_log.tsv"):  # grad_norm and margin too
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_config_effective_reproduces_the_run(self, tmp_path):
        out, again = tmp_path / "run", tmp_path / "again"
        for stage in STAGES:
            assert _run(out, stage) == 0
        argv = ["--config", str(out / "config_effective.ini"), "--set", f"run.output_dir={again}"]
        for stage in STAGES:
            assert main([*argv, stage]) == 0
        for name in ("checkpoint.bin", "metrics.txt"):
            assert (again / name).read_bytes() == (out / name).read_bytes(), name

    def test_default_settings_train_on_every_document(self, tmp_path, capsys):
        # only the output directory and a small corpus: the default chunking
        # fits the default synthetic documents (64-160 tokens)
        sets = ["--set", f"run.output_dir={tmp_path / 'run'}", "--set", "synthetic.num_docs=24"]
        assert main([*sets, "gen-synthetic"]) == 0
        assert main([*sets, "pretrain"]) == 0
        out = capsys.readouterr().out
        assert "for 18 steps (skipped 0 docs)" in out

    def test_random_init_skips_checkpoint(self, tmp_path):
        out = tmp_path / "run"
        _run(out, "gen-synthetic")
        assert _run(out, "embed", "--pooling", "mean", "--random-init") == 0
        assert (out / "embeddings.tsv").exists()

    def test_embed_reads_model_from_checkpoint(self, tmp_path):
        # without the pretrain-time encoder and chunking overrides, embed
        # still rebuilds the pretrained model from the checkpoint alone
        out = tmp_path / "run"
        _run(out, "gen-synthetic")
        assert _run(out, "pretrain", "--objective", "cpe-hier") == 0
        assert _run(out, "embed", "--pooling", "max") == 0
        want = (out / "embeddings.tsv").read_bytes()
        (out / "embeddings.tsv").unlink()
        sets = []
        for kv in [f"run.output_dir={out}", *FAST]:
            if not kv.startswith(("encoder.", "pretrain.")):
                sets += ["--set", kv]
        assert main([*sets, "embed", "--pooling", "max"]) == 0
        assert (out / "embeddings.tsv").read_bytes() == want

    def test_embed_pools_as_pretrained(self, tmp_path):
        # with no --pooling, embed uses the checkpoint's pretrain.pooling (the
        # config's with --random-init); an explicit flag still overrides it
        out = tmp_path / "run"
        mean = ["pretrain.pooling=mean"]
        _run(out, "gen-synthetic")
        assert _run(out, "pretrain", extra=mean) == 0
        got = {}
        for argv in ([], ["--pooling", "mean"], ["--pooling", "max"],
                     ["--random-init"], ["--random-init", "--pooling", "mean"]):
            assert _run(out, "embed", *argv, extra=mean if "--random-init" in argv else ()) == 0
            got[" ".join(argv)] = (out / "embeddings.tsv").read_bytes()
        assert got[""] == got["--pooling mean"] != got["--pooling max"]
        assert got["--random-init"] == got["--random-init --pooling mean"]

    def test_eval_scores_the_split_train_clf_used(self, tmp_path, capsys):
        out = tmp_path / "run"
        _run(out, "gen-synthetic")
        assert _run(out, "embed", "--random-init") == 0
        assert _run(out, "train-clf") == 0
        assert _run(out, "eval") == 0
        want = (out / "metrics.txt").read_text()
        for override in ("run.seed=5", "corpus.train_frac=0.5"):
            (out / "metrics.txt").unlink()
            assert _run(out, "eval", extra=[override]) == 0
            assert (out / "metrics.txt").read_text() == want, override
        # embeddings that no longer match the classifier's split
        rows = (out / "embeddings.tsv").read_text().splitlines(keepends=True)
        (out / "embeddings.tsv").write_text("".join(rows[:-1]))
        capsys.readouterr()
        assert _run(out, "eval") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "train-clf" in err

    def test_pretrain_log_format(self, tmp_path):
        out = tmp_path / "run"
        _run(out, "gen-synthetic")
        _run(out, "pretrain", "--objective", "simcse")
        lines = (out / "pretrain_log.tsv").read_text().splitlines()
        assert lines
        for line in lines:
            step, epoch, objective, loss, grad_norm, margin = line.split("\t")
            assert objective == "simcse" and float(loss) > 0
            assert all(len(x.split(".")[1]) == 6 for x in (loss, grad_norm, margin))
            assert 0 < float(grad_norm) < math.inf and -2 <= float(margin) <= 2
        assert lines[0].split("\t")[:2] == ["1", "1"]


# section.key=value overrides that load rejects: an unknown section or key
# (the program derives seed, vocab_size, max_positions and global_tokens),
# a value that does not parse as the key's type, a non-finite float, or a
# value out of its key's range
LOAD_TIME_REJECTED = [
    "pretrain.chunk_lenn=32", "pretrian.epochs=9", "pretrain.seed=77",
    "encoder.max_positions=33", "encoder.global_tokens=0,1,2",
    "pretrain.epochs=abc", "classifier.hidden=a,b,c", "eval.normalize=maybe",
    "classifier.lr=inf", "pretrain.tau=nan",
    # out of range: each section's dataclass `validate`, and the run, corpus and eval keys
    "synthetic.doc_alpha=0", "run.seed=-1", "run.seed=18446744073709551616",
    "pretrain.esimcse_rate=5", "pretrain.tau=-1",
    "pretrain.batch_size=1", "encoder.heads=5", "classifier.epochs=-1", "classifier.hidden=0,0,0",
    "corpus.train_frac=1.5", "eval.dbscan_eps=-1", "eval.dbscan_min_pts=0",
    "pretrain.chunk_len=0", "pretrain.n_chunks=0", "pretrain.max_tokens=7", "corpus.min_freq=0",
    "pretrain.epochs=-1", "pretrain.epochs=0",
    # derived from --objective, not a key
    "encoder.attention=sliding",
]


class TestMissingArtifacts:
    def test_pretrain_without_corpus(self, tmp_path, capsys):
        assert _run(tmp_path / "x", "pretrain") == 1
        err = capsys.readouterr().err
        assert "gen-synthetic" in err and "corpus.jsonl" in err

    def test_embed_without_checkpoint(self, tmp_path, capsys):
        out = tmp_path / "x"
        _run(out, "gen-synthetic")
        assert _run(out, "embed") == 1
        err = capsys.readouterr().err
        assert "pretrain" in err and "checkpoint.bin" in err

    def test_train_clf_without_embeddings(self, tmp_path, capsys):
        out = tmp_path / "x"
        _run(out, "gen-synthetic")
        assert _run(out, "train-clf") == 1
        assert "embed" in capsys.readouterr().err

    def test_eval_f1_without_classifier(self, tmp_path, capsys):
        out = tmp_path / "x"
        _run(out, "gen-synthetic")
        _run(out, "pretrain")
        _run(out, "embed")
        assert _run(out, "eval", "--metrics", "f1") == 1
        assert "train-clf" in capsys.readouterr().err

    def test_unknown_metric(self, tmp_path, capsys):
        out = tmp_path / "x"
        _run(out, "gen-synthetic")
        _run(out, "pretrain")
        _run(out, "embed")
        assert _run(out, "eval", "--metrics", "bogus") == 1
        assert "unknown metric" in capsys.readouterr().err

    def test_bad_override_exits_nonzero(self, tmp_path, capsys):
        assert main(["--set", "nonsense", "gen-synthetic"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["pretrain", "--objective", "bogus"],
        ["gen-synthetic", "--bogus"],
        [],
    ], ids=["bogus-objective", "unknown-flag", "no-command"])
    def test_usage_error_exits_one(self, argv, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "usage:" not in err

    @pytest.mark.parametrize("stage,override", [
        *[("gen-synthetic", override) for override in LOAD_TIME_REJECTED],
        ("pretrain", "run.seed=-1"),
        ("pretrain", "encoder.heads=0"),
        ("pretrain", "encoder.dim=0"),
        ("pretrain", "encoder.ff=0"),
        ("pretrain", "encoder.layers=-1"),
        ("pretrain", "encoder.dropout=1.0"),
        ("pretrain", "encoder.dropout=-1"),
        ("pretrain", "pretrain.lr=-1"),
    ])
    def test_invalid_config_value_rejected(self, tmp_path, capsys, stage, override):
        out = tmp_path / "x"
        if stage == "pretrain":
            assert _run(out, "gen-synthetic") == 0
        capsys.readouterr()
        assert _run(out, stage, extra=[override]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and override.split("=")[0] in err  # section.key
        assert not (out / "checkpoint.bin").exists()
        if stage == "gen-synthetic":  # rejected at load, before the stage writes anything
            assert not (out / "corpus.jsonl").exists()
            assert not (out / "config_effective.ini").exists()

    def test_output_dir_on_a_file_rejected(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        assert _run(tmp_path / "file", "gen-synthetic") == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_corpus_source_on_a_directory_rejected(self, tmp_path, capsys):
        assert _run(tmp_path / "x", "pretrain", extra=[f"corpus.source={tmp_path}"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("frac", ["0", "1", "1.5", "-0.5", "0.001"])
    def test_train_frac_leaving_an_empty_split_rejected(self, tmp_path, capsys, frac):
        out = tmp_path / "x"
        _run(out, "gen-synthetic")
        assert _run(out, "embed", "--random-init") == 0
        capsys.readouterr()
        for stage in ("train-clf", "eval"):
            assert _run(out, stage, extra=[f"corpus.train_frac={frac}"]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and "train_frac" in err
        assert not (out / "clf.bin").exists()
        assert not (out / "metrics.txt").exists()

    def test_untrainable_pretrain_pooling_rejected(self, tmp_path, capsys):
        out = tmp_path / "x"
        _run(out, "gen-synthetic")
        capsys.readouterr()
        assert _run(out, "pretrain", extra=["pretrain.pooling=transformer"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "pooling" in err and "transformer" in err
        assert not (out / "checkpoint.bin").exists()

    @pytest.mark.parametrize("override", ["pretrain.max_tokens=8", "pretrain.n_chunks=1"])
    def test_cpe_hier_with_one_chunk_slot_rejected(self, tmp_path, capsys, override):
        # cpe-hier holds out one of at least two chunks (chunk_len 8 here);
        # the baselines train on one chunk per document
        out = tmp_path / "x"
        _run(out, "gen-synthetic")
        capsys.readouterr()
        assert _run(out, "pretrain", extra=[override]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert override.split("=")[0] in err and "cpe-hier" in err
        assert not (out / "checkpoint.bin").exists()
        assert _run(out, "pretrain", "--objective", "simcse", extra=[override]) == 0

    def test_fewer_documents_than_a_batch_rejected(self, tmp_path, capsys):
        # 3 documents fill no batch of 4: no step runs, so no model is written
        out = tmp_path / "x"
        assert _run(out, "gen-synthetic", extra=["synthetic.num_docs=3"]) == 0
        capsys.readouterr()
        assert _run(out, "pretrain", extra=["synthetic.num_docs=3"]) == 1
        _one_error(capsys, "pretrain.batch_size=4", "got 3", "skipped 0")
        assert not (out / "checkpoint.bin").exists()

    def test_failed_pretrain_leaves_the_last_run_and_no_log(self, tiny_copy, tmp_path, capsys):
        # the log is written only once pretrain has returned: a failed run
        # leaves an earlier run's files as they were, and a first run no log
        kept = {n: (tiny_copy / n).read_bytes()
                for n in ("pretrain_log.tsv", "checkpoint.bin", "vocab.txt")}
        assert kept["pretrain_log.tsv"]
        fresh = tmp_path / "fresh"
        assert _run(fresh, "gen-synthetic", extra=TINY) == 0
        for out in (tiny_copy, fresh):
            capsys.readouterr()
            assert _run(out, "pretrain", extra=[*TINY, "pretrain.batch_size=100"]) == 1
            _one_error(capsys, "pretrain.batch_size=100", "got 24")
        assert {n: (tiny_copy / n).read_bytes() for n in kept} == kept
        assert not (fresh / "pretrain_log.tsv").exists()

    def test_cpe_hier_with_partial_second_slot_trains(self, tmp_path):
        # max_tokens 9..15 with chunk_len 8: the second slot is partial
        out = tmp_path / "x"
        _run(out, "gen-synthetic")
        assert _run(out, "pretrain", extra=["pretrain.max_tokens=15"]) == 0
        assert (out / "checkpoint.bin").exists()

    @pytest.mark.parametrize("artifact,stage", [("checkpoint.bin", "embed"),
                                                ("clf.bin", "eval")])
    def test_truncated_checkpoint_rejected(self, tmp_path, capsys, artifact, stage):
        out = tmp_path / "x"
        for s in STAGES[:4]:
            assert _run(out, s) == 0
        data = (out / artifact).read_bytes()
        (out / artifact).write_bytes(data[:len(data) // 2])
        capsys.readouterr()
        assert _run(out, stage) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert str(out / artifact) in err

    @pytest.mark.parametrize("bit", [0, 5], ids=["encrypted", "patched"])
    def test_zip_flagged_checkpoint_rejected(self, tmp_path, capsys, bit):
        # zipfile raises RuntimeError / NotImplementedError for these flags
        out = tmp_path / "x"
        for s in STAGES[:2]:
            assert _run(out, s) == 0
        path = out / "checkpoint.bin"
        path.write_bytes(set_zip_flag(path.read_bytes(), bit))
        capsys.readouterr()
        assert _run(out, "embed") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert str(path) in err
        assert not (out / "embeddings.tsv").exists()

    @pytest.mark.parametrize("line", ['{"id": "d", "text": "a b", "labels": 3}', "5"],
                             ids=["int-labels", "scalar-line"])
    def test_corpus_record_of_the_wrong_type_rejected(self, tmp_path, capsys, line):
        out = tmp_path / "x"
        assert _run(out, "gen-synthetic") == 0
        path = out / "corpus.jsonl"
        path.write_text(path.read_text() + line + "\n")
        n = path.read_text().count("\n")
        capsys.readouterr()
        assert _run(out, "pretrain") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"{path}: line {n} " in err
        assert not (out / "checkpoint.bin").exists()

    @pytest.mark.parametrize("edit", ["dim", "ff", "layers", "vocab_size", "drop-param"])
    def test_checkpoint_echo_disagreeing_with_weights_rejected(self, tmp_path, capsys, edit):
        # the echo says one model, the weights hold another
        out = tmp_path / "x"
        for s in STAGES[:2]:
            assert _run(out, s) == 0
        path = out / "checkpoint.bin"
        params, meta, vocab = load_checkpoint(path)
        if edit == "drop-param":
            del params["layer0.ff2_b"]
        else:
            meta["encoder"][edit] *= 2
        save_checkpoint(path, params, config=meta, vocab=vocab)
        capsys.readouterr()
        assert _run(out, "embed") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert str(path) in err
        assert ("vocabulary" if edit == "vocab_size" else "parameter ") in err
        assert not (out / "embeddings.tsv").exists()

    def test_cpe_long_checkpoint_with_more_global_tokens_rejected(self, tmp_path, capsys):
        # the sliding encoder's one global token is [CLS]; an echo of three
        # used to embed silently with a model that never trained with them
        out = tmp_path / "x"
        assert _run(out, "gen-synthetic") == 0
        assert _run(out, "pretrain", "--objective", "cpe-long") == 0
        path = out / "checkpoint.bin"
        params, meta, vocab = load_checkpoint(path)
        meta["encoder"]["global_tokens"] = [0, 1, 2]
        save_checkpoint(path, params, config=meta, vocab=vocab)
        capsys.readouterr()
        assert _run(out, "embed") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert str(path) in err and "encoder.global_tokens" in err
        assert not (out / "embeddings.tsv").exists()

    @pytest.mark.parametrize("edit", ["drop-hidden", "wrong-hidden"])
    def test_classifier_echo_without_its_hidden_widths_rejected(self, tmp_path, capsys, edit):
        out = tmp_path / "x"
        for s in STAGES[:4]:
            assert _run(out, s) == 0
        path = out / "clf.bin"
        params, meta, _ = load_checkpoint(path)
        if edit == "drop-hidden":
            del meta["hidden"]
        else:
            meta["hidden"] = [32, 64, 64]
        save_checkpoint(path, params, config=meta)
        capsys.readouterr()
        assert _run(out, "eval", "--metrics", "f1") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert str(path) in err and "re-run 'train-clf'" in err
        assert ("hidden" if edit == "drop-hidden" else "parameter h0_w") in err
        assert not (out / "metrics.txt").exists()

    @pytest.mark.parametrize("edit", ["num-labels", "drop-h3_b"])
    def test_classifier_weights_disagreeing_with_echo_rejected(self, tmp_path, capsys, edit):
        # an echo of 2 labels over a 4-wide output layer, and a head without
        # its last bias: both used to end in an IndexError traceback
        out, four = tmp_path / "x", ["synthetic.num_topics=4"]
        for s in STAGES[:4]:
            assert _run(out, s, extra=four) == 0
        path = out / "clf.bin"
        params, meta, _ = load_checkpoint(path)
        if edit == "num-labels":
            assert params["h3_w"].shape[1] == 4
            meta["num_labels"] = 2
        else:
            del params["h3_b"]
        save_checkpoint(path, params, config=meta)
        capsys.readouterr()
        assert _run(out, "eval", "--metrics", "f1", extra=four) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert str(path) in err
        assert ("parameter h3_w" if edit == "num-labels" else "parameter h3_b") in err
        assert not (out / "metrics.txt").exists()

    def test_empty_document_at_embed_named(self, tmp_path, capsys):
        out = tmp_path / "x"
        for s in STAGES[:2]:
            assert _run(out, s) == 0
        path = out / "corpus.jsonl"
        path.write_text(path.read_text()
                        + json.dumps({"id": "no-words", "text": "", "labels": [0]}) + "\n")
        capsys.readouterr()
        assert _run(out, "embed") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "document no-words" in err
        assert not (out / "embeddings.tsv").exists()

    @pytest.mark.parametrize("column,value", [(1, "x"), (2, "abc"), (2, "nan"), (2, None)],
                             ids=["label", "value", "non-finite", "dropped-column"])
    def test_bad_embeddings_row_names_path_and_line(self, tmp_path, capsys, column, value):
        out = tmp_path / "x"
        for s in STAGES[:3]:
            assert _run(out, s) == 0
        path = out / "embeddings.tsv"
        lines = path.read_text().splitlines()
        cells = lines[3].split("\t")
        if value is None:
            del cells[column]
        else:
            cells[column] = value
        lines[3] = "\t".join(cells)
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert _run(out, "train-clf") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"{path}: line 4" in err
        assert not (out / "clf.bin").exists()

    # each of these used to end in a traceback, or (int64 weights) to embed
    # silently; each is now one error line naming the file and the key
    @pytest.mark.parametrize("key,value", [
        *[(key, None) for key in ("seed", "train_frac", "task", "threshold")],
        ("seed", "x"), ("seed", 1.5), ("seed", -1), ("train_frac", "x" * 200),
        ("train_frac", 2.0), ("task", "regression"), ("threshold", float("nan")),
        ("hidden", ["64", 64, 64]), ("dropout", 0.1),
    ], ids=lambda v: "drop" if v is None else "long" if len(str(v)) > 20 else None)
    def test_classifier_echo_key_missing_or_mistyped_rejected(self, tiny_copy, capsys,
                                                               key, value):
        out = tiny_copy
        _rewrite_echo(out / "clf.bin", key, value, delete=value is None)
        capsys.readouterr()
        assert _run(out, "eval", "--metrics", "f1", extra=TINY) == 1
        err = _one_error(capsys, out / "clf.bin", key, "re-run 'train-clf'")
        assert "x" * 40 not in err
        assert not (out / "metrics.txt").exists()

    def test_cluster_metrics_also_refuse_a_bad_classifier_echo(self, tiny_copy, capsys):
        # the head's split is read before any metric, and blamed on clf.bin
        out = tiny_copy
        _rewrite_echo(out / "clf.bin", "train_frac", 2.0)
        capsys.readouterr()
        assert _run(out, "eval", "--metrics", "cluster", extra=TINY) == 1
        err = capsys.readouterr().err
        assert str(out / "clf.bin") in err and "corpus.train_frac" not in err

    @pytest.mark.parametrize("artifact,stage", [("checkpoint.bin", "embed"),
                                                ("clf.bin", "eval")])
    def test_config_echo_not_an_object_rejected(self, tiny_copy, capsys, artifact, stage):
        out = tiny_copy
        params, _, vocab = load_checkpoint(out / artifact)
        save_checkpoint(out / artifact, params, config=["task", "multiclass"], vocab=vocab)
        capsys.readouterr()
        assert _run(out, stage, extra=TINY) == 1
        _one_error(capsys, out / artifact, "JSON object")

    @pytest.mark.parametrize("key,value", [
        ("pretrain.pooling", "x"), ("pretrain.chunk_len", "x"), ("pretrain.max_tokens", "x"),
        ("pretrain.max_tokens", 4),  # PretrainConfig.validate
        ("encoder.dim", None), ("encoder.window", True), ("encoder.global_tokens", [0.0]),
        ("encoder.windw", 16), ("encoder", []), ("optimizer", {}),
    ], ids=lambda v: "drop" if v is None else None)
    def test_checkpoint_echo_key_missing_or_mistyped_rejected(self, tiny_copy, capsys,
                                                              key, value):
        out = tiny_copy
        _rewrite_echo(out / "checkpoint.bin", key, value, delete=value is None)
        (out / "embeddings.tsv").unlink()
        capsys.readouterr()
        assert _run(out, "embed", extra=TINY) == 1
        _one_error(capsys, out / "checkpoint.bin", key, "re-run 'pretrain'")
        assert not (out / "embeddings.tsv").exists()

    @pytest.mark.parametrize("artifact,stage,dtype", [
        ("checkpoint.bin", "embed", np.int64), ("checkpoint.bin", "embed", np.float64),
        ("clf.bin", "eval", np.str_)])
    def test_weight_of_another_dtype_rejected(self, tiny_copy, capsys, artifact, stage, dtype):
        out = tiny_copy
        path = out / artifact
        params, meta, vocab = load_checkpoint(path)
        name = sorted(params)[-1]
        params[name] = params[name].data.astype(dtype)
        save_checkpoint(path, params, config=meta, vocab=vocab)
        capsys.readouterr()
        assert _run(out, stage, extra=TINY) == 1
        _one_error(capsys, path, f"parameter {name}", "float32")

    @pytest.mark.parametrize("artifact,stage", [("embeddings.tsv", "train-clf"),
                                                ("embeddings.tsv", "eval"),
                                                ("corpus.jsonl", "pretrain")])
    def test_undecodable_bytes_named(self, tiny_copy, capsys, artifact, stage):
        out = tiny_copy
        path = out / artifact
        lines = path.read_bytes().splitlines(keepends=True)
        lines[2] = b"\xff" + lines[2]
        path.write_bytes(b"".join(lines))
        capsys.readouterr()
        assert _run(out, stage, extra=TINY) == 1
        _one_error(capsys, f"{path}: line 3 ", "UTF-8")

    @pytest.mark.parametrize("stage", [["embed"], ["embed", "--random-init"], ["pretrain"]],
                             ids=["embed", "embed-random-init", "pretrain"])
    def test_corpus_without_records_named(self, tiny_copy, capsys, stage):
        # embed used to print numpy's "need at least one array to concatenate"
        path = tiny_copy / "corpus.jsonl"
        path.write_text("\n")
        capsys.readouterr()
        assert _run(tiny_copy, *stage, extra=TINY) == 1
        _one_error(capsys, path, "no records")

    @pytest.mark.parametrize("stage", ["train-clf", "eval"])
    def test_empty_embeddings_file_named(self, tiny_copy, capsys, stage):
        out = tiny_copy
        (out / "embeddings.tsv").write_text("")
        capsys.readouterr()
        assert _run(out, stage, extra=TINY) == 1
        _one_error(capsys, f"{out / 'embeddings.tsv'}: line 1 ", "header")

    @pytest.mark.parametrize("label,named", [("9", "label id 9 out of range [0, 3)"),
                                             ("-3", "line 2: label id -3 is negative")])
    def test_gold_label_outside_the_head_rejected(self, tiny_copy, capsys, label, named):
        # 9 used to end in an IndexError in f1_scores; -3 was counted as label 0
        out = tiny_copy
        path = out / "embeddings.tsv"
        rows = [line.split("\t") for line in path.read_text().splitlines()]
        for cells in rows[1:]:
            cells[1] = label
        path.write_text("".join("\t".join(cells) + "\n" for cells in rows))
        capsys.readouterr()
        assert _run(out, "eval", "--metrics", "f1", extra=TINY) == 1
        _one_error(capsys, path, named)
        assert not (out / "metrics.txt").exists()

    def test_embed_transformer_pooling_rejected(self, tmp_path, capsys):
        # no stage trains an aggregator, so an embedding would come from random weights
        out = tmp_path / "x"
        _run(out, "gen-synthetic")
        _run(out, "pretrain")
        capsys.readouterr()
        for argv in (["--pooling", "transformer"], ["--pooling", "transformer", "--random-init"]):
            assert _run(out, "embed", *argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and "transformer" in err
            assert not (out / "embeddings.tsv").exists()


class TestSweep:
    def test_default_sizes_fit_max_tokens(self, tmp_path):
        # powers of two from 8 that leave >= 2 slots of max_tokens 48
        out = tmp_path / "run"
        assert _run(out, "sweep-chunk") == 0
        lines = (out / "sweep.tsv").read_text().splitlines()
        assert [int(l.split("\t")[0]) for l in lines[1:]] == [8, 16]

    def test_size_leaving_one_slot_rejected_before_any_arm(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert _run(out, "sweep-chunk", "--sizes", "8,128") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "128" in err
        assert not (out / "chunk_8").exists()

    def test_sweep_rows_and_subdirs(self, tmp_path):
        out = tmp_path / "run"
        _run(out, "gen-synthetic")
        assert _run(out, "sweep-chunk", "--sizes", "8,16") == 0
        lines = (out / "sweep.tsv").read_text().splitlines()
        assert lines[0] == "chunk_len\tmacro_f1\tmicro_f1"
        assert len(lines) == 3
        sizes = [int(l.split("\t")[0]) for l in lines[1:]]
        assert sizes == [8, 16]
        for s in sizes:
            assert (out / f"chunk_{s}" / "metrics.txt").exists()
        for l in lines[1:]:
            _, mac, mic = l.split("\t")
            assert 0.0 <= float(mac) <= 1.0 and 0.0 <= float(mic) <= 1.0


# Every key but the output directory, plus misspelt keys, each with small
# values of its type (no large size), zero, negative, non-finite and
# malformed text.
def _candidates(default):
    if isinstance(default, bool):
        return ["true", "false", "maybe"]
    if isinstance(default, tuple):
        return ["1,2,3", "4,4,4", "0,1,1", "-1,2,2", "a,b,c"]
    if isinstance(default, str):
        return [default, "", "abc", "cpe-long", "simcse", "esimcse", "sliding", "mean",
                "multilabel"]
    if isinstance(default, int):
        return ["1", "2", "3", "4", "0", "-1", "nan", "abc"]
    return ["0.5", "0.1", "1", "0", "-1", "nan", "abc"]


CANDIDATES = {f"{section}.{key}": _candidates(default)
              for section, keys in DEFAULTS.items() for key, default in keys.items()
              if key != "output_dir"}
CANDIDATES.update({key: ["1"] for key in ("pretrain.chunk_lenn", "pretrian.epochs",
                                           "encoder.max_positions", "run.sede")})
OVERRIDE = st.sampled_from(sorted(CANDIDATES)).flatmap(
    lambda key: st.sampled_from(CANDIDATES[key]).map(lambda value: f"{key}={value}"))


class TestRandomOverrides:
    # the pipeline in order reaches every stage; other orders reach the
    # missing-artifact paths. A pretrain that succeeds has logged a step.
    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(overrides=st.lists(OVERRIDE, max_size=2),
           stages=st.one_of(st.just(STAGES), st.permutations(STAGES),
                            st.lists(st.sampled_from(STAGES), min_size=1, max_size=6)))
    @example(overrides=["synthetic.num_docs=3"], stages=STAGES)  # once 0 steps and exit 0
    def test_each_stage_succeeds_or_prints_one_error(self, overrides, stages):
        with tempfile.TemporaryDirectory() as out:
            for stage in stages:
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    rc = _run(out, stage, extra=["synthetic.num_docs=24", *overrides])
                lines = err.getvalue().splitlines()
                assert rc == 0 or (rc == 1 and len(lines) == 1
                                   and lines[0].startswith("error:")), (stage, rc, lines)
                if stage == "pretrain" and rc == 0:
                    log = pathlib.Path(out, "pretrain_log.tsv")
                    assert log.read_text().strip(), (stage, overrides)


# One mutation of one artifact of a finished tiny run, then every stage from
# the first one that reads it: truncation, a flipped byte, an echo or corpus
# field deleted or set to a value of any JSON type, a TSV column dropped.
READER = {"corpus.jsonl": "pretrain", "checkpoint.bin": "embed",
          "embeddings.tsv": "train-clf", "clf.bin": "eval"}
ECHO_KEYS = {"checkpoint.bin": [f"{section}.{f.name}" for section, cls in
                                (("encoder", EncoderConfig), ("pretrain", PretrainConfig))
                                for f in dataclasses.fields(cls)],
             "clf.bin": [f.name for f in dataclasses.fields(Head)],
             "corpus.jsonl": ["id", "text", "labels"]}
VALUES = st.sampled_from([None, True, "", "x", "mean", "sliding", "cpe-long", "multilabel",
                          -1, 0, 1, 2, 3, 100, -0.5, 0.5, 2.0, float("nan"), float("inf"),
                          [], [0], [1, 2], [64, 64], ["a"], {}])
MUTATION = st.one_of(
    st.tuples(st.sampled_from(sorted(READER)), st.just("truncate"),
              st.floats(0, 1), st.none()),
    st.tuples(st.sampled_from(sorted(READER)), st.just("flip"),
              st.floats(0, 1), st.integers(1, 255)),
    st.sampled_from(sorted(ECHO_KEYS)).flatmap(lambda artifact: st.tuples(
        st.just(artifact), st.sampled_from(["delete", "set"]),
        st.sampled_from(ECHO_KEYS[artifact]), VALUES)),
    st.tuples(st.just("embeddings.tsv"), st.just("drop-column"),
              st.integers(0, 3), st.none() | st.integers(0, 5)))


def _mutate(out, mutation):
    artifact, kind, where, value = mutation
    path = out / artifact
    data = path.read_bytes()
    if kind == "truncate":
        path.write_bytes(data[:int(where * len(data))])
    elif kind == "flip":
        at = min(int(where * len(data)), len(data) - 1)
        path.write_bytes(data[:at] + bytes([data[at] ^ value]) + data[at + 1:])
    elif kind == "drop-column":  # from every line, or from one
        rows = [line.split("\t") for line in data.decode().splitlines()]
        for cells in rows if value is None else rows[value:value + 1]:
            del cells[where]
        path.write_text("".join("\t".join(cells) + "\n" for cells in rows))
    elif artifact == "corpus.jsonl":  # the first record
        lines = data.decode().splitlines(keepends=True)
        record = json.loads(lines[0])
        if kind == "delete":
            del record[where]
        else:
            record[where] = value
        path.write_text(json.dumps(record) + "\n" + "".join(lines[1:]))
    else:
        _rewrite_echo(path, where, value, delete=kind == "delete")


class TestArtifactMutations:
    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(mutation=MUTATION)
    @example(mutation=("clf.bin", "delete", "seed", None))  # a KeyError traceback once
    def test_each_stage_succeeds_or_prints_one_error(self, tiny_run, mutation):
        with tempfile.TemporaryDirectory() as tmp:
            out = pathlib.Path(tmp) / "run"
            shutil.copytree(tiny_run, out)
            _mutate(out, mutation)
            for stage in STAGES[STAGES.index(READER[mutation[0]]):]:
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    rc = _run(out, stage, extra=TINY)
                lines = err.getvalue().splitlines()
                assert rc == 0 or (rc == 1 and len(lines) == 1
                                   and lines[0].startswith("error:")), (stage, rc, lines)


@pytest.fixture(scope="module")
def long_run(tmp_path_factory):
    """gen-synthetic and a `cpe-long` pretrain on 24 documents."""
    out = tmp_path_factory.mktemp("long") / "run"
    assert _run(out, "gen-synthetic", extra=TINY) == 0
    assert _run(out, "pretrain", "--objective", "cpe-long", extra=TINY) == 0
    return out


@pytest.fixture
def op_nodes(monkeypatch):
    """The tape nodes that operations record while the test runs: nodes with
    parents, so not the parameters a reader or `init_params` makes."""
    made = []

    class Spy(T._Node):
        __slots__ = ()

        def __init__(self, data, parents, backward):
            if parents:
                made.append(data.shape)
            super().__init__(data, parents, backward)

    monkeypatch.setattr(T, "_Node", Spy)
    return made


@pytest.fixture(scope="module", params=["tiny_run", "long_run"])
def pretrained_run(request):
    """A pretrained run of each attention path, built before `op_nodes` spies."""
    return request.getfixturevalue(request.param)


class TestUntrackedInference:
    def test_embed_builds_no_tape_and_matches_the_tracked_embed(self, pretrained_run,
                                                                 tmp_path, op_nodes):
        out = tmp_path / "x"
        shutil.copytree(pretrained_run, out)
        assert _run(out, "embed", extra=TINY) == 0
        assert op_nodes == []
        ecfg, pcfg, params, vocab = load_encoder(out / "checkpoint.bin")
        assert all(p.requires_grad for p in params.values())
        docs = C.encode_documents(C.load_jsonl(out / "corpus.jsonl"), vocab)
        want = embed_documents(docs, params, ecfg, pooling=pcfg.pooling,
                               chunk_len=pcfg.chunk_len, n_chunks=pcfg.n_chunks,
                               max_tokens=pcfg.max_tokens)
        assert op_nodes  # the tracked embed records its tape
        assert np.array_equal(load_embeddings(out / "embeddings.tsv")[0], want)

    @pytest.mark.parametrize("objective", ["cpe-hier", "cpe-long"])
    def test_random_init_embed_builds_no_tape(self, tmp_path, op_nodes, objective):
        out = tmp_path / "x"
        extra = [*TINY, f"pretrain.objective={objective}"]
        assert _run(out, "gen-synthetic", extra=extra) == 0
        assert _run(out, "embed", "--random-init", extra=extra) == 0
        assert op_nodes == []
        assert load_embeddings(out / "embeddings.tsv")[0].shape == (24, 16)

    def test_eval_builds_no_tape_and_matches_the_tracked_head(self, tiny_copy, monkeypatch,
                                                              op_nodes):
        calls = []

        def spy(embeddings, params, task, threshold):
            calls.append((embeddings, task, threshold, predict_batch(embeddings, params, task,
                                                                     threshold=threshold)))
            return calls[-1][-1]

        monkeypatch.setattr(cli, "predict_batch", spy)
        assert _run(tiny_copy, "eval", "--metrics", "f1", extra=TINY) == 0
        assert op_nodes == [] and len(calls) == 1
        embeddings, task, threshold, (preds, probs) = calls[0]
        _, params = load_head(tiny_copy / "clf.bin", embeddings.shape[1])
        want_preds, want_probs = predict_batch(embeddings, params, task, threshold=threshold)
        assert op_nodes  # the tracked head records its tape
        assert preds == want_preds and np.array_equal(probs, want_probs)


class TestLoadedModelsAreStores:
    """The readers return `T.Parameters` stores in `param_specs` order, the
    layout `init_params` and `init_mlp` give, so an optimizer can step a
    loaded model."""

    def test_loaded_checkpoint_takes_one_adamw_step(self, pretrained_run):
        ecfg, pcfg, params, vocab = load_encoder(pretrained_run / "checkpoint.bin")
        assert isinstance(params, T.Parameters) and list(params) == list(param_specs(ecfg))
        assert params.flat.size == init_params(ecfg, 0).flat.size
        before = {n: p.data.copy() for n, p in params.items()}
        doc = C.encode_documents(C.load_jsonl(pretrained_run / "corpus.jsonl"), vocab)[0]
        chunked = C.chunk(doc, pcfg.chunk_len, pcfg.n_chunks, pcfg.max_tokens)
        T.backward(T.sum_(encode_chunk(chunked.chunks, chunked.token_mask, params, ecfg)))
        norm = adamw_step(params, AdamWState(), AdamWConfig(lr=1e-3))
        assert math.isfinite(norm) and norm > 0
        assert all(p.grad is None for p in params.values())
        moved = {n for n, p in params.items() if not np.array_equal(p.data, before[n])}
        assert moved == set(params) - {f"layer{ecfg.layers - 1}.k_b"}  # its gradient is 0

    def test_loaded_head_takes_one_adamw_step(self, tiny_run):
        dim = load_embeddings(tiny_run / "embeddings.tsv")[0].shape[1]
        head, params = load_head(tiny_run / "clf.bin", dim)
        assert isinstance(params, T.Parameters)
        assert list(params) == list(classifier.param_specs(dim, head.num_labels, head.hidden))
        before = params.flat.copy()
        T.backward(T.sum_(classifier.mlp_logits(np.ones((2, dim), dtype=np.float32), params)))
        assert adamw_step(params, AdamWState(), AdamWConfig(lr=1e-3)) > 0
        assert not np.array_equal(params.flat, before)


RECORD_KEYS = ["command", "wall_s", "peak_rss_mb", "seed", "config_sha256", "python",
               "numpy", "blas", "env"]
PRETRAIN_KEYS = ["steps", "skipped_docs", "hard_negative_batches"]


class TestRunRecord:
    def test_each_stage_writes_its_record(self, tmp_path):
        out = tmp_path / "run"
        for stage in STAGES:
            assert _run(out, stage, extra=[*TINY, "run.seed=7"]) == 0
            record = json.loads((out / f"run-{stage}.json").read_text())
            assert list(record) == RECORD_KEYS + (PRETRAIN_KEYS if stage == "pretrain" else [])
            assert record["command"] == stage and record["seed"] == 7
            assert record["config_sha256"] == hashlib.sha256(
                (out / "config_effective.ini").read_bytes()).hexdigest()
            assert record["wall_s"] > 0 and record["peak_rss_mb"] > 1
            assert record["numpy"] == np.__version__
            blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
            assert record["blas"] == {"name": blas["name"], "version": blas["version"]}
            assert sorted(record["env"]) == ["MKL_NUM_THREADS", "OMP_NUM_THREADS",
                                             "OPENBLAS_NUM_THREADS"]
            assert record["env"]["OPENBLAS_NUM_THREADS"] == os.environ.get(
                "OPENBLAS_NUM_THREADS")
        record = json.loads((out / "run-pretrain.json").read_text())
        steps = len((out / "pretrain_log.tsv").read_text().splitlines())
        assert record["steps"] == steps and record["skipped_docs"] == 0
        assert 0 <= record["hard_negative_batches"] <= steps

    def test_failed_stage_leaves_the_last_record(self, tiny_copy, capsys):
        out = tiny_copy
        record = (out / "run-embed.json").read_bytes()
        (out / "checkpoint.bin").unlink()
        assert _run(out, "embed", extra=TINY) == 1
        assert (out / "run-embed.json").read_bytes() == record
        assert _run(out, "eval", "--metrics", "f1,bogus", extra=TINY) == 1
        assert not (out / "run-eval.json").exists()
