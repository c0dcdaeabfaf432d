import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpe.cli import main
from cpe.config import DEFAULTS, ConfigError, ExperimentConfig
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
        assert (outs[0] / "embeddings.tsv").read_bytes() == \
               (outs[1] / "embeddings.tsv").read_bytes()

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
        step, epoch, objective, loss = lines[0].split("\t")
        assert step == "1" and epoch == "1" and objective == "simcse"
        float(loss)


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
    "synthetic.doc_alpha=0", "run.seed=-1", "pretrain.esimcse_rate=5", "pretrain.tau=-1",
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
    # missing-artifact paths
    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(overrides=st.lists(OVERRIDE, max_size=2),
           stages=st.one_of(st.just(STAGES), st.permutations(STAGES),
                            st.lists(st.sampled_from(STAGES), min_size=1, max_size=6)))
    def test_each_stage_succeeds_or_prints_one_error(self, overrides, stages):
        with tempfile.TemporaryDirectory() as out:
            for stage in stages:
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    rc = _run(out, stage, extra=["synthetic.num_docs=24", *overrides])
                lines = err.getvalue().splitlines()
                assert rc == 0 or (rc == 1 and len(lines) == 1
                                   and lines[0].startswith("error:")), (stage, rc, lines)
