"""Command-line pipeline driver.

Commands: gen-synthetic, pretrain, embed, train-clf, eval, sweep-chunk.
Each command is a pure function of (config, seed, input artifacts) and
writes artifacts with stable names under the output directory. `embed` and
`eval` run their models untracked, so their forwards build no tape. A
command that succeeds also writes `run-<command>.json`, a record of what
the invocation cost and ran on; no command reads it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time

import numpy as np

from . import corpus as C
from . import metrics as M
from . import tensor as T
from .checkpoint import Head, load_encoder, load_head, save_encoder, save_head
from .classifier import predict_batch, train_classifier
from .config import ExperimentConfig
from .encoder import init_params
from .pooling import POOLERS
from .training import OBJECTIVES, embed_documents, pretrain


class CliError(RuntimeError):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error as a CliError, so it ends like every other
    user-reachable failure: one `error: ...` line and exit status 1."""

    def error(self, message):
        raise CliError(message)


def _require(path, stage, hint=""):
    if not os.path.exists(path):
        extra = f" {hint}" if hint else ""
        raise CliError(f"missing artifact {os.path.basename(path)}: "
                       f"run '{stage}' first.{extra}")
    return path


def _outdir(cfg):
    os.makedirs(cfg.output_dir, exist_ok=True)
    with open(os.path.join(cfg.output_dir, "config_effective.ini"), "w") as f:
        f.write(cfg.dump())
    return cfg.output_dir


def _load_records(cfg):
    source = cfg.get("corpus", "source")
    if source == "synthetic":
        path = os.path.join(cfg.output_dir, "corpus.jsonl")
        _require(path, "gen-synthetic")
    else:
        path = _require(source, "gen-synthetic", hint="(corpus source file not found)")
    records = C.load_jsonl(path)
    if not records:
        raise CliError(f"{path}: the corpus has no records")
    return records


def _task(cfg, override=None):
    return override or cfg.get("synthetic", "task")


def _split(n, seed, frac):
    """(train, test) indices of n documents: a seeded permutation cut at frac."""
    cut = int(frac * n)
    if not 0 < cut < n:
        raise CliError(f"corpus.train_frac={frac} leaves an empty train or test "
                       f"split of {n} documents")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    return perm[:cut], perm[cut:]


def _untracked(params):
    """The same arrays, neither copied nor cast, as untracked tensors: a
    forward over them records no tape node."""
    return {k: T.Tensor(p.data, name=k) for k, p in params.items()}


# ---------------------------------------------------------------------------
# commands

def cmd_gen_synthetic(cfg, args):
    out = _outdir(cfg)
    spec = cfg.synthetic_spec()
    records = C.gen_synthetic(spec, cfg.seed)
    C.save_jsonl(os.path.join(out, "corpus.jsonl"), records)
    C.save_label_map(os.path.join(out, "labels.tsv"),
                     {t: f"topic{t}" for t in range(spec.num_topics)})
    print(f"wrote {len(records)} documents to {out}/corpus.jsonl")


def cmd_pretrain(cfg, args):
    out = _outdir(cfg)
    records = _load_records(cfg)
    vocab = C.build_vocab((r["text"] for r in records),
                          min_freq=cfg.get("corpus", "min_freq"))
    docs = C.encode_documents(records, vocab, task=_task(cfg))
    del records  # tokenized: no later step reads the raw text
    pcfg = cfg.pretrain_config(objective=args.objective)
    ecfg = cfg.encoder_config(vocab.size, pcfg.objective)

    result = pretrain(docs, ecfg, pcfg)  # a failed pretrain leaves the last run's files
    with open(os.path.join(out, "pretrain_log.tsv"), "w") as log_file:
        log_file.writelines(line + "\n" for line in result.log_lines)
    save_encoder(os.path.join(out, "checkpoint.bin"), result.params, ecfg, pcfg, vocab)
    vocab.save(os.path.join(out, "vocab.txt"))
    print(f"pretrained {pcfg.objective} for {result.steps} steps "
          f"(skipped {result.skipped_docs} docs); checkpoint.bin written")
    return {"steps": result.steps, "skipped_docs": result.skipped_docs,
            "hard_negative_batches": result.hard_negative_batches}


def cmd_embed(cfg, args):
    out = _outdir(cfg)
    records = _load_records(cfg)
    ckpt_path = os.path.join(out, "checkpoint.bin")
    if args.random_init:
        vocab = C.build_vocab((r["text"] for r in records),
                              min_freq=cfg.get("corpus", "min_freq"))
        pcfg = cfg.pretrain_config()
        ecfg = cfg.encoder_config(vocab.size, pcfg.objective)
        params = init_params(ecfg, cfg.seed)
    else:
        ecfg, pcfg, params, vocab = load_encoder(
            _require(ckpt_path, "pretrain", hint="(or pass --random-init)"))

    docs = C.encode_documents(records, vocab, task=_task(cfg))
    del records  # tokenized: no later step reads the raw text
    embs = embed_documents(docs, _untracked(params), ecfg, pooling=args.pooling or pcfg.pooling,
                           chunk_len=pcfg.chunk_len, n_chunks=pcfg.n_chunks,
                           max_tokens=pcfg.max_tokens)
    M.export_embeddings(os.path.join(out, "embeddings.tsv"), embs,
                        [d.id for d in docs], [d.labels for d in docs])
    print(f"wrote {len(docs)} embeddings (dim {embs.shape[1]}) to {out}/embeddings.tsv")


def cmd_train_clf(cfg, args):
    out = _outdir(cfg)
    path = _require(os.path.join(out, "embeddings.tsv"), "embed")
    embs, ids, labels = M.load_embeddings(path)
    task = _task(cfg, args.task)
    num_labels = max((max(ls) for ls in labels if ls), default=-1) + 1
    if num_labels < 1:
        raise CliError("train-clf: corpus has no labels")
    seed, frac = cfg.seed, cfg.get("corpus", "train_frac")
    train_idx, _ = _split(len(embs), seed, frac)
    ccfg = cfg.classifier_config()
    params = train_classifier(embs[train_idx], [labels[i] for i in train_idx],
                              num_labels, task, ccfg)
    save_head(os.path.join(out, "clf.bin"), params,
              Head(task=task, num_labels=num_labels, hidden=ccfg.hidden,
                   threshold=ccfg.threshold, seed=seed, train_frac=frac, num_docs=len(embs)))
    print(f"trained {task} classifier on {len(train_idx)} docs; clf.bin written")


def cmd_eval(cfg, args):
    out = _outdir(cfg)
    path = _require(os.path.join(out, "embeddings.tsv"), "embed")
    embs, ids, labels = M.load_embeddings(path)
    clf_path = os.path.join(out, "clf.bin")
    head, params = (load_head(clf_path, embs.shape[1]) if os.path.exists(clf_path)
                    else (None, None))
    seed, frac = cfg.seed, cfg.get("corpus", "train_frac")
    if head is not None:  # score the split the head was trained on
        if head.num_docs != len(embs):
            raise CliError(f"embeddings.tsv has {len(embs)} rows, clf.bin was trained on a "
                           f"split of {head.num_docs}; re-run 'train-clf'")
        seed, frac = head.seed, head.train_frac
    _, test_idx = _split(len(embs), seed, frac)
    wanted = [m.strip() for m in args.metrics.split(",") if m.strip()]
    report = {}
    for m in wanted:
        if m == "f1":
            _require(clf_path, "train-clf")  # head is None only when clf.bin is missing
            preds, _ = predict_batch(embs[test_idx], _untracked(params), head.task,
                                     threshold=head.threshold)
            gold = [labels[i] for i in test_idx]
            try:
                f1 = M.f1_scores(preds, gold, head.num_labels, head.task)
            except ValueError as e:  # a gold label the head cannot predict
                raise CliError(f"{path}: {e}, the labels of {clf_path}") from None
            report["macro_f1"] = f1.macro_f1
            report["micro_f1"] = f1.micro_f1
        elif m == "cluster":
            pts = embs[test_idx]
            if cfg.get("eval", "normalize"):
                norms = np.linalg.norm(pts, axis=1, keepdims=True)
                pts = pts / np.maximum(norms, 1e-12)
            assign = M.dbscan(pts, cfg.get("eval", "dbscan_eps"),
                              cfg.get("eval", "dbscan_min_pts"))
            gold = [labels[i] for i in test_idx]
            h, c = M.homogeneity_completeness(assign, gold)
            report["homogeneity"] = h
            report["completeness"] = c
            report["num_clusters"] = int(len(set(a for a in assign if a >= 0)))
        else:
            raise CliError(f"unknown metric '{m}' (choose from f1, cluster)")
    report["num_test_docs"] = int(len(test_idx))
    M.write_metrics(os.path.join(out, "metrics.txt"), report)
    for k, v in report.items():
        print(f"{k}\t{v:.6f}" if isinstance(v, float) else f"{k}\t{v}")


def cmd_sweep_chunk(cfg, args):
    out = _outdir(cfg)
    max_tokens = cfg.get("pretrain", "max_tokens")
    sizes = ([int(s) for s in args.sizes.split(",")] if args.sizes is not None else
             [2 ** e for e in range(3, max_tokens.bit_length()) if 2 ** e <= max_tokens // 2])
    few = [size for size in sizes if size < 1 or max_tokens // size < 2]
    if few or not sizes:
        raise CliError(f"sweep-chunk: chunk sizes {few or sizes} leave fewer than 2 slots "
                       f"of max_tokens {max_tokens}")
    rows = []
    for size in sizes:
        sub = os.path.join(out, f"chunk_{size}")
        arm = ExperimentConfig({s: dict(keys) for s, keys in cfg.values.items()})
        arm.values["run"]["output_dir"] = sub
        arm.values["pretrain"].update(chunk_len=size, n_chunks=max_tokens // size)
        ns = argparse.Namespace(objective=arm.get("pretrain", "objective"), pooling=None,
                                random_init=False, task=None, metrics="f1")
        if arm.get("corpus", "source") == "synthetic":
            cmd_gen_synthetic(arm, ns)
        cmd_pretrain(arm, ns)
        cmd_embed(arm, ns)
        cmd_train_clf(arm, ns)
        cmd_eval(arm, ns)
        with open(os.path.join(sub, "metrics.txt")) as f:
            vals = dict(line.rstrip("\n").split("\t") for line in f)
        rows.append((size, float(vals["macro_f1"]), float(vals["micro_f1"])))
    with open(os.path.join(out, "sweep.tsv"), "w") as f:
        f.write("chunk_len\tmacro_f1\tmicro_f1\n")
        for size, mac, mic in rows:
            f.write(f"{size}\t{mac:.6f}\t{mic:.6f}\n")
    print(f"sweep over {sizes} complete; sweep.tsv written")


# ---------------------------------------------------------------------------

def build_parser():
    p = _ArgumentParser(prog="cpe",
                        description="chunk-prediction contrastive pretraining pipeline")
    p.add_argument("--config", default=None, help="INI config file")
    p.add_argument("--set", action="append", default=[], metavar="SECTION.KEY=VALUE",
                   help="override a config value")
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("gen-synthetic", help="generate a synthetic topic-mixture corpus")

    sp = sub.add_parser("pretrain", help="contrastive pretraining")
    sp.add_argument("--objective", choices=OBJECTIVES, default=None)

    se = sub.add_parser("embed", help="embed the corpus with a checkpoint")
    se.add_argument("--pooling", choices=tuple(POOLERS), default=None,
                    help="default: the checkpoint's pretrain.pooling")
    se.add_argument("--random-init", action="store_true",
                    help="use an untrained encoder (baseline arm)")

    st = sub.add_parser("train-clf", help="train the MLP head on frozen embeddings")
    st.add_argument("--task", choices=("multilabel", "multiclass"), default=None)

    sv = sub.add_parser("eval", help="compute metrics on the test split")
    sv.add_argument("--metrics", default="f1,cluster")

    sw = sub.add_parser("sweep-chunk", help="chunk-size ablation sweep")
    sw.add_argument("--sizes", help="comma-separated chunk lengths; default: powers "
                    "of two from 8 to pretrain.max_tokens // 2")
    return p


# each returns the fields it adds to its run record, or None
COMMANDS = {
    "gen-synthetic": cmd_gen_synthetic,
    "pretrain": cmd_pretrain,
    "embed": cmd_embed,
    "train-clf": cmd_train_clf,
    "eval": cmd_eval,
    "sweep-chunk": cmd_sweep_chunk,
}


_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _write_run_record(cfg, command, wall_s, fields):
    """run-<command>.json: the command, its wall time and this process's
    peak RSS (ru_maxrss is in KiB on Linux), the seed and the SHA-256 of
    config_effective.ini's text, the Python and numpy versions, the name and
    version of the BLAS numpy was built against and the BLAS thread
    settings, then the command's own `fields`."""
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    record = {"command": command, "wall_s": wall_s,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
              "seed": cfg.seed, "config_sha256": hashlib.sha256(cfg.dump().encode()).hexdigest(),
              "python": platform.python_version(), "numpy": np.__version__,
              "blas": {"name": blas.get("name"), "version": blas.get("version")},
              "env": {name: os.environ.get(name) for name in _THREAD_VARS}, **(fields or {})}
    with open(os.path.join(cfg.output_dir, f"run-{command}.json"), "w") as f:
        f.write(json.dumps(record, indent=2) + "\n")


def main(argv=None):
    start = time.perf_counter()
    try:
        args = build_parser().parse_args(argv)
        cfg = ExperimentConfig.load(args.config, overrides=args.set)
        fields = COMMANDS[args.command](cfg, args)
        _write_run_record(cfg, args.command, time.perf_counter() - start, fields)
        return 0
    # ConfigError and CorpusError are ValueErrors, as are the artifact readers' errors
    except (CliError, ValueError, FloatingPointError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
