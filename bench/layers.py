"""Per-layer metrics, computed from the spans of a traced run.

Per-step figures count only spans inside `training.pretrain`, divided by
the optimizer steps taken there; per-document figures count only spans
inside `training.embed_documents`; corpus figures count only corpus calls
outside both, which is the set-up. A layer a workload never calls reports
0. Times are seconds; the tensor forward times are self times (a span's
duration minus its child spans), the other layers' times include the
calls they make into lower layers.
"""

from __future__ import annotations

from util import MB, metric

# tensor ops whose forward and backward time are reported one by one
TRACKED_OPS = ("index_select", "mul", "sum_", "matmul", "softmax", "layer_norm", "add",
               "concat", "slice_", "masked_max", "dropout", "scale", "reshape",
               "transpose", "relu", "div", "sqrt", "log_softmax")
STAGES = ("gen-synthetic", "pretrain", "embed", "train-clf", "eval")

# bookkeeping calls of the tensor module that are neither forward ops nor backward
_NOT_FORWARD = ("tensor.backward", "tensor.collect_gradients", "tensor.zero_gradients")


def names_and_units():
    """(name, unit) of every per-layer metric, in report order."""
    out = [("tensor.tape_nodes_per_step", "count"),
           ("tensor.forward_self_s_per_step", "s"),
           ("tensor.backward_s_per_step", "s"),
           ("tensor.tape_mb_per_step", "MB"),
           ("tensor.embed_tape_nodes", "count")]
    for op in TRACKED_OPS:
        out += [(f"tensor.forward_s.{op}", "s"), (f"tensor.backward_s.{op}", "s")]
    out += [("encoder.train_forward_s_per_step", "s"),
            ("encoder.embed_forward_s_per_doc", "s"),
            ("pooling.pool_s_per_step", "s"),
            ("training.sample_s_per_step", "s"),
            ("training.loss_s_per_step", "s"),
            ("training.steps", "count"),
            ("training.skipped_docs", "count"),
            ("optim.adamw_s_per_step", "s"),
            ("corpus.gen_s", "s"),
            ("corpus.tokenize_s", "s"),
            ("corpus.chunk_s", "s"),
            ("checkpoint.save_s", "s"),
            ("checkpoint.load_s", "s"),
            ("checkpoint.mb", "MB"),
            ("classifier.train_s", "s"),
            ("classifier.predict_s", "s"),
            ("metrics.export_s", "s"),
            ("metrics.load_s", "s"),
            ("metrics.dbscan_s", "s"),
            ("metrics.embeddings_mb", "MB"),
            ("metrics.macro_f1", "F1")]
    out += [(f"cli.stage_s.{stage}", "s") for stage in STAGES]
    out += [("trace.overhead_pct", "%"), ("trace.spans", "count")]
    return out


def compute(tables, files=None, stage_s=None, overhead_pct=0.0, macro_f1=0.0):
    """Every per-layer metric, as {name: {"value", "unit"}}, from the span
    tables of one traced pass, which holds exactly one set-up.

    `tables` are the SpanTables of the traced processes (one per CLI stage,
    or one for an in-process workload); `files` gives artifact sizes in
    bytes (`checkpoint`, `embeddings`); `stage_s` the wall time per CLI
    stage; `macro_f1` the test-split macro-F1 that `eval` wrote, if it ran.
    """
    files = files or {}
    stage_s = stage_s or {}
    v = {name: 0.0 for name, _ in names_and_units()}
    steps = pretrain_calls = docs = 0
    acc = {k: 0.0 for k in v}

    def add(key, value):
        acc[key] += value

    for t in tables:
        in_train = t.within("training.pretrain")
        in_embed = t.within("training.embed_documents")
        steps += t.count(t.named("optim.adamw_step") & in_train)
        pretrain_calls += t.count(t.named("training.pretrain"))
        docs += int(t.counters.get("training.embedded_docs", 0))
        nodes = t.node_bytes >= 0
        add("tensor.tape_nodes_per_step", t.count(nodes & in_train))
        add("tensor.tape_mb_per_step", float(t.node_bytes[nodes & in_train].sum()) / MB)
        add("tensor.embed_tape_nodes", t.count(nodes & in_embed))
        forward = t.select(lambda n: n.startswith("tensor.") and n not in _NOT_FORWARD
                           and not n.startswith("tensor.backward."))
        add("tensor.forward_self_s_per_step", t.seconds(forward & in_train, self_only=True))
        add("tensor.backward_s_per_step", t.seconds(t.named("tensor.backward") & in_train))
        for op in TRACKED_OPS:
            add(f"tensor.forward_s.{op}", t.seconds(t.named(f"tensor.{op}") & in_train,
                                                    self_only=True))
            add(f"tensor.backward_s.{op}", t.seconds(t.named(f"tensor.backward.{op}") & in_train))
        add("encoder.train_forward_s_per_step",
            t.seconds(t.named("encoder.encoder_forward") & in_train))
        add("encoder.embed_forward_s_per_doc",
            t.seconds(t.named("encoder.encoder_forward") & in_embed))
        add("pooling.pool_s_per_step",
            t.seconds(t.select(lambda n: n.startswith("pooling.")) & in_train))
        add("training.sample_s_per_step",
            t.seconds(t.named("training.sample_pair_hier", "training.sample_pair_long") & in_train))
        add("training.loss_s_per_step", t.seconds(t.named("training.mnr_loss") & in_train))
        add("training.skipped_docs", t.counters.get("training.skipped_docs", 0))
        add("optim.adamw_s_per_step", t.seconds(t.named("optim.adamw_step") & in_train))
        in_setup = ~(in_train | in_embed)
        add("corpus.gen_s", t.seconds(t.named("corpus.gen_synthetic") & in_setup))
        add("corpus.tokenize_s", t.seconds(t.named("corpus.build_vocab", "corpus.encode_documents")
                                           & in_setup))
        add("corpus.chunk_s", t.seconds(t.named("corpus.chunk") & in_setup))
        add("checkpoint.save_s", t.seconds(t.named("checkpoint.save_checkpoint")))
        add("checkpoint.load_s", t.seconds(t.named("checkpoint.load_checkpoint")))
        add("classifier.train_s", t.seconds(t.named("classifier.train_classifier")))
        add("classifier.predict_s", t.seconds(t.named("classifier.predict_batch")))
        add("metrics.export_s", t.seconds(t.named("metrics.export_embeddings")))
        add("metrics.load_s", t.seconds(t.named("metrics.load_embeddings")))
        add("metrics.dbscan_s", t.seconds(t.named("metrics.dbscan")))
        add("trace.spans", len(t))

    per_step = [k for k in acc if k.endswith("_per_step") or k.startswith("tensor.forward_s.")
                or k.startswith("tensor.backward_s.")]
    for k in acc:
        if k in per_step:
            v[k] = acc[k] / steps if steps else 0.0
        elif k in ("encoder.embed_forward_s_per_doc", "tensor.embed_tape_nodes"):
            v[k] = acc[k] / docs if docs else 0.0
        else:
            v[k] = acc[k]
    v["training.steps"] = steps / pretrain_calls if pretrain_calls else 0.0
    v["training.skipped_docs"] = acc["training.skipped_docs"] / pretrain_calls if pretrain_calls else 0.0
    v["checkpoint.mb"] = files.get("checkpoint", 0) / MB
    v["metrics.embeddings_mb"] = files.get("embeddings", 0) / MB
    for stage in STAGES:
        v[f"cli.stage_s.{stage}"] = stage_s.get(stage, 0.0)
    v["metrics.macro_f1"] = macro_f1
    v["trace.overhead_pct"] = overhead_pct
    return {name: metric(v[name], unit) for name, unit in names_and_units()}
