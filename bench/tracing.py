"""Span tracing of the cpe modules from outside the program.

`Tracer.install()` replaces every public function of each layer module
(`cpe.tensor`, `cpe.encoder`, ...) with a wrapper that records one span per
call: name, start, end and the span that was open when it began. The
wrapper is put on every name a caller looks up: the defining module, every
other `cpe` module that imported the function by name, and dict tables
such as `pooling.POOLERS` and `cli.COMMANDS`.

Each tensor op's wrapper also wraps the backward closure of the tape node
it returns, so the backward pass records one `tensor.backward.<op>` span
per node. Spans are kept in memory and written to an `.npz` file by
`dump`; `SpanTable` reads them back and answers the questions the
per-layer metrics ask (self time, time inside another span, node counts).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

import numpy as np

LAYERS = ("tensor", "encoder", "pooling", "training", "optim", "corpus",
          "checkpoint", "classifier", "metrics", "cli")

# name -> callable(result) -> {counter: value}, for numbers only a return value holds
RESULT_COUNTERS = {
    "training.pretrain": lambda r: {"training.skipped_docs": r.skipped_docs},
    "training.embed_documents": lambda r: {"training.embedded_docs": len(r)},
}


class Tracer:
    def __init__(self):
        self.names = []            # name id -> span name
        self._ids = {}
        self.name_id = []          # per span
        self.parent = []           # per span: index of the enclosing span or -1
        self.start = []            # per span: perf_counter_ns
        self.end = []
        self.node_bytes = []       # per span: bytes of the tape node it created, -1 if none
        self.counters = {}
        self._stack = []
        self._originals = []       # (holder, key, original) to undo install

    def _nid(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid):
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.node_bytes.append(-1)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name, fn, on_result=None):
        nid = self._nid(name)
        opened, closed = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = opened(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                closed(idx)
            if on_result is not None:
                on_result(idx, out)
            return out

        return traced

    def _tape_hook(self, op, tensor_cls):
        """Wrap the backward closure of the node an op returns, once."""
        bwd_nid = self._nid(f"tensor.backward.{op}")
        opened, closed, node_bytes = self._open, self._close, self.node_bytes

        def on_result(idx, out):
            if not isinstance(out, tensor_cls):
                return
            bwd = out._backward
            if bwd is None or getattr(bwd, "__bench_op__", None) is not None:
                return  # no tape node, or a node an inner op already owns
            node_bytes[idx] = out.data.nbytes

            def traced_backward(g):
                i = opened(bwd_nid)
                try:
                    bwd(g)
                finally:
                    closed(i)

            traced_backward.__bench_op__ = op
            out._backward = traced_backward

        return on_result

    def install(self):
        """Wrap the public functions of every layer module of `cpe`."""
        from cpe import tensor as T

        wrappers = {}  # id(original) -> wrapper
        for layer in LAYERS:
            module = importlib.import_module(f"cpe.{layer}")
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                name = f"{layer}.{attr}"
                hook = self._tape_hook(attr, T.Tensor) if layer == "tensor" else None
                counter = RESULT_COUNTERS.get(name)
                if counter is not None:
                    hook = self._counter_hook(counter)
                wrappers[id(fn)] = self.wrap(name, fn, on_result=hook)
        for modname, module in list(sys.modules.items()):
            if modname != "cpe" and not modname.startswith("cpe."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._patch(vars(module), attr, wrappers[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrappers:
                            self._patch(value, key, wrappers[id(item)])
        return self

    def _counter_hook(self, counter):
        def on_result(idx, out):
            for key, value in counter(out).items():
                self.counters[key] = self.counters.get(key, 0) + value
        return on_result

    def _patch(self, holder, key, wrapper):
        self._originals.append((holder, key, holder[key]))
        holder[key] = wrapper

    def uninstall(self):
        for holder, key, original in reversed(self._originals):
            holder[key] = original
        self._originals.clear()

    def table(self):
        return SpanTable(self.names, np.asarray(self.name_id, dtype=np.int32),
                         np.asarray(self.parent, dtype=np.int64),
                         np.asarray(self.start, dtype=np.int64),
                         np.asarray(self.end, dtype=np.int64),
                         np.asarray(self.node_bytes, dtype=np.int64),
                         dict(self.counters))

    def dump(self, path):
        self.table().save(path)


class SpanTable:
    """Spans as parallel arrays; times in nanoseconds."""

    def __init__(self, names, name_id, parent, start, end, node_bytes, counters=None):
        self.names = list(names)
        self.name_id = name_id
        self.parent = parent
        self.start = start
        self.end = end
        self.node_bytes = node_bytes
        self.counters = dict(counters or {})

    def save(self, path):
        np.savez(path, names=np.array(self.names, dtype=str), name_id=self.name_id,
                 parent=self.parent, start=self.start, end=self.end,
                 node_bytes=self.node_bytes,
                 counter_keys=np.array(list(self.counters), dtype=str),
                 counter_values=np.array(list(self.counters.values()), dtype=np.float64))

    @classmethod
    def load(cls, path):
        with np.load(path) as z:
            counters = dict(zip(z["counter_keys"].tolist(), z["counter_values"].tolist()))
            return cls(z["names"].tolist(), z["name_id"], z["parent"], z["start"],
                       z["end"], z["node_bytes"], counters)

    def __len__(self):
        return len(self.name_id)

    @property
    def duration(self):
        return self.end - self.start

    def self_time(self):
        """Each span's duration minus the time its direct children cover."""
        dur = self.duration
        child = np.zeros(len(dur), dtype=np.float64)
        has_parent = self.parent >= 0
        child += np.bincount(self.parent[has_parent], weights=dur[has_parent],
                             minlength=len(dur))
        return dur - child

    def select(self, predicate):
        """Boolean mask of spans whose name satisfies `predicate`."""
        ok = np.array([bool(predicate(n)) for n in self.names], dtype=bool)
        if not len(ok):
            return np.zeros(len(self), dtype=bool)
        return ok[self.name_id]

    def named(self, *names):
        wanted = set(names)
        return self.select(lambda n: n in wanted)

    def within(self, *names):
        """Mask of spans that lie inside (or are) a span with one of `names`."""
        outer = self.named(*names)
        inside = np.zeros(len(self), dtype=bool)
        for s, e in zip(self.start[outer], self.end[outer]):
            inside |= (self.start >= s) & (self.end <= e)
        return inside

    def seconds(self, mask, self_only=False):
        values = self.self_time() if self_only else self.duration
        return float(values[mask].sum()) / 1e9

    def count(self, mask):
        return int(mask.sum())
