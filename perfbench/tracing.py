"""Span recorder for the traced run.

Spans are recorded around calls into risknet's public functions by swapping
each function for a wrapper at the binding its caller looks up: `risknet.model`
imports the layer functions by name and `risknet.baselines` imports `fit`,
`evaluate` and `compute_metrics` by name, so those module attributes are
wrapped alongside the defining ones.  Nothing in `src/` is edited.

A span is (name, start, end, parent index, run id).  Spans stay in memory and
are written out once, by `Tracer.dump`, when the run ends.  A span's self time
is its duration minus the durations of the spans directly nested in it.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import time
from pathlib import Path

import numpy as np

LAYER_FUNCS = ("embedding", "dropout", "lstm", "attention", "conv1d_relu", "maxpool1d",
               "dense_softmax")
STAGES = ("synth", "preprocess", "annotate", "train", "evaluate", "predict", "ablate")

# span name -> the (module, attribute) bindings that carry it
_TARGETS: dict[str, tuple[tuple[str, str], ...]] = {
    **{f"layers.{f}_{d}": (("risknet.model", f"{f}_{d}"),)
       for f in LAYER_FUNCS for d in ("forward", "backward")},
    "model.forward": (("risknet.model", "Model.forward"),),
    "model.backward": (("risknet.model", "Model.backward"),),
    "train.Adam.step": (("risknet.train", "Adam.step"),),
    "train.fit": (("risknet.train", "fit"), ("risknet.baselines", "fit")),
    "train.evaluate": (("risknet.train", "evaluate"), ("risknet.baselines", "evaluate")),
    "baselines.LinearSVM.fit": (("risknet.baselines", "LinearSVM.fit"),),
    "baselines.mean_embedding_features": (("risknet.baselines", "mean_embedding_features"),),
    "rng.Xoshiro256StarStar.shuffle": (("risknet.rng", "Xoshiro256StarStar.shuffle"),),
    "textprep.clean": (("risknet.textprep", "clean"),),
    "textprep.lemmatize": (("risknet.textprep", "lemmatize"),),
    "weaklabel.weak_label_documents": (("risknet.weaklabel", "weak_label_documents"),),
    "synth.generate_corpus": (("risknet.synth", "generate_corpus"),),
    "corpus.load_posts": (("risknet.corpus", "load_posts"),),
    "embed.build_vocab": (("risknet.embed", "build_vocab"),),
    "embed.encode_batch": (("risknet.embed", "encode_batch"),),
    "cli.read_tokens": (("risknet.cli", "read_tokens"),),
    "cli.write_tokens": (("risknet.cli", "write_tokens"),),
    "modelio.save_model": (("risknet.modelio", "save_model"),),
    "modelio.load_model": (("risknet.modelio", "load_model"),),
    "metrics.compute_metrics": (("risknet.metrics", "compute_metrics"),
                                ("risknet.train", "compute_metrics"),
                                ("risknet.baselines", "compute_metrics")),
}

# spans called often enough per run to report per-call percentiles
HOT = tuple(f"layers.{f}_{d}" for f in LAYER_FUNCS for d in ("forward", "backward")) + (
    "model.forward", "model.backward", "train.Adam.step")
COLD = tuple(n for n in _TARGETS if n not in HOT)
STAGE_SPANS = tuple(f"cli.{s}" for s in STAGES)
COUNTS = {"embed.vocab_size": "count", "embed.unique_rows_per_batch": "count",
          "embed.truncated_share": "ratio", "modelio.file_bytes": "bytes"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {}
    for name in HOT:
        units.update({f"{name}.calls": "count", f"{name}.self_s": "s",
                      f"{name}.ms_p50": "ms", f"{name}.ms_p90": "ms"})
    for name in COLD:
        units.update({f"{name}.calls": "count", f"{name}.self_s": "s"})
    units.update({f"{name}.self_s": "s" for name in STAGE_SPANS})
    units.update(COUNTS)
    units["trace.overhead_s"] = "s"
    return units


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


class Tracer:
    """In-memory span and count recorder for one workload run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent, run_id]
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.emb_rows = 0
        self.unique_rows: list[int] = []
        self.docs = 0
        self.truncated = 0
        self.file_bytes = 0

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.run_id])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return wrapper

    def _count(self, name: str, args: tuple) -> None:
        if name == "layers.embedding_forward":
            E, indices = args[:2]
            self.emb_rows = max(self.emb_rows, E.shape[0])
            self.unique_rows.append(int(np.unique(indices).size))
        elif name == "embed.encode_batch":
            docs, max_len = args[0], args[2]
            self.docs += len(docs)
            self.truncated += sum(1 for d in docs if len(d) > max_len)
        elif name in ("modelio.save_model", "modelio.load_model"):
            path = args[-1] if name == "modelio.save_model" else args[0]
            self.file_bytes = max(self.file_bytes, os.path.getsize(path))

    def _wrap_counted(self, name: str, fn):
        inner = self._wrap(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = inner(*args, **kwargs)
            # a span of its own, so counting is not charged to the caller's
            # self time; it is not reported as a metric
            idx = self.open("trace.count")
            self._count(name, args)
            self.close(idx)
            return result
        return wrapper

    def install(self) -> None:
        counted = ("layers.embedding_forward", "embed.encode_batch",
                   "modelio.save_model", "modelio.load_model")
        for name, bindings in _TARGETS.items():
            for module, attr in bindings:
                owner, leaf = _resolve(module, attr)
                fn = owner.__dict__[leaf]
                self._saved.append((owner, leaf, fn))
                wrap = self._wrap_counted if name in counted else self._wrap
                setattr(owner, leaf, wrap(name, fn))

    def uninstall(self) -> None:
        for owner, leaf, fn in reversed(self._saved):
            setattr(owner, leaf, fn)
        self._saved.clear()

    def summary(self) -> dict[str, float]:
        """Per-span calls, self time and per-call percentiles, plus counts."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        durs: dict[str, list[float]] = {}
        self_s: dict[str, float] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            durs.setdefault(name, []).append(end - start)
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]
        out: dict[str, float] = {}
        for name in HOT + COLD:
            d = durs.get(name, [])
            out[f"{name}.calls"] = len(d)
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
            if name in HOT:
                ms = sorted(x * 1e3 for x in d)
                out[f"{name}.ms_p50"] = statistics.median(ms) if ms else 0.0
                out[f"{name}.ms_p90"] = ms[min(len(ms) - 1, int(0.9 * len(ms)))] if ms else 0.0
        for name in STAGE_SPANS:
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
        out["embed.vocab_size"] = self.emb_rows
        out["embed.unique_rows_per_batch"] = (
            statistics.median(self.unique_rows) if self.unique_rows else 0)
        out["embed.truncated_share"] = self.truncated / self.docs if self.docs else 0.0
        out["modelio.file_bytes"] = self.file_bytes
        return out

    def dump(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "run_id"],
                       "spans": self.spans}, fh)
