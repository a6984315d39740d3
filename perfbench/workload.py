"""One workload process: set up inputs, or run the measured CLI stages.

`run.py` starts this file in a fresh interpreter, once per set-up and once
for the measurement, with BLAS pinned to one thread.  Every stage goes
through `risknet.cli.main` in this one process (a closed loop with one
client); the per-epoch lines `train` prints are swallowed.  The process
writes a JSON result file and prints nothing.

    python3 perfbench/workload.py --phase setup|measure --workload NAME
        --seed N --seconds S --trace 0|1 --work DIR --result FILE
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import gen
import tracing
from risknet import cli

WORKLOADS = ("pipeline-weak", "train-paper", "infer-paper")

# ROADMAP acceptance shape on the weak-labeled corpus
PIPE_POSTS = 2000
PIPE_EPOCHS = 10
PIPE_FLAGS = ["--epochs", PIPE_EPOCHS, "--embed-dim", 32, "--lstm-units", 16, "--max-len", 48,
              "--batch-size", 32]
# Macro-F1 floor for every F1 the benchmark reads.  Training at these shapes
# stays at chance on some seeds (macro-F1 ~0.11, a one-class predictor) and
# reaches 0.92-0.95 (weak labels) on others, so the floor only catches a
# broken pipeline, not a small loss of quality.
F1_FLOOR = 0.05
ABLATION_ORDER = ["svm", "cnn", "lstm", "lstm_cnn", "lstm_attention_cnn"]

# paper shape; a lexicon of 200k Zipf words gives a ~20k train-shard vocabulary
PAPER_LEXICON = 200_000
PAPER_TRAIN_POSTS = 640         # 512 train rows, 16 steps per epoch at batch 32
PAPER_INFER_POSTS = 2048
PAPER_FLAGS = ["--embed-dim", 300, "--lstm-units", 100, "--max-len", 128, "--batch-size", 32]
TRAIN_PAPER_EPOCHS = 1
INFER_MODEL_EPOCHS = 2          # beats chance on most seeds, not on all
INFER_SEED_OFFSET = 1_000_003   # the inference corpus is its own seeded stream


def _digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes() if p.is_file() else b"<missing>")
    return h.hexdigest()


class Run:
    """CLI invocations made so far, with their exit codes and failed checks."""

    def __init__(self, tracer: tracing.Tracer | None = None):
        self.calls: list[dict] = []
        self.tracer = tracer

    def cli(self, stage: str, *args: object) -> dict:
        argv = [stage] + [str(a) for a in args]
        out, err = io.StringIO(), io.StringIO()
        span = self.tracer.open(f"cli.{stage}") if self.tracer else None
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        seconds = time.perf_counter() - start
        if span is not None:
            self.tracer.close(span)
        call = {"stage": stage, "rc": rc, "seconds": seconds, "failed_checks": []}
        if rc != 0:
            call["failed_checks"].append(f"exit {rc}: {err.getvalue().strip()[-300:]}")
        self.calls.append(call)
        return call

    @staticmethod
    def check(call: dict, ok: bool, message: str) -> bool:
        if not ok:
            call["failed_checks"].append(message)
        return ok


def _read_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}


def _last_loss(history: Path) -> float:
    try:
        with history.open(encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        return float(rows[-1]["loss"])
    except (OSError, ValueError, KeyError, IndexError):
        return math.nan


def _count_lines(path: Path) -> int:
    try:
        with path.open(encoding="utf-8") as fh:
            return sum(1 for line in fh if line.strip())
    except OSError:
        return 0


def _prediction_accuracy(run: Run, call: dict, predictions: Path, labeled: Path,
                         metrics: dict) -> None:
    """Accuracy recomputed from predictions.csv on the rows evaluate scored."""
    try:
        truth = {}
        with labeled.open(encoding="utf-8") as fh:
            for line in fh:
                if line.strip():
                    row = json.loads(line)
                    truth[row["post_id"]] = row["label"]
        with predictions.open(encoding="utf-8") as fh:
            preds = {r["post_id"]: int(r["label"]) for r in csv.DictReader(fh)}
        hits = sum(1 for pid, label in truth.items() if preds[pid] == label)
        acc = hits / len(truth)
    except (OSError, ValueError, KeyError, ZeroDivisionError) as exc:
        run.check(call, False, f"predictions.csv unreadable: {exc}")
        return
    run.check(call, acc == metrics.get("accuracy"),
              f"accuracy from predictions.csv {acc!r} != metrics.json {metrics.get('accuracy')!r}")


# ------------------------------------------------------------ pipeline-weak


def setup_pipeline_weak(run: Run, inputs: Path, seed: int) -> list[Path]:
    return []  # the chain makes its own corpus with `synth`


def pipeline_weak_unit(run: Run, d: Path, seed: int, inputs: Path) -> dict:
    """synth -> preprocess -> annotate -> train -> evaluate -> predict -> ablate."""
    start = time.perf_counter()
    run.cli("synth", "--posts", PIPE_POSTS, "--seed", seed, "--out", d / "corpus")
    run.cli("preprocess", "--dataset", d / "corpus/posts.csv", "--out", d / "prep")
    run.cli("annotate", "--dataset", d / "prep/tokens.jsonl", "--out", d / "labeled")
    labeled = d / "labeled/labeled.jsonl"
    trained = run.cli("train", "--dataset", labeled, "--out", d / "model", "--seed", seed,
                      *PIPE_FLAGS)
    model = d / "model/model.rkn"
    evaluated = run.cli("evaluate", "--model", model, "--dataset", d / "model/test.jsonl",
                        "--out", d / "eval")
    predicted = run.cli("predict", "--model", model, "--dataset", labeled, "--out", d / "pred")
    ablated = run.cli("ablate", "--dataset", labeled, "--out", d / "ablation", "--seed", seed,
                      *PIPE_FLAGS)
    wall = time.perf_counter() - start

    train_rows = _count_lines(labeled) - _count_lines(d / "model/test.jsonl")
    final_loss = _last_loss(d / "model/history.csv")
    run.check(trained, math.isfinite(final_loss), "history.csv has no finite final loss")
    metrics = _read_json(d / "eval/metrics.json")
    macro_f1 = float(metrics.get("macro_f1", 0.0))
    run.check(evaluated, macro_f1 >= F1_FLOOR,
              f"macro_f1 {macro_f1:.4f} below floor {F1_FLOOR}")
    _prediction_accuracy(run, predicted, d / "pred/predictions.csv", d / "model/test.jsonl",
                         metrics)
    try:
        with (d / "ablation/ablation.csv").open(encoding="utf-8") as fh:
            rows = [r for r in csv.DictReader(fh) if not r["model"].startswith("#")]
    except OSError:
        rows = []
    run.check(ablated, [r["model"] for r in rows] == ABLATION_ORDER,
              f"ablation rows {[r['model'] for r in rows]} != {ABLATION_ORDER}")
    f1s = [float(r["f1"]) for r in rows]
    ablation_mean_f1 = statistics.fmean(f1s) if f1s else 0.0
    run.check(ablated, ablation_mean_f1 >= F1_FLOOR,
              f"ablation mean f1 {ablation_mean_f1:.4f} below floor {F1_FLOOR}")
    # ablate retrains the full model on the same split and seed as train did
    full = next((r["f1"] for r in rows if r["model"] == "lstm_attention_cnn"), None)
    run.check(ablated, full == f"{macro_f1:.4f}",
              f"ablation lstm_attention_cnn f1 {full} != evaluate macro_f1 {macro_f1:.4f}")
    return {
        "wall_s": wall,
        # train and ablate's four neural variants each fit the same rows
        "posts_per_s": 5 * train_rows * PIPE_EPOCHS / (trained["seconds"] + ablated["seconds"]),
        "final_loss": final_loss,
        "macro_f1": macro_f1,
        "ablation_mean_f1": ablation_mean_f1,
        "artifacts": _digest(model, d / "model/history.csv", d / "ablation/ablation.csv"),
        "call": trained,
    }


# -------------------------------------------------------------- train-paper


def setup_train_paper(run: Run, inputs: Path, seed: int) -> list[Path]:
    cli.write_tokens(gen.generate_posts(PAPER_TRAIN_POSTS, PAPER_LEXICON, seed),
                     inputs / "train.jsonl")
    return [inputs / "train.jsonl"]


def train_paper_unit(run: Run, d: Path, seed: int, inputs: Path) -> dict:
    call = run.cli("train", "--dataset", inputs / "train.jsonl", "--out", d / "model",
                   "--seed", seed, "--epochs", TRAIN_PAPER_EPOCHS, *PAPER_FLAGS)
    train_rows = _count_lines(inputs / "train.jsonl") - _count_lines(d / "model/test.jsonl")
    final_loss = _last_loss(d / "model/history.csv")
    run.check(call, math.isfinite(final_loss) and final_loss < math.log(4) + 0.05,
              f"final loss {final_loss} is not finite or is above ln 4 + 0.05")
    return {
        "wall_s": call["seconds"],
        "posts_per_s": train_rows * TRAIN_PAPER_EPOCHS / call["seconds"],
        "final_loss": final_loss,
        "artifacts": _digest(d / "model/model.rkn", d / "model/history.csv"),
        "call": call,
    }


# -------------------------------------------------------------- infer-paper


def setup_infer_paper(run: Run, inputs: Path, seed: int) -> list[Path]:
    setup_train_paper(run, inputs, seed)
    call = run.cli("train", "--dataset", inputs / "train.jsonl", "--out", inputs / "model",
                   "--seed", seed, "--epochs", INFER_MODEL_EPOCHS, *PAPER_FLAGS)
    final_loss = _last_loss(inputs / "model/history.csv")
    run.check(call, math.isfinite(final_loss), "history.csv has no finite final loss")
    rows = gen.generate_posts(PAPER_INFER_POSTS, PAPER_LEXICON, seed + INFER_SEED_OFFSET,
                              offset=PAPER_TRAIN_POSTS)
    cli.write_tokens(rows, inputs / "infer.jsonl")
    return [inputs / "train.jsonl", inputs / "model/model.rkn", inputs / "model/history.csv",
            inputs / "infer.jsonl"]


def infer_paper_unit(run: Run, d: Path, seed: int, inputs: Path) -> dict:
    model, data = inputs / "model/model.rkn", inputs / "infer.jsonl"
    start = time.perf_counter()
    predicted = run.cli("predict", "--model", model, "--dataset", data, "--out", d / "pred")
    evaluated = run.cli("evaluate", "--model", model, "--dataset", data, "--out", d / "eval")
    wall = time.perf_counter() - start
    metrics = _read_json(d / "eval/metrics.json")
    _prediction_accuracy(run, predicted, d / "pred/predictions.csv", data, metrics)
    macro_f1 = float(metrics.get("macro_f1", 0.0))
    run.check(evaluated, macro_f1 >= F1_FLOOR, f"macro_f1 {macro_f1:.4f} below floor {F1_FLOOR}")
    return {
        "wall_s": wall,
        "posts_per_s": _count_lines(data) / predicted["seconds"],
        "final_loss": _last_loss(inputs / "model/history.csv"),
        "macro_f1": macro_f1,
        "artifacts": _digest(d / "pred/predictions.csv", d / "eval/metrics.json"),
        "call": predicted,
    }


SETUPS = {"pipeline-weak": setup_pipeline_weak,
          "train-paper": setup_train_paper,
          "infer-paper": setup_infer_paper}
UNITS = {"pipeline-weak": pipeline_weak_unit,
         "train-paper": train_paper_unit,
         "infer-paper": infer_paper_unit}
# the measured unit repeats until --seconds have passed, and at least twice:
# two units with one seed must write byte-identical artifacts
MIN_UNITS = 2


# ------------------------------------------------------------------ phases


def environment(args) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0], "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}", "nproc": os.cpu_count(),
        "pin": {k: os.environ.get(k) for k in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": args.seed, "workload": args.workload, "seconds": args.seconds,
    }


def measure(args, work: Path, inputs: Path) -> dict:
    unit = UNITS[args.workload]
    if args.trace:
        # one untraced and one traced unit: overhead, and tracing must not
        # change a single artifact byte
        run = Run()
        plain = unit(run, work / "untraced", args.seed, inputs)
        tracer = tracing.Tracer(f"{args.workload}-s{args.seed}")
        tracer.install()
        try:
            run.tracer = tracer
            traced = unit(run, work / "traced", args.seed, inputs)
        finally:
            tracer.uninstall()
        run.check(traced["call"], traced["artifacts"] == plain["artifacts"],
                  "traced run artifacts differ from the untraced run")
        per_layer = tracer.summary()
        per_layer["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        tracer.dump(work / "spans.json")
        return {"calls": run.calls, "metrics": per_layer, "report": {}}

    run = Run()
    units = []
    start = time.perf_counter()
    while len(units) < MIN_UNITS or time.perf_counter() - start < args.seconds:
        units.append(unit(run, work / "timed", args.seed, inputs))
    for u in units[1:]:
        run.check(u["call"], u["artifacts"] == units[0]["artifacts"],
                  "artifacts differ between two runs with one seed")
    return {
        "calls": run.calls,
        "metrics": {k: statistics.median(u[k] for u in units) for k in ("wall_s", "posts_per_s")},
        "report": {k: units[0][k] for k in ("final_loss", "macro_f1", "ablation_mean_f1")
                   if k in units[0]} | {"units": len(units)},
    }


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--phase", choices=("setup", "measure"), required=True)
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work", type=Path, required=True)
    p.add_argument("--result", type=Path, required=True)
    args = p.parse_args()
    inputs = args.work / "inputs"
    if args.phase == "setup":
        inputs.mkdir(parents=True, exist_ok=True)
        run = Run()
        files = SETUPS[args.workload](run, inputs, args.seed)
        result = {"calls": run.calls, "inputs": _digest(*files), "env": environment(args)}
    else:
        result = measure(args, args.work, inputs)
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
