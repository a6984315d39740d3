"""SVM baseline and the five-way ablation comparison.

The SVM uses mean-embedding features and one one-vs-rest linear hinge
classifier per risk class, trained by seeded subgradient descent.  The
ablation suite runs the SVM plus the four neural variants on identical data
and seed and emits a CSV of accuracy / macro precision / recall / F1 per
variant.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import os
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import RiskLabel
from .embed import EmbeddingMatrix, UNK_INDEX
from .layers import NumericsError
from .metrics import Metrics, compute_metrics
from .model import usable_cpus
from .rng import STREAM_SVM, Xoshiro256StarStar, derive_seed
from .train import TrainConfig, evaluate, fit

ABLATION_VARIANTS = ("svm", "cnn", "lstm", "lstm_cnn", "lstm_attention_cnn")
# submission order: the longest fits first, so no core idles at the end
# (serial fits at the acceptance shape on a 2-core host: 4.2, 4.1, 2.9, 1.9
# and 1.2 s)
_COST_RANK = {v: i for i, v in enumerate(("lstm_attention_cnn", "lstm_cnn", "lstm", "svm", "cnn"))}
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# previously reported full-model results (percent), written as a non-binding
# footer under the ablation table
REFERENCE_FULL_MODEL = (90.3, 91.6, 93.7, 92.6)


def mean_embedding_features(X: np.ndarray, embedding: EmbeddingMatrix) -> np.ndarray:
    """Mean of embedding rows over real (non-PAD, non-UNK) indices per row.

    Rows with no real token become the zero vector.
    """
    X = np.asarray(X)
    E = embedding.matrix.astype(np.float64)
    real = X > UNK_INDEX
    summed = np.einsum("bt,btd->bd", real.astype(np.float64), E[X])
    counts = real.sum(axis=1, keepdims=True).astype(np.float64)
    return summed / np.maximum(counts, 1.0)


# LinearSVM's L2 penalty, epoch count and initial learning rate
SVM_LAMBDA = 1e-4
SVM_EPOCHS = 50
SVM_LR0 = 0.01


class LinearSVM:
    """One-vs-rest L2-regularized hinge classifiers, one per risk class,
    subgradient-trained."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.W: np.ndarray | None = None  # (C, D)
        self.b: np.ndarray | None = None  # (C,)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LinearSVM":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        n, d = X.shape
        n_classes = len(RiskLabel)
        present = np.bincount(y, minlength=n_classes)
        for c in range(n_classes):
            if present[c] == 0:
                raise ValueError(f"class {c} has no training examples")
        self.W = np.zeros((n_classes, d))
        self.b = np.zeros(n_classes)
        for c in range(n_classes):
            sign = np.where(y == c, 1.0, -1.0)
            w = self.W[c]
            b = 0.0
            rng = Xoshiro256StarStar(derive_seed(self.seed, STREAM_SVM, c))
            order = list(range(n))
            for epoch in range(1, SVM_EPOCHS + 1):
                rng.shuffle(order)
                lr = SVM_LR0 / epoch  # 1/t decay at epoch granularity
                for i in order:
                    margin = sign[i] * (w @ X[i] + b)
                    if margin < 1.0:
                        w -= lr * (SVM_LAMBDA * w - sign[i] * X[i])
                        b += lr * sign[i]
                    else:
                        w -= lr * SVM_LAMBDA * w
            self.b[c] = b
        return self

    def decision(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(X, dtype=np.float64) @ self.W.T + self.b

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.decision(X).argmax(axis=1)


def svm_baseline(
    X_train: np.ndarray,
    y_train: np.ndarray,
    X_test: np.ndarray,
    y_test: np.ndarray,
    embedding: EmbeddingMatrix,
    seed: int = 0,
) -> Metrics:
    """Train/score the SVM on encoded index matrices via mean embeddings."""
    clf = LinearSVM(seed=seed)
    clf.fit(mean_embedding_features(X_train, embedding), y_train)
    preds = clf.predict(mean_embedding_features(X_test, embedding))
    return compute_metrics(np.asarray(y_test, dtype=np.int64), preds, len(RiskLabel))


def _ablation_row(
    cfg: TrainConfig,
    X_train: np.ndarray,
    y_train: np.ndarray,
    X_test: np.ndarray,
    y_test: np.ndarray,
    embedding: EmbeddingMatrix,
    variant: str,
) -> dict:
    """Train and score one variant; a numerics failure names the variant."""
    try:
        if variant == "svm":
            m = svm_baseline(X_train, y_train, X_test, y_test, embedding, seed=cfg.seed)
        else:
            vcfg = dataclasses.replace(cfg, model=dataclasses.replace(cfg.model, variant=variant))
            model, _ = fit(vcfg, X_train, y_train, embedding)
            m = evaluate(model, X_test, y_test)
    except NumericsError as exc:
        raise NumericsError(f"{variant}: {exc}") from exc
    return {
        "model": variant,
        "accuracy": m.accuracy,
        "precision": m.macro_precision,
        "recall": m.macro_recall,
        "f1": m.macro_f1,
    }


@contextlib.contextmanager
def _one_blas_thread():
    """Set the BLAS thread variables to 1 in os.environ, then restore them.

    A process reads them once, when NumPy loads its BLAS, so a worker started
    inside this block runs BLAS on one thread whatever the caller's setting.
    """
    saved = {k: os.environ.get(k) for k in _BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    try:
        yield
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v


def ablation_suite(
    cfg: TrainConfig,
    X_train: np.ndarray,
    y_train: np.ndarray,
    X_test: np.ndarray,
    y_test: np.ndarray,
    embedding: EmbeddingMatrix,
    variants: Sequence[str] = ABLATION_VARIANTS,
) -> list[dict]:
    """Train every variant on the same split/seed; rows in variant order.

    The variants share no state, so each is one task in a pool of spawned
    worker processes, one per usable CPU and at most one per variant; the
    costliest start first.  Each worker runs BLAS on one thread: forked
    workers would inherit the caller's BLAS threads and oversubscribe the
    cores.  Rows and errors do not depend on the worker count.  If fits fail,
    the error is the one the first failing variant in ``variants`` order
    raises, as if they ran one after another; fits that have not started
    when it is raised are cancelled.
    """
    # imported here: at module level they would slow every risknet start
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    if not variants:
        return []
    args = (cfg, X_train, y_train, X_test, y_test, embedding)
    order = sorted(range(len(variants)),
                   key=lambda i: _COST_RANK.get(variants[i], len(_COST_RANK)))
    futures = [None] * len(variants)
    pool = ProcessPoolExecutor(min(len(variants), usable_cpus()),
                               mp_context=multiprocessing.get_context("spawn"))
    try:
        with _one_blas_thread():  # the pool starts its workers inside submit()
            for i in order:
                futures[i] = pool.submit(_ablation_row, *args, variants[i])
        return [f.result() for f in futures]
    finally:
        pool.shutdown(cancel_futures=True)


def save_ablation_csv(rows: list[dict], path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["model", "accuracy", "precision", "recall", "f1"])
        for r in rows:
            writer.writerow(
                [r["model"]] + [f"{r[k]:.4f}" for k in ("accuracy", "precision", "recall", "f1")]
            )
        acc, p, rec, f1 = REFERENCE_FULL_MODEL
        fh.write(
            "# reference lstm_attention_cnn (published benchmark, percent, non-binding): "
            f"accuracy={acc},precision={p},recall={rec},f1={f1}\n"
        )
