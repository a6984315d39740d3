"""SVM baseline and the five-way ablation comparison.

The SVM uses mean-embedding features, z-scored with the training rows'
statistics, and one one-vs-rest linear hinge classifier per risk class; all
four are fitted at once by full-batch subgradient descent, so the fit draws
no random numbers.  The ablation suite runs the SVM plus the four neural
variants on identical data and seed and returns one row of accuracy / macro
precision / recall / F1 per variant, which `risknet ablate` writes as a CSV.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
from typing import Sequence

import numpy as np

from .corpus import RiskLabel
from .embed import EmbeddingMatrix, UNK_INDEX
from .layers import NumericsError
from .metrics import Metrics, compute_metrics
from .model import usable_cpus
from .train import TrainConfig, evaluate, fit

ABLATION_VARIANTS = ("svm", "cnn", "lstm", "lstm_cnn", "lstm_attention_cnn")
# submission order: the longest fits first, so no core idles at the end
# (serial fits at the acceptance shape on a 2-core host, one BLAS thread:
# 2.9-3.4, 2.8, 2.0, 1.1 and 0.13 s)
_COST_RANK = {v: i for i, v in enumerate(("lstm_attention_cnn", "lstm_cnn", "lstm", "cnn", "svm"))}
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


# mean_embedding_features sums the rows of this many posts at a time
FEATURE_BLOCK = 256


def mean_embedding_features(X: np.ndarray, embedding: EmbeddingMatrix) -> np.ndarray:
    """Mean of embedding rows, in float64, over real (non-PAD, non-UNK)
    indices per row.

    Rows with no real token become the zero vector.  The posts are gathered
    `FEATURE_BLOCK` at a time, so no (N, T, D) array is made; each row's sum
    is the same einsum over its own positions, whatever the block.
    """
    X = np.asarray(X)
    out = np.empty((X.shape[0], embedding.matrix.shape[1]))
    for start in range(0, X.shape[0], FEATURE_BLOCK):
        x = X[start : start + FEATURE_BLOCK]
        real = x > UNK_INDEX
        # the gathered rows die inside the call, before the next block's gather
        summed = np.einsum("bt,btd->bd", real.astype(np.float64),
                           embedding.matrix[x].astype(np.float64, copy=False))
        counts = real.sum(axis=1, keepdims=True).astype(np.float64)
        np.divide(summed, np.maximum(counts, 1.0), out=out[start : start + x.shape[0]])
    return out


# LinearSVM's L2 penalty and epoch count
SVM_LAMBDA = 1e-4
SVM_EPOCHS = 1000


class LinearSVM:
    """One-vs-rest L2-regularized hinge classifiers, one per risk class.

    The features are z-scored with the training rows' mean and standard
    deviation (a column with one value keeps scale 1).  All classes are
    fitted at once by full-batch subgradient descent on
    ``SVM_LAMBDA / 2 * |w|^2 + mean(max(0, 1 - y (w x + b)))`` from
    ``W = 0, b = 0``, with step ``1 / sqrt(t)`` at epoch t (Pegasos,
    Shalev-Shwartz et al. 2011, Math. Program. 127:3-30, gives the
    convergence argument).  No rows are sampled, so the fit is a function of
    its inputs alone.
    """

    def __init__(self):
        self.W: np.ndarray | None = None  # (C, D)
        self.b: np.ndarray | None = None  # (C,)
        self.mean: np.ndarray | None = None  # (D,)
        self.scale: np.ndarray | None = None  # (D,)

    def _scaled(self, X: np.ndarray) -> np.ndarray:
        return (np.asarray(X, dtype=np.float64) - self.mean) / self.scale

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LinearSVM":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        n, d = X.shape
        n_classes = len(RiskLabel)
        present = np.bincount(y, minlength=n_classes)
        for c in range(n_classes):
            if present[c] == 0:
                raise ValueError(f"class {c} has no training examples")
        self.mean = X.mean(axis=0)
        # a constant column's std is rounding noise, not zero
        self.scale = np.where(X.max(axis=0) > X.min(axis=0), X.std(axis=0), 1.0)
        Z = self._scaled(X)
        sign = np.where(y[:, None] == np.arange(n_classes), 1.0, -1.0)  # (n, C)
        W = np.zeros((n_classes, d))
        b = np.zeros(n_classes)
        for epoch in range(1, SVM_EPOCHS + 1):
            lr = 1.0 / np.sqrt(epoch)
            # the mean hinge subgradient is -sign * x / n over the rows
            # inside their class's margin
            inside = np.where(sign * (Z @ W.T + b) < 1.0, sign, 0.0) / n
            W -= lr * (SVM_LAMBDA * W - inside.T @ Z)
            b += lr * inside.sum(axis=0)
        self.W, self.b = W, b
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self._scaled(X) @ self.W.T + self.b).argmax(axis=1)


def svm_baseline(
    X_train: np.ndarray,
    y_train: np.ndarray,
    X_test: np.ndarray,
    y_test: np.ndarray,
    embedding: EmbeddingMatrix,
) -> Metrics:
    """Train/score the SVM on encoded index matrices via mean embeddings."""
    clf = LinearSVM()
    clf.fit(mean_embedding_features(X_train, embedding), y_train)
    preds = clf.predict(mean_embedding_features(X_test, embedding))
    return compute_metrics(np.asarray(y_test, dtype=np.int64), preds)


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
            m = svm_baseline(X_train, y_train, X_test, y_test, embedding)
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
