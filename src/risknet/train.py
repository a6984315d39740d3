"""Loss, Adam, and the mini-batch training loop.

Training is fully seeded: parameter init, per-epoch shuffles, and dropout
masks all derive from the run seed, so two runs with the same config produce
bit-identical models and histories.  No early stopping; the final partial
batch is trained rather than dropped.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .embed import EmbeddingMatrix
from .layers import NumericsError, RowGrad, check_finite_grad
from .metrics import Metrics, compute_metrics
from .model import Model, ModelConfig, init_params
from .rng import STREAM_EPOCH, derive_seed, shuffled_indices

CLIP_EPS = 1e-7
# elements per in-place Adam block: 64k float32 values make six 256 KiB
# operands, which fit in a 1-4 MiB L2 cache
ADAM_BLOCK = 1 << 16


def sparse_cce(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean -ln p[true] with probabilities clipped to [1e-7, 1 - 1e-7]."""
    probs = np.asarray(probs)
    labels = np.asarray(labels, dtype=np.int64)
    B, C = probs.shape
    if labels.shape != (B,):
        raise ValueError(f"labels must be shape ({B},), got {labels.shape}")
    if labels.min() < 0 or labels.max() >= C:
        raise ValueError(f"label out of range [0, {C})")
    picked = np.clip(probs[np.arange(B), labels], CLIP_EPS, 1.0 - CLIP_EPS)
    return float(np.mean(-np.log(picked)))


def cce_grad_logits(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Fused softmax+CCE gradient at the logits: (probs - onehot) / B."""
    labels = np.asarray(labels, dtype=np.int64)
    B = probs.shape[0]
    g = probs.copy()
    g[np.arange(B), labels] -= 1.0
    return g / B


@dataclass
class AdamHyper:
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-7


class Adam:
    """Adam with bias correction; moments keyed by parameter name.

    The update runs in place, one block of leading-axis rows at a time: the
    moments and the parameters are written through ``out=``, with two
    block-sized scratch arrays per parameter allocated once.  A block holds
    about ``ADAM_BLOCK`` elements, so the update's fourteen passes over it stay
    in cache instead of streaming a parameter-sized temporary through memory
    for each.  Every operation is elementwise and in the textbook order,
    ``beta1*m + (1-beta1)*g``, ``beta2*v + (1-beta2)*(g*g)`` and
    ``lr*(m/bc1) / (sqrt(v/bc2) + eps)``, so the result is bit-identical to
    the out-of-place expression.

    A gradient may be a `layers.RowGrad`.  That is still dense Adam: every row
    moves every step.  The rows it does not list take the g = 0 form of the
    same expression, ``beta1*m + 0.0`` and ``beta2*v``, without reading a
    gradient; the listed rows take the full update from their pre-step
    values, gathered before that pass and written back after it.  Both give
    the bits that the dense gradient, zero outside those rows, gives.
    """

    def __init__(self, named_params, hyper: AdamHyper | None = None):
        self.hyper = hyper or AdamHyper()
        named_params = list(named_params)
        self.m = {n: np.zeros_like(a) for n, a in named_params}
        self.v = {n: np.zeros_like(a) for n, a in named_params}
        self._scratch = {}
        for n, a in named_params:
            rows = max(1, ADAM_BLOCK // max(1, a[:1].size))
            block = np.empty((min(rows, a.shape[0]),) + a.shape[1:], dtype=a.dtype)
            self._scratch[n] = (rows, block, np.empty_like(block))
        self.t = 0

    def step(self, named_params, grads: dict) -> None:
        """In-place parameter update from a name -> gradient map; a gradient
        is an array of the parameter's shape or a `RowGrad`."""
        h = self.hyper
        self.t += 1
        bc1 = 1.0 - h.beta1**self.t
        bc2 = 1.0 - h.beta2**self.t
        for name, theta in named_params:
            g = grads[name]
            check_finite_grad(name, g)
            m, v = self.m[name], self.v[name]
            scratch = self._scratch[name]
            if isinstance(g, RowGrad):
                th_r, m_r, v_r = theta[g.rows], m[g.rows], v[g.rows]
                _adam_blocks(h, bc1, bc2, theta, None, m, v, *scratch)
                _adam_blocks(h, bc1, bc2, th_r, g.values, m_r, v_r, *scratch)
                theta[g.rows], m[g.rows], v[g.rows] = th_r, m_r, v_r
            else:
                _adam_blocks(h, bc1, bc2, theta, g, m, v, *scratch)


def _adam_blocks(h: AdamHyper, bc1, bc2, theta, g, m, v, rows, s1, s2) -> None:
    """`_adam_block` over `rows` leading-axis rows at a time; g None is g = 0."""
    for r in range(0, theta.shape[0], rows):
        b = slice(r, r + rows)
        n = min(rows, theta.shape[0] - r)
        _adam_block(h, bc1, bc2, theta[b], None if g is None else g[b], m[b], v[b],
                    s1[:n], s2[:n])


def _adam_block(h: AdamHyper, bc1, bc2, theta, g, m, v, s1, s2) -> None:
    np.multiply(m, h.beta1, out=m)
    np.multiply(v, h.beta2, out=v)
    if g is None:
        # (1-beta1)*0 is +0.0, and adding it turns a -0.0 in m into +0.0;
        # (1-beta2)*(0*0) is +0.0 too, but v is never -0.0, so v is done
        np.add(m, 0.0, out=m)
    else:
        # m = beta1*m + (1-beta1)*g
        np.multiply(g, 1.0 - h.beta1, out=s1)
        np.add(m, s1, out=m)
        # v = beta2*v + (1-beta2)*(g*g)
        np.multiply(g, g, out=s1)
        np.multiply(s1, 1.0 - h.beta2, out=s1)
        np.add(v, s1, out=v)
    # theta -= lr*(m/bc1) / (sqrt(v/bc2) + eps)
    np.divide(m, bc1, out=s1)
    np.multiply(s1, h.lr, out=s1)
    np.divide(v, bc2, out=s2)
    np.sqrt(s2, out=s2)
    np.add(s2, h.epsilon, out=s2)
    np.divide(s1, s2, out=s1)
    np.subtract(theta, s1, out=theta)


@dataclass
class TrainConfig:
    model: ModelConfig
    epochs: int = 10
    batch_size: int = 32
    seed: int = 0
    adam: AdamHyper = field(default_factory=AdamHyper)

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass
class History:
    loss: list[float] = field(default_factory=list)
    accuracy: list[float] = field(default_factory=list)

    def save_csv(self, path: str | Path) -> None:
        with Path(path).open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["epoch", "loss", "accuracy"])
            for i, (l, a) in enumerate(zip(self.loss, self.accuracy), start=1):
                writer.writerow([i, repr(l), repr(a)])


def split_indices(n: int, fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seed-shuffled index split; train size = floor(fraction * n)."""
    if n < 2:
        raise ValueError("need at least 2 samples to split")
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must be in (0, 1)")
    order = shuffled_indices(n, seed)
    cut = int(fraction * n)
    return np.asarray(order[:cut]), np.asarray(order[cut:])


def fit(
    cfg: TrainConfig,
    X: np.ndarray,
    y: np.ndarray,
    embedding: EmbeddingMatrix,
    on_epoch: Callable[[int, float, float], None] | None = None,
) -> tuple[Model, History]:
    """Train on encoded sequences X (N, T) with integer labels y (N,).

    The model trains its own copy of `embedding`, in the model dtype, and
    `fit` drops its reference to the argument once that copy is made, so an
    embedding the caller keeps no reference to is freed before training
    starts.  Each step's forward caches, probabilities and gradients are
    freed before the next step's forward pass, so one step's activations are
    alive at a time.

    A ``NumericsError`` is re-raised with the epoch (from 1), the global step
    and the batch index within the epoch (both from 0) in front.
    """
    X = np.asarray(X)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("empty training set")
    if y.shape != (X.shape[0],):
        raise ValueError("labels must align with rows of X")
    if y.min() < 0 or y.max() >= cfg.model.classes:
        raise ValueError(f"label out of range [0, {cfg.model.classes})")
    params = init_params(cfg.model, embedding)
    del embedding
    model = Model(cfg.model, params)
    opt = Adam(params.named_arrays(), cfg.adam)
    history = History()
    n = X.shape[0]
    step = 0
    for epoch in range(cfg.epochs):
        order = shuffled_indices(n, derive_seed(cfg.seed, STREAM_EPOCH, epoch))
        loss_sum = 0.0
        correct = 0
        for batch, start in enumerate(range(0, n, cfg.batch_size)):
            idx = order[start : start + cfg.batch_size]
            try:
                loss, hits = _train_step(model, opt, X[idx], y[idx], step)
            except NumericsError as exc:
                raise NumericsError(f"epoch {epoch + 1}, step {step}, batch {batch}: {exc}") from exc
            loss_sum += loss * len(idx)
            correct += hits
            step += 1
        epoch_loss = loss_sum / n
        epoch_acc = correct / n
        history.loss.append(epoch_loss)
        history.accuracy.append(epoch_acc)
        if on_epoch is not None:
            on_epoch(epoch + 1, epoch_loss, epoch_acc)
    return model, history


def _train_step(model: Model, opt: Adam, xb: np.ndarray, yb: np.ndarray,
                step: int) -> tuple[float, int]:
    """One forward, backward and Adam update on a batch; returns its mean
    loss and its count of correct argmax predictions.  The step's caches and
    gradients are locals here, so they are freed when it returns."""
    probs, trace = model.forward(xb, step=step)
    loss = sparse_cce(probs, yb)
    hits = int((probs.argmax(axis=1) == yb).sum())
    grads = model.backward(trace, dlogits=cce_grad_logits(probs, yb))
    opt.step(model.params.named_arrays(), grads)
    return loss, hits


def evaluate(model: Model, X: np.ndarray, y: np.ndarray) -> Metrics:
    """Argmax predictions (lowest class wins ties) scored over labeled rows."""
    preds = model.predict(np.asarray(X))
    return compute_metrics(np.asarray(y, dtype=np.int64), preds, model.cfg.classes)
