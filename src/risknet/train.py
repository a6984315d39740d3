"""Loss, Adam, and the mini-batch training loop.

Training is fully seeded: parameter init, per-epoch shuffles, and dropout
masks all derive from the one seed of `ModelConfig`, so two runs with the
same config produce bit-identical models and histories.  Each step draws its
own dropout mask as its forward pass reaches dropout.  With more than one
usable CPU, `fit` hands two pieces of each large step to one helper thread
(see `fit`).  No early stopping; the final partial batch is trained rather
than dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .corpus import RiskLabel
from .embed import PAD_INDEX, EmbeddingMatrix
from .layers import NumericsError, RowGrad, check_finite_grad
from .metrics import Metrics, compute_metrics
from .model import Model, ModelConfig, check_bounds, init_params, usable_cpus
from .rng import STREAM_EPOCH, derive_seed, shuffled_indices

CLIP_EPS = 1e-7
# Adam's step size, moment decay rates and denominator epsilon: the first
# three are the published defaults (Kingma & Ba 2014, arXiv:1412.6980), the
# epsilon is Keras's 1e-7 rather than the paper's 1e-8
ADAM_LR = 0.001
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-7
# elements per in-place Adam block: 128k float32 values make six 512 KiB
# operands, and each pass of the update touches two of them, so a pass's
# 1 MiB fits in an L2 cache of 2 MiB or more.  When `Adam.start_rows` runs
# the g = 0 pass on another thread, each of its ufunc calls takes the GIL
# back from the calling thread; with these blocks rather than ones half as
# large, a concurrent paper-shape LSTM backward pass slowed by about 6 ms
# instead of about 10 ms
ADAM_BLOCK = 1 << 17
# fewest elements of the arrays a job must have to run on `fit`'s helper
# thread; smaller jobs (the acceptance shape's) cost more to hand off than
# they overlap
HELPER_MIN_ELEMENTS = 1 << 18


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


class Adam:
    """Adam with bias correction; moments keyed by parameter name.

    The update runs in place, one block of leading-axis rows at a time: the
    moments and the parameters are written through ``out=``, with one pair of
    block-sized scratch arrays per parameter, made on first use, which the
    g = 0 pass of `start_rows` shares.  A block holds about ``ADAM_BLOCK``
    elements, so the update's fourteen passes over it stay in cache instead
    of streaming a parameter-sized temporary through memory for each.  Every
    operation is elementwise and in the textbook order,
    ``beta1*m + (1-beta1)*g``, ``beta2*v + (1-beta2)*(g*g)`` and
    ``lr*(m/bc1) / (sqrt(v/bc2) + eps)``, so the result is bit-identical to
    the out-of-place expression.

    A gradient may be a `layers.RowGrad`.  That is still dense Adam: every row
    moves every step.  The rows it does not list take the g = 0 form of the
    same expression, ``beta1*m + 0.0`` and ``beta2*v``, without reading a
    gradient.  The listed rows then take the full update from their pre-step
    `theta` and `m` and from the ``beta2*v`` that the pass left, which is the
    full update's first step.  Both give the bits that the dense gradient,
    zero outside those rows, gives.  `start_rows` runs the g = 0 pass ahead,
    on another thread, while the gradient is still being computed.  That
    pass puts back the `theta` and `m` of the rows the gradient will list,
    block by block, so no copy of those rows is held in the meantime.
    """

    def __init__(self, named_params):
        named_params = list(named_params)
        self.m = {n: np.zeros_like(a) for n, a in named_params}
        self.v = {n: np.zeros_like(a) for n, a in named_params}
        self._scratch = {}  # name -> `_blocks`, made on first use
        self.t = 0
        self._started = {}  # name -> (rows, g = 0 pass job)

    def start_rows(self, name: str, theta: np.ndarray, rows: np.ndarray, pool) -> None:
        """Begin the next step's update of parameter `name` for a `RowGrad`
        over `rows` (ascending): run its g = 0 pass on the executor `pool`.
        Nothing may read `theta` or the moments until `step` has finished the
        update with that gradient, which must list exactly `rows`."""
        t = self.t + 1
        job = pool.submit(_adam_blocks, 1.0 - ADAM_BETA1**t, 1.0 - ADAM_BETA2**t, theta, None,
                          self.m[name], self.v[name], *self._blocks(name, theta), keep=rows)
        self._started[name] = (rows, job)

    def _blocks(self, name: str, theta: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
        """Leading-axis rows per block of about `ADAM_BLOCK` elements of
        parameter `name`, and its two scratch arrays of one block."""
        if name not in self._scratch:
            rows = max(1, ADAM_BLOCK // max(1, theta[:1].size))
            s1 = np.empty((min(rows, theta.shape[0]),) + theta.shape[1:], dtype=theta.dtype)
            self._scratch[name] = rows, s1, np.empty_like(s1)
        return self._scratch[name]

    def step(self, named_params, grads: dict) -> None:
        """In-place parameter update from a name -> gradient map; a gradient
        is an array of the parameter's shape or a `RowGrad`."""
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1**self.t
        bc2 = 1.0 - ADAM_BETA2**self.t
        for name, theta in named_params:
            g = grads[name]
            m, v = self.m[name], self.v[name]
            started = self._started.pop(name, None)
            scratch = self._blocks(name, theta)
            if started is not None:
                rows, job = started
                job.result()
                if not (isinstance(g, RowGrad) and np.array_equal(g.rows, rows)):
                    raise ValueError(f"gradient for parameter '{name}' does not list the "
                                     f"rows its update was started for")
            check_finite_grad(name, g)
            if isinstance(g, RowGrad):
                # pre-step values: gathered before the g = 0 pass, or kept by it
                th_r, m_r = theta[g.rows], m[g.rows]
                if started is None:
                    _adam_blocks(bc1, bc2, theta, None, m, v, *scratch)
                v_r = v[g.rows]
                _adam_blocks(bc1, bc2, th_r, g.values, m_r, v_r, *scratch, v_scaled=True)
                theta[g.rows], m[g.rows], v[g.rows] = th_r, m_r, v_r
            else:
                _adam_blocks(bc1, bc2, theta, g, m, v, *scratch)


def _adam_blocks(bc1, bc2, theta, g, m, v, rows, s1, s2, v_scaled=False, keep=None) -> None:
    """`_adam_block` over `rows` leading-axis rows at a time; g None is
    g = 0.  The rows listed in `keep` (ascending) get their `theta` and `m`
    back once their block is done, so only their `v` moves."""
    for r in range(0, theta.shape[0], rows):
        b = slice(r, r + rows)
        n = min(rows, theta.shape[0] - r)
        if keep is not None:
            lo, hi = np.searchsorted(keep, (r, r + n))
            kept = keep[lo:hi]
            saved = theta[kept], m[kept]
        _adam_block(bc1, bc2, theta[b], None if g is None else g[b], m[b], v[b],
                    s1[:n], s2[:n], v_scaled)
        if keep is not None:
            theta[kept], m[kept] = saved


def _adam_block(bc1, bc2, theta, g, m, v, s1, s2, v_scaled) -> None:
    """One in-place update; `v_scaled` says `v` holds ``beta2*v`` already."""
    np.multiply(m, ADAM_BETA1, out=m)
    if not v_scaled:
        np.multiply(v, ADAM_BETA2, out=v)
    # g = 0 leaves beta1*m and beta2*v as they are: adding +0.0 would change
    # only a -0.0, and neither moment ever holds one (both start at +0.0;
    # beta1*m is -0.0 only where m is, and a sum only where both terms are)
    if g is not None:
        # m = beta1*m + (1-beta1)*g
        np.multiply(g, 1.0 - ADAM_BETA1, out=s1)
        np.add(m, s1, out=m)
        # v = beta2*v + (1-beta2)*(g*g)
        np.multiply(g, g, out=s1)
        np.multiply(s1, 1.0 - ADAM_BETA2, out=s1)
        np.add(v, s1, out=v)
    # theta -= lr*(m/bc1) / (sqrt(v/bc2) + eps)
    np.divide(m, bc1, out=s1)
    np.multiply(s1, ADAM_LR, out=s1)
    np.divide(v, bc2, out=s2)
    np.sqrt(s2, out=s2)
    np.add(s2, ADAM_EPSILON, out=s2)
    np.divide(s1, s2, out=s1)
    np.subtract(theta, s1, out=theta)


# TrainConfig's ranges, as `model.BOUNDS` states ModelConfig's
BOUNDS = ((("epochs", "batch_size"), lambda v: v >= 1, "be >= 1"),)


@dataclass
class TrainConfig:
    model: ModelConfig
    epochs: int = 10
    batch_size: int = 32

    def __post_init__(self):
        check_bounds(vars(self), BOUNDS)


@dataclass
class History:
    loss: list[float] = field(default_factory=list)
    accuracy: list[float] = field(default_factory=list)


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

    The model trains its own float32 copy of `embedding`, and `fit` drops
    its reference to the argument once that copy is made, so an embedding
    the caller keeps no reference to is freed before training starts.  Each
    step's forward caches, probabilities and gradients are freed before the
    next step's forward pass, so one step's activations are alive at a time.

    With more than one usable CPU, `fit` makes one helper thread, which
    overlaps two jobs with the calling thread's work: Adam's g = 0 pass over
    the embedding (`Adam.start_rows`) during the backward pass, and the
    LSTM's weight GEMM during its input GEMM.  A job runs only if its arrays
    have at least `HELPER_MIN_ELEMENTS` elements.  Each job computes
    what the calling thread would, in the same order, so the model and
    history are the same bits for any CPU count.  The thread is joined
    before `fit` returns or raises.

    A ``NumericsError`` is re-raised with the epoch (from 1), the global step
    and the batch index within the epoch (both from 0) in front.
    """
    X = np.asarray(X)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("empty training set")
    if y.shape != (X.shape[0],):
        raise ValueError("labels must align with rows of X")
    if y.min() < 0 or y.max() >= len(RiskLabel):
        raise ValueError(f"label out of range [0, {len(RiskLabel)})")
    params = init_params(cfg.model, embedding)
    del embedding
    model = Model(cfg.model, params)
    opt = Adam(params.items())
    history = History()
    n = X.shape[0]
    pool = None
    if usable_cpus() > 1:
        # imported here: at module level it would slow every risknet start
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(1)  # its thread starts with the first job
    step = 0
    try:
        for epoch in range(cfg.epochs):
            order = shuffled_indices(n, derive_seed(cfg.model.seed, STREAM_EPOCH, epoch))
            loss_sum = 0.0
            correct = 0
            for batch, start in enumerate(range(0, n, cfg.batch_size)):
                idx = order[start : start + cfg.batch_size]
                try:
                    loss, hits = _train_step(model, opt, X[idx], y[idx], step, pool)
                except NumericsError as exc:
                    raise NumericsError(
                        f"epoch {epoch + 1}, step {step}, batch {batch}: {exc}") from exc
                loss_sum += loss * len(idx)
                correct += hits
                step += 1
            epoch_loss = loss_sum / n
            epoch_acc = correct / n
            history.loss.append(epoch_loss)
            history.accuracy.append(epoch_acc)
            if on_epoch is not None:
                on_epoch(epoch + 1, epoch_loss, epoch_acc)
    finally:
        if pool is not None:
            pool.shutdown()
    return model, history


def _train_step(model: Model, opt: Adam, xb: np.ndarray, yb: np.ndarray, step: int,
                pool) -> tuple[float, int]:
    """One forward, backward and Adam update on a batch; returns its mean
    loss and its count of correct argmax predictions.  The step's caches and
    gradients are locals here, so they are freed when it returns.  `pool` is
    the helper executor, or None."""
    cfg = model.cfg
    probs, trace = model.forward(xb, step=step)
    loss = sparse_cce(probs, yb)
    hits = int((probs.argmax(axis=1) == yb).sum())
    E = model.params["embedding"]
    if pool is not None and E.size >= HELPER_MIN_ELEMENTS:
        opt.start_rows("embedding", E, np.unique(xb[xb != PAD_INDEX]), pool)
    # the LSTM input's element count
    big = len(xb) * cfg.max_len * cfg.embed_dim >= HELPER_MIN_ELEMENTS
    grads = model.backward(trace, dlogits=cce_grad_logits(probs, yb),
                           pool=pool if big else None)
    opt.step(model.params.items(), grads)
    return loss, hits


def evaluate(model: Model, X: np.ndarray, y: np.ndarray) -> Metrics:
    """Argmax predictions (lowest class wins ties) scored over labeled rows."""
    preds = model.predict(np.asarray(X))
    return compute_metrics(np.asarray(y, dtype=np.int64), preds)
