"""Model assembly: config, parameter init, and the forward/backward stack.

The full stack is embedding -> dropout -> LSTM -> attention -> conv1d+ReLU
-> maxpool -> flatten -> dense softmax.  Reduced variants reuse the same
layer chain with pieces removed, so the ablation runs share one engine:

    lstm_attention_cnn  full stack
    lstm_cnn            no attention
    lstm                LSTM last step straight into the dense head
    cnn                 convolution directly over the embeddings

`param_shapes(cfg, rows)` is the one statement of the parameter layout:
every array's dotted name ("embedding", "lstm.W", ..., "dense.b") and shape,
in file and optimizer order, from the config alone.  `Model.params` is a
plain dict of exactly those arrays in that order, which `init_params` and
`modelio.load_model` build, and the layer table hands each layer its arrays
by name.

`Model` has two paths.  Training, `forward(batch, step=k)` then
`backward(trace, dlogits)`, draws and applies step k's dropout mask and
keeps every layer's cache in the trace: each activation once, so the
dropout mask is a boolean array, and the LSTM output is one array that the
LSTM's cache and the next layer's share.  Backward consumes the trace in
reverse from the fused loss gradient at the logits, handing each layer the
gradient that the layer above made (dropout scales it in place), and
returns one gradient per parameter array, keyed by dotted names ("lstm.W",
"dense.b", ...); the embedding's is a `RowGrad` over the batch's rows.  Each
layer's parameter gradients are checked for NaN/Inf as that layer returns
them.  Inference, `forward(batch)` (which `predict` runs), leaves dropout
out, keeps no cache and runs the LSTM over each batch's distinct tokens
through `lstm_infer`; `predict` maps it over fixed `PREDICT_BATCH`-row
chunks, on a pool of one thread per usable CPU when there is more than one.

`ModelConfig` holds only the choices a run makes: the class count is
`len(RiskLabel)`, and `init_params` builds float32 arrays, which `model.rkn`
stores.  The layers follow their inputs' dtype, so a gradient check casts the
params to float64.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, fields
from typing import Callable, NamedTuple, Optional

import numpy as np

from .corpus import RiskLabel
from .embed import EmbeddingMatrix
from .layers import (
    RowGrad,
    check_finite,
    check_finite_grad,
    attention_backward,
    attention_forward,
    conv1d_relu_backward,
    conv1d_relu_forward,
    dense_softmax_backward,
    dense_softmax_forward,
    dropout_backward,
    dropout_forward,
    embedding_backward,
    embedding_forward,
    flatten_backward,
    flatten_forward,
    lstm_backward,
    lstm_forward,
    lstm_infer,
    maxpool1d_backward,
    maxpool1d_forward,
)
from .rng import STREAM_INIT, bulk_generator

VARIANTS = ("cnn", "lstm", "lstm_cnn", "lstm_attention_cnn")

# per-variant training chains of layer names, which NaN/Inf errors print;
# "last_step" slices h_T for the lstm-only head
_CHAINS = {
    "lstm_attention_cnn": ("embedding", "dropout", "lstm", "attention", "conv1d_relu",
                           "maxpool1d", "flatten", "dense_softmax"),
    "lstm_cnn": ("embedding", "dropout", "lstm", "conv1d_relu", "maxpool1d", "flatten",
                 "dense_softmax"),
    "lstm": ("embedding", "dropout", "lstm", "last_step", "dense_softmax"),
    "cnn": ("embedding", "dropout", "conv1d_relu", "maxpool1d", "flatten", "dense_softmax"),
}
# inference runs the same chains without dropout
_INFER_CHAINS = {v: tuple(op for op in c if op != "dropout") for v, c in _CHAINS.items()}
# the inference chain prefix that runs as one `lstm_infer` call
_FOLDED = ("embedding", "lstm")
# rows per forward pass in `Model.predict`; fixed, so that chunk boundaries,
# and with them the outputs, do not depend on the CPU count
PREDICT_BATCH = 128


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _last_step_backward(shape, dout: np.ndarray) -> np.ndarray:
    full = np.zeros(shape, dtype=dout.dtype)
    full[:, -1, :] = dout
    return full


class _Op(NamedTuple):
    """One layer-table row.  The lambdas look the layer functions up in this
    module at call time, so a wrapper on `risknet.model.<layer>_forward` sees
    every call."""

    # the prefix of the op's parameter names in `param_shapes`; the
    # embedding's one array is named by it alone
    group: Optional[str]
    forward: Callable  # (params by dotted name, x, cfg, step) -> (out, cache)
    # (cache, dout, pool) -> (gradients by the name after the group's dot,
    # dx); the LSTM's empties its cache list, to reuse and free its arrays
    backward: Callable


_OPS = {
    "embedding": _Op("embedding", lambda p, x, *_: embedding_forward(p["embedding"], x),
                     lambda c, d, _: ({"": embedding_backward(c, d)}, None)),
    "dropout": _Op(None,
                   lambda p, x, cfg, step: dropout_forward(x, cfg.dropout_rate, cfg.seed, step),
                   lambda c, d, _: ({}, dropout_backward(c, d))),
    "lstm": _Op("lstm",
                lambda p, x, *_: lstm_forward(p["lstm.W"], p["lstm.U"], p["lstm.b"], x),
                lambda c, d, pool: lstm_backward(c, d, pool)),
    # inference (no step) scales the LSTM output in place: `lstm_infer` made
    # it and nothing else holds it
    "attention": _Op("attention",
                     lambda p, x, cfg, step: attention_forward(
                         p["attention.w"], p["attention.b"], x, x if step is None else None),
                     lambda c, d, _: attention_backward(c, d)),
    "conv1d_relu": _Op("conv",
                       lambda p, x, *_: conv1d_relu_forward(p["conv.kernels"], p["conv.bias"], x),
                       lambda c, d, _: conv1d_relu_backward(c, d)),
    "maxpool1d": _Op(None, lambda p, x, cfg, *_: maxpool1d_forward(x, cfg.pool),
                     lambda c, d, _: ({}, maxpool1d_backward(c, d))),
    "flatten": _Op(None, lambda p, x, *_: flatten_forward(x),
                   lambda c, d, _: ({}, flatten_backward(c, d))),
    "last_step": _Op(None, lambda p, x, *_: (x[:, -1, :], x.shape),
                     lambda c, d, _: ({}, _last_step_backward(c, d))),
    # the dense head's upstream gradient is the loss gradient at the logits
    "dense_softmax": _Op("dense",
                         lambda p, x, *_: dense_softmax_forward(p["dense.W"], p["dense.b"], x),
                         lambda c, d, _: dense_softmax_backward(c, d)),
}


def param_shapes(cfg: ModelConfig, rows: int) -> dict[str, tuple[int, ...]]:
    """Every parameter array's dotted name and shape, in file and optimizer
    order, for `cfg` and an embedding of `rows` rows: the arrays of the
    groups that the variant's chain uses."""
    D, H, F, C = cfg.embed_dim, cfg.lstm_units, cfg.filters, len(RiskLabel)
    chain = _CHAINS[cfg.variant]
    conv_in = H if "lstm" in chain else D
    dense_in = H if "last_step" in chain else (cfg.max_len // cfg.pool) * F
    shapes = {
        "embedding": (rows, D),
        "lstm.W": (D, 4 * H), "lstm.U": (H, 4 * H), "lstm.b": (4 * H,),
        "attention.w": (H, 1), "attention.b": (cfg.max_len, 1),
        "conv.kernels": (cfg.kernel, conv_in, F), "conv.bias": (F,),
        "dense.W": (dense_in, C), "dense.b": (C,),
    }
    used = {_OPS[op].group for op in chain}
    return {name: s for name, s in shapes.items() if name.partition(".")[0] in used}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# what a ModelConfig field of each annotated type accepts
_ACCEPTS = {
    "int": _is_int,
    "float": lambda v: _is_int(v) or isinstance(v, float),
    "str": lambda v: isinstance(v, str),
}


# ModelConfig's ranges as (fields, test, wording) rules, in the order
# `check_bounds` checks them; the CLI checks its fit flags by them too
BOUNDS = (
    (("max_len", "embed_dim", "lstm_units", "filters", "kernel", "pool"), lambda v: v >= 1,
     "be >= 1"),
    (("dropout_rate",), lambda v: 0.0 <= v < 1.0, "be in [0, 1)"),
)


def check_bounds(values: dict, rules, name=str) -> None:
    """Raise ValueError for the first field, in `rules` order, whose value in
    `values` fails its rule's test, naming the field by `name`; a field that
    `values` lacks is not checked.  Then `max_len`, where `values` has it and
    `pool`, must be at least `pool`: the pool's first window must fit in a
    post."""
    for names, ok, wording in rules:
        for field in names:
            if field in values and not ok(values[field]):
                raise ValueError(f"{name(field)} must {wording}, got {values[field]}")
    if {"max_len", "pool"} <= values.keys() and values["max_len"] < values["pool"]:
        raise ValueError(f"{name('max_len')} must be >= {name('pool')} ({values['pool']}), "
                         f"got {values['max_len']}")


@dataclass
class ModelConfig:
    max_len: int
    embed_dim: int = 300
    lstm_units: int = 100
    dropout_rate: float = 0.5
    filters: int = 3
    kernel: int = 8
    pool: int = 2
    seed: int = 0
    variant: str = "lstm_attention_cnn"

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not _ACCEPTS[f.type](value):
                raise TypeError(f"{f.name} must be of type {f.type}, got {value!r}")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        check_bounds(vars(self), BOUNDS)

    def to_dict(self) -> dict:
        return asdict(self)


def _glorot(rng: np.random.Generator, shape, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(np.float32)


def init_params(cfg: ModelConfig, embedding: EmbeddingMatrix) -> dict[str, np.ndarray]:
    """The arrays of `param_shapes`, by name and in its order, all float32:
    the embedding cast from `embedding`, Glorot kernels, N(0, 0.05^2)
    attention w, forget bias 1, other biases 0.

    The cast embedding passes `EmbeddingMatrix`'s checks again, since float32
    can overflow.  All draws come from one substream of the config seed in a
    fixed order, so the same seed always yields the same parameters.
    """
    if embedding.dim != cfg.embed_dim:
        raise ValueError(f"embedding dim {embedding.dim} != config embed_dim {cfg.embed_dim}")
    shapes = param_shapes(cfg, len(embedding.matrix))
    p = {"embedding": EmbeddingMatrix(embedding.matrix.astype(np.float32)).matrix}
    p.update((name, np.zeros(s, dtype=np.float32)) for name, s in list(shapes.items())[1:])
    rng = bulk_generator(cfg.seed, STREAM_INIT, 1)
    if "lstm.W" in p:
        D, H = cfg.embed_dim, cfg.lstm_units
        # a W and then a U draw per gate, in the gate order f, i, o, u
        for k in range(4):
            p["lstm.W"][:, k * H : (k + 1) * H] = _glorot(rng, (D, H), D, H)
            p["lstm.U"][:, k * H : (k + 1) * H] = _glorot(rng, (H, H), H, H)
        p["lstm.b"][:H] = 1.0
    if "attention.w" in p:
        p["attention.w"][...] = rng.normal(0.0, 0.05, size=shapes["attention.w"])
    if "conv.kernels" in p:
        k, d_in, F = shapes["conv.kernels"]
        p["conv.kernels"][...] = _glorot(rng, (k, d_in, F), k * d_in, k * F)
    M, C = shapes["dense.W"]
    p["dense.W"][...] = _glorot(rng, (M, C), M, C)
    return p


class Model:
    """Forward/backward engine for one config + parameter set: the arrays of
    `param_shapes(cfg, rows)`, by name and in its order."""

    def __init__(self, cfg: ModelConfig, params: dict[str, np.ndarray]):
        self.cfg = cfg
        self.params = params

    def forward(self, batch: np.ndarray, step: int | None = None):
        """(B, T) indices -> (probs (B, C), trace).

        Given a training `step`, dropout applies that step's mask and the
        trace keeps every layer's cache for `backward`.  Without one
        (inference), dropout is left out, no layer keeps a cache and the
        trace is None.  The embedding -> LSTM prefix gathers the batch's
        distinct rows, projects them through the LSTM's input weights and
        drops them, then runs `lstm_infer` on the projection; attention
        scales the LSTM output in place, and the conv pads `CONV_BLOCK` posts
        at a time.  So a chunk holds the projected rows and one (B, T, H)
        activation during the LSTM, and one (B, T, H) activation and one pad
        block after it.  With a zero dropout rate the two paths'
        probabilities match bit for bit at every batch size (see
        `lstm_infer`).
        """
        cfg, p = self.cfg, self.params
        batch = np.asarray(batch)
        if batch.ndim != 2 or batch.shape[1] != cfg.max_len:
            raise ValueError(f"batch must be (B, {cfg.max_len}), got {batch.shape}")
        x, trace = batch, None
        if step is not None:
            chain, trace = _CHAINS[cfg.variant], []
        else:
            chain = _INFER_CHAINS[cfg.variant]
            if chain[: len(_FOLDED)] == _FOLDED:
                uniq, inv = np.unique(batch, return_inverse=True)
                rows, _ = embedding_forward(p["embedding"], uniq)
                xW = check_finite("embedding", rows) @ p["lstm.W"]
                del rows  # freed before the LSTM's time loop starts
                # the shape of `inv` differs across NumPy releases
                x = lstm_infer(p["lstm.U"], p["lstm.b"], xW, inv.reshape(batch.shape))
                del xW  # freed before the check's (B, T, H) temporary is made
                check_finite("lstm", x)
                chain = chain[len(_FOLDED) :]
        for op in chain:
            x, c = _OPS[op].forward(p, x, cfg, step)
            check_finite(op, x)
            if trace is not None:
                trace.append((op, c))
            del c  # an inference cache dies here, before the next layer runs
        return x, trace

    def backward(self, trace, dlogits: np.ndarray, pool=None) -> dict[str, np.ndarray | RowGrad]:
        """Gradients for every parameter array from a training trace and the
        loss gradient at the logits, keyed and ordered as `params`.

        The trace is consumed: each layer's cache is dropped from it once that
        layer's backward pass has used it.  The LSTM's cache list is emptied
        by `lstm_backward`, which writes its gate gradients over the cached
        gate activations, frees the cell states before its weight GEMMs and
        frees its output once the recurrent weight gradient is formed.
        `pool`, an executor, is handed to `lstm_backward`.  A non-finite
        gradient raises `NumericsError` naming the parameter and the layer
        whose backward pass returned it.
        """
        grads: dict[str, np.ndarray | RowGrad] = {}
        dx = dlogits
        while trace:
            op, cache = trace.pop()
            row = _OPS[op]
            g, dx = row.backward(cache, dx, pool)
            for n, a in g.items():
                name = f"{row.group}.{n}" if n else row.group
                check_finite_grad(name, a, op)
                grads[name] = a
        return {name: grads[name] for name in self.params}

    def predict(self, batch: np.ndarray) -> np.ndarray:
        """Argmax class per row, lowest index on ties.

        The rows are scored in `PREDICT_BATCH`-row chunks.  With more than
        one usable CPU, a pool of one thread per usable CPU (at most one per
        chunk) scores the chunks as they come while the calling thread waits;
        NumPy releases the GIL inside its GEMMs and large loops, so the chunks
        run in parallel.  The labels, and the error raised if a chunk fails,
        are those of the chunks run one after another: the lowest failing
        chunk's.  Every pool thread is joined before this returns or raises.
        """
        batch = np.asarray(batch)
        chunks = [batch[s : s + PREDICT_BATCH] for s in range(0, len(batch), PREDICT_BATCH)]
        label = lambda x: self.forward(x)[0].argmax(axis=1)
        n = min(usable_cpus(), len(chunks))
        if n > 1:
            # imported here: at module level it would slow every risknet start
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(n) as pool:
                labels = list(pool.map(label, chunks))
        else:
            labels = [label(x) for x in chunks]
        return np.concatenate(labels) if labels else np.empty(0, dtype=np.int64)
