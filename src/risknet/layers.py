"""Layer primitives with hand-derived backward passes.

Every layer is a pair of pure functions: forward(...) -> (out, cache) and
backward(cache, dout) -> gradients.  These pairs are the training path.  A
forward pass takes its parameters as plain arrays, in the order of
`model.param_shapes` (``lstm_forward(W, U, b, X)``), and its backward pass
returns their gradients keyed by the names after the dot there ("W", "U",
"b", ...).  Caches hold each array the backward pass needs once, in its
narrowest form, and what is cheap to form again is recomputed.  The LSTM's
cache is its `W` and `U`, then its time-major input, gate activations
(gate-major within a step) and cell states, and its output itself, which the
layer above caches as its input too; it holds no view of its input, so the
layer below can free its output, and its backward pass recomputes tanh of
the cell states.  The LSTM's time loops make their views once per call, so
a step only indexes them, and training and inference run one gate step,
`_gate_step`.  The embedding gradient is a `RowGrad`, which holds only the
rows a batch touched, summed with one reduce per power-of-two count bucket.
The dense head's backward starts from the fused softmax + cross-entropy
gradient at the logits.  Dropout runs in training only, with a mask drawn
from the raw bits of its own PCG64 stream, cached as a boolean keep array
and a scale.  Attention scales its output by the sequence length, so
uniform attention is the identity; inference has it scale its input in
place.  The conv pads its input `CONV_BLOCK` posts at a time and caches the
unpadded input, from which its backward pass builds each tap's window.
`lstm_infer` is the one forward-only kernel: the LSTM of the inference path,
which starts from the input projection of a batch's distinct rows and keeps
no cache.  All math is plain numpy; dtype follows the inputs (float64 in
gradient tests, float32 in training).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .embed import PAD_INDEX, all_finite
from .rng import STREAM_DROPOUT, bulk_generator

# the layer tag in the dropout mask's stream: a mask is a deterministic
# function of seed, step and this tag
LAYER_EMBED_DROPOUT = 1
# raw words per read of a dropout mask's stream: 512 KB, against 9.8 MB for
# one 64-bit word per element at the paper shape (B 32, T 128, D 300)
DROPOUT_WORDS = 2**16


class NumericsError(FloatingPointError):
    """Raised by the NaN/Inf tripwire, naming the offending layer."""


def check_finite(name: str, arr: np.ndarray) -> np.ndarray:
    if not all_finite(arr):
        raise NumericsError(f"non-finite values after layer '{name}'")
    return arr


@dataclass(frozen=True)
class RowGrad:
    """A gradient that is zero outside the rows it lists.

    `rows` are distinct and ascending, and `values[k]` is row `rows[k]` of the
    full gradient of shape `shape`.
    """

    rows: np.ndarray  # (R,) int
    values: np.ndarray  # (R,) + shape[1:]
    shape: tuple[int, ...]


def check_finite_grad(name: str, grad, layer: str | None = None) -> None:
    """NaN/Inf tripwire for the gradient of parameter `name`, dense or a
    `RowGrad` (whose unlisted rows are zero); `layer` names the backward pass
    that made it."""
    values = grad.values if isinstance(grad, RowGrad) else grad
    if not all_finite(values):
        after = f" after layer '{layer}' backward" if layer else ""
        raise NumericsError(f"non-finite gradient for parameter '{name}'{after}")


# ---------------------------------------------------------------- embedding


def embedding_forward(E: np.ndarray, indices: np.ndarray):
    """Row gather: (B, T) int indices -> (B, T, D)."""
    idx = np.asarray(indices)
    if idx.min(initial=0) < 0 or idx.max(initial=0) >= E.shape[0]:
        raise IndexError(f"embedding index out of range [0, {E.shape[0]})")
    return E[idx], (idx, E.shape, E.dtype)


def embedding_backward(cache, dout: np.ndarray) -> RowGrad:
    """Gradient over the batch's distinct non-PAD rows; the PAD row gets none.

    Each row sums the upstream rows of its positions from +0.0 in position
    order, as a dense scatter-add with `np.add.at` does, so the listed rows,
    written into zeros of the full shape, are bit-identical to it, signs of
    zero included.  A row seen once is its one term plus 0.0.  The others go
    in buckets by ceil(log2(count)): each bucket gathers its rows' terms, in
    position order, into an (R, M, D) slab padded with +0.0 up to its largest
    count R, and one sequential reduce over the slab's first axis, begun at
    +0.0, sums them.  A sum begun at +0.0 is never -0.0, so the padding
    changes no bit.
    """
    idx, shape, dtype = cache
    D = shape[1]
    flat = idx.reshape(-1)
    d = dout.reshape(-1, D).astype(dtype, copy=False)
    pos = np.flatnonzero(flat != PAD_INDEX)
    order = pos[np.argsort(flat[pos], kind="stable")]  # grouped by id, in position order
    ids = flat[order]
    starts = np.flatnonzero(np.diff(ids, prepend=-1))  # each id's first slot in `order`
    counts = np.diff(starts, append=ids.size)
    values = d.take(order[starts], axis=0)
    values += 0.0
    bucket = np.frexp(counts - 1)[1]  # ceil(log2(count))
    for k in np.unique(bucket[counts > 1]):
        rows = np.flatnonzero(bucket == k)
        c = counts[rows]
        r = np.arange(c.max())[:, None]
        pad = r >= c  # (R, M)
        slab = d.take(order[np.where(pad, 0, starts[rows] + r)], axis=0)
        slab[pad] = 0.0
        if rows.size * D > 1:
            values[rows] = np.add.reduce(slab, axis=0, initial=0.0)
        else:  # NumPy sums a lone axis pairwise; an accumulate adds in order
            values[rows] = np.add.accumulate(np.pad(slab, ((1, 0), (0, 0), (0, 0))), axis=0)[-1]
    return RowGrad(ids[starts], values, shape)


# ------------------------------------------------------------------ dropout


def dropout_mask(shape, rate: float, seed: int, step: int,
                 dtype) -> tuple[np.ndarray, np.floating]:
    """Inverted-dropout mask, deterministic in (seed, step): the boolean keep
    array of `shape` and the scale ``dtype(1) / dtype(1 - rate)`` of a kept
    element.

    The mask reads the raw 64-bit words of its PCG64 stream as little-endian
    unsigned integers of `bits` bits, one per element: 8 when ``rate * 256``
    is a whole number (0.25, 0.5, 0.75, ...), else 64.  An element is kept iff
    its integer is at least ``ceil(rate * 2**bits)``, so the keep probability
    is exactly ``1 - rate`` on 8 bits and within 2**-64 of it on 64, and the
    mask does not depend on the host's byte order.  The words are read
    `DROPOUT_WORDS` at a time, each block compared into the keep array, so
    the draw holds one block of words, not one word per element; the words
    and their order are those of a single read.
    """
    n = math.prod(shape)
    bits = 8 if float(rate * 256).is_integer() else 64
    per_word = 64 // bits
    threshold = math.ceil(rate * 2**bits)
    rng = bulk_generator(seed, STREAM_DROPOUT, step, LAYER_EMBED_DROPOUT)
    keep = np.empty(n, dtype=bool)
    for start in range(0, n, DROPOUT_WORDS * per_word):
        block = keep[start : start + DROPOUT_WORDS * per_word]
        words = rng.bit_generator.random_raw(-(-block.size // per_word))
        ints = words.astype("<u8", copy=False).view(f"<u{bits // 8}")[: block.size]
        np.greater_equal(ints, threshold, out=block)
        del words, ints  # freed before the next block is read
    return keep.reshape(shape), dtype(1) / dtype(1 - rate)


def _apply_mask(x: np.ndarray, cache, out: np.ndarray) -> np.ndarray:
    """``x * mask`` into `out`, which may be `x`, for the float mask of 0 and
    the scale that `cache` (keep, scale) stands for, with that product's
    bits: ``(x * keep) * scale`` is ``x * scale`` where kept, and where
    dropped ``x * 0.0``, a signed zero or NaN, which the scale keeps."""
    keep, scale = cache
    np.multiply(x, keep, out=out)
    return np.multiply(out, scale, out=out)


def dropout_forward(x: np.ndarray, rate: float, seed: int, step: int):
    """Training-time dropout with step `step`'s mask; `ModelConfig` keeps the
    rate in [0, 1).  The cache is `dropout_mask`'s (keep, scale) pair."""
    if rate == 0.0:
        return x, None
    cache = dropout_mask(x.shape, rate, seed, step, x.dtype.type)
    return _apply_mask(x, cache, np.empty_like(x)), cache


def dropout_backward(cache, dout: np.ndarray) -> np.ndarray:
    """``dout * mask``, written over `dout`, which the layer above made and
    nothing else holds."""
    return dout if cache is None else _apply_mask(dout, cache, dout)


# --------------------------------------------------------------------- lstm

# lstm_backward forms the gates' derivative factors (1 - f, 1 - i, 1 - o,
# 1 - u*u, 1 - tc*tc) this many steps at a time: 1 MB of scratch at the paper
# shape (B 32, H 100, float32)
BPTT_BLOCK = 16
# posts per padded block of the conv forward pass: a training batch (32) pads
# once, and a 128-post inference chunk holds one 32-post pad block, 1.7 MB at
# the paper shape (T 128, k 8, d 100, float32), not a padded copy of all 128
CONV_BLOCK = 32


def _gate_step(U: np.ndarray, b: np.ndarray, B: int, dtype):
    """Make the LSTM's one gate step, for batches of `B` rows.

    The step's scratch, its views and the bias tiled gate-major are made
    here, once per call of `lstm_forward` or `lstm_infer`, so the time loop
    only indexes.  ``step(a, gates, h, c, c_out, tc_out, h_out)`` takes step
    t's input projection ``x @ W`` in `a` (B, 4H) and forms ``(x @ W + h @
    U) + b``: the scratch gets ``h @ U + a``, and the step's one strided pass
    adds `b` to its gate blocks and writes them gate-major over `a`'s memory,
    which `gates` views (`_gate_views`).  The activations are then contiguous
    passes: a sigmoid over f, i and o in its overflow-safe tanh form,
    0.5 * (tanh(0.5 * x) + 1), with one tanh over all four gates.  The new
    cell state, its tanh and the new hidden state go to `c_out`, `tc_out` and
    `h_out`.
    """
    H = U.shape[0]
    b = np.repeat(b.reshape(4, 1, H), B, axis=1)  # (4, B, H)
    s = np.empty((B, 4 * H), dtype=dtype)
    z = s.reshape(B, 4, H).transpose(1, 0, 2)  # s's gate blocks, gate-major
    iu = s.reshape(4, B, H)[0]  # s is free once z has been read
    add, multiply, tanh, matmul = np.add, np.multiply, np.tanh, np.matmul

    def step(a, gates, h, c, c_out, tc_out, h_out):
        g, sig, f, i, o, u = gates
        matmul(h, U, s)
        add(s, a, s)
        add(z, b, g)
        multiply(sig, 0.5, sig)
        tanh(g, g)
        add(sig, 1.0, sig)
        multiply(sig, 0.5, sig)
        multiply(f, c, c_out)
        multiply(i, u, iu)
        add(c_out, iu, c_out)
        tanh(c_out, tc_out)
        multiply(o, tc_out, h_out)

    return step


def _gate_views(g: np.ndarray) -> tuple:
    """``(g, g[:3], f, i, o, u)`` of gate-major activations ``(..., 4, B, H)``."""
    return (g, g[..., :3, :, :], *g.swapaxes(0, -3))


def lstm_forward(W: np.ndarray, U: np.ndarray, b: np.ndarray, X: np.ndarray):
    """Gate recurrence over (B, T, D), zero initial state, full (B, T, H) out.

    The four gates sit side by side in the order f, i, o, u: `W` (D, 4H),
    `U` (H, 4H) and `b` (4H,).  The cache list is ``[W, U, Xt, G, C, out]``.
    `Xt` (T, B, D) is the input, time-major.  `G` first holds every step's
    input projection (T, B, 4H), one ``(T*B, D) @ W`` GEMM (Appleyard et al.
    2016, arXiv:1604.01946), and each step overwrites its row with the gate
    activations, gate-major, so the cache holds `G` viewed as (T, 4, B, H):
    `G[t, k]` is gate k (f, i, o, u) of step t.  `C` (T+1, B, H) holds the
    cell states, row 0 the zero initial state.  `out` is the returned output
    itself: each step writes its `h` straight into it, as `lstm_infer` does,
    and reads it back as the next step's `h`, and each step's tanh of `c`
    goes to one (B, H) scratch, which `lstm_backward` recomputes.  The time
    loop runs `_gate_step` on views made before it starts.
    """
    B, T, D = X.shape
    H = U.shape[0]
    if W.shape[0] != D:
        raise ValueError(f"LSTM input dim mismatch: params expect {W.shape[0]}, got {D}")
    Xt = np.ascontiguousarray(X.transpose(1, 0, 2))
    G = (Xt.reshape(T * B, D) @ W).reshape(T, B, 4 * H)
    G4 = G.reshape(T, 4, B, H)
    C = np.zeros((T + 1, B, H), dtype=X.dtype)
    out = np.empty((B, T, H), dtype=X.dtype)
    h = np.zeros((B, H), dtype=X.dtype)
    tc = np.empty((B, H), dtype=X.dtype)
    step = _gate_step(U, b, B, G.dtype)
    for a, gates, c, c_out, h_out in zip(G, zip(*_gate_views(G4)), C, C[1:],
                                         out.transpose(1, 0, 2)):
        step(a, gates, h, c, c_out, tc, h_out)
        h = h_out
    return out, [W, U, Xt, G4, C, out]


def lstm_infer(U: np.ndarray, b: np.ndarray, xW: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """Forward-only `lstm_forward` output (B, T, H), with no cache kept.

    `xW` (U, 4H) is the input projection ``rows @ W`` of a batch's distinct
    input rows, and `inv` (B, T) gives the row of every position, as
    `np.unique(..., return_inverse=True)` yields them.  The projection is
    done once for all distinct rows (Appleyard et al. 2016, arXiv:1604.01946)
    by the caller, which can then free the (U, D) rows before the time loop
    starts.  Each step gathers its rows of `xW` and runs `lstm_forward`'s gate
    step, which writes its `h` straight into the output, where the next step
    reads it, and `c` into one of two (B, H) slots that swap every step.  The
    output matches `lstm_forward`'s bit for bit at every batch size, on the
    NumPy/BLAS build the tests run on.
    """
    B, T = inv.shape
    H = U.shape[0]
    if xW.ndim != 2 or xW.shape[1] != 4 * H:
        raise ValueError(f"LSTM projection mismatch: params expect (U, {4 * H}), got {xW.shape}")
    at = np.ascontiguousarray(inv.T)  # (T, B): row of each position, step by step
    out = np.empty((B, T, H), dtype=xW.dtype)
    h = np.zeros((B, H), dtype=xW.dtype)
    c, c_out = np.zeros((2, B, H), dtype=xW.dtype)
    tc = np.empty((B, H), dtype=xW.dtype)
    a = np.empty((B, 4 * H), dtype=xW.dtype)
    gates = _gate_views(a.reshape(4, B, H))
    step = _gate_step(U, b, B, xW.dtype)
    take = np.take
    for rows_t, h_out in zip(at, out.transpose(1, 0, 2)):
        take(xW, rows_t, 0, a)
        step(a, gates, h, c, c_out, tc, h_out)
        h, c, c_out = h_out, c_out, c
    return out


def lstm_backward(cache, dH: np.ndarray, pool=None):
    """Full BPTT. Returns (param grads dict, dX).

    Only the recurrent GEMM ``dh_next = dA[t] @ U^T`` stays in the time loop;
    each step stores its gate pre-activation gradients in ``dA`` (T, B, 4H),
    gate blocks side by side in the order f, i, o, u as in the parameters,
    and the weight, bias and input gradients are then single GEMMs over all
    steps (Appleyard et al. 2016, arXiv:1604.01946), with the cached
    time-major inputs and hidden states as operands.  The time loop reads
    `dH` through a time-major view and the gate-major activations as
    contiguous (B, H) blocks, through views made before it starts, and forms
    each step's gate gradients in a (4, B, H) scratch.  `BPTT_BLOCK` steps at
    a time, it recomputes ``tc = tanh(c)`` from the cached cell states into a
    block scratch, with the bits of the forward pass's tanh, and forms the
    factors ``1 - f``, ``1 - i``, ``1 - o``, ``1 - u*u`` and ``1 - tc*tc``;
    the last product, by those factors, is the step's one strided pass and
    writes the gradients into ``dA[t]``.  Every product keeps the order
    ``(df * f) * (1 - f)`` of the per-gate expressions, so the gradients are
    their bits.  Given an executor `pool`, the weight GEMM ``dW = Xt^T dA``
    runs on it, into an array allocated here, while this thread forms the
    other gradients; each GEMM is the same call on either thread, so the
    gradients are the same bits.

    `cache` is `lstm_forward`'s list, and it serves one call: this call
    empties it, so a second one raises `ValueError`.  Its gate activations `G`
    become the gate gradients `dA` as the loop goes back in time (step t's
    gradients need only step t's activations) when `dH` has their dtype, and
    its cell states `C` are dropped before the weight GEMMs.  The time-major
    hidden states ``h_{t-1}``, the operand of ``dU``, are copied from `out`
    then, and dropped with it before `dX` is allocated.
    """
    W, U, Xt, G, C, out = cache
    cache.clear()
    T, B, D = Xt.shape
    H = U.shape[0]
    if G.dtype == dH.dtype:
        dA = G.reshape(T, B, 4 * H)
    else:
        dA = np.empty((T, B, 4 * H), dtype=dH.dtype)
    dA_gates = dA.reshape(T, B, 4, H).transpose(0, 2, 1, 3)  # dA[t] seen as (4, B, H)
    dHt = dH.transpose(1, 0, 2)  # (T, B, H)
    UT = U.T
    dh = np.empty((B, H), dtype=dH.dtype)
    dc = np.empty((B, H), dtype=dH.dtype)
    dh_next = np.zeros((B, H), dtype=dH.dtype)
    dc_next = np.zeros((B, H), dtype=dH.dtype)
    dg = np.empty((4, B, H), dtype=dH.dtype)  # step t's gate gradients
    dsig, df, di, do, du = _gate_views(dg)[1:]
    Gsig, Gf, Gi, Go, Gu = _gate_views(G)[1:]
    # per step of a block: tanh(c), then 1 - f, 1 - i, 1 - o, 1 - u*u and
    # 1 - tc*tc, in the activations' dtype, as the per-gate expressions form them
    TC = np.empty((min(BPTT_BLOCK, T), B, H), dtype=G.dtype)
    one_minus = np.empty((min(BPTT_BLOCK, T), 5, B, H), dtype=G.dtype)
    k_gates, k_tc = one_minus[:, :4], one_minus[:, 4]
    add, multiply, matmul = np.add, np.multiply, np.matmul
    for end in range(T, 0, -BPTT_BLOCK):
        start = max(end - BPTT_BLOCK, 0)
        tc, fac = TC[: end - start], one_minus[: end - start]
        np.tanh(C[start + 1 : end + 1], out=tc)
        np.subtract(1.0, G[start:end, :3], out=fac[:, :3])
        np.multiply(G[start:end, 3], G[start:end, 3], out=fac[:, 3])
        np.multiply(tc, tc, out=fac[:, 4])
        np.subtract(1.0, fac[:, 3:], out=fac[:, 3:])
        for t in range(end - 1, start - 1, -1):
            j = t - start
            add(dHt[t], dh_next, dh)
            multiply(dh, Go[t], dc)
            multiply(dc, k_tc[j], dc)
            add(dc, dc_next, dc)
            multiply(dc, C[t], df)
            multiply(dc, Gu[t], di)
            multiply(dh, tc[j], do)
            multiply(dc, Gi[t], du)
            multiply(dc, Gf[t], dc_next)
            multiply(dsig, Gsig[t], dsig)
            # every read of step t is done, so dA[t] may be G[t]'s memory
            multiply(dg, k_gates[j], dA_gates[t])
            matmul(dA[t], UT, dh_next)
    # C is freed here; the loop's views of G go too, since G may be dA
    G = C = TC = tc = one_minus = fac = k_gates = k_tc = Gsig = Gf = Gi = Go = Gu = None
    dA2 = dA.reshape(T * B, 4 * H)
    dW = np.empty(W.shape, dtype=dA.dtype)
    if pool is None:
        np.matmul(Xt.reshape(T * B, D).T, dA2, out=dW)
    else:
        job = pool.submit(np.matmul, Xt.reshape(T * B, D).T, dA2, out=dW)
    try:
        # h_{t-1} for every step, time-major: the zero initial state, then out's
        # first T - 1 steps
        H_prev = np.empty((T, B, H), dtype=out.dtype)
        H_prev[0] = 0.0
        H_prev[1:] = out[:, :-1].transpose(1, 0, 2)
        g = {"W": dW, "U": H_prev.reshape(T * B, H).T @ dA2, "b": dA2.sum(axis=0)}
        H_prev = out = None
        dX = dA2 @ W.T
    finally:
        if pool is not None:
            job.result()
    # drop every view of dA, and the input, so that they are freed before
    # dX's (B, T, D) copy is made
    dA = dA2 = dA_gates = Xt = None
    return g, np.ascontiguousarray(dX.reshape(T, B, D).transpose(1, 0, 2))


# ---------------------------------------------------------------- attention


def attention_forward(w: np.ndarray, b: np.ndarray, P: np.ndarray,
                      out: np.ndarray | None = None):
    """e = tanh(P w + b), with `w` (d, 1) and `b` (T, 1); alpha = softmax over
    time; out = P * (T * alpha) (3-D kept).

    The factor T makes uniform attention the identity, so the layer above
    sees inputs of the LSTM's scale, not 1/T of it.  A context vector, the
    sum over time of ``alpha * P`` (Bahdanau et al. 2014, arXiv:1409.0473),
    is normalised the same way; keeping the sequence keeps the model's
    attention -> conv chain.  Without the factor the conv layer's ReLUs can
    all die early in training, and the model then stays at chance.

    Given `out` (B, T, d), which may be `P` itself, the product is written
    there, with the bits of the out-of-place product, and the cache is None:
    inference scales the LSTM output it owns in place, so that it holds one
    (B, T, d) array here, not two.  Training keeps the out-of-place product
    and its cache, which holds `P`.
    """
    B, T, d = P.shape
    if w.shape[0] != d:
        raise ValueError(f"attention feature dim mismatch: w has {w.shape[0]}, input {d}")
    if b.shape[0] != T:
        raise ValueError(f"attention length mismatch: b has {b.shape[0]}, input {T}")
    e = np.tanh(P @ w + b)  # (B, T, 1)
    m = e.max(axis=1, keepdims=True)
    ex = np.exp(e - m)
    alpha = ex / ex.sum(axis=1, keepdims=True)
    if out is not None:
        return np.multiply(P, T * alpha, out=out), None
    return P * (T * alpha), (w, P, e, alpha)


def attention_backward(cache, dout: np.ndarray):
    """Chain through broadcast product, time softmax, and tanh."""
    w, P, e, alpha = cache
    T = P.shape[1]
    dP = dout * (T * alpha)
    dalpha = T * (dout * P).sum(axis=2, keepdims=True)  # (B, T, 1)
    de = alpha * (dalpha - (alpha * dalpha).sum(axis=1, keepdims=True))
    ds = de * (1.0 - e * e)  # gradient at P w + b
    dw = (P * ds).sum(axis=(0, 1)).reshape(-1, 1)
    db = ds.sum(axis=0)
    dP += ds * w.T
    return {"w": dw, "b": db}, dP


# --------------------------------------------------------------- conv + relu


def conv_padding(k: int) -> tuple[int, int]:
    """'same' split: extra pad goes to the right for even k."""
    return (k - 1) // 2, k - 1 - (k - 1) // 2


def conv1d_relu_forward(kernels: np.ndarray, bias: np.ndarray, X: np.ndarray):
    """'same'-padded conv over time, then ReLU: (B, T, d_in) -> (B, T, F),
    with `kernels` (k, d_in, F) and `bias` (F,).

    The input is padded `CONV_BLOCK` posts at a time into one reused zeroed
    buffer, and each tap j adds ``window_j @ kernels[j]``, one (T, d_in) GEMM
    per post, to the pre-activation `z`.  Each post's GEMMs see the windows
    they would see in the whole batch padded at once, so the output has the
    same bits.  The cache holds the unpadded input, which
    `conv1d_relu_backward` pads.
    """
    B, T, d_in = X.shape
    k, d_k, F = kernels.shape
    if d_k != d_in:
        raise ValueError(f"conv channel mismatch: kernels expect {d_k}, input {d_in}")
    pl, _ = conv_padding(k)
    Xp = np.zeros((min(B, CONV_BLOCK), T + k - 1, d_in), dtype=X.dtype)
    z = np.broadcast_to(bias, (B, T, F)).astype(X.dtype).copy()
    for start in range(0, B, CONV_BLOCK):
        zb = z[start : start + CONV_BLOCK]
        xp = Xp[: len(zb)]
        xp[:, pl : pl + T] = X[start : start + CONV_BLOCK]
        for j in range(k):
            zb += xp[:, j : j + T, :] @ kernels[j]
    return np.maximum(z, 0.0), (kernels, X, z)


def conv1d_relu_backward(cache, dout: np.ndarray):
    """Gradients of `conv1d_relu_forward` from its cache.  Each tap's window,
    the input shifted with zero rows past either end, is built in one reused
    buffer, with no padded copy, and gives the kernel gradient; the tap then
    adds its share of the input gradient to the rows its window read, in tap
    order from zero.  These are the sums of the input padded whole, bit for
    bit, also when `k` exceeds `T`."""
    kernels, X, z = cache
    B, T, d_in = X.shape
    k = kernels.shape[0]
    pl, _ = conv_padding(k)
    dz = dout * (z > 0.0)
    dz2 = dz.reshape(B * T, -1)
    g = {"kernels": np.zeros_like(kernels), "bias": dz.sum(axis=(0, 1))}
    dX = np.zeros_like(X)
    window = np.empty_like(X)
    for j in range(k):
        shift = j - pl  # output step t reads input step t + shift
        lo, hi = min(max(-shift, 0), T), min(max(T - shift, 0), T)  # the steps inside
        window[:, :lo] = 0.0
        window[:, hi:] = 0.0
        window[:, lo:hi] = X[:, lo + shift : hi + shift]
        g["kernels"][j] = window.reshape(B * T, d_in).T @ dz2
        # the whole tap product, the GEMM of the padded route, then its inside rows
        dX[:, lo + shift : hi + shift] += (dz @ kernels[j].T)[:, lo:hi]
    return g, dX


# ------------------------------------------------------------------ maxpool


def maxpool1d_forward(X: np.ndarray, size: int):
    B, T, F = X.shape
    if size < 1:
        raise ValueError("pool size must be >= 1")
    if T < size:
        raise ValueError("sequence too short to pool")
    Tp = T // size
    win = X[:, : Tp * size, :].reshape(B, Tp, size, F)
    arg = win.argmax(axis=2)  # first max on ties
    out = np.take_along_axis(win, arg[:, :, None, :], axis=2)[:, :, 0, :]
    return out, ((B, T, F), size, arg, X.dtype)


def maxpool1d_backward(cache, dout: np.ndarray) -> np.ndarray:
    (B, T, F), size, arg, dtype = cache
    Tp = T // size
    dwin = np.zeros((B, Tp, size, F), dtype=dtype)
    np.put_along_axis(dwin, arg[:, :, None, :], dout[:, :, None, :].astype(dtype), axis=2)
    dX = np.zeros((B, T, F), dtype=dtype)
    dX[:, : Tp * size, :] = dwin.reshape(B, Tp * size, F)
    return dX


# ------------------------------------------------------------------ flatten


def flatten_forward(X: np.ndarray):
    B = X.shape[0]
    return X.reshape(B, -1), X.shape


def flatten_backward(cache, dout: np.ndarray) -> np.ndarray:
    return dout.reshape(cache)


# ------------------------------------------------------------ dense softmax


def softmax(z: np.ndarray) -> np.ndarray:
    ex = np.exp(z - z.max(axis=-1, keepdims=True))
    return ex / ex.sum(axis=-1, keepdims=True)


def dense_softmax_forward(W: np.ndarray, b: np.ndarray, v: np.ndarray):
    """softmax(v W + b), with `W` (M, C) and `b` (C,)."""
    if v.shape[1] != W.shape[0]:
        raise ValueError(f"dense input dim mismatch: W expects {W.shape[0]}, got {v.shape[1]}")
    return softmax(v @ W + b), (W, v)


def dense_softmax_backward(cache, dlogits: np.ndarray):
    """Backward from the loss gradient at the logits (the fused softmax +
    cross-entropy gradient in training)."""
    W, v = cache
    g = {"W": v.T @ dlogits, "b": dlogits.sum(axis=0)}
    return g, dlogits @ W.T
