"""Old-vs-new equivalence of the rewritten kernels.

The reference oracles below are the straightforward implementations the
production kernels replaced: an LSTM that runs each gate on its own column
block of the fused parameters, a per-step BPTT that accumulates every
per-gate weight GEMM inside the time loop, a conv kernel gradient by plain
``einsum``, an out-of-place Adam update, and a dense embedding gradient
scattered with ``np.add.at``.  Adam and the embedding gradient keep their
operation order, so they must match bit for bit, Adam also when it is given
the row gradient; the per-gate LSTM and the conv kernels sum in a different
order, so they are compared with a tolerance fixed by the dtype.  The fused
LSTM that kept a list of per-step tuples as its cache runs the same
operations as the time-major one, so the two must match bit for bit.  The
cache-free inference LSTM, `lstm_infer`, is checked bit for bit against
`lstm_forward` on embedded ids, at every batch size, and against its own
loop from before it shared `lstm_forward`'s gate step.  Work that training
hands to its helper thread (the LSTM's weight GEMM, Adam's g = 0 pass) must
give the bits the calling thread gives.  Dropout followed by the LSTM is
checked bit for bit against the layout that cached every activation apart: a
float dropout mask, and an LSTM cache with its hidden states `Hs` and tanh of
its cell states `TC` beside a batch-major copy of the output.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import dense, sigmoid
import risknet.model
from risknet.embed import PAD_INDEX, EmbeddingMatrix
from risknet.layers import (
    BPTT_BLOCK,
    NumericsError,
    RowGrad,
    _gate_step,
    _gate_views,
    conv1d_relu_backward,
    conv1d_relu_forward,
    conv_padding,
    dropout_backward,
    dropout_forward,
    dropout_mask,
    embedding_backward,
    embedding_forward,
    lstm_backward,
    lstm_forward,
    lstm_infer,
)
from risknet.model import PREDICT_BATCH, VARIANTS, ModelConfig
from risknet.train import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_BLOCK,
    ADAM_EPSILON,
    ADAM_LR,
    Adam,
    TrainConfig,
    fit,
)

# rtol per dtype; atol is rtol times the largest reference magnitude, so that
# entries that cancel to near zero are judged against the array's scale
RTOL = {np.float64: 1e-10, np.float32: 1e-4}

# (B, T, D, H): the acceptance shape (embed 32, LSTM 16, max-len 48) and a
# short paper-like one (embed 300, LSTM 100)
LSTM_SHAPES = [(32, 48, 32, 16), (4, 12, 300, 100)]
# the time-major LSTM against the per-step-list one: LSTM_SHAPES, the paper
# shape, and one-row batches
STEPLIST_SHAPES = LSTM_SHAPES + [(32, 128, 300, 100), (1, 12, 300, 100), (1, 48, 32, 16)]
# lstm_infer: LSTM_SHAPES, a one-row batch and a one-unit LSTM
INFER_SHAPES = LSTM_SHAPES + [(1, 12, 300, 100), (3, 9, 5, 1)]
# a chunk of `predict` at the paper shape, where each step's h is a strided
# view of the output
PREDICT_SHAPE = (PREDICT_BATCH, 128, 300, 100)
# (B, T, d_in, k, F): conv over the LSTM output at both shapes, and over the
# embedding as in the cnn-only variant
CONV_SHAPES = [(32, 48, 16, 8, 3), (4, 32, 100, 8, 3), (4, 32, 300, 8, 3), (3, 9, 5, 4, 2)]


def gate(arr, k):
    """Gate k's column block (order f, i, o, u) of a fused LSTM array."""
    H = arr.shape[-1] // 4
    return arr[..., k * H : (k + 1) * H]


def ref_lstm_forward(W, U, b, X):
    """Per-gate recurrence; its steps hold each gate's activation apart."""
    B, T, D = X.shape
    (W_f, W_i, W_o, W_u), (U_f, U_i, U_o, U_u), (b_f, b_i, b_o, b_u) = (
        [gate(a, k) for k in range(4)] for a in (W, U, b))
    H = U_f.shape[0]
    h = np.zeros((B, H), dtype=X.dtype)
    c = np.zeros((B, H), dtype=X.dtype)
    out = np.empty((B, T, H), dtype=X.dtype)
    steps = []
    for t in range(T):
        x = X[:, t, :]
        f = sigmoid(x @ W_f + h @ U_f + b_f)
        i = sigmoid(x @ W_i + h @ U_i + b_i)
        o = sigmoid(x @ W_o + h @ U_o + b_o)
        u = np.tanh(x @ W_u + h @ U_u + b_u)
        c_new = f * c + i * u
        tc = np.tanh(c_new)
        steps.append((x, h, c, f, i, o, u, tc))
        h = o * tc
        c = c_new
        out[:, t, :] = h
    return out, (W, U, steps)


def ref_lstm_backward(cache, dH):
    W, U, steps = cache
    B, T, H = dH.shape
    D = W.shape[0]
    W = [gate(W, k) for k in range(4)]
    U = [gate(U, k) for k in range(4)]
    gW = [np.zeros((D, H), dtype=dH.dtype) for _ in range(4)]
    gU = [np.zeros((H, H), dtype=dH.dtype) for _ in range(4)]
    gb = [np.zeros(H, dtype=dH.dtype) for _ in range(4)]
    dX = np.empty((B, T, D), dtype=dH.dtype)
    dh_next = np.zeros((B, H), dtype=dH.dtype)
    dc_next = np.zeros((B, H), dtype=dH.dtype)
    for t in range(T - 1, -1, -1):
        x, h_prev, c_prev, f, i, o, u, tc = steps[t]
        dh = dH[:, t, :] + dh_next
        do = dh * tc
        dc = dh * o * (1.0 - tc * tc) + dc_next
        df = dc * c_prev
        di = dc * u
        du = dc * i
        dc_next = dc * f
        da = [df * f * (1.0 - f), di * i * (1.0 - i), do * o * (1.0 - o), du * (1.0 - u * u)]
        for k in range(4):
            gW[k] += x.T @ da[k]
            gU[k] += h_prev.T @ da[k]
            gb[k] += da[k].sum(axis=0)
        dX[:, t, :] = sum(da[k] @ W[k].T for k in range(4))
        dh_next = sum(da[k] @ U[k].T for k in range(4))
    cat = lambda arrs: np.concatenate(arrs, axis=-1)  # noqa: E731
    return {"W": cat(gW), "U": cat(gU), "b": cat(gb)}, dX


def steplist_lstm_forward(W, U, b, X):
    """The fused LSTM whose cache is a list of per-step tuples; the input
    projection is one (T*B, D) @ W product, as in `lstm_forward`."""
    B, T, D = X.shape
    H = U.shape[0]
    XW = (np.ascontiguousarray(X.transpose(1, 0, 2)).reshape(T * B, D) @ W).reshape(T, B, -1)
    h = np.zeros((B, H), dtype=X.dtype)
    c = np.zeros((B, H), dtype=X.dtype)
    out = np.empty((B, T, H), dtype=X.dtype)
    steps = []
    for t in range(T):
        x = X[:, t, :]
        a = XW[t] + h @ U + b
        fio = sigmoid(a[:, : 3 * H])
        u = np.tanh(a[:, 3 * H :])
        c_new = fio[:, :H] * c + fio[:, H : 2 * H] * u
        tc = np.tanh(c_new)
        steps.append((x, h, c, fio, u, tc))
        h = fio[:, 2 * H :] * tc
        c = c_new
        out[:, t, :] = h
    return out, (W, U, (B, T, D, H), steps)


def loop_lstm_infer(W, U, b, rows, inv):
    """`lstm_infer` with the gate step spelled out, new h and c every step."""
    B, T = inv.shape
    H = U.shape[0]
    xW = rows @ W
    at = np.ascontiguousarray(inv.T)
    h = np.zeros((B, H), dtype=rows.dtype)
    c = np.zeros((B, H), dtype=rows.dtype)
    out = np.empty((B, T, H), dtype=rows.dtype)
    a = np.empty((B, 4 * H), dtype=xW.dtype)
    for t in range(T):
        np.take(xW, at[t], axis=0, out=a)
        a += h @ U
        a += b
        fio = sigmoid(a[:, : 3 * H])
        u = np.tanh(a[:, 3 * H :])
        c = fio[:, :H] * c + fio[:, H : 2 * H] * u
        h = fio[:, 2 * H :] * np.tanh(c)
        out[:, t, :] = h
    return out


def steplist_lstm_backward(cache, dH):
    W, U, (B, T, D, H), steps = cache
    dA = np.empty((T, B, 4 * H), dtype=dH.dtype)
    dh_next = np.zeros((B, H), dtype=dH.dtype)
    dc_next = np.zeros((B, H), dtype=dH.dtype)
    for t in range(T - 1, -1, -1):
        x, h_prev, c_prev, fio, u, tc = steps[t]
        f, i, o = fio[:, :H], fio[:, H : 2 * H], fio[:, 2 * H :]
        dh = dH[:, t, :] + dh_next
        do = dh * tc
        dc = dh * o * (1.0 - tc * tc) + dc_next
        df = dc * c_prev
        di = dc * u
        du = dc * i
        dc_next = dc * f
        da = dA[t]
        da[:, :H] = df * f * (1.0 - f)
        da[:, H : 2 * H] = di * i * (1.0 - i)
        da[:, 2 * H : 3 * H] = do * o * (1.0 - o)
        da[:, 3 * H :] = du * (1.0 - u * u)
        dh_next = da @ U.T
    dA2 = dA.reshape(T * B, 4 * H)
    Xs = np.stack([s[0] for s in steps]).reshape(T * B, D)
    Hs = np.stack([s[1] for s in steps]).reshape(T * B, H)
    dX = (dA2 @ W.T).reshape(T, B, D).transpose(1, 0, 2)
    g = {"W": Xs.T @ dA2, "U": Hs.T @ dA2, "b": dA2.sum(axis=0)}
    return g, np.ascontiguousarray(dX)


def hs_lstm_forward(W, U, b, X):
    """`lstm_forward` with the cache ``[W, U, Xt, G, C, Hs, TC]``: the hidden
    states `Hs` (T+1, B, H), row 0 the zero state, and `TC` (T, B, H), tanh
    of `C[1:]`, each step's own rows, and the output a batch-major copy of
    `Hs[1:]`."""
    B, T, D = X.shape
    H = U.shape[0]
    Xt = np.ascontiguousarray(X.transpose(1, 0, 2))
    G = (Xt.reshape(T * B, D) @ W).reshape(T, B, 4 * H)
    G4 = G.reshape(T, 4, B, H)
    C = np.zeros((T + 1, B, H), dtype=X.dtype)
    Hs = np.zeros((T + 1, B, H), dtype=X.dtype)
    TC = np.empty((T, B, H), dtype=X.dtype)
    step = _gate_step(U, b, B, G.dtype)
    for args in zip(G, zip(*_gate_views(G4)), Hs, C, C[1:], TC, Hs[1:]):
        step(*args)
    return np.ascontiguousarray(Hs[1:].transpose(1, 0, 2)), [W, U, Xt, G4, C, Hs, TC]


def hs_lstm_backward(cache, dH):
    """BPTT over `hs_lstm_forward`'s cache: `dH` copied time-major, the
    factors of a `BPTT_BLOCK` formed from the cached `TC`, and `dU` from the
    cached `Hs`."""
    W, U, Xt, G, C, Hs, TC = cache
    T, B, D = Xt.shape
    H = U.shape[0]
    dA = np.empty((T, B, 4 * H), dtype=dH.dtype)
    dA_gates = dA.reshape(T, B, 4, H).transpose(0, 2, 1, 3)
    dHt = np.ascontiguousarray(dH.transpose(1, 0, 2))
    dh_next = np.zeros((B, H), dtype=dH.dtype)
    dc_next = np.zeros((B, H), dtype=dH.dtype)
    dg = np.empty((4, B, H), dtype=dH.dtype)
    dsig, df, di, do, du = _gate_views(dg)[1:]
    Gsig, Gf, Gi, Go, Gu = _gate_views(G)[1:]
    one_minus = np.empty((min(BPTT_BLOCK, T), 5, B, H), dtype=G.dtype)
    for end in range(T, 0, -BPTT_BLOCK):
        start = max(end - BPTT_BLOCK, 0)
        fac = one_minus[: end - start]
        np.subtract(1.0, G[start:end, :3], out=fac[:, :3])
        np.multiply(G[start:end, 3], G[start:end, 3], out=fac[:, 3])
        np.multiply(TC[start:end], TC[start:end], out=fac[:, 4])
        np.subtract(1.0, fac[:, 3:], out=fac[:, 3:])
        for t in range(end - 1, start - 1, -1):
            dh = dHt[t] + dh_next
            dc = dh * Go[t]
            dc = dc * fac[t - start, 4] + dc_next
            np.multiply(dc, C[t], df)
            np.multiply(dc, Gu[t], di)
            np.multiply(dh, TC[t], do)
            np.multiply(dc, Gi[t], du)
            dc_next = dc * Gf[t]
            np.multiply(dsig, Gsig[t], dsig)
            np.multiply(dg, fac[t - start, :4], dA_gates[t])
            dh_next = dA[t] @ U.T
    dA2 = dA.reshape(T * B, 4 * H)
    g = {"W": Xt.reshape(T * B, D).T @ dA2, "U": Hs[:-1].reshape(T * B, H).T @ dA2,
         "b": dA2.sum(axis=0)}
    return g, np.ascontiguousarray((dA2 @ W.T).reshape(T, B, D).transpose(1, 0, 2))


def float_mask_dropout(x, rate, seed, step):
    """Dropout as the product with a float mask of 0 and the scale, which
    its backward pass multiplies too.  Returns (out, mask)."""
    keep, scale = dropout_mask(x.shape, rate, seed, step, x.dtype.type)
    mask = np.multiply(keep, scale, dtype=x.dtype)
    return x * mask, mask


def ref_conv1d_relu_backward(cache, dout):
    kernels, X, z = cache
    T = X.shape[1]
    k = kernels.shape[0]
    pl, pr = conv_padding(k)
    Xp = np.pad(X, ((0, 0), (pl, pr), (0, 0)))
    dz = dout * (z > 0.0)
    g = {"kernels": np.zeros_like(kernels), "bias": dz.sum(axis=(0, 1))}
    dXp = np.zeros_like(Xp)
    for j in range(k):
        window = Xp[:, j : j + T, :]
        g["kernels"][j] = np.einsum("btc,btf->cf", window, dz)
        dXp[:, j : j + T, :] += dz @ kernels[j].T
    return g, dXp[:, pl : pl + T, :]


def ref_adam_step(params, grads, m, v, t):
    """Out-of-place Adam; rebinds m[name] and v[name], returns the new t."""
    t += 1
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    for name, theta in params:
        g = grads[name]
        mn = m[name] = ADAM_BETA1 * m[name] + (1.0 - ADAM_BETA1) * g
        vn = v[name] = ADAM_BETA2 * v[name] + (1.0 - ADAM_BETA2) * (g * g)
        theta -= ADAM_LR * (mn / bc1) / (np.sqrt(vn / bc2) + ADAM_EPSILON)
    return t


def ref_embedding_backward(cache, dout):
    """Dense scatter-add of every position's upstream row; PAD row zeroed."""
    idx, shape, dtype = cache
    dE = np.zeros(shape, dtype=dtype)
    np.add.at(dE, idx.reshape(-1), dout.reshape(-1, shape[1]).astype(dtype))
    dE[PAD_INDEX] = 0.0
    return dE


def assert_close(new, ref, dtype, name, rtols=RTOL):
    assert new.shape == ref.shape, name
    assert new.dtype == ref.dtype == dtype, name
    rtol = rtols[dtype]
    np.testing.assert_allclose(new, ref, rtol=rtol, atol=rtol * float(np.abs(ref).max()),
                               err_msg=name)


def random_lstm(rng, D, H, dtype):
    def mat(r, c):
        return rng.normal(scale=0.3, size=(r, c)).astype(dtype)

    return dict(W=mat(D, 4 * H), U=mat(H, 4 * H),
                b=rng.normal(scale=0.2, size=4 * H).astype(dtype))


# --------------------------------------------------------------------- lstm


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("B,T,D,H", LSTM_SHAPES)
def test_lstm_backward_matches_per_step_reference(B, T, D, H, dtype):
    rng = np.random.default_rng(B * 1000 + T)
    p = random_lstm(rng, D, H, dtype)
    X = rng.normal(size=(B, T, D)).astype(dtype)
    _, cache = lstm_forward(**p, X=X)
    _, ref_cache = ref_lstm_forward(**p, X=X)
    dH = rng.normal(size=(B, T, H)).astype(dtype)
    grads, dX = lstm_backward(cache, dH)
    ref_grads, ref_dX = ref_lstm_backward(ref_cache, dH)
    assert list(grads) == list(ref_grads) == ["W", "U", "b"]
    for name, ref in ref_grads.items():
        assert_close(grads[name], ref, dtype, name)
    assert_close(dX, ref_dX, dtype, "dX")
    assert dX.flags.c_contiguous


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("B,T,D,H", LSTM_SHAPES)
def test_fused_lstm_forward_matches_per_gate_reference(B, T, D, H, dtype):
    rng = np.random.default_rng(B * 1000 + T + 2)
    p = random_lstm(rng, D, H, dtype)
    X = rng.normal(size=(B, T, D)).astype(dtype)
    out, (_, _, _, G, C, _) = lstm_forward(**p, X=X)
    ref, (_, _, ref_steps) = ref_lstm_forward(**p, X=X)
    assert_close(out, ref, dtype, "out")
    for t in (0, T - 1):  # the cached activations, gate by gate
        f, i, o, u = G[t]  # gate-major: G[t, k] is gate k
        _, _, _, ref_f, ref_i, ref_o, ref_u, ref_tc = ref_steps[t]
        pairs = {"f": (f, ref_f), "i": (i, ref_i), "o": (o, ref_o),
                 "u": (u, ref_u), "tc": (np.tanh(C[t + 1]), ref_tc)}
        for name, (new, old) in pairs.items():
            assert_close(new, old, dtype, f"{name} at step {t}")


@pytest.mark.parametrize("rate", [0.25, 0.3, 0.5])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("B,T,D,H", LSTM_SHAPES)
def test_dropout_and_lstm_are_bit_identical_to_the_hs_and_tc_cache_layout(B, T, D, H, dtype,
                                                                          rate):
    # rates 0.25 and 0.5 draw the mask on the 8-bit path, 0.3 on the 64-bit one
    rng = np.random.default_rng(B * 1000 + T + 5)
    p = random_lstm(rng, D, H, dtype)
    x = rng.normal(size=(B, T, D)).astype(dtype)
    x[rng.random(x.shape) < 0.1] = 0.0
    x[rng.random(x.shape) < 0.1] = -0.0
    dH = rng.normal(size=(B, T, H)).astype(dtype)
    dH[rng.random(dH.shape) < 0.1] = 0.0
    dH[rng.random(dH.shape) < 0.1] = -0.0
    ref_dropped, mask = float_mask_dropout(x, rate, seed=4, step=9)
    ref_out, ref_cache = hs_lstm_forward(**p, X=ref_dropped)
    ref_grads, ref_dX = hs_lstm_backward(ref_cache, dH)
    dropped, mask_cache = dropout_forward(x, rate, seed=4, step=9)
    out, cache = lstm_forward(**p, X=dropped)
    grads, dX = lstm_backward(cache, dH)
    refs = {"dropped": ref_dropped, "out": ref_out, "dX": ref_dX, **ref_grads}
    for name, new in {"dropped": dropped, "out": out, "dX": dX, **grads}.items():
        assert_same_bits(new, refs[name], name)
    dx = dropout_backward(mask_cache, dX)  # written over dX
    assert_same_bits(dx, ref_dX * mask, "dx")
    # dropped entries carry the sign of the upstream value
    assert np.any(np.signbit(dx) & (dx == 0.0)) and np.any(~np.signbit(dx) & (dx == 0.0))
    assert np.any(np.signbit(dropped) & (dropped == 0.0))


def embedded_ids(rng, B, T, D, dtype):
    """An embedding and (B, T) ids into it with repeats and padded tails."""
    V = 3 * T  # fewer ids than positions, so ids repeat
    E = rng.normal(size=(V, D)).astype(dtype)
    E[0] = 0.0
    ids = rng.integers(1, V, size=(B, T))
    ids[::2, T // 2 :] = 0  # padded tails
    return E, ids


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("B,T,D,H", INFER_SHAPES)
def test_lstm_infer_matches_lstm_forward(B, T, D, H, dtype):
    rng = np.random.default_rng(B * 1000 + T + 1)
    p = random_lstm(rng, D, H, dtype)
    E, ids = embedded_ids(rng, B, T, D, dtype)
    ref, _ = lstm_forward(**p, X=E[ids])
    uniq, inv = np.unique(ids, return_inverse=True)
    assert uniq.size < ids.size and uniq[0] == 0
    out = lstm_infer(p["U"], p["b"], E[uniq] @ p["W"], inv.reshape(B, T))
    assert out.dtype == ref.dtype == dtype
    assert out.tobytes() == ref.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("B,T,D,H", INFER_SHAPES + [PREDICT_SHAPE])
def test_lstm_infer_is_bit_identical_to_its_step_loop(B, T, D, H, dtype):
    rng = np.random.default_rng(B * 1000 + T + 4)
    p = random_lstm(rng, D, H, dtype)
    E, ids = embedded_ids(rng, B, T, D, dtype)
    uniq, inv = np.unique(ids, return_inverse=True)
    out = lstm_infer(p["U"], p["b"], E[uniq] @ p["W"], inv.reshape(B, T))
    ref = loop_lstm_infer(**p, rows=E[uniq], inv=inv.reshape(B, T))
    assert out.dtype == ref.dtype == dtype
    assert out.tobytes() == ref.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("B,T,D,H", STEPLIST_SHAPES)
def test_time_major_lstm_is_bit_identical_to_per_step_list(B, T, D, H, dtype):
    rng = np.random.default_rng(B * 1000 + T + 3)
    p = random_lstm(rng, D, H, dtype)
    X = rng.normal(size=(B, T, D)).astype(dtype)
    dH = rng.normal(size=(B, T, H)).astype(dtype)
    out, cache = lstm_forward(**p, X=X)
    ref, ref_cache = steplist_lstm_forward(**p, X=X)
    grads, dX = lstm_backward(cache, dH)
    ref_grads, ref_dX = steplist_lstm_backward(ref_cache, dH)
    assert list(grads) == list(ref_grads) == ["W", "U", "b"]
    pairs = dict(out=(out, ref), dX=(dX, ref_dX),
                 **{name: (grads[name], ref_grads[name]) for name in ref_grads})
    for name, (new, old) in pairs.items():
        assert new.dtype == old.dtype == dtype, name
        assert np.array_equal(new, old), name
        assert new.tobytes() == old.tobytes(), name
    assert out.flags.c_contiguous and dX.flags.c_contiguous


def assert_same_bits(new, old, name):
    assert new.dtype == old.dtype and new.shape == old.shape, name
    assert new.tobytes() == old.tobytes(), name


@settings(max_examples=40, deadline=None)
@given(B=st.integers(1, 5), T=st.integers(1, 2 * BPTT_BLOCK + 3), D=st.integers(1, 6),
       H=st.integers(1, 6), dtype=st.sampled_from([np.float64, np.float32]),
       seed=st.integers(0, 2**32 - 1))
# one-row batches, a one-unit LSTM and one input column; T shorter than the
# backward block, and T a multiple of it and not
@example(B=1, T=3, D=1, H=1, dtype=np.float32, seed=0)
@example(B=1, T=BPTT_BLOCK, D=1, H=1, dtype=np.float64, seed=1)
@example(B=2, T=BPTT_BLOCK + 5, D=3, H=1, dtype=np.float32, seed=2)
@example(B=3, T=2 * BPTT_BLOCK + 1, D=1, H=4, dtype=np.float64, seed=3)
def test_lstm_kernels_equal_their_step_loops_on_drawn_shapes(B, T, D, H, dtype, seed):
    rng = np.random.default_rng(seed)
    p = random_lstm(rng, D, H, dtype)
    X = rng.normal(size=(B, T, D)).astype(dtype)
    dH = rng.normal(size=(B, T, H)).astype(dtype)
    out, cache = lstm_forward(**p, X=X)
    ref, ref_cache = steplist_lstm_forward(**p, X=X)
    assert_same_bits(out, ref, "out")
    ref_grads, ref_dX = steplist_lstm_backward(ref_cache, dH)
    grads, dX = lstm_backward(cache, dH)  # G becomes dA
    assert list(grads) == list(ref_grads)
    for name, g in grads.items():
        assert_same_bits(g, ref_grads[name], name)
    assert_same_bits(dX, ref_dX, "dX")
    E, ids = embedded_ids(rng, B, T, D, dtype)
    uniq, inv = np.unique(ids, return_inverse=True)
    assert_same_bits(lstm_infer(p["U"], p["b"], E[uniq] @ p["W"], inv.reshape(B, T)),
                     loop_lstm_infer(**p, rows=E[uniq], inv=inv.reshape(B, T)), "lstm_infer")


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_lstm_backward_returns_exactly_the_param_keys(dtype):
    rng = np.random.default_rng(5)
    p = random_lstm(rng, 7, 3, dtype)
    _, cache = lstm_forward(**p, X=rng.normal(size=(2, 4, 7)).astype(dtype))
    grads, _ = lstm_backward(cache, rng.normal(size=(2, 4, 3)).astype(dtype))
    assert list(grads) == list(p)
    for name, arr in p.items():
        assert grads[name].shape == arr.shape, name
        assert grads[name].dtype == arr.dtype, name


# --------------------------------------------------------------------- conv


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("B,T,d_in,k,F", CONV_SHAPES)
def test_conv_backward_matches_einsum_reference(B, T, d_in, k, F, dtype):
    rng = np.random.default_rng(B * 1000 + d_in)
    p = dict(kernels=rng.normal(scale=0.3, size=(k, d_in, F)).astype(dtype),
             bias=rng.normal(scale=0.1, size=F).astype(dtype))
    X = rng.normal(size=(B, T, d_in)).astype(dtype)
    out, cache = conv1d_relu_forward(**p, X=X)
    assert 0 < np.count_nonzero(out) < out.size  # both ReLU branches are exercised
    dout = rng.normal(size=out.shape).astype(dtype)
    grads, dX = conv1d_relu_backward(cache, dout)
    ref_grads, ref_dX = ref_conv1d_relu_backward(cache, dout)
    assert set(grads) == set(ref_grads)
    for name, ref in ref_grads.items():
        assert_close(grads[name], ref, dtype, name)
    assert_close(dX, ref_dX, dtype, "dX")


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("B,T,D,H", LSTM_SHAPES + [(32, 128, 64, 8)])
def test_lstm_backward_with_a_helper_thread_is_bit_identical(B, T, D, H, dtype):
    rng = np.random.default_rng(B * 100 + D)
    p = random_lstm(rng, D, H, dtype)
    X = rng.normal(size=(B, T, D)).astype(dtype)
    dH = rng.normal(size=(B, T, H)).astype(dtype)
    grads, dX = lstm_backward(lstm_forward(**p, X=X)[1], dH)
    with ThreadPoolExecutor(1) as pool:  # a cache serves one call, so a fresh one
        pooled, pooled_dX = lstm_backward(lstm_forward(**p, X=X)[1], dH, pool)
    assert list(pooled) == list(grads)
    for name, g in grads.items():
        assert pooled[name].tobytes() == g.tobytes(), name
    assert pooled_dX.flags.c_contiguous and pooled_dX.tobytes() == dX.tobytes()


@pytest.mark.parametrize("dH_dtype", [None, np.float64], ids=["same_dtype", "float64_dH"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("B,T,D,H", LSTM_SHAPES + [(1, 12, 300, 100)])
def test_lstm_backward_on_an_owned_cache_is_bit_identical(B, T, D, H, dtype, dH_dtype):
    # the cache's G becomes dA in place; a float64 dH on a float32 cache
    # gets a dA of its own
    rng = np.random.default_rng(B * 10 + H)
    p = random_lstm(rng, D, H, dtype)
    X = rng.normal(size=(B, T, D)).astype(dtype)
    dH = rng.normal(size=(B, T, H)).astype(dH_dtype or dtype)
    grads, dX = steplist_lstm_backward(steplist_lstm_forward(**p, X=X)[1], dH)
    for pool in (None, ThreadPoolExecutor(1)):
        cache = lstm_forward(**p, X=X)[1]
        got, got_dX = lstm_backward(cache, dH, pool)
        if pool is not None:
            pool.shutdown()
        assert cache == []
        for name, g in grads.items():
            assert got[name].dtype == g.dtype and got[name].tobytes() == g.tobytes(), name
        assert got_dX.flags.c_contiguous and got_dX.tobytes() == dX.tobytes()


def test_lstm_backward_consumes_its_cache():
    rng = np.random.default_rng(6)
    p = random_lstm(rng, 5, 3, np.float64)
    _, cache = lstm_forward(**p, X=rng.normal(size=(2, 4, 5)))
    dH = rng.normal(size=(2, 4, 3))
    lstm_backward(cache, dH)
    assert cache == []
    with pytest.raises(ValueError):
        lstm_backward(cache, dH)


# --------------------------------------------------------------------- adam


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_in_place_is_bit_identical_to_out_of_place(dtype):
    rng = np.random.default_rng(3)
    # the embedding spans several update blocks, the last one partial
    shapes = {"embedding": (5003, 30), "conv.kernels": (8, 16, 3), "lstm.W": (30, 20),
              "lstm.b": (20,)}
    params = [(n, rng.normal(size=s).astype(dtype)) for n, s in shapes.items()]
    ref_params = [(n, a.copy()) for n, a in params]
    opt = Adam(params)
    ref_m = {n: np.zeros_like(a) for n, a in params}
    ref_v = {n: np.zeros_like(a) for n, a in params}
    ref_t = 0
    for step in range(4):
        grads = {n: rng.normal(size=a.shape).astype(dtype) for n, a in params}
        # like the embedding gradient: most rows untouched by the batch
        grads["embedding"][rng.random(shapes["embedding"][0]) < 0.9] = 0.0
        opt.step(params, grads)
        ref_t = ref_adam_step(ref_params, grads, ref_m, ref_v, ref_t)
        assert opt.t == ref_t
        for (name, theta), (_, ref_theta) in zip(params, ref_params):
            assert theta.dtype == dtype
            assert np.array_equal(theta, ref_theta), f"step {step}: {name}"
            assert np.array_equal(opt.m[name], ref_m[name]), f"step {step}: m[{name}]"
            assert np.array_equal(opt.v[name], ref_v[name]), f"step {step}: v[{name}]"


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_row_gradient_is_bit_identical_to_dense(dtype):
    check_row_adam_against_dense(dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_row_update_started_on_a_helper_is_bit_identical_to_dense(dtype):
    with ThreadPoolExecutor(1) as pool:
        check_row_adam_against_dense(dtype, pool)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_row_updates_started_and_inline_in_turn_are_bit_identical_to_dense(dtype):
    # both paths run through the parameter's one pair of scratch arrays
    with ThreadPoolExecutor(1) as pool:
        check_row_adam_against_dense(dtype, pool, alternate=True)


def check_row_adam_against_dense(dtype, pool=None, alternate=False):
    """Row-gradient Adam against the dense reference.  With `pool`, every
    step's embedding update is begun by `Adam.start_rows` on it; with
    `alternate` too, only every other step's is, and the steps in between
    run their g = 0 pass inline."""
    rng = np.random.default_rng(4)
    V, D = 5003, 30  # two update blocks, of 4369 rows and a partial 634
    assert V > ADAM_BLOCK // D and V % (ADAM_BLOCK // D)
    shapes = {"embedding": (V, D), "dense.W": (30, 4), "dense.b": (4,)}
    params = [(n, rng.normal(size=s).astype(dtype)) for n, s in shapes.items()]
    ref_params = [(n, a.copy()) for n, a in params]
    opt = Adam(params)
    ref_m = {n: np.zeros_like(a) for n, a in params}
    ref_v = {n: np.zeros_like(a) for n, a in params}
    ref_t = 0
    tiny = np.finfo(dtype).smallest_subnormal
    touched = [rng.choice(V, size=k, replace=False) for k in (700, 40, 0, 1, 300, 0)]
    for step, rows in enumerate(touched):
        rows = np.sort(rows)
        values = rng.normal(size=(rows.size, D)).astype(dtype)
        values[:, :3] = -7 * tiny  # drives m to tiny negatives
        values[:, 3] = -0.0  # dropout sends -0.0 upstream
        grads = {n: rng.normal(size=a.shape).astype(dtype) for n, a in params[1:]}
        grads["embedding"] = RowGrad(rows, values, (V, D))
        ref_grads = dict(grads, embedding=dense(grads["embedding"]))
        if pool is not None and not (alternate and step % 2):
            opt.start_rows("embedding", params[0][1], rows.copy(), pool)
        opt.step(params, grads)
        ref_t = ref_adam_step(ref_params, ref_grads, ref_m, ref_v, ref_t)
        assert opt.t == ref_t
        for (name, theta), (_, ref_theta) in zip(params, ref_params):
            assert theta.dtype == dtype
            assert np.array_equal(theta, ref_theta), f"step {step}: {name}"
            assert theta.tobytes() == ref_theta.tobytes(), f"step {step}: {name} bytes"
            for moment, ref_moment in ((opt.m, ref_m), (opt.v, ref_v)):
                assert np.array_equal(moment[name], ref_moment[name]), f"step {step}: {name}"
                assert moment[name].tobytes() == ref_moment[name].tobytes(), f"step {step}"


@pytest.mark.parametrize("grad", [RowGrad(np.array([1, 3]), np.ones((2, 2)), (4, 2)),
                                  np.ones((4, 2))], ids=["other_rows", "dense"])
def test_adam_rejects_a_gradient_other_than_the_started_rows(grad):
    params = [("embedding", np.zeros((4, 2)))]
    opt = Adam(params)
    with ThreadPoolExecutor(1) as pool:
        opt.start_rows("embedding", params[0][1], np.array([1, 2]), pool)
        with pytest.raises(ValueError, match="does not list the rows its update was started"):
            opt.step(params, {"embedding": grad})


def test_adam_row_gradient_with_nonfinite_values_raises():
    params = [("embedding", np.zeros((4, 2)))]
    opt = Adam(params)
    opt.step(params, {"embedding": RowGrad(np.array([1, 3]), np.ones((2, 2)), (4, 2))})
    bad = RowGrad(np.array([2]), np.array([[np.inf, 0.0]]), (4, 2))
    with pytest.raises(NumericsError, match="non-finite gradient for parameter 'embedding'$"):
        opt.step(params, {"embedding": bad})


# ---------------------------------------------------------------- embedding

# (name, ids): PAD positions, rows seen once, rows seen more often than the
# ranked threshold (8), and a batch of PAD only, which touches no row; id 7
# gets only -0.0 terms, and in "heavy" it is seen 14 times
EMBED_BATCHES = {
    "mixed": np.array([[0, 0, 5, 3, 5, 7, 1, 5], [2, 5, 5, 0, 3, 5, 5, 6],
                       [5, 5, 4, 5, 5, 0, 0, 9]]),
    "once_each": np.array([[1, 2, 3, 4], [5, 6, 7, 8]]),
    "heavy": np.concatenate([np.full((3, 40), 4), np.full((3, 4), 7),
                             np.arange(27).reshape(3, 9) % 10], axis=1),
    "all_pad": np.zeros((2, 6), dtype=np.int64),
}


@pytest.mark.parametrize("D", [1, 2, 7])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batch", list(EMBED_BATCHES))
def test_row_gradient_is_bit_identical_to_dense_scatter(batch, dtype, D):
    rng = np.random.default_rng(len(batch) * 10 + D)
    ids = EMBED_BATCHES[batch]
    V = 12
    E = rng.normal(size=(V, D)).astype(dtype)
    E[PAD_INDEX] = 0.0
    out, cache = embedding_forward(E, ids)
    dout = (rng.normal(size=out.shape) * 10.0 ** rng.integers(-2, 3, size=out.shape)).astype(dtype)
    dout[rng.random(out.shape) < 0.3] = -0.0  # dropped by dropout
    dout[ids == 7] = -0.0  # a row whose every term is -0.0 sums to +0.0
    grad = embedding_backward(cache, dout)
    ref = ref_embedding_backward(cache, dout)
    want_rows = np.unique(ids[ids != PAD_INDEX])
    assert isinstance(grad, RowGrad)
    assert np.array_equal(grad.rows, want_rows)
    assert grad.values.shape == (want_rows.size, D) and grad.values.dtype == dtype
    assert grad.shape == E.shape
    full = dense(grad)
    assert full.dtype == ref.dtype == dtype
    assert np.array_equal(full, ref)
    assert np.array_equal(np.signbit(full), np.signbit(ref))
    assert full.tobytes() == ref.tobytes()


# counts at, below and just past the powers of two up to 64, since
# embedding_backward sums the rows of each ceil(log2(count)) bucket together
EMBED_COUNTS = [1, 2, 3, 4, 5, 8, 9, 16, 17, 32, 33, 64, 65]


@settings(max_examples=60, deadline=None)
@given(counts=st.lists(st.sampled_from(EMBED_COUNTS), min_size=1, max_size=4),
       fill=st.sampled_from(["pad", "ids"]), zero_last=st.booleans(), B=st.integers(1, 8),
       T=st.integers(1, 40), V=st.integers(2, 40), D=st.sampled_from([1, 2, 7]),
       dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**32 - 1))
# one distinct non-PAD id, alone in its bucket, with D == 1: its terms are
# the only axis of its bucket's reduce
@example(counts=[65], fill="pad", zero_last=False, B=2, T=40, V=2, D=1, dtype=np.float64,
         seed=0)
@example(counts=[9], fill="pad", zero_last=True, B=1, T=9, V=2, D=2, dtype=np.float32, seed=1)
@example(counts=[64, 33, 2, 1], fill="ids", zero_last=False, B=8, T=40, V=9, D=7,
         dtype=np.float32, seed=2)
def test_row_gradient_is_bit_identical_to_dense_scatter_on_drawn_batches(
        counts, fill, zero_last, B, T, V, D, dtype, seed):
    rng = np.random.default_rng(seed)
    B = max(B, -(-sum(counts) // T))  # room for every counted id
    ids = rng.integers(0, V, size=B * T) if fill == "ids" else np.zeros(B * T, dtype=np.int64)
    # ids V, V + 1, ... are seen exactly `counts` times, at random positions
    for k, at in enumerate(np.split(rng.permutation(B * T), np.cumsum(counts))[:-1]):
        ids[at] = V + k
    ids = np.insert(ids.reshape(B, T), rng.integers(0, B + 1), PAD_INDEX, axis=0)  # a PAD row
    E = rng.normal(size=(V + len(counts), D)).astype(dtype)
    E[PAD_INDEX] = 0.0
    out, cache = embedding_forward(E, ids)
    dout = (rng.normal(size=out.shape) * 10.0 ** rng.integers(-3, 4, size=out.shape)).astype(dtype)
    dout[rng.random(out.shape) < 0.2] = -0.0
    if zero_last:  # an id whose every term is -0.0 sums to +0.0
        dout[ids == V + len(counts) - 1] = -0.0
    grad = embedding_backward(cache, dout)
    ref = ref_embedding_backward(cache, dout)
    assert np.array_equal(grad.rows, np.unique(ids[ids != PAD_INDEX]))
    assert grad.values.dtype == dtype
    assert dense(grad).tobytes() == ref.tobytes()


@pytest.mark.parametrize("variant", VARIANTS)
def test_fit_with_dense_embedding_oracle_writes_the_same_parameters(monkeypatch, variant):
    rng = np.random.default_rng(8)
    V, T = 40, 12
    X = rng.integers(0, V, size=(40, T))
    X[::3, : T // 2] = PAD_INDEX  # padded heads
    X[1::4, 2::3] = 3  # one id seen many times per batch
    y = rng.integers(0, 4, size=40)
    E = rng.uniform(-0.05, 0.05, size=(V, 8))
    E[PAD_INDEX] = 0.0
    cfg = TrainConfig(ModelConfig(max_len=T, embed_dim=8, lstm_units=5, kernel=3,
                                  seed=2, variant=variant), epochs=2, batch_size=16)
    model, history = fit(cfg, X, y, EmbeddingMatrix(E))
    monkeypatch.setattr(risknet.model, "embedding_backward", ref_embedding_backward)
    ref_model, ref_history = fit(cfg, X, y, EmbeddingMatrix(E))
    assert history.loss == ref_history.loss
    assert list(model.params) == list(ref_model.params)
    for name, arr in model.params.items():
        assert arr.tobytes() == ref_model.params[name].tobytes(), name
