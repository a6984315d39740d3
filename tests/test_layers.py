"""Per-layer forward oracles and finite-difference gradient checks."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import dense, dlogits_through_softmax, fd_check, projection_loss, sigmoid
from risknet.layers import (
    CONV_BLOCK,
    DROPOUT_WORDS,
    LAYER_EMBED_DROPOUT,
    NumericsError,
    attention_backward,
    attention_forward,
    check_finite,
    check_finite_grad,
    conv1d_relu_backward,
    conv1d_relu_forward,
    conv_padding,
    dense_softmax_backward,
    dense_softmax_forward,
    dropout_backward,
    dropout_forward,
    dropout_mask,
    embedding_backward,
    embedding_forward,
    flatten_backward,
    flatten_forward,
    lstm_backward,
    lstm_forward,
    maxpool1d_backward,
    maxpool1d_forward,
    softmax,
)
from risknet.rng import STREAM_DROPOUT, bulk_generator
from risknet.train import cce_grad_logits

RNG = lambda s: np.random.default_rng(s)  # noqa: E731

# Frozen scalar oracle, 50-digit evaluation of the gate recurrence with all
# weights/biases = 1, x = 1, zero state:
#   f = i = o = sigma(2), u = tanh(2), c1 = sigma(2)*tanh(2),
#   h1 = sigma(2)*tanh(c1)
LSTM_SCALAR_H1 = 0.60828341818351589442126070783200565145921933263535


def lstm_params(D, H, rng, dtype=np.float64):
    def mat(r, c):
        return rng.normal(scale=0.4, size=(r, c)).astype(dtype)

    # a W, U and b draw per gate, in the gate order f, i, o, u
    gates = [(mat(D, H), mat(H, H), rng.normal(scale=0.2, size=H).astype(dtype))
             for _ in range(4)]
    return {name: np.concatenate(arrs, axis=-1) for name, arrs in zip("WUb", zip(*gates))}


# ---------------------------------------------------------------- embedding


def test_embedding_gather_shapes_and_pad():
    E = RNG(0).normal(size=(7, 3))
    E[0] = 0.0
    idx = np.array([[0, 2, 3, 4, 5], [6, 6, 1, 0, 2]])
    out, _ = embedding_forward(E, idx)
    assert out.shape == (2, 5, 3)
    assert np.all(out[0, 0] == 0.0) and np.all(out[1, 3] == 0.0)
    assert np.array_equal(out[0, 1], E[2])


def test_embedding_rejects_out_of_range():
    E = np.zeros((4, 2))
    with pytest.raises(IndexError, match="out of range"):
        embedding_forward(E, np.array([[1, 4]]))
    with pytest.raises(IndexError):
        embedding_forward(E, np.array([[-1, 2]]))


def test_embedding_backward_scatter_adds_repeats():
    E = RNG(1).normal(size=(5, 2))
    idx = np.array([[2, 2, 3]])
    out, cache = embedding_forward(E, idx)
    dout = np.ones_like(out)
    dE = dense(embedding_backward(cache, dout))
    assert np.array_equal(dE[2], [2.0, 2.0])  # gathered twice
    assert np.array_equal(dE[3], [1.0, 1.0])
    assert np.all(dE[[0, 1, 4]] == 0.0)


def test_embedding_backward_pad_row_zeroed():
    E = RNG(2).normal(size=(5, 2))
    E[0] = 0.0
    idx = np.array([[0, 0, 2]])
    out, cache = embedding_forward(E, idx)
    dE = dense(embedding_backward(cache, np.ones_like(out)))
    assert np.all(dE[0] == 0.0)


def test_embedding_gradient_finite_difference():
    rng = RNG(3)
    E = rng.normal(size=(6, 4))
    idx = rng.integers(1, 6, size=(3, 5))  # PAD excluded: its grad is zeroed by design
    out, cache = embedding_forward(E, idx)
    R, loss_of = projection_loss(rng, out.shape)
    dE = dense(embedding_backward(cache, R))
    fd_check(lambda: loss_of(embedding_forward(E, idx)[0]), E, dE, rng, samples=12, name="E")


# ------------------------------------------------------------------ dropout


def test_dropout_rate_zero_is_identity():
    x = RNG(0).normal(size=(3, 4))
    out, cache = dropout_forward(x, 0.0, seed=1, step=0)
    assert out is x and cache is None


def float_mask(shape, rate, seed, step, dtype):
    """`dropout_mask`'s (keep, scale) pair as the float array of 0 and the
    scale that it stands for."""
    keep, scale = dropout_mask(shape, rate, seed, step, dtype)
    assert keep.dtype == bool and keep.shape == tuple(shape)
    assert type(scale) is dtype and scale == dtype(1) / dtype(1 - rate)
    return np.multiply(keep, scale, dtype=dtype)


def test_dropout_mask_deterministic_in_seed_and_step():
    a, _ = dropout_mask((4, 6), 0.5, seed=9, step=3, dtype=np.float64)
    b, _ = dropout_mask((4, 6), 0.5, seed=9, step=3, dtype=np.float64)
    assert np.array_equal(a, b)
    for seed, step in ((8, 3), (9, 4)):
        other, _ = dropout_mask((4, 6), 0.5, seed=seed, step=step, dtype=np.float64)
        assert not np.array_equal(a, other)


def mask_oracle(shape, rate, seed, step, dtype):
    """`dropout_mask` in pure Python: the stream's raw 64-bit words, as
    little-endian bytes, cut into little-endian integers of 1 byte (``rate *
    256`` whole) or 8, each kept iff at least ``ceil(rate * 2**bits)``."""
    n = math.prod(shape)
    width = 1 if Fraction(rate) * 256 == int(rate * 256) else 8
    rng = bulk_generator(seed, STREAM_DROPOUT, step, LAYER_EMBED_DROPOUT)
    words = rng.bit_generator.random_raw(-(-n * width // 8))
    data = b"".join(int(w).to_bytes(8, "little") for w in words)
    threshold = math.ceil(Fraction(rate) * 2 ** (8 * width))
    scale = dtype(1) / dtype(1 - rate)
    keep = [int.from_bytes(data[k * width : (k + 1) * width], "little") >= threshold
            for k in range(n)]
    return np.array([scale if kept else 0 for kept in keep], dtype=dtype).reshape(shape)


def test_dropout_mask_draws_from_the_embedding_dropout_stream():
    # the mask's bits are the (seed, step, LAYER_EMBED_DROPOUT) stream's raw words
    mask = float_mask((4, 6), 0.5, seed=9, step=3, dtype=np.float64)
    assert mask.tobytes() == mask_oracle((4, 6), 0.5, 9, 3, np.float64).tobytes()
    assert set(np.unique(mask)) == {0.0, 2.0}


@settings(max_examples=60, deadline=None)
@given(shape=st.lists(st.integers(1, 12), min_size=1, max_size=3).map(tuple),
       rate=st.sampled_from([0.0, 0.5, 0.25, 0.3, 0.999]) | st.floats(0.0, 1.0, exclude_max=True),
       dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**64 - 1),
       step=st.integers(0, 10**6))
@example(shape=(1,), rate=0.5, dtype=np.float32, seed=0, step=0)
@example(shape=(1,), rate=0.3, dtype=np.float64, seed=1, step=2)
@example(shape=(3, 5), rate=0.25, dtype=np.float32, seed=2, step=1)
@example(shape=(13,), rate=0.999, dtype=np.float64, seed=3, step=7)
@example(shape=(2, 7), rate=0.0, dtype=np.float32, seed=4, step=0)
def test_dropout_mask_matches_the_raw_word_oracle(shape, rate, dtype, seed, step):
    mask = float_mask(shape, rate, seed, step, dtype)
    assert mask.shape == shape and mask.dtype == dtype
    assert mask.tobytes() == mask_oracle(shape, rate, seed, step, dtype).tobytes()


def one_read_mask(shape, rate, seed, step, dtype):
    """`dropout_mask` from a single read of all its raw words."""
    n = math.prod(shape)
    bits = 8 if float(rate * 256).is_integer() else 64
    rng = bulk_generator(seed, STREAM_DROPOUT, step, LAYER_EMBED_DROPOUT)
    words = rng.bit_generator.random_raw(-(-n * bits // 64))
    ints = words.astype("<u8", copy=False).view(f"<u{bits // 8}")[:n]
    keep = ints >= math.ceil(rate * 2**bits)
    return np.multiply(keep, dtype(1) / dtype(1 - rate), dtype=dtype).reshape(shape)


@pytest.mark.parametrize("rate", [0.1, 0.25, 0.3, 0.5])
@pytest.mark.parametrize("past_block", [-1, 0, 1, DROPOUT_WORDS + 3])
def test_dropout_mask_read_in_blocks_matches_one_read(rate, past_block):
    # element counts below, at and across the first block boundary, and into
    # a third block; a block holds 8 elements per word on the 8-bit path
    per_word = 8 if float(rate * 256).is_integer() else 1
    n = DROPOUT_WORDS * per_word + past_block
    mask = float_mask((n,), rate, seed=7, step=2, dtype=np.float32)
    assert mask.tobytes() == one_read_mask((n,), rate, 7, 2, np.float32).tobytes()


def test_dropout_mask_holds_one_block_of_words_on_the_64_bit_path():
    # at the paper shape a word per element would be 9.8 MB
    shape = (32, 128, 300)
    n = math.prod(shape)
    tracemalloc.start()
    try:
        dropout_mask(shape, 0.3, seed=1, step=0, dtype=np.float32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the boolean keep array and one block of words
    assert peak <= 1.1 * (n + 8 * DROPOUT_WORDS)


def test_dropout_mask_values_are_zero_or_scaled():
    mask = float_mask((50, 50), 0.25, seed=1, step=0, dtype=np.float64)
    assert set(np.unique(mask)) <= {0.0, 1.0 / 0.75}


@pytest.mark.parametrize("rate", [0.25, 0.3, 0.5, 0.75, 0.999])
def test_dropout_mask_keeps_one_minus_rate(rate):
    # the share kept of 400k elements, within 5 binomial standard deviations
    n = 400_000
    keep, _ = dropout_mask((n,), rate, seed=2, step=5, dtype=np.float32)
    kept = np.count_nonzero(keep)
    assert abs(kept / n - (1 - rate)) < 5 * math.sqrt(rate * (1 - rate) / n)


def test_dropout_monte_carlo_mean_preserved():
    # masks are deterministic in (seed, step), so this never flakes
    x = np.full((4, 4), 2.0)
    total = np.zeros_like(x)
    n = 100_000
    for step in range(n):
        out, _ = dropout_forward(x, 0.5, seed=0, step=step)
        total += out
    assert np.abs(total / n - x).max() / 2.0 < 0.01  # within 1% of the input


def test_dropout_backward_applies_same_mask():
    x = RNG(5).normal(size=(4, 4))
    out, cache = dropout_forward(x, 0.5, seed=2, step=1)
    mask = float_mask((4, 4), 0.5, seed=2, step=1, dtype=np.float64)
    assert np.array_equal(out, x * mask)
    dout = RNG(6).normal(size=(4, 4))
    want = dout * mask
    dx = dropout_backward(cache, dout)
    assert dx is dout  # written over the upstream gradient, which the layer owns
    assert np.array_equal(dx, want)
    assert dropout_backward(None, dout) is dout


# --------------------------------------------------------------------- lstm


def test_lstm_zero_params_fixed_point():
    D, H = 3, 4
    zeros = dict(W=np.zeros((D, 4 * H)), U=np.zeros((H, 4 * H)), b=np.zeros(4 * H))
    X = RNG(0).normal(size=(2, 5, D))
    out, _ = lstm_forward(**zeros, X=X)
    assert np.all(out == 0.0)


def test_lstm_scalar_all_ones_oracle():
    ones = dict(W=np.ones((1, 4)), U=np.ones((1, 4)), b=np.ones(4))
    X = np.ones((1, 1, 1))
    out, _ = lstm_forward(**ones, X=X)
    assert out[0, 0, 0] == pytest.approx(LSTM_SCALAR_H1, abs=1e-12)


def test_lstm_output_shape():
    p = lstm_params(5, 4, RNG(1))
    out, _ = lstm_forward(**p, X=RNG(2).normal(size=(2, 7, 5)))
    assert out.shape == (2, 7, 4)


def test_lstm_gate_ranges():
    p = lstm_params(4, 6, RNG(3))
    X = RNG(4).normal(size=(3, 8, 4)) * 3.0
    out, (_, _, _, G, _, h) = lstm_forward(**p, X=X)
    fio, u = G[:, :3], G[:, 3]  # every step's gates at once, gate-major
    assert np.all(fio > 0.0) and np.all(fio < 1.0)
    assert np.all(u > -1.0) and np.all(u < 1.0)
    assert h is out  # the cache's hidden states are the output itself
    assert np.all(out > -1.0) and np.all(out < 1.0)


def test_lstm_cache_holds_no_view_of_its_input():
    # the layer below (dropout in the model) can free its output once the
    # LSTM forward pass returns
    p = lstm_params(3, 4, RNG(9))
    X = RNG(10).normal(size=(2, 5, 3))
    _, (_, _, *arrays) = lstm_forward(**p, X=X)
    assert len(arrays) == 4
    assert not any(np.shares_memory(a, X) for a in arrays)


def test_lstm_deterministic_bitwise():
    p = lstm_params(3, 3, RNG(5))
    X = RNG(6).normal(size=(2, 4, 3))
    a, _ = lstm_forward(**p, X=X)
    b, _ = lstm_forward(**p, X=X)
    assert np.array_equal(a, b)


def test_lstm_input_dim_mismatch():
    p = lstm_params(3, 3, RNG(7))
    with pytest.raises(ValueError, match="dim mismatch"):
        lstm_forward(**p, X=np.zeros((1, 2, 5)))


def test_lstm_gradients_finite_difference():
    rng = RNG(8)
    H = 4
    p = lstm_params(3, H, rng)
    X = rng.normal(size=(2, 5, 3))
    out, cache = lstm_forward(**p, X=X)
    R, loss_of = projection_loss(rng, out.shape)
    grads, dX = lstm_backward(cache, R)

    def loss():
        return loss_of(lstm_forward(**p, X=X)[0])

    # six samples in each gate block of W, U and b, so every gate is checked
    for k, gate in enumerate("fiou"):
        cols = np.s_[..., k * H : (k + 1) * H]
        for name, arr in p.items():
            fd_check(loss, arr[cols], grads[name][cols], rng, samples=6,
                     name=f"{name}[{gate}]")
    fd_check(loss, X, dX, rng, samples=10, name="X")


# ---------------------------------------------------------------- attention


def test_attention_zero_params_uniform():
    # alpha = 1/5 at every step, so T * alpha * P = 5 * (1/5) * P: uniform
    # attention is the identity
    P = RNG(0).normal(size=(2, 5, 3))
    p = dict(w=np.zeros((3, 1)), b=np.zeros((5, 1)))
    out, (_, _, _, alpha) = attention_forward(**p, P=P)
    assert np.allclose(alpha, 1.0 / 5.0)
    assert np.allclose(out, P)


def test_attention_single_step_identity():
    P = RNG(1).normal(size=(3, 1, 4))
    p = dict(w=RNG(2).normal(size=(4, 1)), b=np.zeros((1, 1)))
    out, _ = attention_forward(**p, P=P)
    assert np.allclose(out, P)


def test_attention_uniform_backward_passes_dout_through():
    # zero params: alpha = 1/T, so dP = dout * (T * alpha) = dout, and the
    # softmax and tanh terms add ds * w^T = 0
    rng = RNG(6)
    P, dout = rng.normal(size=(2, 5, 3)), rng.normal(size=(2, 5, 3))
    p = dict(w=np.zeros((3, 1)), b=np.zeros((5, 1)))
    _, cache = attention_forward(**p, P=P)
    _, dP = attention_backward(cache, dout)
    assert np.allclose(dP, dout, rtol=1e-14, atol=0.0)


def test_attention_hand_oracle():
    P = np.array([[[1.0], [3.0]]])
    p = dict(w=np.array([[1.0]]), b=np.zeros((2, 1)))
    out, (_, _, e, alpha) = attention_forward(**p, P=P)
    assert e[0, :, 0] == pytest.approx([math.tanh(1.0), math.tanh(3.0)], abs=1e-12)
    assert alpha[0, :, 0] == pytest.approx([0.4418985074116459, 0.5581014925883541], abs=1e-12)
    # T * alpha * P with T = 2 and P = (1, 3)
    assert out[0, :, 0] == pytest.approx([0.8837970148232918, 3.3486089555301244], abs=1e-12)


def test_attention_weights_sum_to_one():
    rng = RNG(3)
    p = dict(w=rng.normal(size=(6, 1)), b=rng.normal(size=(9, 1)))
    _, (_, _, _, alpha) = attention_forward(**p, P=rng.normal(size=(4, 9, 6)) * 5)
    assert np.allclose(alpha.sum(axis=1), 1.0, atol=1e-6)
    assert np.all(alpha > 0.0)


def test_attention_shape_validation():
    p = dict(w=np.zeros((3, 1)), b=np.zeros((5, 1)))
    with pytest.raises(ValueError, match="length mismatch"):
        attention_forward(**p, P=np.zeros((1, 4, 3)))
    with pytest.raises(ValueError, match="dim mismatch"):
        attention_forward(**p, P=np.zeros((1, 5, 2)))


def test_attention_gradients_finite_difference():
    rng = RNG(4)
    P = rng.normal(size=(2, 6, 4))
    p = dict(w=rng.normal(scale=0.5, size=(4, 1)), b=rng.normal(scale=0.5, size=(6, 1)))
    out, cache = attention_forward(**p, P=P)
    R, loss_of = projection_loss(rng, out.shape)
    grads, dP = attention_backward(cache, R)

    def loss():
        return loss_of(attention_forward(**p, P=P)[0])

    fd_check(loss, p["w"], grads["w"], rng, samples=4, name="w")
    fd_check(loss, p["b"], grads["b"], rng, samples=6, name="b")
    fd_check(loss, P, dP, rng, samples=12, name="P")


# --------------------------------------------------------------- conv + relu


def test_conv_padding_split():
    assert conv_padding(1) == (0, 0)
    assert conv_padding(3) == (1, 1)
    assert conv_padding(8) == (3, 4)


def test_conv_zero_params_zero_output():
    p = dict(kernels=np.zeros((3, 2, 4)), bias=np.zeros(4))
    out, _ = conv1d_relu_forward(**p, X=RNG(0).normal(size=(2, 6, 2)))
    assert np.all(out == 0.0)


def test_conv_hand_oracle_1234():
    X = np.array([[[1.0], [2.0], [3.0], [4.0]]])
    p = dict(kernels=np.ones((3, 1, 1)), bias=np.zeros(1))
    out, _ = conv1d_relu_forward(**p, X=X)
    assert out[0, :, 0].tolist() == [3.0, 6.0, 9.0, 7.0]


def test_conv_relu_clips_negative():
    X = np.array([[[-1.0], [-2.0]]])
    p = dict(kernels=np.ones((1, 1, 1)), bias=np.zeros(1))
    out, _ = conv1d_relu_forward(**p, X=X)
    assert np.all(out == 0.0)


@pytest.mark.parametrize("k", range(1, 10))
def test_conv_same_length_for_all_kernels(k):
    rng = RNG(k)
    p = dict(kernels=rng.normal(size=(k, 3, 2)), bias=rng.normal(size=2))
    out, _ = conv1d_relu_forward(**p, X=rng.normal(size=(2, 11, 3)))
    assert out.shape == (2, 11, 2)


def test_conv_reference_config_shapes():
    rng = RNG(10)
    p = dict(kernels=rng.normal(size=(8, 100, 3)) * 0.1, bias=np.zeros(3))
    out, _ = conv1d_relu_forward(**p, X=rng.normal(size=(2, 10, 100)))
    assert out.shape == (2, 10, 3)


def test_conv_channel_mismatch():
    p = dict(kernels=np.zeros((3, 4, 2)), bias=np.zeros(2))
    with pytest.raises(ValueError, match="channel mismatch"):
        conv1d_relu_forward(**p, X=np.zeros((1, 5, 3)))


def test_conv_gradients_finite_difference():
    rng = RNG(11)
    p = dict(kernels=rng.normal(size=(3, 3, 2)), bias=rng.normal(size=2))
    X = rng.normal(size=(2, 7, 3))
    out, cache = conv1d_relu_forward(**p, X=X)
    R, loss_of = projection_loss(rng, out.shape)
    grads, dX = conv1d_relu_backward(cache, R)

    def loss():
        return loss_of(conv1d_relu_forward(**p, X=X)[0])

    fd_check(loss, p["kernels"], grads["kernels"], rng, samples=10, name="kernels")
    fd_check(loss, p["bias"], grads["bias"], rng, samples=2, name="bias")
    fd_check(loss, X, dX, rng, samples=12, name="X")


# ------------------------------------------------------------------ maxpool


def test_maxpool_window_max():
    X = np.array([[[1.0], [3.0], [2.0], [5.0]]])
    out, _ = maxpool1d_forward(X, 2)
    assert out[0, :, 0].tolist() == [3.0, 5.0]


def test_maxpool_drops_remainder():
    X = np.array([[[1.0], [3.0], [2.0]]])
    out, _ = maxpool1d_forward(X, 2)
    assert out.shape == (1, 1, 1) and out[0, 0, 0] == 3.0


def test_maxpool_tie_routes_to_first():
    X = np.array([[[2.0], [2.0]]])
    out, cache = maxpool1d_forward(X, 2)
    dX = maxpool1d_backward(cache, np.ones_like(out))
    assert dX[0, :, 0].tolist() == [1.0, 0.0]


def test_maxpool_too_short():
    with pytest.raises(ValueError, match="sequence too short to pool"):
        maxpool1d_forward(np.zeros((1, 1, 2)), 2)


def test_maxpool_remainder_gets_no_gradient():
    X = RNG(0).normal(size=(2, 5, 3))
    out, cache = maxpool1d_forward(X, 2)
    dX = maxpool1d_backward(cache, np.ones_like(out))
    assert np.all(dX[:, 4, :] == 0.0)
    assert dX.sum() == out.size  # one unit routed per pooled cell


def test_maxpool_gradient_finite_difference():
    rng = RNG(1)
    X = rng.normal(size=(2, 6, 3))
    out, cache = maxpool1d_forward(X, 2)
    R, loss_of = projection_loss(rng, out.shape)
    dX = maxpool1d_backward(cache, R)
    fd_check(lambda: loss_of(maxpool1d_forward(X, 2)[0]), X, dX, rng, samples=12, name="X")


# ------------------------------------------------------------------ flatten


def test_flatten_row_major():
    X = np.array([[[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]])
    out, cache = flatten_forward(X)
    assert out[0].tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    assert np.array_equal(flatten_backward(cache, out), X)


def test_flatten_shape():
    out, _ = flatten_forward(np.zeros((4, 5, 3)))
    assert out.shape == (4, 15)


# ------------------------------------------------------------ dense softmax


def test_dense_zero_params_uniform():
    p = dict(W=np.zeros((6, 4)), b=np.zeros(4))
    probs, _ = dense_softmax_forward(**p, v=RNG(0).normal(size=(3, 6)))
    assert np.allclose(probs, 0.25)


def test_dense_hand_softmax_oracle():
    p = dict(W=np.eye(4), b=np.zeros(4))
    v = np.array([[0.0, 0.0, 0.0, math.log(3.0)]])
    probs, _ = dense_softmax_forward(**p, v=v)
    assert probs[0] == pytest.approx([1 / 6, 1 / 6, 1 / 6, 1 / 2], abs=1e-12)


def test_dense_rows_sum_to_one():
    rng = RNG(1)
    p = dict(W=rng.normal(size=(5, 4)), b=rng.normal(size=4))
    probs, _ = dense_softmax_forward(**p, v=rng.normal(size=(50, 5)) * 10)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)
    assert np.all(probs > 0.0) and np.all(probs < 1.0)


def test_softmax_max_subtraction_stable():
    probs = softmax(np.array([[1000.0, 1000.0, 0.0]]))
    assert np.all(np.isfinite(probs))
    assert probs[0, :2] == pytest.approx([0.5, 0.5], abs=1e-12)


def test_dense_shape_mismatch():
    p = dict(W=np.zeros((5, 4)), b=np.zeros(4))
    with pytest.raises(ValueError, match="dim mismatch"):
        dense_softmax_forward(**p, v=np.zeros((2, 6)))


def test_dense_gradients_finite_difference():
    rng = RNG(2)
    p = dict(W=rng.normal(size=(5, 4)), b=rng.normal(size=4))
    v = rng.normal(size=(3, 5))
    probs, cache = dense_softmax_forward(**p, v=v)
    R, loss_of = projection_loss(rng, probs.shape)
    grads, dv = dense_softmax_backward(cache, dlogits_through_softmax(probs, R))

    def loss():
        return loss_of(dense_softmax_forward(**p, v=v)[0])

    fd_check(loss, p["W"], grads["W"], rng, samples=10, name="W")
    fd_check(loss, p["b"], grads["b"], rng, samples=4, name="b")
    fd_check(loss, v, dv, rng, samples=10, name="v")


def test_fused_loss_gradient_matches_the_softmax_jacobian_route():
    # For cross-entropy, chaining dprobs = -y/(B*p) through the softmax
    # Jacobian must land on the fused (probs - onehot)/B.
    rng = RNG(3)
    probs = softmax(rng.normal(size=(4, 4)))
    y = np.array([0, 3, 1, 2])
    onehot = np.eye(4)[y]
    via_jacobian = dlogits_through_softmax(probs, -onehot / (4 * probs))
    assert np.allclose(cce_grad_logits(probs, y), via_jacobian, atol=1e-12)


# ------------------------------------------------------------ drawn shapes

# batch sizes: one post, a conv pad block and a block plus one, up to two blocks
# plus one; float64 throughout, so the finite differences resolve
BATCH = st.integers(1, 2 * CONV_BLOCK + 1)
DRAWN = settings(max_examples=25, deadline=None)


def padded_conv1d_relu(p, X, dout):
    """Conv + ReLU over the whole batch padded at once, forward then backward:
    the conv layer as it was before it padded in blocks.  Returns (out,
    grads, dX)."""
    B, T, d_in = X.shape
    k = p["kernels"].shape[0]
    pl, pr = conv_padding(k)
    Xp = np.pad(X, ((0, 0), (pl, pr), (0, 0)))
    z = np.broadcast_to(p["bias"], (B, T, p["bias"].size)).astype(X.dtype).copy()
    for j in range(k):
        z += Xp[:, j : j + T, :] @ p["kernels"][j]
    dz = dout * (z > 0.0)
    g = {"kernels": np.zeros_like(p["kernels"]), "bias": dz.sum(axis=(0, 1))}
    dXp = np.zeros_like(Xp)
    for j in range(k):
        window = np.ascontiguousarray(Xp[:, j : j + T, :]).reshape(B * T, d_in)
        g["kernels"][j] = window.T @ dz.reshape(B * T, -1)
        dXp[:, j : j + T, :] += dz @ p["kernels"][j].T
    return np.maximum(z, 0.0), g, dXp[:, pl : pl + T, :]


def eighths(rng, size):
    """Multiples of 1/8 in [-2, 2]: a few sums of their products are exact in
    float64."""
    return rng.integers(-16, 17, size=size) / 8


@DRAWN
@given(B=BATCH, T=st.integers(1, 12), d_in=st.integers(1, 6), k=st.integers(1, 9),
       F=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
# T shorter than the kernel, one input channel, and batches of one block, one
# block plus one and two blocks plus one
@example(B=1, T=3, d_in=1, k=8, F=1, seed=0)
@example(B=CONV_BLOCK, T=5, d_in=2, k=8, F=3, seed=1)
@example(B=CONV_BLOCK + 1, T=9, d_in=1, k=4, F=2, seed=2)
@example(B=2 * CONV_BLOCK + 1, T=2, d_in=3, k=5, F=3, seed=3)
def test_conv_on_drawn_shapes_matches_the_padded_oracle_and_finite_differences(
        B, T, d_in, k, F, seed):
    rng = RNG(seed)
    p = dict(kernels=rng.normal(scale=0.5, size=(k, d_in, F)),
             bias=rng.normal(scale=0.1, size=F))
    X = rng.normal(size=(B, T, d_in))
    dout = rng.normal(size=(B, T, F))
    out, cache = conv1d_relu_forward(**p, X=X)
    grads, dX = conv1d_relu_backward(cache, dout)
    ref_out, ref_grads, ref_dX = padded_conv1d_relu(p, X, dout)
    assert out.tobytes() == ref_out.tobytes()
    assert dX.tobytes() == ref_dX.tobytes()
    for name, g in grads.items():
        assert g.tobytes() == ref_grads[name].tobytes(), name

    # finite differences on eighths, with the bias 1/128 off them: every
    # pre-activation is then an odd multiple of 1/128 and every sum is exact,
    # so a step of 2**-20 crosses no ReLU kink.  With normal draws over up to
    # 2 * CONV_BLOCK + 1 posts, some pre-activation often lies within a step
    # of the kink
    p = dict(kernels=eighths(rng, (k, d_in, F)), bias=eighths(rng, F) + 1 / 128)
    X = eighths(rng, (B, T, d_in))
    R = eighths(rng, (B, T, F))
    out, cache = conv1d_relu_forward(**p, X=X)
    grads, dX = conv1d_relu_backward(cache, R)

    def loss():
        return float(np.sum(conv1d_relu_forward(**p, X=X)[0] * R))

    fd_check(loss, p["kernels"], grads["kernels"], rng, h=2**-20, name="kernels")
    fd_check(loss, p["bias"], grads["bias"], rng, samples=2, h=2**-20, name="bias")
    fd_check(loss, X, dX, rng, h=2**-20, name="X")


@DRAWN
@given(B=BATCH, T=st.integers(1, 12), d=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
@example(B=1, T=1, d=1, seed=0)
@example(B=2 * CONV_BLOCK + 1, T=7, d=1, seed=1)
def test_attention_on_drawn_shapes_in_place_and_finite_differences(B, T, d, seed):
    rng = RNG(seed)
    p = dict(w=rng.normal(scale=0.5, size=(d, 1)), b=rng.normal(scale=0.5, size=(T, 1)))
    P = rng.normal(size=(B, T, d))
    out, cache = attention_forward(**p, P=P)
    scaled = P.copy()
    in_place, none = attention_forward(**p, P=scaled, out=scaled)
    assert in_place is scaled and none is None
    assert scaled.tobytes() == out.tobytes()
    R, loss_of = projection_loss(rng, out.shape)
    grads, dP = attention_backward(cache, R)

    def loss():
        return loss_of(attention_forward(**p, P=P)[0])

    fd_check(loss, p["w"], grads["w"], rng, name="w")
    fd_check(loss, p["b"], grads["b"], rng, name="b")
    fd_check(loss, P, dP, rng, name="P")


@DRAWN
@given(B=BATCH, size=st.integers(1, 4), windows=st.integers(1, 4), rest=st.integers(0, 3),
       F=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
# T not a multiple of the pool, and one filter
@example(B=1, size=2, windows=1, rest=1, F=1, seed=0)
@example(B=2 * CONV_BLOCK + 1, size=3, windows=2, rest=2, F=1, seed=1)
def test_maxpool_on_drawn_shapes_finite_differences(B, size, windows, rest, F, seed):
    rng = RNG(seed)
    T = size * windows + rest % size
    X = rng.normal(size=(B, T, F))
    out, cache = maxpool1d_forward(X, size)
    assert out.shape == (B, T // size, F)
    R, loss_of = projection_loss(rng, out.shape)
    dX = maxpool1d_backward(cache, R)
    fd_check(lambda: loss_of(maxpool1d_forward(X, size)[0]), X, dX, rng, samples=12, name="X")


@DRAWN
@given(B=BATCH, M=st.integers(1, 8), C=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
@example(B=1, M=1, C=2, seed=0)
@example(B=2 * CONV_BLOCK + 1, M=1, C=4, seed=1)
def test_dense_on_drawn_shapes_finite_differences(B, M, C, seed):
    rng = RNG(seed)
    # small weights keep the softmax off saturation, whose gradients are too
    # small for finite differences to resolve
    p = dict(W=rng.normal(scale=0.3, size=(M, C)), b=rng.normal(size=C))
    v = rng.normal(size=(B, M))
    probs, cache = dense_softmax_forward(**p, v=v)
    R, loss_of = projection_loss(rng, probs.shape)
    grads, dv = dense_softmax_backward(cache, dlogits_through_softmax(probs, R))

    def loss():
        return loss_of(dense_softmax_forward(**p, v=v)[0])

    fd_check(loss, p["W"], grads["W"], rng, name="W")
    fd_check(loss, p["b"], grads["b"], rng, samples=2, name="b")
    fd_check(loss, v, dv, rng, name="v")


# ----------------------------------------------------------------- tripwire


def test_check_finite_names_layer():
    with pytest.raises(NumericsError, match="after layer 'lstm'"):
        check_finite("lstm", np.array([1.0, np.nan]))
    arr = np.array([1.0, 2.0])
    assert check_finite("ok", arr) is arr


def test_check_finite_holds_no_full_size_temporary():
    # a 128-post paper-shape chunk: a boolean array of its size is 1.6 MB
    arr = np.zeros((128, 128, 100), dtype=np.float32)
    tracemalloc.start()
    try:
        check_finite("lstm", arr)
        check_finite("last_step", arr[:, -1, :])  # a strided view is not copied
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 1024


@pytest.mark.parametrize("where", [(0, 0, 0), (127, 127, 99), (64, 3, 50)])
def test_check_finite_finds_one_bad_entry_in_any_block(where):
    arr = np.zeros((128, 128, 100), dtype=np.float32)
    arr[where] = np.inf
    with pytest.raises(NumericsError):
        check_finite("conv", arr)
    with pytest.raises(NumericsError):
        check_finite_grad("conv.W", arr)


def test_sigmoid_matches_logistic_and_is_stable():
    x = np.linspace(-30, 30, 61)
    assert np.allclose(sigmoid(x), 1.0 / (1.0 + np.exp(-x)), atol=1e-12)
    assert sigmoid(np.array([1e4]))[0] == 1.0  # saturates without overflow warnings
    assert sigmoid(np.array([-1e4]))[0] == 0.0
