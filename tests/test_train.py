"""Loss oracles, Adam update math, and training-loop determinism."""

import math
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from conftest import fd_check, fit_on_tiny_corpus
import risknet.model
from risknet import train
from risknet.embed import EmbeddingMatrix, PAD_INDEX
from risknet.layers import NumericsError, lstm_backward, softmax
from risknet.model import ModelConfig
from risknet.train import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPSILON,
    ADAM_LR,
    Adam,
    History,
    TrainConfig,
    cce_grad_logits,
    evaluate,
    fit,
    sparse_cce,
    split_indices,
)


# --------------------------------------------------------------------- loss


def test_cce_uniform_is_ln4():
    probs = np.full((3, 4), 0.25)
    assert sparse_cce(probs, [0, 2, 3]) == pytest.approx(math.log(4.0), abs=1e-12)


def test_cce_certainty_clipped():
    probs = np.array([[1.0, 0.0, 0.0, 0.0]])
    loss = sparse_cce(probs, [0])
    assert loss == pytest.approx(-math.log(1.0 - 1e-7), abs=1e-12)
    assert loss == pytest.approx(1e-7, abs=1e-9)


def test_cce_hand_value():
    probs = np.array([[0.1, 0.2, 0.6, 0.1]])
    assert sparse_cce(probs, [2]) == pytest.approx(-math.log(0.6), abs=1e-12)
    assert sparse_cce(probs, [2]) == pytest.approx(0.510826, abs=1e-6)


def test_cce_zero_prob_clipped_not_inf():
    probs = np.array([[0.0, 1.0, 0.0, 0.0]])
    assert sparse_cce(probs, [0]) == pytest.approx(-math.log(1e-7), rel=1e-12)


def test_cce_mean_over_batch():
    probs = np.array([[0.5, 0.5, 0.0, 0.0], [0.25, 0.25, 0.25, 0.25]])
    want = (-math.log(0.5) - math.log(0.25)) / 2
    assert sparse_cce(probs, [0, 1]) == pytest.approx(want, abs=1e-12)


def test_cce_label_out_of_range():
    probs = np.full((2, 4), 0.25)
    with pytest.raises(ValueError, match=r"label out of range \[0, 4\)"):
        sparse_cce(probs, [0, 4])
    with pytest.raises(ValueError, match="label out of range"):
        sparse_cce(probs, [-1, 0])
    with pytest.raises(ValueError, match="shape"):
        sparse_cce(probs, [0, 1, 2])


def test_fused_gradient_matches_finite_difference_on_logits():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(5, 4))
    labels = rng.integers(0, 4, size=5)
    probs = softmax(logits)
    analytic = cce_grad_logits(probs, labels)
    fd_check(
        lambda: sparse_cce(softmax(logits), labels),
        logits,
        analytic,
        rng,
        samples=12,
        tol=1e-6,
        name="logits",
    )


def test_fused_gradient_formula():
    probs = np.array([[0.1, 0.2, 0.6, 0.1], [0.25, 0.25, 0.25, 0.25]])
    g = cce_grad_logits(probs, [2, 0])
    want = probs.copy()
    want[0, 2] -= 1.0
    want[1, 0] -= 1.0
    assert np.allclose(g, want / 2.0, atol=1e-15)


# --------------------------------------------------------------------- adam


def scalar_param(value=0.0):
    return [("theta", np.array([value], dtype=np.float64))]


def test_adam_scalar_first_step_oracle():
    params = scalar_param(0.0)
    opt = Adam(params)
    opt.step(params, {"theta": np.array([1.0])})
    want = -0.001 * (1.0 / (1.0 + 1e-7))
    assert params[0][1][0] == pytest.approx(want, abs=1e-9)


def test_adam_zero_gradient_keeps_parameters_bitwise():
    params = [("w", np.array([0.3, -1.7, 2.5]))]
    before = params[0][1].copy()
    opt = Adam(params)
    opt.step(params, {"w": np.zeros(3)})
    assert np.array_equal(params[0][1], before)


def test_adam_monotone_descent_on_constant_gradient():
    params = scalar_param(0.0)
    opt = Adam(params)
    opt.step(params, {"theta": np.array([1.0])})
    theta1 = params[0][1][0]
    opt.step(params, {"theta": np.array([1.0])})
    theta2 = params[0][1][0]
    assert theta2 < theta1 < 0.0


def test_adam_bias_correction_uses_step_count():
    # g=2 at t=1: m=0.2, v=0.004; bias correction gives m_hat=2, v_hat=4,
    # so the step is lr * 2 / (2 + eps)
    params = scalar_param(1.0)
    opt = Adam(params)
    opt.step(params, {"theta": np.array([2.0])})
    assert params[0][1][0] == pytest.approx(1.0 - 0.001 * 2.0 / (2.0 + 1e-7), abs=1e-12)
    assert opt.t == 1
    assert opt.m["theta"][0] == pytest.approx(0.2, abs=1e-15)
    assert opt.v["theta"][0] == pytest.approx(0.004, abs=1e-15)


def test_adam_aborts_on_nonfinite_gradient_naming_param():
    params = [("dense.W", np.zeros((2, 2)))]
    opt = Adam(params)
    bad = np.array([[1.0, np.nan], [0.0, 0.0]])
    with pytest.raises(NumericsError, match="non-finite gradient for parameter 'dense.W'"):
        opt.step(params, {"dense.W": bad})


def test_adam_default_hyper():
    assert (ADAM_LR, ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON) == (0.001, 0.9, 0.999, 1e-7)


# ------------------------------------------------------------------ history


def test_history_csv_format(tmp_path, monkeypatch):
    real_fit = train.fit
    monkeypatch.setattr(train, "fit", lambda *args, **kwargs: (
        real_fit(*args, **kwargs)[0], History(loss=[1.5, 0.75], accuracy=[0.5, 0.875])))
    out = fit_on_tiny_corpus("train", tmp_path)
    assert (out / "history.csv").read_text(encoding="utf-8") == (
        "epoch,loss,accuracy\n1,1.5,0.5\n2,0.75,0.875\n"
    )


# ------------------------------------------------------------------- splits


def test_split_indices_floor_and_partition():
    train, test = split_indices(5, 0.8, seed=0)
    assert len(train) == 4 and len(test) == 1
    assert sorted(np.concatenate([train, test]).tolist()) == list(range(5))


def test_split_indices_deterministic():
    a = split_indices(20, 0.8, seed=3)
    b = split_indices(20, 0.8, seed=3)
    c = split_indices(20, 0.8, seed=4)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    assert not np.array_equal(a[0], c[0])


def test_split_indices_validation():
    with pytest.raises(ValueError):
        split_indices(1, 0.8, seed=0)
    with pytest.raises(ValueError):
        split_indices(10, 1.0, seed=0)


# ---------------------------------------------------------------------- fit


def tiny_task(n=24, T=8, V=12, D=6, seed=0):
    """Trivially learnable task: class = which vocab band the tokens sit in."""
    rng = np.random.default_rng(seed)
    X = np.zeros((n, T), dtype=np.int64)
    y = np.zeros(n, dtype=np.int64)
    for i in range(n):
        cls = i % 4
        lo = 2 + cls * 2
        X[i] = rng.integers(lo, lo + 2, size=T)
        y[i] = cls
    m = rng.normal(scale=0.3, size=(V, D))
    m[PAD_INDEX] = 0.0
    return X, y, EmbeddingMatrix(m)


def small_train_cfg(seed=0, epochs=3, **model_kw):
    base = dict(max_len=8, embed_dim=6, lstm_units=5, dropout_rate=0.0, filters=2,
                kernel=3, pool=2, seed=seed)
    base.update(model_kw)
    return TrainConfig(model=ModelConfig(**base), epochs=epochs, batch_size=8)


def test_fit_history_length_and_progress():
    X, y, emb = tiny_task()
    model, hist = fit(small_train_cfg(epochs=5), X, y, emb)
    assert len(hist.loss) == 5 and len(hist.accuracy) == 5
    assert hist.loss[-1] < hist.loss[0]


def test_fit_bitwise_reproducible():
    X, y, emb = tiny_task()
    cfg = small_train_cfg(seed=11)
    m1, h1 = fit(cfg, X, y, emb)
    m2, h2 = fit(cfg, X, y, emb)
    assert h1.loss == h2.loss and h1.accuracy == h2.accuracy
    assert list(m1.params) == list(m2.params)
    for name, a in m1.params.items():
        assert np.array_equal(a, m2.params[name]), name


def test_fit_seed_changes_outcome():
    X, y, emb = tiny_task()
    m1, _ = fit(small_train_cfg(seed=1, epochs=1), X, y, emb)
    m2, _ = fit(small_train_cfg(seed=2, epochs=1), X, y, emb)
    assert not np.array_equal(m1.params["dense.W"], m2.params["dense.W"])


def test_fit_trains_final_partial_batch():
    X, y, emb = tiny_task(n=10)  # batch_size 8 -> batches of 8 and 2
    counted = []
    cfg = small_train_cfg(epochs=1)
    fit(cfg, X, y, emb, on_epoch=lambda e, l, a: counted.append((e, l, a)))
    assert len(counted) == 1
    # the loss average weights all 10 samples; a dropped remainder would
    # leave accuracy counts short of n and surface as acc > 1 or < 0
    assert 0.0 <= counted[0][2] <= 1.0


def test_fit_pad_row_never_moves():
    X, y, emb = tiny_task()
    model, _ = fit(small_train_cfg(epochs=4), X, y, emb)
    assert np.all(model.params["embedding"][PAD_INDEX] == 0.0)


def test_fit_on_epoch_callback_order():
    X, y, emb = tiny_task()
    seen = []
    fit(small_train_cfg(epochs=3), X, y, emb, on_epoch=lambda e, l, a: seen.append(e))
    assert seen == [1, 2, 3]


def test_fit_validation_errors():
    X, y, emb = tiny_task()
    with pytest.raises(ValueError, match="empty training set"):
        fit(small_train_cfg(), X[:0], y[:0], emb)
    with pytest.raises(ValueError, match="align"):
        fit(small_train_cfg(), X, y[:-1], emb)
    with pytest.raises(ValueError, match="label out of range"):
        fit(small_train_cfg(), X, y + 10, emb)
    with pytest.raises(ValueError, match="^epochs must be >= 1, got 0$"):
        TrainConfig(model=ModelConfig(max_len=8), epochs=0)
    with pytest.raises(ValueError, match="^batch_size must be >= 1, got -3$"):
        TrainConfig(model=ModelConfig(max_len=8), batch_size=-3)
    for field in ("epochs", "batch_size"):  # None is no count
        with pytest.raises(TypeError):
            TrainConfig(model=ModelConfig(max_len=8), **{field: None})


def test_fit_numerics_error_names_epoch_step_and_batch(monkeypatch):
    # 24 rows at batch 8 make 3 batches per epoch; the sixth gradient is NaN
    X, y, emb = tiny_task()
    calls = []

    def poisoned(probs, labels):
        calls.append(1)
        g = cce_grad_logits(probs, labels)
        return g * np.nan if len(calls) == 6 else g

    monkeypatch.setattr(train, "cce_grad_logits", poisoned)
    with pytest.raises(NumericsError,
                       match=r"^epoch 2, step 5, batch 2: non-finite gradient for parameter '"):
        fit(small_train_cfg(), X, y, emb)


def _nan_loss_gradient(monkeypatch):
    monkeypatch.setattr(train, "cce_grad_logits",
                        lambda probs, labels: cce_grad_logits(probs, labels) * np.nan)


def _nan_lstm_input_gradient(monkeypatch):
    def poisoned(cache, dout, pool=None):
        grads, dX = lstm_backward(cache, dout, pool)
        return grads, dX * np.nan

    monkeypatch.setattr(risknet.model, "lstm_backward", poisoned)


@pytest.mark.parametrize("poison,message", [
    (_nan_loss_gradient, "parameter 'dense.W' after layer 'dense_softmax' backward"),
    # a non-finite dx is caught at the parameters of the next layer down
    (_nan_lstm_input_gradient, "parameter 'embedding' after layer 'embedding' backward"),
], ids=["loss", "lstm-dx"])
def test_fit_numerics_error_names_the_layer_of_a_nonfinite_gradient(monkeypatch, poison,
                                                                    message):
    X, y, emb = tiny_task()
    poison(monkeypatch)
    with pytest.raises(NumericsError) as info:
        fit(small_train_cfg(), X, y, emb)
    assert str(info.value) == f"epoch 1, step 0, batch 0: non-finite gradient for {message}"


# ------------------------------------------------------------ helper thread


def gated_task(n=40):
    """A task above the helper's size gate: 32 x 128 x 64 LSTM inputs and a
    4,200 x 64 embedding; 40 rows end each epoch in a batch of 8."""
    rng = np.random.default_rng(5)
    X = rng.integers(1, 4200, size=(n, 128))
    X[::4, :10] = PAD_INDEX
    m = rng.normal(scale=0.1, size=(4200, 64))
    m[PAD_INDEX] = 0.0
    cfg = TrainConfig(ModelConfig(max_len=128, embed_dim=64, lstm_units=8, filters=2,
                                  kernel=3, seed=3), epochs=2, batch_size=32)
    assert 32 * 128 * 64 >= train.HELPER_MIN_ELEMENTS and m.size >= train.HELPER_MIN_ELEMENTS
    return cfg, X, np.arange(n) % 4, EmbeddingMatrix(m)


def test_fit_with_a_helper_thread_is_bit_identical(monkeypatch):
    cfg, X, y, emb = gated_task()
    jobs = []
    submit = ThreadPoolExecutor.submit

    def spy(pool, fn, *args, **kwargs):
        jobs.append(fn.__name__)
        return submit(pool, fn, *args, **kwargs)

    monkeypatch.setattr(ThreadPoolExecutor, "submit", spy)
    runs = []
    for cpus in (1, 2):
        monkeypatch.setattr(train, "usable_cpus", lambda cpus=cpus: cpus)
        runs.append(fit(cfg, X, y, emb))
    # steps of 32, 8, 32 and 8 rows: every step's Adam pass, and the weight
    # GEMM of the full batches
    assert sorted(jobs) == sorted(["_adam_blocks"] * 4 + ["matmul"] * 2)
    (m1, h1), (m2, h2) = runs
    assert h1.loss == h2.loss and h1.accuracy == h2.accuracy
    assert list(m1.params) == list(m2.params)
    for name, a in m1.params.items():
        assert a.tobytes() == m2.params[name].tobytes(), name


def test_fit_on_one_cpu_starts_no_thread(monkeypatch):
    started = []
    monkeypatch.setattr(train, "usable_cpus", lambda: 1)
    monkeypatch.setattr(threading.Thread, "start", lambda t: started.append(t))
    fit(*gated_task())
    assert started == []


@pytest.mark.parametrize("poisoned", [False, True], ids=["returns", "raises"])
def test_fit_leaves_no_thread_behind(monkeypatch, poisoned):
    monkeypatch.setattr(train, "usable_cpus", lambda: 2)
    calls = []

    def nan_at_step_2(probs, labels):
        calls.append(1)
        g = cce_grad_logits(probs, labels)
        return g * np.nan if poisoned and len(calls) == 3 else g

    monkeypatch.setattr(train, "cce_grad_logits", nan_at_step_2)
    before = threading.enumerate()
    if poisoned:
        with pytest.raises(NumericsError, match="^epoch 2, step 2, batch 0: non-finite"):
            fit(*gated_task())
    else:
        fit(*gated_task())
    assert threading.enumerate() == before


# ------------------------------------------------------------------- memory


def cache_arrays(obj):
    """The ndarrays of a layer cache's nested tuples and lists; parameter
    dataclasses are not entered."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from cache_arrays(item)


def test_fit_frees_each_steps_lstm_cache_before_the_next_forward(monkeypatch):
    X, y, emb = tiny_task()  # 3 batches per epoch
    last = []  # weak references to the previous step's LSTM cache arrays
    freed = []
    real = risknet.model.lstm_forward

    def spy(W, U, b, x):
        freed.append(all(ref() is None for ref in last))
        out, cache = real(W, U, b, x)
        # the arrays after W and U, which are the model's own
        last[:] = [weakref.ref(a) for a in cache_arrays(cache[2:])]
        assert last
        return out, cache

    monkeypatch.setattr(risknet.model, "lstm_forward", spy)
    fit(small_train_cfg(epochs=2), X, y, emb)
    assert freed == [True] * 6


# CPython before 3.11 keeps a call's arguments on the caller's stack until the
# call returns, so a callee cannot free an argument there
frees_arguments = pytest.mark.skipif(
    sys.version_info < (3, 11), reason="CPython < 3.11 holds call arguments until return")


@frees_arguments
def test_fit_frees_an_embedding_the_caller_keeps_no_reference_to(monkeypatch):
    X, y, emb = tiny_task()
    refs = []

    def fresh_embedding():
        matrix = emb.matrix.copy()
        refs.append(weakref.ref(matrix))
        return EmbeddingMatrix(matrix)

    alive = []
    real_step = Adam.step

    def spy(self, named_params, grads):
        alive.append(refs[0]() is not None)
        real_step(self, named_params, grads)

    monkeypatch.setattr(Adam, "step", spy)
    fit(small_train_cfg(epochs=1), X, y, fresh_embedding())
    assert alive == [False] * 3


def test_evaluate_returns_metrics_over_all_rows():
    X, y, emb = tiny_task()
    model, _ = fit(small_train_cfg(epochs=6), X, y, emb)
    metrics = evaluate(model, X, y)
    assert metrics.confusion.sum() == len(y)
    assert 0.0 <= metrics.accuracy <= 1.0
    assert metrics.accuracy == pytest.approx(np.trace(metrics.confusion) / len(y))
