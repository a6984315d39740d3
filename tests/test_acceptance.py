"""Release gates. One test per gate; tolerances are pinned here.

The corpus behind the reference row in the ablation report is restricted
access and its labeling thresholds were never released, so the gates are
property checks plus desk-scale experiments on the synthetic corpus.
"""

import csv
import json
import time

import numpy as np
import pytest

from conftest import dense, fd_check, float64_model, projection_loss
import risknet.model
from risknet.cli import main
from risknet.corpus import merge_title_body
from risknet.embed import (
    EmbeddingFormatError,
    Vocabulary,
    build_vocab,
    encode_batch,
    init_embeddings,
    load_embeddings,
)
from risknet.layers import (
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
    lstm_backward,
    lstm_forward,
    maxpool1d_backward,
    maxpool1d_forward,
)
from risknet.model import Model, ModelConfig, init_params
from risknet.modelio import load_model, save_model
from risknet.rng import bulk_generator
from risknet.synth import generate_corpus
from risknet.textprep import preprocess
from risknet.metrics import compute_metrics
from risknet.train import (
    Adam,
    TrainConfig,
    cce_grad_logits,
    fit,
    sparse_cce,
)
from risknet.weaklabel import DEFAULT_TARGET_FRACTIONS, assign_label, calibrate_thresholds

# Shared gradient-check shapes: B=2, T=7, D=5, H=4, F=2, k=3.
B, T, D, H, F, K = 2, 7, 5, 4, 2, 3


def _lstm_params(rng, dtype=np.float64) -> dict[str, np.ndarray]:
    def w(shape):
        return rng.normal(0.0, 0.4, size=shape).astype(dtype)

    # a W, U and b draw per gate, in the gate order f, i, o, u, side by side
    gates = [(w((D, H)), w((H, H)), w((H,))) for _ in "fiou"]
    return {name: np.concatenate(arrs, axis=-1) for name, arrs in zip("WUb", zip(*gates))}


def _small_model(seed: int = 0) -> tuple[Model, np.ndarray]:
    vocab = Vocabulary({f"t{i}": i + 2 for i in range(7)})
    emb = init_embeddings(vocab, D, seed)
    cfg = ModelConfig(max_len=T, embed_dim=D, lstm_units=H, dropout_rate=0.0,
                      filters=F, kernel=K, pool=2, seed=seed)
    model = float64_model(Model(cfg, init_params(cfg, emb)))
    rng = bulk_generator(seed, 90, 1)
    batch = rng.integers(1, vocab.size, size=(B, T))  # no PAD: every row grads
    return model, batch


# -------------------------------------------------- gate: gradient accuracy


def test_gradient_checks_cover_every_layer_and_the_full_stack():
    """Analytic gradients vs 64-bit central differences, rel err < 1e-4."""
    started = time.monotonic()
    rng = bulk_generator(41, 90, 2)

    # embedding gather/scatter-add
    E = rng.normal(0.0, 0.5, size=(9, D))
    idx = rng.integers(1, 9, size=(B, T))
    R, loss = projection_loss(rng, (B, T, D))
    out, cache = embedding_forward(E, idx)
    dE = dense(embedding_backward(cache, R))
    fd_check(lambda: loss(embedding_forward(E, idx)[0]), E, dE, rng, name="embedding")

    # dropout with the rate at zero: exact identity both directions
    x = rng.normal(size=(B, T, D))
    out, cache = dropout_forward(x, 0.0, seed=1, step=3)
    np.testing.assert_array_equal(out, x)
    R, loss = projection_loss(rng, x.shape)
    dx = dropout_backward(cache, R)
    fd_check(lambda: loss(dropout_forward(x, 0.0, 1, 3)[0]), x, dx,
             rng, name="dropout")

    # LSTM over every parameter and the input
    p = _lstm_params(rng)
    X = rng.normal(size=(B, T, D))
    R, loss = projection_loss(rng, (B, T, H))
    out, cache = lstm_forward(**p, X=X)
    grads, dX = lstm_backward(cache, R)
    for k, gate in enumerate("fiou"):  # every gate block of W, U and b
        cols = np.s_[..., k * H : (k + 1) * H]
        for name, arr in p.items():
            fd_check(lambda: loss(lstm_forward(**p, X=X)[0]), arr[cols], grads[name][cols], rng,
                     samples=4, name=f"lstm.{name}[{gate}]")
    fd_check(lambda: loss(lstm_forward(**p, X=X)[0]), X, dX, rng, name="lstm.X")

    # attention weights, bias, and input
    ap = dict(w=rng.normal(size=(H, 1)), b=rng.normal(size=(T, 1)))
    P = rng.normal(size=(B, T, H))
    R, loss = projection_loss(rng, (B, T, H))
    out, cache = attention_forward(**ap, P=P)
    grads, dP = attention_backward(cache, R)
    fd_check(lambda: loss(attention_forward(**ap, P=P)[0]), ap["w"], grads["w"], rng,
             name="attention.w")
    fd_check(lambda: loss(attention_forward(**ap, P=P)[0]), ap["b"], grads["b"], rng,
             name="attention.b")
    fd_check(lambda: loss(attention_forward(**ap, P=P)[0]), P, dP, rng, name="attention.P")

    # conv + ReLU, checked away from the activation kink
    cp = dict(kernels=rng.normal(size=(K, H, F)), bias=rng.normal(size=(F,)) + 0.3)
    Xc = rng.normal(size=(B, T, H))
    out, cache = conv1d_relu_forward(**cp, X=Xc)
    assert np.abs(cache[2]).min() > 1e-3  # pre-activations clear of zero
    R, loss = projection_loss(rng, out.shape)
    grads, dXc = conv1d_relu_backward(cache, R)
    fd_check(lambda: loss(conv1d_relu_forward(**cp, X=Xc)[0]), cp["kernels"],
             grads["kernels"], rng, name="conv.kernels")
    fd_check(lambda: loss(conv1d_relu_forward(**cp, X=Xc)[0]), cp["bias"],
             grads["bias"], rng, name="conv.bias")
    fd_check(lambda: loss(conv1d_relu_forward(**cp, X=Xc)[0]), Xc, dXc, rng, name="conv.X")

    # maxpool, with window gaps wide enough that FD cannot flip the argmax
    Xm = rng.normal(size=(B, T, F))
    gaps = np.abs(Xm[:, 0:6:2, :] - Xm[:, 1:6:2, :])
    assert gaps.min() > 1e-3
    out, cache = maxpool1d_forward(Xm, 2)
    R, loss = projection_loss(rng, out.shape)
    dXm = maxpool1d_backward(cache, R)
    fd_check(lambda: loss(maxpool1d_forward(Xm, 2)[0]), Xm, dXm, rng, name="maxpool")

    # dense + softmax + cross-entropy through the fused gradient
    dp = dict(W=rng.normal(size=(6, 4)), b=rng.normal(size=(4,)))
    v = rng.normal(size=(B, 6))
    labels = rng.integers(0, 4, size=B)
    probs, cache = dense_softmax_forward(**dp, v=v)
    grads, dv = dense_softmax_backward(cache, dlogits=cce_grad_logits(probs, labels))

    def nll(arr_src):
        return sparse_cce(dense_softmax_forward(**dp, v=v)[0], labels)

    fd_check(lambda: nll(None), dp["W"], grads["W"], rng, name="fused.W")
    fd_check(lambda: nll(None), dp["b"], grads["b"], rng, name="fused.b")
    fd_check(lambda: nll(None), v, dv, rng, name="fused.v")

    # full stack: cross-entropy through every named parameter
    model, batch = _small_model(seed=5)
    y = bulk_generator(5, 90, 3).integers(0, 4, size=B)

    def stack_loss():
        return sparse_cce(model.forward(batch, step=2)[0], y)

    probs, trace = model.forward(batch, step=2)
    grads = model.backward(trace, dlogits=cce_grad_logits(probs, y))
    grads["embedding"] = dense(grads["embedding"])
    for name, arr in model.params.items():
        fd_check(stack_loss, arr, grads[name], rng, samples=4, name=f"stack.{name}")

    assert time.monotonic() - started < 60.0


# ------------------------------------------------------ gate: normalization


def test_attention_and_softmax_rows_normalize_over_1000_draws():
    """Both normalizations hold within 1e-6 at the working precision."""
    rng = bulk_generator(42, 90, 4)
    worst_alpha = 0.0
    worst_probs = 0.0
    for _ in range(1000):
        P = rng.normal(0.0, 2.0, size=(2, 6, 3)).astype(np.float32)
        ap = dict(w=rng.normal(size=(3, 1)).astype(np.float32),
                  b=rng.normal(size=(6, 1)).astype(np.float32))
        _, cache = attention_forward(**ap, P=P)
        alpha = cache[3]
        worst_alpha = max(worst_alpha, float(np.abs(alpha.sum(axis=1) - 1.0).max()))

        dp = dict(W=rng.normal(0.0, 3.0, size=(5, 4)).astype(np.float32),
                  b=rng.normal(size=(4,)).astype(np.float32))
        v = rng.normal(0.0, 3.0, size=(2, 5)).astype(np.float32)
        probs, _ = dense_softmax_forward(**dp, v=v)
        worst_probs = max(worst_probs, float(np.abs(probs.sum(axis=1) - 1.0).max()))
    assert worst_alpha < 1e-6
    assert worst_probs < 1e-6


# ---------------------------------------------- gate: recurrent cell oracle


def test_lstm_unit_cell_matches_high_precision_hand_value():
    """All parameters and inputs 1: h1 = sigmoid(2)^2 * tanh(tanh(2) + sigmoid(2)).

    50-digit evaluation: sigmoid(2) = 0.88079707797788244406...,
    tanh(2) = 0.96402758007581688395..., giving h1 below.
    """
    p = dict(W=np.ones((1, 4)), U=np.ones((1, 4)), b=np.ones(4))
    out, _ = lstm_forward(**p, X=np.ones((1, 1, 1)))
    assert abs(float(out[0, 0, 0]) - 0.6082834181835159) < 1e-3


# --------------------------------------------------- gate: overfit capacity


def test_overfits_32_synthetic_posts_below_005_loss_within_200_epochs():
    posts = generate_corpus(32, seed=7)
    token_lists = [preprocess(merge_title_body(p)) for p in posts]
    vocab = build_vocab(token_lists)
    emb = init_embeddings(vocab, 16, seed=7)
    X = encode_batch(token_lists, vocab, max_len=20)
    y = np.array([int(p.label) for p in posts])
    cfg = TrainConfig(
        model=ModelConfig(max_len=20, embed_dim=16, lstm_units=8, dropout_rate=0.0,
                          filters=3, kernel=8, pool=2, seed=7),
        epochs=200, batch_size=8)
    _, hist = fit(cfg, X, y, emb)
    assert min(hist.loss) < 0.05
    assert hist.loss[-1] < 0.05


# ------------------------------------------ gate: the full model trains


def test_full_model_trains_on_a_run_that_stalled_with_unscaled_attention(monkeypatch):
    """200 synthetic posts (corpus seed 5), run seed 0, 20 epochs at embed
    32, LSTM 16, T 48.

    With attention's output at ``alpha * P``, 1/48 of the LSTM's scale, this
    run's conv layer dies: every filter inactive at every position, every
    conv bias negative, loss stuck at 1.384 (ln 4 is 1.386) and macro-F1 at
    0.108.  Scaled by T, it reaches 1.0 with every filter active."""
    posts = generate_corpus(200, seed=5)
    token_lists = [preprocess(merge_title_body(p)) for p in posts]
    vocab = build_vocab(token_lists)
    X = encode_batch(token_lists, vocab, max_len=48)
    y = np.array([int(p.label) for p in posts])
    cfg = TrainConfig(model=ModelConfig(max_len=48, embed_dim=32, lstm_units=16, seed=0),
                      epochs=20, batch_size=32)
    model, hist = fit(cfg, X, y, init_embeddings(vocab, 32, seed=0))
    assert hist.loss[-1] < 0.5
    active = []
    conv = risknet.model.conv1d_relu_forward

    def spy(kernels, bias, x):
        out, cache = conv(kernels, bias, x)
        active.append((out > 0.0).mean(axis=(0, 1)))
        return out, cache

    monkeypatch.setattr(risknet.model, "conv1d_relu_forward", spy)
    probs, _ = model.forward(X)
    assert np.mean(active, axis=0).min() > 0.1  # no dead filter
    assert compute_metrics(y, probs.argmax(axis=1)).macro_f1 >= 0.9


# --------------------------------------------------------- gate: end to end


def test_end_to_end_synthetic_pipeline_reaches_095_with_ablation(tmp_path):
    """2000 posts, 80/20 split, 10 epochs, batch 32, reduced dims; < 10 min."""
    started = time.monotonic()
    dims = ["--embed-dim", "32", "--lstm-units", "16", "--max-len", "48",
            "--seed", "7"]
    s, p, t, e, a = (str(tmp_path / d) for d in "sptea")
    assert main(["synth", "--posts", "2000", "--seed", "7", "--out", s]) == 0
    assert main(["preprocess", "--dataset", s + "/posts.csv", "--out", p]) == 0
    assert main(["train", "--dataset", p + "/tokens.jsonl", "--out", t] + dims) == 0
    assert main(["evaluate", "--model", t + "/model.rkn",
                 "--dataset", t + "/test.jsonl", "--out", e]) == 0
    m = json.loads((tmp_path / "e" / "metrics.json").read_text())
    assert m["accuracy"] >= 0.95
    assert m["macro_f1"] >= 0.95

    # ablation table is produced alongside; the ranking is reported, not gated
    assert main(["ablate", "--dataset", p + "/tokens.jsonl", "--out", a] + dims) == 0
    with (tmp_path / "a" / "ablation.csv").open() as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    assert [r[0] for r in rows[1:]] == ["svm", "cnn", "lstm", "lstm_cnn",
                                        "lstm_attention_cnn"]
    assert all(0.0 <= float(x) <= 1.0 for r in rows[1:] for x in r[1:])
    assert time.monotonic() - started < 600.0


# -------------------------------------------------- gate: metrics agreement


def _tally(y_true, y_pred):
    """Independent per-class tally; float math mirrors plain division."""
    per = []
    for c in range(4):
        tp = sum(1 for t, q in zip(y_true, y_pred) if t == c and q == c)
        fp = sum(1 for t, q in zip(y_true, y_pred) if t != c and q == c)
        fn = sum(1 for t, q in zip(y_true, y_pred) if t == c and q != c)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        per.append((prec, rec, f1))
    acc = sum(1 for t, q in zip(y_true, y_pred) if t == q) / len(y_true)
    return acc, [sum(col) / 4 for col in zip(*per)]


def test_macro_metrics_match_independent_tally_exactly():
    rng = bulk_generator(43, 90, 5)
    for trial in range(100):
        n = int(rng.integers(1, 200))
        y_true = rng.integers(0, 4, size=n)
        if trial % 5 == 0:
            y_pred = np.full(n, trial % 4)  # degenerate single-class output
        else:
            y_pred = rng.integers(0, 4, size=n)
        m = compute_metrics(y_true, y_pred)
        acc, (mp, mr, mf) = _tally(y_true.tolist(), y_pred.tolist())
        assert m.accuracy == acc
        assert m.macro_precision == mp
        assert m.macro_recall == mr
        assert m.macro_f1 == mf


# --------------------------------------------------- gate: optimizer oracle


def test_adam_first_step_value_and_zero_gradient_stasis():
    theta = np.array([1.0])
    opt = Adam([("p", theta)])
    opt.step([("p", theta)], {"p": np.array([1.0])})
    assert abs(theta[0] - (1.0 - 0.001 / (1.0 + 1e-7))) < 1e-9

    frozen = np.array([0.25, -1.5])
    before = frozen.tobytes()
    opt2 = Adam([("p", frozen)])
    for _ in range(3):
        opt2.step([("p", frozen)], {"p": np.zeros(2)})
    assert frozen.tobytes() == before


# -------------------------------------------------- gate: label calibration


def test_threshold_calibration_hits_target_fractions_and_is_monotone():
    rng = bulk_generator(44, 90, 6)
    scores = rng.normal(0.0, 1.0, size=10_000)
    t = calibrate_thresholds(scores, DEFAULT_TARGET_FRACTIONS)

    def labels(s):
        return np.array([assign_label(x, t) for x in s.tolist()])

    got = np.bincount(labels(scores), minlength=4) / scores.size
    for share, target in zip(got, DEFAULT_TARGET_FRACTIONS):
        assert abs(share - target) <= 0.02  # within two percentage points

    a = rng.normal(size=1_000_000)
    b = rng.normal(size=1_000_000)
    la, lb = labels(a), labels(b)
    swap = a > b
    lo = np.where(swap, lb, la)
    hi = np.where(swap, la, lb)
    assert np.all(lo <= hi)


# --------------------------------------------- gate: retraining determinism


def test_training_twice_with_one_config_is_byte_identical(tmp_path):
    s = str(tmp_path / "s")
    p = str(tmp_path / "p")
    assert main(["synth", "--posts", "150", "--seed", "5", "--out", s]) == 0
    assert main(["preprocess", "--dataset", s + "/posts.csv", "--out", p]) == 0
    flags = ["--dataset", p + "/tokens.jsonl", "--epochs", "2",
             "--embed-dim", "8", "--lstm-units", "5", "--max-len", "16",
             "--seed", "5"]
    assert main(["train", "--out", str(tmp_path / "t1")] + flags) == 0
    assert main(["train", "--out", str(tmp_path / "t2")] + flags) == 0
    for name in ("model.rkn", "history.csv"):
        a = (tmp_path / "t1" / name).read_bytes()
        b = (tmp_path / "t2" / name).read_bytes()
        assert a == b, name


# ------------------------------------------------------ gate: serialization


def test_serialization_roundtrip_and_embedding_loader_rejections(tmp_path):
    model, batch = _small_model(seed=3)
    vocab = Vocabulary({f"t{i}": i + 2 for i in range(7)})
    p1, p2 = tmp_path / "m1.rkn", tmp_path / "m2.rkn"
    save_model(model, vocab, p1)
    loaded, vocab2 = load_model(p1)
    save_model(loaded, vocab2, p2)
    assert p1.read_bytes() == p2.read_bytes()
    np.testing.assert_array_equal(model.predict(batch), loaded.predict(batch))

    fixtures = [
        "not numbers\nalpha 1.0 2.0\n",                # unparseable header
        "3 2\na 1.0 2.0\nb 3.0 4.0\n",                 # fewer rows than declared
        "1 2\na 1.0 2.0\nb 3.0 4.0\n",                 # more rows than declared
        "2 3\na 1.0 2.0 3.0\nb 1.0 2.0\n",             # short vector row
        "2 2\na 1.0 2.0\nb 1.0 oops\n",                # non-numeric component
        "2 2\na 1.0 2.0\nb 1.0 nan\n",                 # non-finite component
        "2 2\na 1.0 2.0\na 3.0 4.0\n",                 # duplicate token
    ]
    for i, text in enumerate(fixtures):
        path = tmp_path / f"bad{i}.vec"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(EmbeddingFormatError, match=r"line \d+"):
            load_embeddings(path)
