"""Model assembly: config validation, init, variant chains, full-stack grads."""

import contextlib
import dataclasses
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import risknet.model
import risknet.train
from conftest import (
    OUT_OF_RANGE,
    dense,
    dlogits_through_softmax,
    fd_check,
    float64_model,
    projection_loss,
)
from risknet.corpus import RiskLabel
from risknet.embed import EmbeddingMatrix, PAD_INDEX, Vocabulary
from risknet.layers import BPTT_BLOCK, CONV_BLOCK, NumericsError
from risknet.model import (
    VARIANTS,
    Model,
    ModelConfig,
    _glorot,
    init_params,
    param_shapes,
)
from risknet.modelio import load_model, save_model
from risknet.rng import STREAM_INIT, bulk_generator
from risknet.train import Adam, TrainConfig, fit


def make_embedding(V, D, seed=0, dtype=np.float64):
    m = np.random.default_rng(seed).normal(scale=0.3, size=(V, D)).astype(dtype)
    m[PAD_INDEX] = 0.0
    return EmbeddingMatrix(m)


def small_cfg(variant="lstm_attention_cnn", **kw):
    base = dict(max_len=6, embed_dim=5, lstm_units=4, dropout_rate=0.0, filters=2,
                kernel=3, pool=2, seed=0, variant=variant)
    base.update(kw)
    return ModelConfig(**base)


def build(variant="lstm_attention_cnn", V=9, seed=0, dtype="float64", **kw):
    """A model of `small_cfg`, its float32 params cast to float64 unless
    `dtype` is "float32"."""
    cfg = small_cfg(variant, **kw)
    model = Model(cfg, init_params(cfg, make_embedding(V, cfg.embed_dim, seed=seed)))
    return float64_model(model) if dtype == "float64" else model


def batch_for(cfg, V=9, seed=1, B=3, lo=1):
    return np.random.default_rng(seed).integers(lo, V, size=(B, cfg.max_len))


# -------------------------------------------------------------------- config


def test_config_defaults_match_reference_table():
    cfg = ModelConfig(max_len=50)
    assert (cfg.embed_dim, cfg.lstm_units, cfg.dropout_rate) == (300, 100, 0.5)
    assert (cfg.filters, cfg.kernel, cfg.pool) == (3, 8, 2)
    assert cfg.variant == "lstm_attention_cnn"


def test_config_holds_only_the_choices_a_run_makes():
    # the class count and the dtype are no choice: four risk tiers, float32
    assert [f.name for f in dataclasses.fields(ModelConfig)] == [
        "max_len", "embed_dim", "lstm_units", "dropout_rate", "filters", "kernel", "pool",
        "seed", "variant"]
    for gone in ("classes", "dtype"):
        with pytest.raises(TypeError, match=gone):
            ModelConfig(max_len=10, **{gone: 4})


def test_config_validation():
    with pytest.raises(ValueError, match="variant"):
        ModelConfig(max_len=10, variant="transformer")
    with pytest.raises(ValueError, match="max_len"):
        ModelConfig(max_len=0)
    with pytest.raises(ValueError, match="pool"):
        ModelConfig(max_len=1, pool=2)


@pytest.mark.parametrize("field,value,wording", [
    *(pytest.param(field, value, wording, id=f"{field}_{label}")
      for names, _, wording in risknet.model.BOUNDS for field in names
      for label, value in OUT_OF_RANGE[wording].items()),
    # small_cfg's pool is 2
    pytest.param("max_len", 1, "be >= pool (2)", id="max_len_below_pool")])
def test_config_field_out_of_range_rejected(field, value, wording):
    with pytest.raises(ValueError) as info:
        small_cfg(**{field: value})
    assert str(info.value) == f"{field} must {wording}, got {value}"


@pytest.mark.parametrize("field,value", [
    ("max_len", 16.5), ("pool", True), ("kernel", "8"), ("dropout_rate", "x"),
    ("dropout_rate", False), ("seed", "7"), ("variant", 3), ("variant", None),
])
def test_config_field_types(field, value):
    # an int field takes an int but not a bool, a float field an int or a float
    with pytest.raises(TypeError, match=f"{field} must be of type"):
        small_cfg(**{field: value})


def test_config_float_field_takes_an_int():
    assert small_cfg(dropout_rate=0).dropout_rate == 0


@pytest.mark.parametrize("variant,conv_in,dense_in", [
    ("lstm_attention_cnn", 4, 6),  # lstm_units feed the conv; T=6, pool=2, F=2 -> 3*2
    ("lstm_cnn", 4, 6),
    ("cnn", 5, 6),  # the embeddings feed the conv directly
    ("lstm", None, 4),  # h_T straight into the head, no conv
])
def test_param_shapes_derive_the_widths_from_the_chain(variant, conv_in, dense_in):
    shapes = param_shapes(small_cfg(variant), 9)
    assert shapes.get("conv.kernels") == (None if conv_in is None else (3, conv_in, 2))
    assert shapes["dense.W"] == (dense_in, len(RiskLabel)) and shapes["dense.b"] == (4,)


def test_config_round_trips_through_dict():
    cfg = small_cfg(seed=7)
    assert ModelConfig(**cfg.to_dict()) == cfg


# ---------------------------------------------------------------------- init


def test_init_params_deterministic_per_seed():
    emb = make_embedding(9, 5)
    cfg = small_cfg(seed=3)
    a = init_params(cfg, emb)
    b = init_params(cfg, emb)
    assert list(a) == list(b)
    for name, arr in a.items():
        assert np.array_equal(arr, b[name]), name
    c = init_params(small_cfg(seed=4), emb)
    assert not np.array_equal(a["dense.W"], c["dense.W"])


def test_init_forget_bias_one_other_biases_zero():
    p = init_params(small_cfg(), make_embedding(9, 5))
    H = 4
    assert np.all(p["lstm.b"][:H] == 1.0)  # the forget gate's block
    for b in (p["lstm.b"][H:], p["dense.b"], p["conv.bias"], p["attention.b"]):
        assert np.all(b == 0.0)


def test_init_lstm_equals_the_per_gate_draws_side_by_side():
    # init draws each gate's W and then its U, in the gate order f, i, o, u,
    # from the init stream, and sets the gates side by side
    p = init_params(small_cfg(seed=11), make_embedding(9, 5))
    rng = bulk_generator(11, STREAM_INIT, 1)
    D, H = 5, 4
    W, U = [], []
    for _ in "fiou":
        W.append(_glorot(rng, (D, H), D, H))
        U.append(_glorot(rng, (H, H), H, H))
    assert np.array_equal(p["lstm.W"], np.concatenate(W, axis=1))
    assert np.array_equal(p["lstm.U"], np.concatenate(U, axis=1))
    assert p["lstm.W"].dtype == p["lstm.U"].dtype == p["lstm.b"].dtype == np.float32
    # the draws after the LSTM's are unchanged too
    assert np.array_equal(p["attention.w"],
                          rng.normal(0.0, 0.05, size=(H, 1)).astype(np.float32))
    k, d_in, F = 3, 4, 2
    assert np.array_equal(p["conv.kernels"], _glorot(rng, (k, d_in, F), k * d_in, k * F))
    assert np.array_equal(p["dense.W"], _glorot(rng, (6, 4), 6, 4))


@pytest.mark.parametrize("variant", VARIANTS)
def test_param_shapes_match_init(variant):
    cfg = small_cfg(variant)
    p = init_params(cfg, make_embedding(9, 5))
    assert {n: a.shape for n, a in p.items()} == param_shapes(cfg, 9)
    assert list(param_shapes(cfg, 9)) == list(p)


@pytest.mark.parametrize("variant", VARIANTS)
def test_one_name_table(tmp_path, monkeypatch, variant):
    """`init_params`, the model file, the gradients and Adam's moments all
    name the arrays as `param_shapes` does, in its order."""
    cfg = small_cfg(variant)
    names = list(param_shapes(cfg, 9))
    params = init_params(cfg, make_embedding(9, 5))
    assert list(params) == names
    model = Model(cfg, params)
    path = tmp_path / "m.rkn"
    save_model(model, Vocabulary({f"t{i}": i + 2 for i in range(7)}), path)
    assert list(load_model(path)[0].params) == names
    probs, trace = model.forward(batch_for(cfg), step=0)
    assert list(model.backward(trace, np.ones_like(probs))) == names
    made = []
    monkeypatch.setattr(risknet.train, "Adam", lambda *args: made.append(Adam(*args)) or made[-1])
    fit(TrainConfig(cfg, epochs=1, batch_size=2), batch_for(cfg), np.arange(3),
        make_embedding(9, 5))
    (opt,) = made
    assert list(opt.m) == list(opt.v) == names


def test_init_shapes_follow_config():
    cfg = small_cfg()
    p = init_params(cfg, make_embedding(9, 5))
    assert p["lstm.W"].shape == (5, 16) and p["lstm.U"].shape == (4, 16)
    assert p["lstm.b"].shape == (16,)
    assert p["attention.w"].shape == (4, 1) and p["attention.b"].shape == (6, 1)
    assert p["conv.kernels"].shape == (3, 4, 2) and p["conv.bias"].shape == (2,)
    assert p["dense.W"].shape == (6, 4)


def test_init_variant_drops_unused_groups():
    def groups(variant):
        return {n.partition(".")[0] for n in init_params(small_cfg(variant), make_embedding(9, 5))}

    assert groups("cnn") == {"embedding", "conv", "dense"}
    assert groups("lstm") == {"embedding", "lstm", "dense"}
    assert groups("lstm_cnn") == {"embedding", "lstm", "conv", "dense"}


def test_init_rejects_dim_mismatch():
    with pytest.raises(ValueError, match="embed_dim"):
        init_params(small_cfg(), make_embedding(9, 7))


def test_init_builds_float32_arrays():
    p32 = init_params(small_cfg(), make_embedding(9, 5))
    for name, arr in p32.items():
        assert arr.dtype == np.float32, name


def test_init_rejects_an_embedding_that_overflows_float32():
    m = make_embedding(9, 5).matrix
    m[3, 1] = 1e300  # finite in float64, inf in float32
    with pytest.raises(ValueError, match="non-finite"), np.errstate(over="ignore"):
        init_params(small_cfg(), EmbeddingMatrix(m))


def test_param_names_order_stable():
    p = init_params(small_cfg(), make_embedding(9, 5))
    names = list(p)
    assert names[0] == "embedding"
    assert names[1:4] == ["lstm.W", "lstm.U", "lstm.b"]
    assert names[4:6] == ["attention.w", "attention.b"]
    assert names[6:8] == ["conv.kernels", "conv.bias"]
    assert names[8:] == ["dense.W", "dense.b"]


# ------------------------------------------------------------------- forward


@pytest.mark.parametrize("variant", VARIANTS)
def test_forward_shape_chain(variant):
    model = build(variant)
    probs, trace = model.forward(batch_for(model.cfg), step=0)
    assert probs.shape == (3, 4)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)
    assert [op for op, _ in trace] == list(risknet.model._CHAINS[variant])


def test_forward_rejects_wrong_width():
    model = build()
    with pytest.raises(ValueError, match=r"batch must be \(B, 6\)"):
        model.forward(np.zeros((2, 5), dtype=np.int64))


def test_forward_infer_deterministic():
    model = build()
    X = batch_for(model.cfg)
    a, _ = model.forward(X)
    b, _ = model.forward(X)
    assert np.array_equal(a, b)


def test_forward_train_seeded_dropout_deterministic():
    model = build(dropout_rate=0.5)
    X = batch_for(model.cfg)
    a, _ = model.forward(X, step=7)
    b, _ = model.forward(X, step=7)
    c, _ = model.forward(X, step=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("variant", VARIANTS)
def test_inference_leaves_dropout_out(variant):
    X = batch_for(small_cfg(variant))
    probs, trace = build(variant, dropout_rate=0.9).forward(X)
    assert trace is None
    assert np.array_equal(probs, build(variant).forward(X)[0])


@pytest.mark.parametrize("poisoned,run", [
    ("lstm", "forward"),
    ("embedding", "predict"),
    ("lstm", "predict"),
], ids=["lstm-forward", "embedding-predict", "lstm-predict"])
def test_forward_nan_tripwire_names_layer(poisoned, run):
    model = build()
    X = batch_for(model.cfg)
    if poisoned == "lstm":
        model.params["lstm.W"][0, 0] = np.nan
    else:
        model.params["embedding"][X[1, 2], 0] = np.nan
    with pytest.raises(NumericsError, match=f"after layer '{poisoned}'"):
        model.forward(X, step=0) if run == "forward" else model.predict(X)


@pytest.mark.parametrize("variant", VARIANTS)
def test_predict_argmax_batched(variant):
    # two full batches and a partial one
    model = build(variant)
    X = batch_for(model.cfg, B=2 * risknet.model.PREDICT_BATCH + 23)
    X[::3, 4:] = PAD_INDEX
    probs, _ = model.forward(X, step=0)  # dropout_rate 0: the training path's scores
    assert np.array_equal(model.predict(X), probs.argmax(axis=1))


# (embed, LSTM units, max-len, dtype, rows): small_cfg's shape, then the
# paper's and the acceptance chain's widths at one and two rows
CACHE_FREE_CASES = [(5, 4, 6, "float64", 11)] + [
    (D, H, T, dtype, B)
    for D, H, T, dtype in [(300, 100, 12, "float32"), (300, 100, 12, "float64"),
                           (32, 16, 48, "float64")]
    for B in (1, 2)]


@pytest.mark.parametrize("D,H,T,dtype,B", CACHE_FREE_CASES)
@pytest.mark.parametrize("variant", VARIANTS)
def test_cache_free_forward_matches_cached(variant, D, H, T, dtype, B):
    model = build(variant, embed_dim=D, lstm_units=H, max_len=T, dtype=dtype)  # dropout 0
    X = batch_for(model.cfg, B=B)
    X[::2, T // 2 :] = PAD_INDEX
    probs, trace = model.forward(X, step=0)
    fast, none = model.forward(X)
    assert none is None and len(trace) == len(risknet.model._CHAINS[variant])
    assert fast.dtype == probs.dtype and fast.tobytes() == probs.tobytes()


def serial_labels(model, X):
    """Argmax labels from one plain forward per `PREDICT_BATCH`-row chunk."""
    step = risknet.model.PREDICT_BATCH
    return np.concatenate([np.empty(0, dtype=np.int64)]
                          + [model.forward(X[s : s + step])[0].argmax(axis=1)
                             for s in range(0, len(X), step)])


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("N", [0, 1, 2, 127, 128, 129, 300])
def test_threaded_predict_matches_serial_chunks(monkeypatch, N, dtype):
    # a pool of up to three threads; no chunk, and so no pool, for N = 0
    monkeypatch.setattr(risknet.model, "usable_cpus", lambda: 3)
    model = build(dtype=dtype)
    X = batch_for(model.cfg, B=N, seed=N)
    X[::5, 2:] = PAD_INDEX
    got = model.predict(X)
    assert got.shape == (N,) and got.dtype == np.int64
    assert np.array_equal(got, serial_labels(model, X))


def test_predict_on_one_cpu_starts_no_thread(monkeypatch):
    started = []
    monkeypatch.setattr(risknet.model, "usable_cpus", lambda: 1)
    monkeypatch.setattr(threading.Thread, "start", lambda t: started.append(t))
    model = build()
    X = batch_for(model.cfg, B=3 * risknet.model.PREDICT_BATCH)
    assert np.array_equal(model.predict(X), serial_labels(model, X))
    assert started == []


def poison(model, X, chunk, kind):
    """Make chunk `chunk` of X fail.  "nan" puts in the last embedding row,
    made NaN; "index" a token outside the embedding.  X must not use the
    last row otherwise."""
    V = model.params["embedding"].shape[0]
    token = V if kind == "index" else V - 1
    if kind == "nan":
        model.params["embedding"][token, 0] = np.nan
    X[chunk * risknet.model.PREDICT_BATCH + 5, 1] = token


@pytest.mark.parametrize("kinds,error", [
    (("nan", "nan"), NumericsError),
    (("nan", "index"), NumericsError),
    (("index", "nan"), IndexError),
], ids=["both_nan", "nan_first", "index_first"])
def test_predict_raises_the_lowest_failing_chunks_error(monkeypatch, kinds, error):
    # four pool threads for four chunks, so chunks 1 and 3 can fail in different threads
    monkeypatch.setattr(risknet.model, "usable_cpus", lambda: 4)
    model = build()
    X = batch_for(model.cfg, V=8, B=4 * risknet.model.PREDICT_BATCH)
    for chunk, kind in zip((1, 3), kinds):
        poison(model, X, chunk, kind)
    with pytest.raises(error):
        model.predict(X)


@pytest.mark.parametrize("poisoned", [False, True], ids=["returns", "raises"])
def test_predict_leaves_no_thread_behind(monkeypatch, poisoned):
    monkeypatch.setattr(risknet.model, "usable_cpus", lambda: 3)
    model = build()
    X = batch_for(model.cfg, V=8, B=5 * risknet.model.PREDICT_BATCH)
    if poisoned:
        poison(model, X, 4, "nan")
    before = threading.enumerate()
    with pytest.raises(NumericsError) if poisoned else contextlib.nullcontext():
        model.predict(X)
    assert threading.enumerate() == before


@pytest.mark.parametrize("bad", [9, -1], ids=["id_ge_vocab", "negative_id"])
def test_predict_rejects_index_outside_embedding(bad):
    model = build()  # 9 embedding rows
    X = batch_for(model.cfg)
    X[1, 2] = bad
    with pytest.raises(IndexError, match=r"embedding index out of range \[0, 9\)"):
        model.predict(X)


# ------------------------------------------------------------------ backward


@pytest.mark.parametrize("variant", VARIANTS)
def test_full_stack_gradients_finite_difference(variant):
    rng = np.random.default_rng(17)
    model = build(variant, seed=2)
    X = batch_for(model.cfg, seed=3, B=2)
    probs, trace = model.forward(X, step=4)
    R, loss_of = projection_loss(rng, probs.shape)
    grads = model.backward(trace, dlogits_through_softmax(probs, R))

    def loss():
        return loss_of(model.forward(X, step=4)[0])

    for name, arr in model.params.items():
        if name == "embedding":
            continue  # PAD-masked; checked separately on non-PAD rows
        fd_check(loss, arr, grads[name], rng, samples=5, name=f"{variant}:{name}")


def relu_signs_and_pool_choices(trace):
    """The conv pre-activations' signs and maxpool's picks in a training trace:
    the loss is smooth in the parameters while these stay put."""
    return [c[2] > 0.0 if op == "conv1d_relu" else c[2]
            for op, c in trace if op in ("conv1d_relu", "maxpool1d")]


@settings(max_examples=25, deadline=None)
@given(variant=st.sampled_from(VARIANTS), B=st.integers(1, 4), D=st.integers(1, 5),
       H=st.integers(1, 5), kernel=st.integers(1, 9), pool=st.integers(1, 3),
       windows=st.integers(1, 3), rest=st.integers(0, 2), filters=st.integers(1, 3),
       rate=st.sampled_from([0.0, 0.25, 0.3, 0.5]), seed=st.integers(0, 2**32 - 1))
# a one-row batch whose kernel is longer than the post, a one-unit LSTM over
# one input column without dropout, and a pool as long as the post
@example(variant="lstm_attention_cnn", B=1, D=2, H=3, kernel=8, pool=2, windows=1, rest=1,
         filters=1, rate=0.5, seed=0)
@example(variant="lstm", B=2, D=1, H=1, kernel=3, pool=1, windows=4, rest=0, filters=2,
         rate=0.0, seed=1)
@example(variant="cnn", B=3, D=4, H=2, kernel=9, pool=3, windows=1, rest=0, filters=3,
         rate=0.3, seed=2)
@example(variant="lstm_cnn", B=4, D=5, H=5, kernel=1, pool=2, windows=3, rest=1, filters=1,
         rate=0.25, seed=3)
def test_full_stack_finite_differences_on_drawn_shapes(variant, B, D, H, kernel, pool, windows,
                                                       rest, filters, rate, seed):
    T = pool * windows + rest % pool
    rng = np.random.default_rng(seed)
    model = build(variant, V=9, seed=seed % 1000, max_len=T, embed_dim=D, lstm_units=H,
                  kernel=kernel, pool=pool, filters=filters, dropout_rate=rate)
    X = batch_for(model.cfg, seed=seed % 997, B=B)  # no PAD, whose row gets no gradient
    probs, trace = model.forward(X, step=3)
    smooth = relu_signs_and_pool_choices(trace)
    R, loss_of = projection_loss(rng, probs.shape)
    grads = model.backward(trace, dlogits_through_softmax(probs, R))
    grads["embedding"] = dense(grads["embedding"])

    def loss_if_smooth():
        """The loss, or None when a ReLU or a pool pick moved."""
        p, tr = model.forward(X, step=3)
        moved = any(not np.array_equal(a, b)
                    for a, b in zip(relu_signs_and_pool_choices(tr), smooth))
        return None if moved else loss_of(p)

    h, checked = 1e-6, 0
    for name, arr in model.params.items():
        for flat in rng.choice(arr.size, size=min(3, arr.size), replace=False):
            ix = np.unravel_index(flat, arr.shape)
            old = arr[ix]
            arr[ix] = old + h
            lp = loss_if_smooth()
            arr[ix] = old - h
            lm = loss_if_smooth()
            arr[ix] = old
            if lp is None or lm is None:
                continue  # the step crosses a kink
            fd, an = (lp - lm) / (2 * h), grads[name][ix]
            assert abs(fd - an) <= 1e-4 * max(abs(fd), abs(an)) + 1e-8, f"{name}{ix}: {an} vs {fd}"
            checked += 1
    assert checked >= len(model.params)


def test_full_stack_embedding_gradient_nonpad_rows():
    rng = np.random.default_rng(23)
    model = build(seed=5)
    X = batch_for(model.cfg, seed=6, B=2, lo=2)  # rows 2.. only
    probs, trace = model.forward(X, step=4)
    R, loss_of = projection_loss(rng, probs.shape)
    dE = dense(model.backward(trace, dlogits_through_softmax(probs, R))["embedding"])
    E = model.params["embedding"]
    sub = E[2:]
    fd_check(lambda: loss_of(model.forward(X, step=4)[0]), sub, dE[2:], rng, samples=10,
             name="E[2:]")
    assert np.all(dE[PAD_INDEX] == 0.0)


def test_backward_zero_upstream_gives_zero_grads():
    model = build()
    _, trace = model.forward(batch_for(model.cfg), step=0)
    grads = model.backward(trace, np.zeros((3, 4)))
    grads["embedding"] = dense(grads["embedding"])
    for name, g in grads.items():
        assert np.all(g == 0.0), name


def test_backward_duplicated_example_doubles_contribution():
    # with an unnormalized upstream (dlogits independent of batch size),
    # gradients are batch sums, so duplicating a row doubles its term
    model = build()
    cfg = model.cfg
    row = np.random.default_rng(9).integers(1, 9, size=(1, cfg.max_len))
    dl = np.array([[1.0, -0.5, 0.25, -0.75]])

    _, tr1 = model.forward(row, step=0)
    g1 = model.backward(tr1, dl)
    _, tr2 = model.forward(np.vstack([row, row]), step=0)
    g2 = model.backward(tr2, np.vstack([dl, dl]))
    for grads in (g1, g2):
        grads["embedding"] = dense(grads["embedding"])
    for name, g in g1.items():
        assert np.allclose(g2[name], 2.0 * g, atol=1e-12), name


def test_backward_grad_names_match_params():
    for variant in VARIANTS:
        model = build(variant)
        _, trace = model.forward(batch_for(model.cfg), step=0)
        grads = model.backward(trace, np.ones((3, 4)))
        assert set(grads) == set(model.params)
        for name, arr in model.params.items():
            assert grads[name].shape == arr.shape, name


def test_lstm_variant_routes_last_step_only():
    model = build("lstm")
    X = batch_for(model.cfg)
    probs, trace = model.forward(X, step=0)
    # the dense head must see h_T: recompute via the lstm trace
    op, cache = trace[2]
    assert op == "lstm"
    # grads flow: upstream on the logits affects only via last step, so
    # earlier steps receive gradient solely through the recurrence
    grads = model.backward(trace, np.ones_like(probs))
    assert grads["lstm.W"].shape == model.params["lstm.W"].shape


def _backward_peak(model, X, dlogits, hold_lstm_cache):
    """tracemalloc's peak over `Model.backward`, counting the trace's arrays,
    and the bytes of the LSTM cache's G and C."""
    tracemalloc.start()
    try:
        _, trace = model.forward(X, step=0)
        (cache,) = [c for op, c in trace if op == "lstm"]
        _, _, _, G, C, _ = cache
        gate_and_cell = G.nbytes + C.nbytes
        held = list(cache) if hold_lstm_cache else []  # the emptied list holds nothing
        G = C = cache = None
        tracemalloc.reset_peak()
        model.backward(trace, dlogits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del held
    return peak, gate_and_cell


def test_backward_hands_the_lstm_cache_over_to_lstm_backward():
    # a wide input and a narrow LSTM, so that the pass peaks after the LSTM's
    # time loop, by when G (reused as dA) and C are no longer needed
    cfg = ModelConfig(max_len=32, embed_dim=64, lstm_units=4, dropout_rate=0.5, variant="lstm")
    model = Model(cfg, init_params(cfg, make_embedding(50, 64)))
    X = batch_for(cfg, V=50, B=16)
    dlogits = np.full((16, len(RiskLabel)), 0.25, dtype=np.float32)
    handed_over, freed = _backward_peak(model, X, dlogits, hold_lstm_cache=False)
    # as when a reference to every cached array outlives lstm_backward
    held, _ = _backward_peak(model, X, dlogits, hold_lstm_cache=True)
    assert held - handed_over >= 0.9 * freed


def test_training_step_peak_fits_the_byte_table_of_its_caches():
    # one forward and backward pass of the full model at a mid shape, float32.
    # Every activation is cached once, in its narrowest form, so one cached
    # twice (a float dropout mask, the hidden states apart from the output, or
    # tanh of the cell states) adds an activation of B*T*H*4 bytes or more, and
    # the slack is half of one
    B, T, D, H, V = 16, 32, 64, 64, 200
    cfg = ModelConfig(max_len=T, embed_dim=D, lstm_units=H, dropout_rate=0.5, seed=1)
    model = Model(cfg, init_params(cfg, make_embedding(V, D, dtype=np.float32)))
    X = batch_for(cfg, V=V, B=B)
    dlogits = np.full((B, len(RiskLabel)), 0.25 / B, dtype=np.float32)
    model.backward(model.forward(X, step=0)[1], dlogits)  # first-call allocations
    a, act = 4, 4 * B * T * H  # float32 bytes; one (B, T, H) activation
    caches = {
        "dropout keep (bool)": B * T * D,
        "lstm Xt": a * T * B * D,
        "lstm G, then dA": a * T * B * 4 * H,
        "lstm C": a * (T + 1) * B * H,
        "lstm out, attention's input": act,
    }
    # one buffered ufunc call: at most three operand buffers
    ufunc_buffers = 3 * np.getbufsize() * a
    conv_backward = {  # attention's output is the conv input; dX, a window, a tap product
        "attention out": act, "conv transients": 3 * act, "ufunc buffers": ufunc_buffers}
    lstm_time_loop = {  # upstream dH; tanh(c) and the five factors of a BPTT block
        "dH": act, "tanh block": a * min(BPTT_BLOCK, T) * B * H,
        "factor block": 5 * a * min(BPTT_BLOCK, T) * B * H,
        "step scratch": 8 * a * B * H, "ufunc buffers": ufunc_buffers}
    budget = sum(caches.values()) + max(sum(conv_backward.values()),
                                        sum(lstm_time_loop.values()))
    tracemalloc.start()
    try:
        _, trace = model.forward(X, step=1)
        model.backward(trace, dlogits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= budget + act // 2


def test_predict_chunk_peak_is_the_projection_one_activation_and_one_pad_block():
    # one `predict` chunk of the full model at the paper's max-len and LSTM
    # width: during the LSTM it holds the projected distinct rows and the
    # (B, T, H) output, and after it that output, which attention scales in
    # place, and one conv pad block of CONV_BLOCK posts
    B, T, H, V = risknet.model.PREDICT_BATCH, 128, 100, 2000
    cfg = ModelConfig(max_len=T, embed_dim=32, lstm_units=H, dropout_rate=0.0, seed=3)
    model = Model(cfg, init_params(cfg, make_embedding(V, 32, dtype=np.float32)))
    X = batch_for(cfg, V=V, B=B)
    X[::2, : T // 2] = PAD_INDEX
    tracemalloc.start()
    try:
        model.forward(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    projected = np.unique(X).size * 4 * H
    pad_block = CONV_BLOCK * (T + cfg.kernel - 1) * H
    assert peak <= 1.1 * 4 * (projected + B * T * H + pad_block)  # float32


# ------------------------------------------------------------------ tracing

# the layer functions each variant runs; a timing or tracing hook wraps the
# `risknet.model.<layer>_forward/_backward` attributes and must see every call
_VARIANT_LAYERS = {
    "lstm_attention_cnn": ("embedding", "dropout", "lstm", "attention", "conv1d_relu",
                           "maxpool1d", "flatten", "dense_softmax"),
    "lstm_cnn": ("embedding", "dropout", "lstm", "conv1d_relu", "maxpool1d", "flatten",
                 "dense_softmax"),
    "lstm": ("embedding", "dropout", "lstm", "dense_softmax"),
    "cnn": ("embedding", "dropout", "conv1d_relu", "maxpool1d", "flatten", "dense_softmax"),
}
_ALL_LAYERS = _VARIANT_LAYERS["lstm_attention_cnn"]


@pytest.mark.parametrize("variant", VARIANTS)
def test_layer_functions_are_looked_up_at_call_time(monkeypatch, variant):
    model = build(variant)
    calls = {}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    for layer in _ALL_LAYERS:
        for direction in ("forward", "backward"):
            name = f"{layer}_{direction}"
            monkeypatch.setattr(risknet.model, name, counting(name, getattr(risknet.model, name)))
    probs, trace = model.forward(batch_for(model.cfg), step=1)
    assert calls == {f"{layer}_forward": 1 for layer in _VARIANT_LAYERS[variant]}
    calls.clear()
    model.backward(trace, np.ones_like(probs))
    assert calls == {f"{layer}_backward": 1 for layer in _VARIANT_LAYERS[variant]}
    calls.clear()
    # inference folds embedding -> LSTM into `lstm_infer`, keeping the
    # embedding lookup, and leaves dropout out
    model.forward(batch_for(model.cfg))
    infer = [layer for layer in _VARIANT_LAYERS[variant] if layer not in ("dropout", "lstm")]
    assert calls == {f"{layer}_forward": 1 for layer in infer}
