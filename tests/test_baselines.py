"""Mean-embedding SVM baseline and the five-variant ablation table."""

import contextlib
import os
import tracemalloc

import numpy as np
import pytest

from conftest import fit_on_tiny_corpus, overflowing
from risknet import baselines
from risknet.baselines import (
    ABLATION_VARIANTS,
    FEATURE_BLOCK,
    LinearSVM,
    _ablation_row,
    ablation_suite,
    mean_embedding_features,
    svm_baseline,
)
from risknet.embed import PAD_INDEX, UNK_INDEX, EmbeddingMatrix
from risknet.layers import NumericsError
from risknet.model import ModelConfig
from risknet.train import TrainConfig


def embedding_with_rows(rows):
    m = np.asarray(rows, dtype=np.float64)
    assert np.all(m[PAD_INDEX] == 0.0)
    return EmbeddingMatrix(m)


# ----------------------------------------------------------------- features


def test_mean_embedding_ignores_pad_and_unk():
    emb = embedding_with_rows([[0, 0], [9, 9], [2, 4], [6, 0]])
    X = np.array([[0, 0, 2, 3], [1, 1, 2, 2]])
    feats = mean_embedding_features(X, emb)
    assert feats[0] == pytest.approx([4.0, 2.0])  # mean of rows 2 and 3
    assert feats[1] == pytest.approx([2.0, 4.0])  # UNK rows skipped


def test_mean_embedding_all_pad_is_zero_vector():
    emb = embedding_with_rows([[0, 0], [9, 9], [2, 4]])
    feats = mean_embedding_features(np.array([[0, 0, 0], [1, 1, 1]]), emb)
    assert np.all(feats == 0.0)


def whole_array_mean_embedding(X, embedding):
    """The features as one (N, T, D) float64 gather and one einsum."""
    E = embedding.matrix.astype(np.float64)
    real = X > UNK_INDEX
    summed = np.einsum("bt,btd->bd", real.astype(np.float64), E[X])
    counts = real.sum(axis=1, keepdims=True).astype(np.float64)
    return summed / np.maximum(counts, 1.0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("N,T,D", [(7, 5, 3), (2 * FEATURE_BLOCK + 37, 48, 32), (FEATURE_BLOCK, 9, 1)])
def test_mean_embedding_blocks_equal_the_whole_array_expression(N, T, D, dtype):
    rng = np.random.default_rng(N + T + D)
    mat = rng.normal(size=(40, D)).astype(dtype)
    mat[PAD_INDEX] = 0.0
    emb = EmbeddingMatrix(mat)
    X = rng.integers(0, 40, size=(N, T))
    X[::3, T // 2 :] = PAD_INDEX
    X[1::5] = UNK_INDEX  # rows with no real token
    feats = mean_embedding_features(X, emb)
    ref = whole_array_mean_embedding(X, emb)
    assert feats.dtype == ref.dtype == np.float64
    assert feats.tobytes() == ref.tobytes()


def test_mean_embedding_peak_memory_is_bounded_by_its_block():
    # paper-length posts: the whole-array gather alone would be N*T*D*8 bytes
    N, T, D = 4 * FEATURE_BLOCK, 128, 32
    rng = np.random.default_rng(0)
    mat = rng.normal(size=(500, D)).astype(np.float32)
    mat[PAD_INDEX] = 0.0
    emb = EmbeddingMatrix(mat)
    X = rng.integers(0, 500, size=(N, T))
    tracemalloc.start()
    try:
        mean_embedding_features(X, emb)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * N * T * D * 8


# ---------------------------------------------------------------------- svm


def separable_clouds(n_per_class=30, seed=0):
    """Four tight clusters at distinct corners of a 2-plane."""
    rng = np.random.default_rng(seed)
    centers = np.array([[4.0, 4.0], [-4.0, 4.0], [-4.0, -4.0], [4.0, -4.0]])
    X = np.vstack([centers[c] + rng.normal(scale=0.3, size=(n_per_class, 2)) for c in range(4)])
    y = np.repeat(np.arange(4), n_per_class)
    return X, y


def test_svm_separates_clean_clusters():
    X, y = separable_clouds()
    clf = LinearSVM().fit(X, y)
    assert np.array_equal(clf.predict(X), y)
    X2, y2 = separable_clouds(seed=9)
    assert (clf.predict(X2) == y2).mean() == 1.0


def test_svm_deterministic():
    X, y = separable_clouds()
    a = LinearSVM().fit(X, y)
    b = LinearSVM().fit(X, y)
    assert np.array_equal(a.W, b.W) and np.array_equal(a.b, b.b)


def test_svm_constant_feature_column_gives_finite_weights():
    X, y = separable_clouds()
    X = np.column_stack([X, np.full(len(y), 0.1), np.zeros(len(y))])
    clf = LinearSVM().fit(X, y)
    assert np.all(np.isfinite(clf.W)) and np.all(np.isfinite(clf.b))
    assert np.array_equal(clf.scale[2:], [1.0, 1.0])
    assert np.array_equal(clf.predict(X), y)


def test_svm_missing_class_rejected():
    X = np.zeros((6, 2))
    y = np.array([0, 0, 1, 1, 3, 3])  # class 2 absent
    with pytest.raises(ValueError, match="class 2 has no training examples"):
        LinearSVM().fit(X, y)


@pytest.mark.parametrize("present, missing", [((1, 2, 3), 0), ((0, 3), 1), ((0, 1, 2), 3)])
def test_svm_missing_class_error_names_the_first_absent_class(present, missing):
    # checked before the features are scaled: every column here is constant
    y = np.array(present * 2)
    with pytest.raises(ValueError, match=f"^class {missing} has no training examples$"):
        LinearSVM().fit(np.ones((y.size, 3)), y)


def test_svm_baseline_identical_features_collapse_to_one_class():
    # uninformative features: every post encodes to the same vector
    emb = embedding_with_rows([[0, 0], [9, 9], [1, 1]])
    X = np.full((40, 5), 2)
    y = np.array([0] * 10 + [1] * 10 + [2] * 10 + [3] * 10)
    m = svm_baseline(X, y, X, y, emb)
    preds_per_class = m.confusion.sum(axis=0)
    assert (preds_per_class > 0).sum() == 1  # one predicted class only
    assert m.accuracy == pytest.approx(0.25)  # majority fraction on balanced y


def test_svm_baseline_separable_vocab_bands():
    rng = np.random.default_rng(5)
    V, D = 10, 4
    # tokens 2+2c, 3+2c sit near axis c, so mean features cluster per class
    mat = np.zeros((V, D))
    for c in range(4):
        mat[2 + 2 * c : 4 + 2 * c] = 3.0 * np.eye(4)[c] + rng.normal(scale=0.2, size=(2, 4))
    emb = EmbeddingMatrix(mat)
    n = 80
    X = np.zeros((n, 6), dtype=np.int64)
    y = np.zeros(n, dtype=np.int64)
    for i in range(n):
        cls = i % 4
        X[i] = rng.integers(2 + 2 * cls, 4 + 2 * cls, size=6)
        y[i] = cls
    m = svm_baseline(X[: n // 2], y[: n // 2], X[n // 2 :], y[n // 2 :], emb)
    assert m.accuracy == 1.0


# ----------------------------------------------------------------- ablation


def small_cfg(seed=0, dropout_rate=0.0):
    model = ModelConfig(max_len=6, embed_dim=4, lstm_units=4, dropout_rate=dropout_rate,
                        filters=2, kernel=3, pool=2, seed=seed)
    return TrainConfig(model=model, epochs=2, batch_size=8)


def band_task(seed=5, n=48):
    rng = np.random.default_rng(seed)
    mat = rng.normal(scale=0.5, size=(10, 4))
    mat[PAD_INDEX] = 0.0
    X = np.zeros((n, 6), dtype=np.int64)
    y = np.zeros(n, dtype=np.int64)
    for i in range(n):
        cls = i % 4
        X[i] = rng.integers(2 + 2 * cls, 4 + 2 * cls, size=6)
        y[i] = cls
    return X, y, EmbeddingMatrix(mat)


def test_ablation_five_rows_in_order():
    X, y, emb = band_task()
    rows = ablation_suite(small_cfg(), X[:32], y[:32], X[32:], y[32:], emb)
    assert [r["model"] for r in rows] == list(ABLATION_VARIANTS)
    for r in rows:
        assert set(r) == {"model", "accuracy", "precision", "recall", "f1"}
        for k in ("accuracy", "precision", "recall", "f1"):
            assert 0.0 <= r[k] <= 1.0


def test_ablation_deterministic():
    X, y, emb = band_task()
    a = ablation_suite(small_cfg(seed=7), X[:32], y[:32], X[32:], y[32:], emb)
    b = ablation_suite(small_cfg(seed=7), X[:32], y[:32], X[32:], y[32:], emb)
    assert a == b


def test_ablation_subset_of_variants():
    X, y, emb = band_task()
    rows = ablation_suite(small_cfg(), X[:32], y[:32], X[32:], y[32:], emb,
                          variants=("svm", "cnn"))
    assert [r["model"] for r in rows] == ["svm", "cnn"]


@pytest.mark.parametrize("variants", [ABLATION_VARIANTS, ("svm", "cnn")])
def test_ablation_pool_equals_in_process_rows(variants):
    X, y, emb = band_task()
    args = (small_cfg(seed=3), X[:32], y[:32], X[32:], y[32:], emb)
    pooled = ablation_suite(*args, variants=variants)
    assert pooled == [_ablation_row(*args, v) for v in variants]


def test_ablation_error_is_the_first_failing_variant_in_order():
    X, y, emb = band_task()
    args = (small_cfg(dropout_rate=0.5), X[:32], y[:32], X[32:], y[32:], overflowing(emb))
    # dropout scales the overflowing embedding to inf, so every neural fit
    # fails, lstm_attention_cnn, the first submitted, too; the SVM's float64
    # features take it
    for variant in ABLATION_VARIANTS[1:]:
        with np.errstate(over="ignore"), pytest.raises(NumericsError, match=(
                rf"^{variant}: epoch 1, step 0, batch 0: non-finite values after layer 'dropout'$")):
            _ablation_row(*args, variant)
    with pytest.raises(NumericsError, match=(
            r"^cnn: epoch 1, step 0, batch 0: non-finite values after layer 'dropout'$")):
        ablation_suite(*args)
    keep = y[:32] != 3
    with pytest.raises(ValueError, match="^class 3 has no training examples$"):
        ablation_suite(small_cfg(), X[:32][keep], y[:32][keep], X[32:], y[32:], emb)


@pytest.mark.parametrize("diverge", [False, True])
def test_ablation_restores_the_callers_blas_environment(monkeypatch, diverge):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    before = dict(os.environ)
    X, y, emb = band_task()
    emb = overflowing(emb) if diverge else emb
    with pytest.raises(NumericsError) if diverge else contextlib.nullcontext():
        ablation_suite(small_cfg(), X[:32], y[:32], X[32:], y[32:], emb, variants=("svm", "cnn"))
    assert dict(os.environ) == before


def noisy_band_task(seed, n=96):
    """`band_task` with 60% of the tokens drawn from any band, so that no
    variant separates the classes."""
    rng = np.random.default_rng(seed)
    mat = rng.normal(scale=0.5, size=(10, 4))
    mat[PAD_INDEX] = 0.0
    own = rng.integers(0, 2, size=(n, 6)) + 2 + 2 * (np.arange(n) % 4)[:, None]
    X = np.where(rng.random((n, 6)) < 0.4, own, rng.integers(1, 10, size=(n, 6)))
    return X, np.arange(n) % 4, EmbeddingMatrix(mat)


def ablation_csv_lines(tmp_path, monkeypatch, suite) -> list[str]:
    """The lines of the ablation.csv that `risknet ablate` writes when its
    suite returns the rows of `suite()`."""
    monkeypatch.setattr(baselines, "ablation_suite", lambda *args, **kwargs: suite())
    out = fit_on_tiny_corpus("ablate", tmp_path)
    return (out / "ablation.csv").read_text(encoding="utf-8").splitlines()


def test_ablation_svm_row_is_pinned(tmp_path, monkeypatch):
    X, y, emb = noisy_band_task(seed=6)
    lines = ablation_csv_lines(tmp_path, monkeypatch, lambda: ablation_suite(
        small_cfg(seed=3), X[:64], y[:64], X[64:], y[64:], emb, variants=("svm",)))
    assert lines[1] == "svm,0.8438,0.8462,0.8438,0.8434"


def test_ablation_csv_format_and_reference_footer(tmp_path, monkeypatch):
    rows = [
        {"model": "svm", "accuracy": 0.5, "precision": 0.25, "recall": 1 / 3, "f1": 0.125},
        {"model": "cnn", "accuracy": 1.0, "precision": 1.0, "recall": 1.0, "f1": 1.0},
    ]
    lines = ablation_csv_lines(tmp_path, monkeypatch, lambda: rows)
    assert lines[0] == "model,accuracy,precision,recall,f1"
    assert lines[1] == "svm,0.5000,0.2500,0.3333,0.1250"
    assert lines[2] == "cnn,1.0000,1.0000,1.0000,1.0000"
    assert lines[3].startswith("# reference lstm_attention_cnn")
    assert "non-binding" in lines[3]
    assert "accuracy=90.3,precision=91.6,recall=93.7,f1=92.6" in lines[3]
