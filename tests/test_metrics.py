"""Confusion matrix and macro-averaged metric oracles."""

import json

import numpy as np
import pytest

from risknet.cli import _write_json
from risknet.metrics import Metrics, compute_metrics, confusion_matrix


def brute_force(y_true, y_pred, n_classes):
    """Independent per-class tally, no confusion matrix involved."""
    y_true = list(y_true)
    y_pred = list(y_pred)
    precision, recall, f1 = [], [], []
    for c in range(n_classes):
        tp = sum(1 for t, p in zip(y_true, y_pred) if t == c and p == c)
        fp = sum(1 for t, p in zip(y_true, y_pred) if t != c and p == c)
        fn = sum(1 for t, p in zip(y_true, y_pred) if t == c and p != c)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        precision.append(prec)
        recall.append(rec)
        f1.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
    acc = sum(1 for t, p in zip(y_true, y_pred) if t == p) / len(y_true)
    return acc, precision, recall, f1


def test_confusion_rows_true_cols_pred():
    cm = confusion_matrix([0, 1, 2, 3], [0, 1, 2, 2], 4)
    want = np.zeros((4, 4), dtype=np.int64)
    want[0, 0] = want[1, 1] = want[2, 2] = want[3, 2] = 1
    assert np.array_equal(cm, want)


def test_confusion_row_sums_are_true_counts():
    rng = np.random.default_rng(0)
    y_true = rng.integers(0, 4, size=200)
    y_pred = rng.integers(0, 4, size=200)
    cm = confusion_matrix(y_true, y_pred, 4)
    assert cm.sum() == 200
    assert np.array_equal(cm.sum(axis=1), np.bincount(y_true, minlength=4))
    assert np.array_equal(cm.sum(axis=0), np.bincount(y_pred, minlength=4))


def test_confusion_validation():
    with pytest.raises(ValueError, match="same length"):
        confusion_matrix([0, 1], [0], 4)
    with pytest.raises(ValueError, match="empty"):
        confusion_matrix([], [], 4)
    with pytest.raises(ValueError, match="y_pred"):
        confusion_matrix([0], [4], 4)
    with pytest.raises(ValueError, match="y_true"):
        confusion_matrix([-1], [0], 4)


def test_hand_worked_example():
    m = compute_metrics([0, 1, 2, 3], [0, 1, 2, 2])
    assert m.accuracy == pytest.approx(0.75)
    assert m.precision == pytest.approx([1.0, 1.0, 0.5, 0.0])
    assert m.recall == pytest.approx([1.0, 1.0, 1.0, 0.0])
    assert m.f1 == pytest.approx([1.0, 1.0, 2 / 3, 0.0])
    assert m.macro_precision == pytest.approx(0.625)
    assert m.macro_recall == pytest.approx(0.75)
    assert m.macro_f1 == pytest.approx((1.0 + 1.0 + 2 / 3 + 0.0) / 4)
    assert m.macro_f1 == pytest.approx(0.6667, abs=5e-5)


def test_perfect_predictions():
    m = compute_metrics([0, 1, 2, 3, 2, 1], [0, 1, 2, 3, 2, 1])
    assert m.accuracy == 1.0
    assert m.macro_precision == 1.0
    assert m.macro_recall == 1.0
    assert m.macro_f1 == 1.0


def test_majority_collapse_on_balanced_data():
    y_true = [0, 1, 2, 3] * 10
    m = compute_metrics(y_true, [2] * 40)
    assert m.accuracy == pytest.approx(0.25)
    # only class 2 has nonzero precision (0.25) and recall (1.0)
    assert m.precision == pytest.approx([0.0, 0.0, 0.25, 0.0])
    assert m.recall == pytest.approx([0.0, 0.0, 1.0, 0.0])
    assert m.macro_f1 == pytest.approx(0.4 / 4)


def test_zero_denominators_define_zero_rates():
    # class 3 never appears in truth or prediction
    m = compute_metrics([0, 1, 2], [0, 1, 2])
    assert m.precision[3] == 0.0 and m.recall[3] == 0.0 and m.f1[3] == 0.0


def test_matches_brute_force_on_random_vectors():
    rng = np.random.default_rng(42)
    for trial in range(100):
        n = int(rng.integers(1, 60))
        y_true = rng.integers(0, 4, size=n)
        # sprinkle degenerate prediction patterns among the random ones
        if trial % 5 == 0:
            y_pred = np.full(n, int(rng.integers(0, 4)))
        else:
            y_pred = rng.integers(0, 4, size=n)
        m = compute_metrics(y_true, y_pred)
        acc, prec, rec, f1 = brute_force(y_true, y_pred, 4)
        assert m.accuracy == pytest.approx(acc, abs=1e-12)
        assert m.precision == pytest.approx(prec, abs=1e-12)
        assert m.recall == pytest.approx(rec, abs=1e-12)
        assert m.f1 == pytest.approx(f1, abs=1e-12)
        assert m.macro_f1 == pytest.approx(sum(f1) / 4, abs=1e-12)


def test_rates_all_within_unit_interval():
    rng = np.random.default_rng(7)
    m = compute_metrics(rng.integers(0, 4, 50), rng.integers(0, 4, 50))
    for v in (*m.precision, *m.recall, *m.f1,
              m.accuracy, m.macro_precision, m.macro_recall, m.macro_f1):
        assert 0.0 <= v <= 1.0


def test_metrics_json_round_trip(tmp_path):
    m = compute_metrics([0, 1, 2, 3], [0, 1, 2, 2])
    path = tmp_path / "metrics.json"
    _write_json(path, m.to_dict())  # as `risknet evaluate` writes metrics.json
    loaded = json.loads(path.read_text(encoding="utf-8"))
    assert loaded["accuracy"] == 0.75
    assert loaded["confusion"] == m.confusion.tolist()
    assert loaded["macro_f1"] == pytest.approx(m.macro_f1)
    assert list(loaded) == sorted(loaded)  # stable key order on disk
