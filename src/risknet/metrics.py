"""Classification metrics: confusion matrix, per-class and macro P/R/F1.

Confusion rows are true classes, columns are predictions.  Precision and
recall fall back to 0 when their denominator is 0, and F1 is 0 when
precision + recall is 0; macro values are unweighted means over classes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np


@dataclass
class Metrics:
    confusion: np.ndarray
    accuracy: float
    precision: list[float]
    recall: list[float]
    f1: list[float]
    macro_precision: float
    macro_recall: float
    macro_f1: float

    def to_dict(self) -> dict:
        return {**asdict(self), "confusion": self.confusion.tolist()}


def confusion_matrix(y_true: Sequence[int], y_pred: Sequence[int], n_classes: int) -> np.ndarray:
    t = np.asarray(y_true, dtype=np.int64)
    p = np.asarray(y_pred, dtype=np.int64)
    if t.shape != p.shape or t.ndim != 1:
        raise ValueError("y_true and y_pred must be 1-D and the same length")
    if t.size == 0:
        raise ValueError("empty label vectors")
    for name, arr in (("y_true", t), ("y_pred", p)):
        if arr.min() < 0 or arr.max() >= n_classes:
            raise ValueError(f"{name} contains labels outside [0, {n_classes})")
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(cm, (t, p), 1)
    return cm


def compute_metrics(y_true: Sequence[int], y_pred: Sequence[int], n_classes: int = 4) -> Metrics:
    cm = confusion_matrix(y_true, y_pred, n_classes)
    total = int(cm.sum())
    diag = np.diag(cm).astype(np.float64)
    col = cm.sum(axis=0).astype(np.float64)  # predicted counts
    row = cm.sum(axis=1).astype(np.float64)  # true counts
    precision = [float(diag[c] / col[c]) if col[c] > 0 else 0.0 for c in range(n_classes)]
    recall = [float(diag[c] / row[c]) if row[c] > 0 else 0.0 for c in range(n_classes)]
    f1 = [
        (2.0 * p * r / (p + r)) if (p + r) > 0 else 0.0
        for p, r in zip(precision, recall)
    ]
    return Metrics(
        confusion=cm,
        accuracy=float(diag.sum() / total),
        precision=precision,
        recall=recall,
        f1=f1,
        macro_precision=float(sum(precision) / n_classes),
        macro_recall=float(sum(recall) / n_classes),
        macro_f1=float(sum(f1) / n_classes),
    )
