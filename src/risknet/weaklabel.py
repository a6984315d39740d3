"""Weak labeling: n-gram counts, TF-IDF term weights, post scores, thresholds.

Posts start with user-level labels only.  Every post of a user inherits the
user's label, and each n-gram size gets one `Counter` per class.  A heap
takes the n-grams of highest summed count, with no totals table or full
sort, and the per-class counts weight each term by TF-IDF with each class
treated as one document: tf counts a term's occurrences within the class's
posts, so an n-gram that spans two posts counts for nothing, and the weights
do not depend on record order.  A signed severity axis turns the per-class
weights into one scalar per term.  A post's score is the mean weight of its
matched n-gram occurrences, and quantile-calibrated thresholds cut the score
axis into the four classes.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import RiskLabel

NGRAM_SIZES = (1, 2, 3)

# Severity scalars per class in ascending risk order; symmetric around zero
# so the score axis is signed and unbiased.
DEFAULT_SEVERITY: dict[RiskLabel, float] = {
    RiskLabel.NO_RISK: -1.5,
    RiskLabel.LOW_RISK: -0.5,
    RiskLabel.MODERATE_RISK: 0.5,
    RiskLabel.SEVERE_RISK: 1.5,
}

# Near-balanced class share targets used by default when calibrating
# thresholds (shares 14849:13691:13462:13678 over 55680).
DEFAULT_TARGET_FRACTIONS = (
    14849 / 55680,
    13691 / 55680,
    13462 / 55680,
    13678 / 55680,
)


class DegenerateScores(ValueError):
    pass


@dataclass(frozen=True)
class Thresholds:
    t1: float
    t2: float
    t3: float

    def __post_init__(self):
        if not (self.t1 < self.t2 < self.t3):
            raise ValueError(f"thresholds must be strictly increasing, got {self}")


def ngrams(tokens: Sequence[str], n: int) -> Iterable[str]:
    """Sliding-window n-grams as space-joined strings."""
    for i in range(len(tokens) - n + 1):
        yield " ".join(tokens[i : i + n])


def count_ngrams(
    token_lists: Sequence[Sequence[str]], labels: Sequence[int], n: int
) -> dict[RiskLabel, Counter]:
    """n-gram counts per class; `labels[i]` is post i's class."""
    if n not in NGRAM_SIZES:
        raise ValueError(f"n must be one of {NGRAM_SIZES}, got {n}")
    table = {c: Counter() for c in RiskLabel}
    for tokens, label in zip(token_lists, labels, strict=True):
        if label is None:
            raise ValueError("count_ngrams requires labeled posts")
        table[label].update(ngrams(tokens, n))
    return table


def top_terms(table: Mapping[RiskLabel, Counter], k: int) -> list[str]:
    """The k n-grams of highest summed class count; ties broken lexicographically."""
    if k < 1:
        raise ValueError("k must be >= 1")
    counts = list(table.values())
    # each n-gram once, from the first class that has it; the (-count, gram)
    # keys are unique, so the heap's k are a full sort's first k
    ranked = heapq.nsmallest(k, ((-sum(c[gram] for c in counts), gram)
                                 for i, cls_counts in enumerate(counts) for gram in cls_counts
                                 if not any(gram in earlier for earlier in counts[:i])))
    return [gram for _, gram in ranked]


def top_terms_for_class(table: Mapping[RiskLabel, Counter], cls: RiskLabel, k: int
                        ) -> list[tuple[str, int]]:
    """Per-class top-k (ngram, count) pairs with the same tie rule."""
    return heapq.nsmallest(k, table[cls].items(), key=lambda kv: (-kv[1], kv[0]))


def tfidf_weights(table: Mapping[RiskLabel, Counter], terms: Sequence[str]) -> dict[str, float]:
    """Scalar term weights over the four classes, each one document.

    tf(term, c) is the term's occurrence count within the posts of class c,
    read from the per-class counts of `table`, made by :func:`count_ngrams`,
    so an n-gram spanning two posts counts for nothing; idf(term) is
    ln(4 / df) with df the number of classes containing the term; the final
    weight is the severity-weighted mean of the per-class tf-idf values:
    sum_c severity(c) * tf * idf / sum_c tf, with the severities of
    :data:`DEFAULT_SEVERITY`.  Terms absent from every class, such as terms
    of another size than the table's, are left out of the map.
    """
    n_classes = len(RiskLabel)
    weights: dict[str, float] = {}
    for term in terms:
        tf = {c: table[c][term] for c in RiskLabel}
        df = sum(1 for c in RiskLabel if tf[c] > 0)
        if df == 0:
            continue
        idf = math.log(n_classes / df)
        total_tf = sum(tf.values())
        weights[term] = idf * sum(DEFAULT_SEVERITY[c] * tf[c] for c in RiskLabel) / total_tf
    return weights


def post_score(tokens: Sequence[str], weights: Mapping[str, float]) -> float:
    """Mean weight over every matched n-gram occurrence; 0.0 if none match."""
    total = 0.0
    matched = 0
    for n in NGRAM_SIZES:
        for gram in ngrams(tokens, n):
            weight = weights.get(gram)
            if weight is not None:
                total += weight
                matched += 1
    return total / matched if matched else 0.0


def check_fractions(target_fractions: Sequence[float]) -> np.ndarray:
    """The fractions as a float64 array, if they are one positive real per tier summing to 1."""
    fr = np.asarray(target_fractions, dtype=np.float64)
    if fr.shape != (len(RiskLabel),) or not np.all(fr > 0):  # NaN is not > 0
        raise ValueError(f"target_fractions must be {len(RiskLabel)} positive reals")
    if abs(float(fr.sum()) - 1.0) > 1e-9:
        raise ValueError("target_fractions must sum to 1")
    return fr


def calibrate_thresholds(
    scores: Sequence[float], target_fractions: Sequence[float] = DEFAULT_TARGET_FRACTIONS
) -> Thresholds:
    """Empirical-quantile thresholds hitting the target class fractions.

    The three cut points are the linearly interpolated quantiles of the
    scores at the cumulative fractions.
    """
    arr = np.asarray(scores, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("scores must be a non-empty 1-D sequence")
    fr = check_fractions(target_fractions)
    if np.unique(arr).size < 4:
        raise DegenerateScores("degenerate score distribution (fewer than 4 distinct scores)")
    q = np.cumsum(fr)[:3]
    t1, t2, t3 = (float(v) for v in np.quantile(arr, q, method="linear"))
    if not (t1 < t2 < t3):
        raise DegenerateScores(
            f"degenerate score distribution (quantiles not strictly increasing: {t1}, {t2}, {t3})"
        )
    return Thresholds(t1, t2, t3)


def assign_label(score: float, t: Thresholds) -> RiskLabel:
    """Closed-on-the-left buckets: score == a threshold stays in the lower class."""
    if score <= t.t1:
        return RiskLabel.NO_RISK
    if score <= t.t2:
        return RiskLabel.LOW_RISK
    if score <= t.t3:
        return RiskLabel.MODERATE_RISK
    return RiskLabel.SEVERE_RISK


@dataclass
class WeakLabelResult:
    labels: list[RiskLabel]
    weights: dict[str, float]
    thresholds: Thresholds


def weak_label_documents(
    token_lists: Sequence[Sequence[str]],
    labels: Sequence[int],
    top_k: int = 300,
    target_fractions: Sequence[float] = DEFAULT_TARGET_FRACTIONS,
) -> WeakLabelResult:
    """Full weak-labeling pass over posts with user-level labels.

    Counts n-grams once per size n = 1..3, keeps the top_k of each size,
    weights them by TF-IDF from the same counts, scores every post, calibrates
    thresholds to the target fractions, and re-labels each post from its score.
    """
    weights: dict[str, float] = {}
    for n in NGRAM_SIZES:  # one table alive at a time
        table = count_ngrams(token_lists, labels, n)
        weights.update(tfidf_weights(table, top_terms(table, top_k)))
    scores = [post_score(tokens, weights) for tokens in token_lists]
    thresholds = calibrate_thresholds(scores, target_fractions)
    return WeakLabelResult([assign_label(s, thresholds) for s in scores], weights, thresholds)
