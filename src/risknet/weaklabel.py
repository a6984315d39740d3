"""Weak labeling: n-gram counts, TF-IDF term weights, post scores, thresholds.

Posts start with user-level labels only.  Every post of a user inherits the
user's label, common n-grams are extracted per class, each term is weighted
by TF-IDF over the four class corpora (each class treated as one document),
and a signed severity axis turns the per-class weights into one scalar per
term.  A post's score is the mean weight of its matched n-gram occurrences,
and quantile-calibrated thresholds cut the score axis into the four classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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


@dataclass
class NgramTable:
    n: int
    counts: dict[str, int] = field(default_factory=dict)
    per_class: dict[RiskLabel, dict[str, int]] = field(default_factory=dict)


@dataclass
class TermWeights:
    weights: dict[str, float]


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
) -> NgramTable:
    """n-gram counts over all posts and per class; `labels[i]` is post i's class."""
    if n not in NGRAM_SIZES:
        raise ValueError(f"n must be one of {NGRAM_SIZES}, got {n}")
    table = NgramTable(n=n, per_class={c: {} for c in RiskLabel})
    for tokens, label in zip(token_lists, labels, strict=True):
        if label is None:
            raise ValueError("count_ngrams requires labeled posts")
        cls_counts = table.per_class[label]
        for gram in ngrams(tokens, n):
            table.counts[gram] = table.counts.get(gram, 0) + 1
            cls_counts[gram] = cls_counts.get(gram, 0) + 1
    return table


def top_terms(table: NgramTable, k: int) -> list[str]:
    """The k highest-count n-grams; ties broken lexicographically."""
    if k < 1:
        raise ValueError("k must be >= 1")
    ranked = sorted(table.counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return [g for g, _ in ranked[:k]]


def top_terms_for_class(table: NgramTable, cls: RiskLabel, k: int) -> list[tuple[str, int]]:
    """Per-class top-k (ngram, count) pairs with the same tie rule."""
    ranked = sorted(table.per_class[cls].items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:k]


def _class_term_counts(
    corpus: Sequence[str], sizes: Iterable[int]
) -> dict[int, dict[str, int]]:
    by_n: dict[int, dict[str, int]] = {}
    for n in sizes:
        counts: dict[str, int] = {}
        for gram in ngrams(corpus, n):
            counts[gram] = counts.get(gram, 0) + 1
        by_n[n] = counts
    return by_n


def tfidf_weights(
    class_corpora: Mapping[RiskLabel, Sequence[str]],
    terms: Sequence[str],
) -> TermWeights:
    """Scalar term weights over the four one-document class corpora.

    tf(term, c) is the raw occurrence count in class c; idf(term) is
    ln(4 / df) with df the number of classes containing the term; the final
    weight is the severity-weighted mean of the per-class tf-idf values:
    sum_c severity(c) * tf * idf / sum_c tf, with the severities of
    :data:`DEFAULT_SEVERITY`.  Terms absent from every class are left out of
    the map.
    """
    missing = [c for c in RiskLabel if c not in class_corpora]
    if missing:
        raise ValueError(f"class corpora missing {missing}")
    sizes = sorted({t.count(" ") + 1 for t in terms})
    per_class = {c: _class_term_counts(class_corpora[c], sizes) for c in RiskLabel}
    n_classes = len(RiskLabel)
    weights: dict[str, float] = {}
    for term in terms:
        n = term.count(" ") + 1
        tf = {c: per_class[c][n].get(term, 0) for c in RiskLabel}
        df = sum(1 for c in RiskLabel if tf[c] > 0)
        if df == 0:
            continue
        idf = math.log(n_classes / df)
        total_tf = sum(tf.values())
        weights[term] = idf * sum(DEFAULT_SEVERITY[c] * tf[c] for c in RiskLabel) / total_tf
    return TermWeights(weights)


def post_score(tokens: Sequence[str], w: TermWeights) -> float:
    """Mean weight over every matched n-gram occurrence; 0.0 if none match."""
    total = 0.0
    matched = 0
    for n in NGRAM_SIZES:
        for gram in ngrams(tokens, n):
            weight = w.weights.get(gram)
            if weight is not None:
                total += weight
                matched += 1
    return total / matched if matched else 0.0


def check_fractions(target_fractions: Sequence[float]) -> np.ndarray:
    """The fractions as a float64 array, if they are 4 positive reals summing to 1."""
    fr = np.asarray(target_fractions, dtype=np.float64)
    if fr.shape != (4,) or not np.all(fr > 0):  # NaN is not > 0
        raise ValueError("target_fractions must be 4 positive reals")
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
    weights: TermWeights
    thresholds: Thresholds
    scores: list[float]


def weak_label_documents(
    token_lists: Sequence[Sequence[str]],
    labels: Sequence[int],
    top_k: int = 300,
    target_fractions: Sequence[float] = DEFAULT_TARGET_FRACTIONS,
) -> WeakLabelResult:
    """Full weak-labeling pass over posts with user-level labels.

    Counts n-grams (n = 1..3), keeps the top_k per size, weights them by
    TF-IDF over the class corpora, scores every post, calibrates thresholds
    to the target fractions, and re-labels each post from its score.
    """
    terms: list[str] = []
    for n in NGRAM_SIZES:
        terms.extend(top_terms(count_ngrams(token_lists, labels, n), top_k))
    class_corpora: dict[RiskLabel, list[str]] = {c: [] for c in RiskLabel}
    for tokens, label in zip(token_lists, labels):
        class_corpora[label].extend(tokens)
    weights = tfidf_weights(class_corpora, terms)
    scores = [post_score(tokens, weights) for tokens in token_lists]
    thresholds = calibrate_thresholds(scores, target_fractions)
    return WeakLabelResult([assign_label(s, thresholds) for s in scores], weights,
                           thresholds, scores)
