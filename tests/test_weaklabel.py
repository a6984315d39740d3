"""Weak-labeling pipeline: n-gram counts, TF-IDF weights, scores, thresholds."""

import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risknet.cli import main, read_tokens
from risknet.corpus import RiskLabel
from risknet.weaklabel import (
    DEFAULT_TARGET_FRACTIONS,
    NGRAM_SIZES,
    DegenerateScores,
    Thresholds,
    assign_label,
    calibrate_thresholds,
    count_ngrams,
    ngrams,
    post_score,
    tfidf_weights,
    top_terms,
    top_terms_for_class,
    weak_label_documents,
)

LN4 = math.log(4.0)


def docs_from(texts_labels):
    """(token lists, labels) of posts given as space-separated text."""
    return [t.split() for t, _ in texts_labels], [RiskLabel(lab) for _, lab in texts_labels]


# ----------------------------------------------------------------- n-grams


def test_ngrams_windows():
    assert list(ngrams(["a", "b", "a"], 1)) == ["a", "b", "a"]
    assert list(ngrams(["a", "b", "a"], 2)) == ["a b", "b a"]
    assert list(ngrams(["a"], 3)) == []


def test_count_ngrams_unigrams():
    table = count_ngrams(*docs_from([("a b a", 0)]), 1)
    assert table == {RiskLabel.NO_RISK: {"a": 2, "b": 1}, RiskLabel.LOW_RISK: {},
                     RiskLabel.MODERATE_RISK: {}, RiskLabel.SEVERE_RISK: {}}


def test_count_ngrams_bigrams():
    table = count_ngrams(*docs_from([("a b a", 2), ("b a", 3)]), 2)
    assert table[RiskLabel.MODERATE_RISK] == {"a b": 1, "b a": 1}
    assert table[RiskLabel.SEVERE_RISK] == {"b a": 1}


def test_count_ngrams_too_short():
    assert all(not counts for counts in count_ngrams(*docs_from([("a", 1)]), 3).values())


def test_count_ngrams_rejects_bad_n():
    with pytest.raises(ValueError):
        count_ngrams(*docs_from([("a b", 0)]), 4)


def test_count_ngrams_rejects_unlabeled():
    with pytest.raises(ValueError):
        count_ngrams([["a", "b"]], [None], 1)


# --------------------------------------------------------------- top terms


def counts(no=None, low=None, mod=None, sev=None) -> dict[RiskLabel, Counter]:
    """A count table of the shape `count_ngrams` makes, from per-class dicts."""
    return {c: Counter(d or {}) for c, d in zip(RiskLabel, (no, low, mod, sev))}


def test_top_terms_tie_breaks_lexicographically():
    assert top_terms(counts(no={"a": 5, "c": 3, "b": 3}), 2) == ["a", "b"]


def test_top_terms_ranks_by_count_summed_over_classes():
    # "a" leads no class, but its 2 + 2 beats "b"'s 3
    assert top_terms(counts(no={"a": 2, "b": 3}, sev={"a": 2}), 1) == ["a"]


def test_top_terms_k_larger_than_table():
    assert top_terms(counts(low={"b": 1}, mod={"a": 1, "b": 1}), 10) == ["b", "a"]


def test_top_terms_empty_table():
    assert top_terms(counts(), 3) == []


def test_top_terms_rejects_k_below_one():
    with pytest.raises(ValueError):
        top_terms(counts(no={"a": 1}), 0)


def test_top_terms_for_class():
    docs = docs_from([("a a b", 3), ("b", 0)])
    table = count_ngrams(*docs, 1)
    assert top_terms_for_class(table, RiskLabel.SEVERE_RISK, 2) == [("a", 2), ("b", 1)]
    assert top_terms_for_class(table, RiskLabel.NO_RISK, 2) == [("b", 1)]


def _ranked(items, k):
    """Oracle: sort every (ngram, count) pair by count then ngram; the first k."""
    return sorted(items, key=lambda kv: (-kv[1], kv[0]))[:k]


@given(st.lists(st.tuples(st.lists(st.sampled_from("abcd"), max_size=6),
                          st.sampled_from(list(RiskLabel))), max_size=12),
       st.sampled_from(NGRAM_SIZES), st.integers(min_value=1, max_value=25))
@settings(max_examples=300, deadline=None)
def test_top_terms_equal_a_full_sort(posts, n, k):
    table = count_ngrams([toks for toks, _ in posts], [c for _, c in posts], n)
    totals = Counter()
    for cls in RiskLabel:
        totals.update(table[cls])
        assert top_terms_for_class(table, cls, k) == _ranked(table[cls].items(), k)
    assert top_terms(table, k) == [gram for gram, _ in _ranked(totals.items(), k)]


def test_weak_label_documents_peak_memory(tmp_path):
    # the 2000-post acceptance corpus (seed 5); one totals table beside the
    # per-class ones peaked at 15.7 MiB, the per-class tables alone at 7 MiB
    assert main(["synth", "--posts", "2000", "--seed", "5", "--out", str(tmp_path)]) == 0
    assert main(["preprocess", "--dataset", str(tmp_path / "posts.csv"),
                 "--out", str(tmp_path)]) == 0
    rows = read_tokens(tmp_path / "tokens.jsonl")
    token_lists, labels = [r["tokens"] for r in rows], [r["label"] for r in rows]
    tracemalloc.start()
    try:
        weak_label_documents(token_lists, labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20, f"peak {peak / 2**20:.2f} MiB"


# ------------------------------------------------------------------ tf-idf


def table(no=(), low=(), mod=(), sev=(), n=1):
    """The `count_ngrams` table of size n over one post per class given a
    non-empty token list."""
    posts = [(list(toks), c) for toks, c in zip((no, low, mod, sev), RiskLabel) if toks]
    return count_ngrams([t for t, _ in posts], [c for _, c in posts], n)


def test_tfidf_severe_only_term():
    w = tfidf_weights(table(sev=["die"] * 10, no=["x"], low=["y"], mod=["z"]), ["die"])
    assert w["die"] == pytest.approx(1.5 * LN4, abs=1e-10)
    assert w["die"] == pytest.approx(2.0794, abs=1e-4)


def test_tfidf_term_in_all_classes_gets_zero():
    w = tfidf_weights(table(no=["t"], low=["t"], mod=["t"], sev=["t"]), ["t"])
    assert w["t"] == 0.0


def test_tfidf_absent_term_excluded():
    # "a a" is of another size than the table's
    w = tfidf_weights(table(no=["a"], low=["a"], mod=["a"], sev=["a"]), ["ghost", "a a"])
    assert w == {}


def test_tfidf_mixed_class_weight():
    # term in NO_RISK (tf=1) and SEVERE (tf=3): df=2, idf=ln2,
    # weight = ln2 * (-1.5*1 + 1.5*3) / 4 = 0.75*ln2
    w = tfidf_weights(table(no=["k"], low=["x"], mod=["y"], sev=["k"] * 3), ["k"])
    assert w["k"] == pytest.approx(0.75 * math.log(2.0), abs=1e-12)


def test_tfidf_bigram_terms():
    sev = "want to die want to".split()
    w = tfidf_weights(table(no=["a"], low=["b"], mod=["c"], sev=sev, n=2), ["want to"])
    # "want to" occurs twice, only in SEVERE: weight = 1.5 * ln4
    assert w["want to"] == pytest.approx(1.5 * LN4, abs=1e-10)


def test_tfidf_class_without_posts_has_zero_tf():
    # a count_ngrams table holds every class, so a class with no posts is one
    # whose tf is 0 for every term: "a" is in one class of four, idf = ln4
    w = tfidf_weights(table(sev=["a", "b"]), ["a"])
    assert w["a"] == pytest.approx(1.5 * LN4, abs=1e-10)


def test_tfidf_weights_finite():
    docs = table(no="a b c a".split(), low="b d".split(), mod="c e e".split(), sev="a f".split())
    w = tfidf_weights(docs, ["a", "b", "c", "d", "e", "f"])
    assert all(math.isfinite(v) for v in w.values())


def test_tfidf_counts_no_ngram_across_two_posts():
    # the severe posts "c a" and "b d" would join into "c a b d", whose "a b"
    # is a top bigram of the no-risk post "a b"; tf counts within posts only,
    # so "a b" is in one class of four
    docs = docs_from([("a b", 0), ("e", 0), ("e f", 0), ("g", 1), ("g h", 1), ("i", 2),
                      ("i j k", 2), ("c a", 3), ("b d", 3), ("d", 3)])
    result = weak_label_documents(*docs, top_k=50)
    assert result.weights["a b"] == pytest.approx(-1.5 * LN4, abs=1e-12)
    assert result.weights["a b"] == tfidf_weights(count_ngrams(*docs, 2), ["a b"])["a b"]


# -------------------------------------------------------------- post_score


def test_post_score_no_matches():
    assert post_score(["x", "y"], {"z": 1.0}) == 0.0


def test_post_score_mean_of_matches():
    w = {"a": 2.0, "b": 3.0}
    assert post_score(["a", "b"], w) == pytest.approx(2.5)


def test_post_score_singleton():
    assert post_score(["a"], {"a": -1.2}) == pytest.approx(-1.2)


def test_post_score_counts_occurrences():
    # "a" twice (2.0 each) + "b" once (5.0) -> (2+2+5)/3
    w = {"a": 2.0, "b": 5.0}
    assert post_score(["a", "b", "a"], w) == pytest.approx(3.0)


def test_post_score_spans_ngram_sizes():
    w = {"a": 1.0, "a b": 4.0}
    # matches: "a" twice, "a b" once -> (1+1+4)/3
    assert post_score(["a", "b", "a"], w) == pytest.approx(2.0)


@given(st.lists(st.sampled_from("abc"), min_size=1, max_size=8), st.permutations(range(8)))
@settings(max_examples=200, deadline=None)
def test_post_score_depends_only_on_ngram_multiset(tokens, perm):
    w = {"a": 1.0, "b": -2.0, "c": 0.5, "a b": 3.0, "b c a": -1.0}
    shuffled = [tokens[perm[i] % len(tokens)] for i in range(len(tokens))]
    shuffled = shuffled[: len(tokens)]

    def multiset(toks):
        grams = []
        for n in (1, 2, 3):
            grams.extend(ngrams(toks, n))
        return sorted(grams)

    if multiset(tokens) == multiset(shuffled):
        assert post_score(tokens, w) == pytest.approx(post_score(shuffled, w))


# -------------------------------------------------------------- thresholds


def test_calibrate_quantile_oracle():
    scores = list(range(1, 101))
    t = calibrate_thresholds(scores, (0.25, 0.25, 0.25, 0.25))
    assert (t.t1, t.t2, t.t3) == pytest.approx((25.75, 50.5, 75.25), abs=1e-12)


def test_calibrate_default_fractions_near_balanced():
    assert sum(DEFAULT_TARGET_FRACTIONS) == pytest.approx(1.0, abs=1e-12)
    rng = np.random.default_rng(3)
    scores = rng.normal(size=20000)
    t = calibrate_thresholds(scores)
    labels = [assign_label(s, t) for s in scores.tolist()]
    frac = np.bincount(labels, minlength=4) / scores.size
    assert np.all(np.abs(frac - np.asarray(DEFAULT_TARGET_FRACTIONS)) <= 0.02)


def test_calibrate_all_equal_scores_degenerate():
    with pytest.raises(DegenerateScores, match="degenerate score distribution"):
        calibrate_thresholds([1.0] * 50, (0.25, 0.25, 0.25, 0.25))


def test_calibrate_fewer_than_four_distinct_degenerate():
    with pytest.raises(DegenerateScores):
        calibrate_thresholds([1.0, 2.0, 3.0, 1.0, 2.0], (0.25, 0.25, 0.25, 0.25))


def test_calibrate_rejects_bad_fractions():
    with pytest.raises(ValueError):
        calibrate_thresholds([1, 2, 3, 4], (0.5, 0.5, 0.5, 0.5))
    with pytest.raises(ValueError):
        calibrate_thresholds([1, 2, 3, 4], (0.5, 0.5, 0.0, 0.0))
    with pytest.raises(ValueError, match="4 positive reals"):
        # NaN used to pass both checks and reach np.quantile
        calibrate_thresholds([1, 2, 3, 4], (math.nan, 0.2, 0.3, 0.5))
    with pytest.raises(ValueError):
        calibrate_thresholds([], (0.25, 0.25, 0.25, 0.25))


def test_thresholds_must_increase():
    with pytest.raises(ValueError, match="strictly increasing"):
        Thresholds(1.0, 1.0, 2.0)


# ------------------------------------------------------------ assign_label


def test_assign_label_boundaries():
    t = Thresholds(-1.0, 0.0, 1.0)
    assert assign_label(-1.0, t) == RiskLabel.NO_RISK      # score == t1
    assert assign_label(-0.5, t) == RiskLabel.LOW_RISK
    assert assign_label(0.0, t) == RiskLabel.LOW_RISK      # score == t2
    assert assign_label(0.5, t) == RiskLabel.MODERATE_RISK
    assert assign_label(1.0, t) == RiskLabel.MODERATE_RISK  # score == t3
    assert assign_label(1.0 + 1e-12, t) == RiskLabel.SEVERE_RISK


def test_assign_label_at_and_just_past_each_threshold():
    t = Thresholds(-0.3, 0.1, 0.9)
    scores = [-5.0, -0.3, -0.29, 0.1, 0.10001, 0.9, 0.90001, 7.0]
    assert [int(assign_label(s, t)) for s in scores] == [0, 0, 1, 1, 2, 2, 3, 3]


@given(
    st.floats(min_value=-10, max_value=10, allow_nan=False),
    st.floats(min_value=-10, max_value=10, allow_nan=False),
)
@settings(max_examples=500, deadline=None)
def test_assign_label_monotone(a, b):
    t = Thresholds(-1.0, 0.0, 1.0)
    lo, hi = min(a, b), max(a, b)
    assert assign_label(lo, t) <= assign_label(hi, t)


# ------------------------------------------------------- end-to-end helper


def test_weak_label_documents_roundtrip():
    rng = np.random.default_rng(11)
    vocab_by_class = [
        ["fine", "good", "walk"],
        ["tired", "worry", "exam"],
        ["empty", "alone", "numb"],
        ["die", "end", "hurt"],
    ]
    token_lists, labels = [], []
    for i in range(400):
        cls = i % 4
        words = [vocab_by_class[cls][rng.integers(3)] for _ in range(12)]
        words += [vocab_by_class[rng.integers(4)][rng.integers(3)] for _ in range(3)]
        token_lists.append(words)
        labels.append(cls)
    result = weak_label_documents(token_lists, labels, top_k=50,
                                  target_fractions=(0.25, 0.25, 0.25, 0.25))
    assert len(result.labels) == len(token_lists)
    assert result.thresholds.t1 < result.thresholds.t2 < result.thresholds.t3
    # relabeled posts agree with scalar assignment of their scores under the
    # reported weights
    scores = [post_score(tokens, result.weights) for tokens in token_lists]
    for label, score in zip(result.labels, scores):
        assert label == assign_label(score, result.thresholds)
    # severity axis orders the class means
    per_class_mean = [
        np.mean([s for lab, s in zip(labels, scores) if lab == c]) for c in RiskLabel
    ]
    assert per_class_mean == sorted(per_class_mean)
