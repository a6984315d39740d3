"""Synthetic corpus generator: determinism and survivability of the signal."""

import pytest

from risknet.corpus import RiskLabel, merge_title_body
from risknet.synth import (
    CLASS_KEYWORDS,
    CLASS_THEMES,
    FILLER,
    INFLECTIONS,
    STOPWORD_NOISE,
    generate_corpus,
)
from risknet.textprep import clean, lemma, preprocess


def test_generate_exact_count_and_ids():
    posts = generate_corpus(37, seed=0)
    assert len(posts) == 37
    assert [p.post_id for p in posts] == [f"p{i:06d}" for i in range(37)]
    assert all(p.title and p.body for p in posts)


def test_generate_deterministic():
    a = generate_corpus(60, seed=5)
    b = generate_corpus(60, seed=5)
    assert a == b
    c = generate_corpus(60, seed=6)
    assert a != c


def test_labels_constant_per_user():
    posts = generate_corpus(200, seed=1)
    per_user = {}
    for p in posts:
        per_user.setdefault(p.user_id, set()).add(p.label)
    assert all(len(labels) == 1 for labels in per_user.values())
    assert any(len([q for q in posts if q.user_id == u]) > 1 for u in per_user)


def test_all_four_classes_roughly_balanced():
    posts = generate_corpus(400, seed=2)
    counts = {c: 0 for c in RiskLabel}
    for p in posts:
        counts[p.label] += 1
    for c in RiskLabel:
        assert counts[c] >= 400 // 8  # no class starved


def test_rejects_nonpositive_count():
    with pytest.raises(ValueError):
        generate_corpus(0, seed=0)


def test_timestamps_strictly_increasing():
    posts = generate_corpus(50, seed=3)
    ts = [p.timestamp for p in posts]
    assert all(a < b for a, b in zip(ts, ts[1:]))


# ------------------------------------------------- signal survives cleaning


def test_keywords_and_filler_survive_preprocessing():
    pools = [tok for kws in CLASS_KEYWORDS.values() for tok in kws] + list(FILLER)
    for tok in pools:
        assert preprocess(tok) == [tok], tok


def test_theme_tokens_come_from_the_pools():
    allowed = {tok for kws in CLASS_KEYWORDS.values() for tok in kws} | set(FILLER)
    for themes in CLASS_THEMES.values():
        for theme in themes:
            for tok in theme:
                assert tok in allowed, tok


def test_inflections_lemmatize_back_to_base():
    for base, variants in INFLECTIONS.items():
        for v in variants:
            assert lemma(v) == base, f"{v} -> {lemma(v)} != {base}"


def test_stopword_noise_is_dropped_by_the_pipeline():
    for tok in STOPWORD_NOISE:
        assert preprocess(tok) == [], tok


def test_generated_posts_clean_to_nonempty_token_streams():
    posts = generate_corpus(80, seed=7)
    for p in posts:
        tokens = preprocess(merge_title_body(p))
        assert len(tokens) >= 5, p.post_id
        assert all(tok == clean(tok) for tok in tokens)


def test_class_signal_present_in_cleaned_tokens():
    # posts should, in aggregate, contain their own tier's keywords more
    # often than any other tier's
    posts = generate_corpus(400, seed=11)
    hits = {c: {k: 0 for k in RiskLabel} for c in RiskLabel}
    for p in posts:
        tokens = set(preprocess(merge_title_body(p)))
        for pool_cls, kws in CLASS_KEYWORDS.items():
            hits[p.label][pool_cls] += len(tokens & set(kws))
    for c in RiskLabel:
        own = hits[c][c]
        others = max(v for k, v in hits[c].items() if k != c)
        assert own > others, f"class {c}: own {own} <= other {others}"
