"""Cleaning, tokenization, stop words, and the rule lemmatizer."""

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risknet.textprep import (
    clean,
    content_tokens,
    lemma,
    lemmatize,
    load_lemma_exceptions,
    load_stopwords,
    preprocess,
    rule_lemma,
)

# ------------------------------------------------------------------- clean


def test_clean_url_and_punctuation():
    assert clean("Check https://a.b/c NOW!!") == "check now"


def test_clean_email_and_newline():
    assert clean("mail me at a@b.com\nplease") == "mail me at please"


def test_clean_empty():
    assert clean("") == ""


def test_clean_www_prefix():
    assert clean("see www.example.org/page for info") == "see for info"


def test_clean_newline_separates_words():
    # newline becomes a space, never a join
    assert clean("one\ntwo\r\nthree") == "one two three"


def test_clean_strips_all_ascii_punctuation():
    assert clean(string.punctuation) == ""
    assert clean("a!b\"c#d$e" ) == "a b c d e"


def test_clean_collapses_whitespace_and_trims():
    assert clean("  lots\t of   space  ") == "lots of space"


def test_clean_lowercases():
    assert clean("MiXeD CaSe") == "mixed case"


@given(st.text(max_size=200))
@settings(max_examples=300, deadline=None)
def test_clean_idempotent(raw):
    once = clean(raw)
    assert clean(once) == once


@given(st.text(max_size=200))
@settings(max_examples=300, deadline=None)
def test_tokens_never_contain_punctuation_or_space(raw):
    tokens = preprocess(raw)
    for tok in tokens:
        assert tok
        assert not set(tok) & set(string.punctuation)
    # the condition a token file's reader checks
    assert " ".join(tokens).split() == tokens


# ---------------------------------------------------------- content tokens


def test_content_tokens_split_examples():
    assert content_tokens("want help today") == ["want", "help", "today"]
    assert content_tokens("") == []
    assert content_tokens("x") == ["x"]


# --------------------------------------------------------------- stopwords


def test_packaged_stopword_list_has_179_words():
    sw = load_stopwords()
    assert isinstance(sw, frozenset) and len(sw) == 179
    assert all(w == w.lower() and " " not in w for w in sw)
    assert {"i", "the", "was", "and"} <= sw


def test_content_tokens_drop_stopwords_examples():
    assert content_tokens("i want help") == ["want", "help"]
    assert content_tokens("a the a") == []
    assert content_tokens("x z") == ["x", "z"]


# -------------------------------------------------------------- lemmatizer

@pytest.mark.parametrize(
    "token,expected",
    [
        ("dogs", "dog"),          # plain -s
        ("studies", "study"),     # -ies -> -y
        ("boxes", "box"),         # -es after x
        ("churches", "church"),   # -es after ch
        ("glasses", "glass"),     # -es after ss stem
        ("running", "run"),       # -ing with consonant undo
        ("falling", "fall"),      # undo skips l
        ("missing", "miss"),      # undo skips s
        ("helping", "help"),      # -ing, no doubled consonant
        ("stopped", "stop"),      # -ed with consonant undo
        ("talked", "talk"),       # -ed plain
        ("help", "help"),         # no rule
        ("gas", "gas"),           # too short for -s rule
        ("glass", "glass"),       # -ss protected
        ("ring", "ring"),         # stem too short for -ing
        ("bed", "bed"),           # too short for -ed
        ("bring", "bring"),       # stem has no vowel: keep
    ],
)
def test_suffix_rules(token, expected):
    assert rule_lemma(token) == expected


def test_exception_dictionary_wins_over_rules():
    assert lemma("was") == "be"
    assert lemma("went") == "go"
    assert lemma("movies") == "movie"   # shipped exception, not "movy"
    assert lemma("worried") == "worry"


def test_explicit_exceptions_override():
    # the table wins where the rules alone give another lemma
    assert rule_lemma("worried") == "worri" and lemma("worried") == "worry"
    assert rule_lemma("has") == "has" and lemma("has") == "have"


def test_rules_never_cascade():
    # -ies fires once; the result is not re-lemmatized
    assert rule_lemma("babies") == "baby"


def test_lemmatize_maps_elementwise():
    assert lemmatize(["dogs", "running", "help"]) == ["dog", "run", "help"]


def test_packaged_exceptions_all_lowercase_pairs():
    table = load_lemma_exceptions()
    assert table["was"] == "be"
    for surface, target in table.items():
        assert surface == surface.lower() and target == target.lower()


@given(st.text(alphabet=st.sampled_from("abcdefghijklmnopqrstuvwxyz"), max_size=12))
@settings(max_examples=500, deadline=None)
def test_rules_never_lengthen(token):
    assert len(rule_lemma(token)) <= len(token)


# ------------------------------------------------------------- preprocess


def test_preprocess_pipeline():
    out = preprocess("I was running to the STORES!! visit https://x.y")
    assert out == ["run", "store", "visit"]


def test_preprocess_deterministic():
    raw = "Dogs were barking; email me@you.org for DETAILS\nplease!"
    assert preprocess(raw) == preprocess(raw)
