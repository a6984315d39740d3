"""Deterministic text cleaning, tokenization, stop words, lemmatization.

Cleaning applies, in this fixed order: URL removal, e-mail removal, newline
removal, punctuation stripping, lowercasing, whitespace collapse.  URL and
e-mail matching must run before punctuation stripping or the patterns fall
apart.  The exact constants:

* URLs: ``(?:https?://|www\\.)`` up to the next whitespace, case-insensitive.
* E-mails: ``nonspace+ @ nonspace+ . nonspace+``.
* Punctuation: the 32 ASCII characters ``!"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~``.

Newlines are substituted with a space (so adjoining words stay separate)
and then collapsed with the rest of the whitespace.

The lemmatizer is a rule table with an exception dictionary, not a tagger:
each token is looked up in the shipped exceptions TSV first, then passed
through ordered suffix rules (-ies, -es, -s, -ing, -ed); the first matching
rule wins and rules never cascade.
"""

from __future__ import annotations

import functools
import re
import string
from importlib import resources

_VOWELS = set("aeiou")

_URL_PATTERN = re.compile(r"(?:https?://|www\.)\S+", re.IGNORECASE)
_EMAIL_PATTERN = re.compile(r"\S+@\S+\.\S+")
_PUNCT_TABLE = str.maketrans({c: " " for c in string.punctuation})


def clean(raw: str) -> str:
    s = _URL_PATTERN.sub(" ", raw)
    s = _EMAIL_PATTERN.sub(" ", s)
    s = s.replace("\r", " ").replace("\n", " ")
    s = s.translate(_PUNCT_TABLE).lower()
    return " ".join(s.split())


def load_stopwords() -> frozenset[str]:
    """The packaged 179-word English stop-word list, one lowercase token per line."""
    text = resources.files("risknet.data").joinpath("stopwords.txt").read_text("utf-8")
    return frozenset(w for w in text.splitlines() if w)


def load_lemma_exceptions() -> dict[str, str]:
    """The packaged exception dictionary, a TSV of ``surface<TAB>lemma`` rows."""
    text = resources.files("risknet.data").joinpath("lemma_exceptions.tsv").read_text("utf-8")
    table = {}
    for line in text.splitlines():
        if not line:
            continue
        surface, lemma = line.split("\t")
        table[surface] = lemma
    return table


# the packaged tables, read once
_stopwords = functools.cache(load_stopwords)
_exceptions = functools.cache(load_lemma_exceptions)


def _has_vowel(s: str) -> bool:
    return any(c in _VOWELS for c in s)


def _undouble(stem: str) -> str:
    # Porter-style: strip a doubled final consonant except l/s/z
    # ("running" -> "run" but "falling" -> "fall").
    if len(stem) >= 2 and stem[-1] == stem[-2] and stem[-1] not in _VOWELS and stem[-1] not in "lsz":
        return stem[:-1]
    return stem


def lemma(token: str) -> str:
    """Map one lowercase token to its lemma by exception table, then rules."""
    exc = _exceptions()
    return exc[token] if token in exc else rule_lemma(token)


def rule_lemma(token: str) -> str:
    """The suffix rules alone, without the exception table."""
    if token.endswith("ies") and len(token) >= 5:
        return token[:-3] + "y"
    if token.endswith("es") and len(token) >= 4 and token[:-2].endswith(("s", "sh", "ch", "x", "z", "o")):
        return token[:-2]
    if token.endswith("s") and len(token) >= 4 and not token.endswith("ss"):
        return token[:-1]
    if token.endswith("ing") and len(token) >= 5:
        stem = token[:-3]
        if len(stem) >= 2 and _has_vowel(stem):
            return _undouble(stem)
        return token
    if token.endswith("ed") and len(token) >= 5:
        stem = token[:-2]
        if len(stem) >= 3 and _has_vowel(stem):
            return _undouble(stem)
        return token
    return token


def lemmatize(tokens: list[str]) -> list[str]:
    return [lemma(t) for t in tokens]


def content_tokens(text: str) -> list[str]:
    """Cleaned text -> tokens: split on spaces, drop stop words, lemmatize.

    Splitting never yields an empty token, and no token holds whitespace."""
    stopwords = _stopwords()
    return lemmatize([t for t in text.split() if t not in stopwords])


def preprocess(raw: str) -> list[str]:
    """Full pipeline: clean, then `content_tokens`."""
    return content_tokens(clean(raw))
