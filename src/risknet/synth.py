"""Seeded synthetic four-class corpus for experiments and acceptance tests.

Each synthetic user gets one risk tier and writes 1-4 posts.  Post text mixes
tier-specific keywords (plus planted bigram themes like "want end" or
"good game"), a small leak of keywords borrowed from adjacent tiers, neutral
filler, and raw-text noise (stop words, URLs, emails, casing, punctuation,
newlines) that the cleaning pipeline must strip.  Classes are learnable but
not separable on any single token.

All keyword and filler tokens are chosen to pass through the preprocessing
pipeline unchanged, and inflected variants map back to their base token, so
the planted signal survives into the token stream (pinned by tests).
"""

from __future__ import annotations

from .corpus import Post, RiskLabel
from .rng import STREAM_SYNTH, bulk_generator

CLASS_KEYWORDS: dict[RiskLabel, tuple[str, ...]] = {
    RiskLabel.NO_RISK: (
        "good", "game", "appreciate", "fun", "friend", "school", "weekend",
        "music", "laugh", "joke", "team", "win", "party", "movie", "happy",
    ),
    RiskLabel.LOW_RISK: (
        "stress", "worry", "exam", "tire", "sad", "argue", "sleep",
        "deadline", "panic", "doubt", "rough", "week", "confuse", "mess", "behind",
    ),
    RiskLabel.MODERATE_RISK: (
        "feel", "empty", "lonely", "numb", "worthless", "hopeless", "burden",
        "cry", "dark", "impossible", "sorry", "alone", "drain", "nobody", "pointless",
    ),
    RiskLabel.SEVERE_RISK: (
        "want", "end", "die", "hurt", "cut", "kill", "pill", "plan",
        "goodbye", "never", "wake", "scream", "escape", "knife", "final",
    ),
}

# short theme sequences planted verbatim (post-cleaning token order)
CLASS_THEMES: dict[RiskLabel, tuple[tuple[str, ...], ...]] = {
    RiskLabel.NO_RISK: (("good", "game"), ("make", "better"), ("need", "joke")),
    RiskLabel.LOW_RISK: (("exam", "stress"), ("sleep", "doubt")),
    RiskLabel.MODERATE_RISK: (("feel", "empty"), ("feel", "lonely")),
    RiskLabel.SEVERE_RISK: (("want", "end"), ("die", "want"), ("want", "hurt"), ("want", "cut")),
}

# surface variants that lemmatize back to the pool token
INFLECTIONS: dict[str, tuple[str, ...]] = {
    "game": ("games",),
    "friend": ("friends",),
    "joke": ("jokes",),
    "laugh": ("laughs", "laughed"),
    "want": ("wants", "wanted"),
    "feel": ("feels", "feeling"),
    "end": ("ends",),
    "die": ("dies", "died", "dying"),
    "cry": ("cries", "cried"),
    "worry": ("worries", "worried"),
    "pill": ("pills",),
    "week": ("weeks",),
    "exam": ("exams",),
    "movie": ("movies",),
    "scream": ("screams", "screamed"),
}

# class-neutral content filler; "make"/"need"/"better" also feed themes
FILLER = (
    "today", "people", "thing", "time", "work", "home", "day", "night",
    "talk", "think", "know", "life", "post", "write", "read", "still",
    "maybe", "really", "make", "need", "better", "year", "room", "house",
)

# removed by cleaning/stop-word filtering; present only as raw-text noise
STOPWORD_NOISE = (
    "the", "and", "to", "i", "my", "it", "was", "of", "a", "in", "so",
    "this", "that", "just", "have", "been", "with", "for", "about", "me",
)

SUBREDDITS = ("offmychest", "vent", "casual", "daily")

_URL_NOISE = ("https://example.com/r/{}", "http://short.link/{}", "www.pagehub.net/{}")
_EMAIL_NOISE = ("user{}@mail.com", "throwaway{}@web.net")

_BASE_TIMESTAMP = 1500000000


def _surface(rng, token: str) -> str:
    """Sometimes swap a keyword for one of its inflected variants."""
    variants = INFLECTIONS.get(token)
    if variants and rng.random() < 0.3:
        return variants[int(rng.integers(len(variants)))]
    return token


def _pick(rng, pool) -> str:
    return pool[int(rng.integers(len(pool)))]


def _class_tokens(rng, label: RiskLabel, n: int) -> list[str]:
    """Content tokens for one post: themes + keywords + borrow + filler."""
    labels = list(RiskLabel)
    adjacent = [labels[label + d] for d in (-1, 1) if 0 <= label + d < len(labels)]
    tokens: list[str] = []
    for theme in CLASS_THEMES[label]:
        if rng.random() < 0.6:
            tokens.extend(theme)
    while len(tokens) < n:
        r = rng.random()
        if r < 0.42:
            tokens.append(_surface(rng, _pick(rng, CLASS_KEYWORDS[label])))
        elif r < 0.50:
            tokens.append(_pick(rng, CLASS_KEYWORDS[_pick(rng, adjacent)]))
        else:
            tokens.append(_pick(rng, FILLER))
    return tokens[:n]


def _noisy_text(rng, tokens: list[str]) -> str:
    """Render tokens as raw text with casing, stop words, and junk noise."""
    words: list[str] = []
    for tok in tokens:
        if rng.random() < 0.35:
            words.append(_pick(rng, STOPWORD_NOISE))
        r = rng.random()
        if r < 0.03:
            tok = tok.upper()
        elif r < 0.13:
            tok = tok.capitalize()
        words.append(tok)
    if rng.random() < 0.12:
        words.insert(int(rng.integers(len(words) + 1)), _pick(rng, _URL_NOISE).format(int(rng.integers(1000))))
    if rng.random() < 0.06:
        words.insert(int(rng.integers(len(words) + 1)), _pick(rng, _EMAIL_NOISE).format(int(rng.integers(1000))))
    # group into sentences with punctuation and occasional newlines
    out: list[str] = []
    i = 0
    while i < len(words):
        span = int(rng.integers(6, 13))
        sentence = " ".join(words[i : i + span])
        out.append(sentence + _pick(rng, (".", ".", ".", "!", "?", "...")))
        i += span
    sep = "\n" if rng.random() < 0.3 else " "
    return sep.join(out)


def generate_corpus(n_posts: int, seed: int) -> list[Post]:
    """Deterministic corpus of n_posts labeled posts grouped by user."""
    if n_posts < 1:
        raise ValueError("n_posts must be >= 1")
    rng = bulk_generator(seed, STREAM_SYNTH)
    posts: list[Post] = []
    user_idx = 0
    while len(posts) < n_posts:
        label = RiskLabel(user_idx % len(RiskLabel))
        user_id = f"u{user_idx:05d}"
        for _ in range(int(rng.integers(1, 5))):
            if len(posts) >= n_posts:
                break
            i = len(posts)
            n_body = int(rng.integers(22, 58))
            title_tokens = _class_tokens(rng, label, int(rng.integers(2, 5)))
            body_tokens = _class_tokens(rng, label, n_body)
            posts.append(
                Post(
                    post_id=f"p{i:06d}",
                    user_id=user_id,
                    timestamp=_BASE_TIMESTAMP + i * 97 + int(rng.integers(50)),
                    subreddit=_pick(rng, SUBREDDITS),
                    title=_noisy_text(rng, title_tokens),
                    body=_noisy_text(rng, body_tokens),
                    label=label,
                )
            )
        user_idx += 1
    return posts
