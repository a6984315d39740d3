"""Seeded posts for the paper-shape workloads' token files.

Posts are drawn from a Zipf lexicon (a long tail of rare words, as in real
social-media text) with class-correlated marker tokens planted at a fixed
rate, so that a short paper-shape training run beats chance on most seeds.
Post lengths are uniform on [LEN_MIN, LEN_MAX], which straddles the paper's
max-len of 128: about half the posts are truncated and half are padded.

Every draw comes from one NumPy generator seeded by the workload seed, so the
same seed gives the same rows (`risknet.cli.write_tokens` writes them).
"""

from __future__ import annotations

import numpy as np

CLASSES = 4
LEN_MIN, LEN_MAX = 64, 192
ZIPF_S = 0.8
# One marker token per class fills half of each post.  The paper-shape model
# learns slowly at Adam's default rate, and with a weaker signal a two-epoch
# run stays at chance on some seeds.
MARKER_RATE = 0.5


def _word(i: int) -> str:
    letters = "etaoinshrdlucmfwypvbgkjqxz"
    out = []
    i += 1
    while i:
        i, r = divmod(i - 1, 26)
        out.append(letters[r])
    return "".join(out)


def generate_posts(n_posts: int, lexicon: int, seed: int, offset: int = 0) -> list[dict]:
    """`n_posts` token-file rows; `offset` shifts post ids for a second file."""
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, lexicon + 1, dtype=np.float64)
    cdf = np.cumsum(ranks ** -ZIPF_S)
    cdf /= cdf[-1]
    words = [_word(i) for i in range(lexicon)]
    markers = [f"{_word(c)}{c}x" for c in range(CLASSES)]

    labels = rng.integers(0, CLASSES, size=n_posts)
    lengths = rng.integers(LEN_MIN, LEN_MAX + 1, size=n_posts)
    total = int(lengths.sum())
    draws = np.searchsorted(cdf, rng.random(total), side="right")
    planted = rng.random(total) < MARKER_RATE

    rows = []
    pos = 0
    for i in range(n_posts):
        label = int(labels[i])
        tokens = [markers[label] if planted[j] else words[draws[j]]
                  for j in range(pos, pos + int(lengths[i]))]
        rows.append({"post_id": f"p{offset + i}", "user_id": f"u{(offset + i) // 5}",
                     "label": label, "tokens": tokens})
        pos += int(lengths[i])
    return rows

