"""Deterministic random number utilities shared by the whole pipeline.

Two generators are used, both derived from a single 64-bit run seed:

* :class:`Xoshiro256StarStar` drives every shuffle (train/test split,
  per-epoch batch order).  It is a self-contained implementation of the
  published xoshiro256** algorithm so the exact permutations can be
  reproduced from a run config in any language, not just this package.
* ``numpy.random.Generator`` backed by PCG64 supplies bulk array sampling
  (weight init, dropout masks, synthetic text).  Obtain one through
  :func:`bulk_generator` with a stream tag so independent consumers never
  share a stream.

Sub-seeds are derived with the splitmix64 finalizer (:func:`derive_seed`).
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

# Stream tags for derive_seed / bulk_generator. Keep values stable: they are
# part of the reproducibility contract of written run configs.
STREAM_INIT = 1
STREAM_EPOCH = 2
STREAM_DROPOUT = 3
STREAM_UNK = 4
# 5 was the SVM's shuffle stream, which is gone; it is not reused
STREAM_SYNTH = 6


def _mix64(z: int) -> int:
    """splitmix64 output function for one state word."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def splitmix64_sequence(seed: int, count: int) -> list[int]:
    """First ``count`` outputs of splitmix64 started at ``seed``."""
    return [_mix64((seed + k * 0x9E3779B97F4A7C15) & _MASK64) for k in range(count)]


def derive_seed(seed: int, *tags: int) -> int:
    """Mix a stream tag sequence into a master seed.

    Folding each tag through the splitmix64 finalizer gives well-separated
    64-bit sub-seeds, e.g. ``derive_seed(seed, STREAM_DROPOUT, step, layer)``.
    """
    x = _mix64(seed & _MASK64)
    for t in tags:
        x = _mix64(x ^ (t & _MASK64))
    return x


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


class Xoshiro256StarStar:
    """xoshiro256** with splitmix64 state expansion from a 64-bit seed."""

    def __init__(self, seed: int):
        self._s = splitmix64_sequence(seed, 4)

    def next_u64(self) -> int:
        s = self._s
        result = (_rotl((s[1] * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s[1] << 17) & _MASK64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _rotl(s[3], 45)
        return result

    def below(self, n: int) -> int:
        """Unbiased integer in [0, n) via rejection sampling."""
        if n <= 0:
            raise ValueError("bound must be positive")
        threshold = ((1 << 64) // n) * n
        while True:
            r = self.next_u64()
            if r < threshold:
                return r % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle, iterating from the last index down."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


def shuffled_indices(n: int, seed: int) -> list[int]:
    idx = list(range(n))
    Xoshiro256StarStar(seed).shuffle(idx)
    return idx


def bulk_generator(seed: int, *tags: int) -> np.random.Generator:
    """A PCG64-backed numpy Generator on its own derived stream."""
    return np.random.Generator(np.random.PCG64(derive_seed(seed, *tags)))
