"""Vocabulary building, embedding-file loading, and fixed-length encoding.

Index 0 is PAD and index 1 is UNK in every vocabulary.  Sequences are
pre-padded (tokens right-aligned) and over-length sequences keep their last
max_len tokens, so the most recent words sit nearest the classifier head.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import utf8_lines
from .rng import STREAM_INIT, STREAM_UNK, bulk_generator

PAD_INDEX = 0
UNK_INDEX = 1
PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"

INIT_SCALE = 0.05  # uniform half-width for embedding init and the UNK row
# the largest magnitude an embedding file may hold: model.rkn stores float32
FLOAT32_MAX = float(np.finfo(np.float32).max)
# elements per block of `all_finite`'s check
_FINITE_CHECK_BLOCK = 1 << 16


def all_finite(arr: np.ndarray) -> bool:
    """Whether every entry of `arr` is finite, checked a block of leading-axis
    rows at a time, so that the check's boolean temporary holds at most
    `_FINITE_CHECK_BLOCK` entries (or one row, if a row holds more) and a
    strided view is not copied."""
    rows = max(1, _FINITE_CHECK_BLOCK // max(1, math.prod(arr.shape[1:])))
    return all(np.isfinite(arr[start : start + rows]).all()
               for start in range(0, arr.shape[0], rows))


@dataclass(frozen=True)
class Vocabulary:
    token_to_index: dict[str, int]

    def __post_init__(self):
        for token, idx in self.token_to_index.items():
            if idx < 2:
                raise ValueError(f"token '{token}' maps to reserved index {idx}")
        indices = sorted(self.token_to_index.values())
        if indices != list(range(2, 2 + len(indices))):
            raise ValueError("vocabulary indices must be contiguous from 2")

    @property
    def size(self) -> int:
        """Total index count including PAD and UNK."""
        return len(self.token_to_index) + 2

    def index(self, token: str) -> int:
        return self.token_to_index.get(token, UNK_INDEX)


@dataclass
class EmbeddingMatrix:
    matrix: np.ndarray  # V x D, in the caller's dtype (the loaders here make float64)

    def __post_init__(self):
        if self.matrix.ndim != 2:
            raise ValueError("embedding matrix must be 2-D")
        if not all_finite(self.matrix):
            raise ValueError("embedding matrix contains non-finite entries")
        if np.any(self.matrix[PAD_INDEX] != 0.0):
            raise ValueError("PAD row must be all zeros")

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]


class EmbeddingFormatError(ValueError):
    pass


def load_embeddings(path: str | Path, seed: int = 0) -> tuple[Vocabulary, EmbeddingMatrix]:
    """Parse the standard text interchange format: header, then token + floats.

    File tokens get indices 2.. in file order.  The PAD row is zero and the
    UNK row is drawn from U(-0.05, 0.05) with the run seed so unknown words
    start as a trainable vector rather than a silent drop.  Every entry must
    be finite and at most `FLOAT32_MAX` in magnitude, so that the float32
    model keeps it finite.
    """
    path = Path(path)

    def bad(line: int, problem: str) -> EmbeddingFormatError:
        return EmbeddingFormatError(f"{path}: line {line}: {problem}")

    with path.open("r", encoding="utf-8") as fh:
        lines = utf8_lines(path, fh, EmbeddingFormatError)
        header = next(lines, "")
        parts = header.split()
        if len(parts) != 2:
            raise bad(1, f"header must be '<vocab> <dim>', got {header!r}")
        try:
            n_tokens, dim = int(parts[0]), int(parts[1])
        except ValueError:
            raise bad(1, f"non-integer header fields {parts}") from None
        if n_tokens < 1 or dim < 1:
            raise bad(1, f"header counts must be positive, got {parts}")
        token_to_index: dict[str, int] = {}
        first_line: dict[str, int] = {}
        rows = np.zeros((n_tokens + 2, dim), dtype=np.float64)
        count = 0
        for line_num, line in enumerate(lines, start=2):
            if not line.strip():
                continue
            fields = line.split()
            if len(fields) != dim + 1:
                raise bad(line_num, f"expected 1 token + {dim} values, got {len(fields)} fields")
            token = fields[0]
            if token in first_line:
                raise bad(line_num,
                          f"duplicate token '{token}' (first seen on line {first_line[token]})")
            if count >= n_tokens:
                raise bad(line_num, f"header mismatch: header declares {n_tokens} tokens, "
                                    f"this line is one more")
            try:
                vec = np.array([float(v) for v in fields[1:]], dtype=np.float64)
            except ValueError:
                raise bad(line_num, "non-numeric vector entry") from None
            if not np.all(np.isfinite(vec)):
                raise bad(line_num, "non-finite vector entry")
            if np.abs(vec).max() > FLOAT32_MAX:
                raise bad(line_num, f"vector entry beyond the float32 range ({FLOAT32_MAX:.8g})")
            first_line[token] = line_num
            token_to_index[token] = 2 + count
            rows[2 + count] = vec
            count += 1
    if count != n_tokens:
        raise bad(1, f"header mismatch: header declares {n_tokens} tokens, file has {count}")
    rows[UNK_INDEX] = bulk_generator(seed, STREAM_UNK).uniform(-INIT_SCALE, INIT_SCALE, size=dim)
    return Vocabulary(token_to_index), EmbeddingMatrix(rows)


def build_vocab(token_lists: Sequence[Sequence[str]], min_count: int = 1) -> Vocabulary:
    """Corpus vocabulary: frequency >= min_count, ordered by count then token."""
    freq = Counter(token for tokens in token_lists for token in tokens)
    kept = sorted(
        (t for t, c in freq.items() if c >= min_count),
        key=lambda t: (-freq[t], t),
    )
    if not kept:
        raise ValueError("empty vocabulary: no token meets min_count")
    return Vocabulary({t: i + 2 for i, t in enumerate(kept)})


def init_embeddings(vocab: Vocabulary, dim: int, seed: int) -> EmbeddingMatrix:
    """Fresh U(-0.05, 0.05) matrix for a corpus vocabulary; PAD row zero."""
    rng = bulk_generator(seed, STREAM_INIT, 0)
    matrix = rng.uniform(-INIT_SCALE, INIT_SCALE, size=(vocab.size, dim))
    matrix[PAD_INDEX] = 0.0
    return EmbeddingMatrix(matrix)


def encode(tokens: Sequence[str], vocab: Vocabulary, max_len: int) -> list[int]:
    """Fixed-length index sequence: UNK for OOV, tail kept, left pad."""
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    ids = [vocab.index(t) for t in tokens[-max_len:]]
    return [PAD_INDEX] * (max_len - len(ids)) + ids


def encode_batch(docs: Sequence[Sequence[str]], vocab: Vocabulary, max_len: int) -> np.ndarray:
    """B x max_len int64 index matrix."""
    return np.array([encode(toks, vocab, max_len) for toks in docs], dtype=np.int64)
