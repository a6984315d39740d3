"""Vocabulary, embedding-file parsing, and fixed-length encoding tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fit_on_tiny_corpus
from risknet import embed
from risknet.embed import (
    PAD_INDEX,
    PAD_TOKEN,
    UNK_INDEX,
    UNK_TOKEN,
    EmbeddingFormatError,
    EmbeddingMatrix,
    Vocabulary,
    build_vocab,
    encode,
    encode_batch,
    init_embeddings,
    load_embeddings,
)


def write_emb(tmp_path, text, name="vecs.txt"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


GOOD = "2 3\nhelp 0.1 0.2 0.3\ndie -0.5 0.25 0.0\n"


# ------------------------------------------------------------ file loading


def test_load_embeddings_counts_reserved_rows(tmp_path):
    vocab, emb = load_embeddings(write_emb(tmp_path, GOOD))
    assert vocab.size == 4 and emb.dim == 3
    assert emb.matrix.shape == (4, 3)
    assert vocab.token_to_index == {"help": 2, "die": 3}
    assert np.array_equal(emb.matrix[2], [0.1, 0.2, 0.3])
    assert np.array_equal(emb.matrix[3], [-0.5, 0.25, 0.0])


def test_load_embeddings_pad_row_zero(tmp_path):
    _, emb = load_embeddings(write_emb(tmp_path, GOOD))
    assert np.all(emb.matrix[PAD_INDEX] == 0.0)


def test_load_embeddings_unk_row_seeded(tmp_path):
    _, a = load_embeddings(write_emb(tmp_path, GOOD), seed=5)
    _, b = load_embeddings(write_emb(tmp_path, GOOD, "second.txt"), seed=5)
    _, c = load_embeddings(write_emb(tmp_path, GOOD, "third.txt"), seed=6)
    assert np.array_equal(a.matrix[UNK_INDEX], b.matrix[UNK_INDEX])
    assert not np.array_equal(a.matrix[UNK_INDEX], c.matrix[UNK_INDEX])
    assert np.all(np.abs(a.matrix[UNK_INDEX]) < 0.05)
    assert np.any(a.matrix[UNK_INDEX] != 0.0)


def embedding_error(path) -> str:
    with pytest.raises(EmbeddingFormatError) as info:
        load_embeddings(path)
    return str(info.value)


def test_header_declares_more_than_file(tmp_path):
    path = write_emb(tmp_path, "5 3\na 1 2 3\nb 4 5 6\n")
    assert embedding_error(path) == (
        f"{path}: line 1: header mismatch: header declares 5 tokens, file has 2")


def test_file_has_more_than_header(tmp_path):
    path = write_emb(tmp_path, "1 2\na 1 2\nb 3 4\n")
    assert embedding_error(path) == (
        f"{path}: line 3: header mismatch: header declares 1 tokens, this line is one more")


def test_bad_header_shape(tmp_path):
    path = write_emb(tmp_path, "3\na 1 2 3\n")
    assert embedding_error(path) == f"{path}: line 1: header must be '<vocab> <dim>', got '3\\n'"


def test_non_integer_header(tmp_path):
    path = write_emb(tmp_path, "two 3\na 1 2 3\n")
    assert embedding_error(path) == f"{path}: line 1: non-integer header fields ['two', '3']"


def test_non_positive_header_counts(tmp_path):
    path = write_emb(tmp_path, "0 3\n")
    assert embedding_error(path) == (
        f"{path}: line 1: header counts must be positive, got ['0', '3']")


def test_wrong_field_count_cites_line(tmp_path):
    path = write_emb(tmp_path, "2 3\na 1 2 3\nb 1 2\n")
    assert embedding_error(path) == f"{path}: line 3: expected 1 token + 3 values, got 3 fields"


def test_non_numeric_entry_cites_line(tmp_path):
    path = write_emb(tmp_path, "2 2\na 1 2\nb x 4\n")
    assert embedding_error(path) == f"{path}: line 3: non-numeric vector entry"


def test_non_finite_entry_rejected(tmp_path):
    path = write_emb(tmp_path, "1 2\na nan 4\n")
    assert embedding_error(path) == f"{path}: line 2: non-finite vector entry"


@pytest.mark.parametrize("value", ["1e300", "-3.5e38"])
def test_entry_beyond_float32_rejected(tmp_path, value):
    path = write_emb(tmp_path, f"2 2\na 0.1 0.2\nb 0.3 {value}\n")
    assert embedding_error(path) == (
        f"{path}: line 3: vector entry beyond the float32 range (3.4028235e+38)")


def test_entry_at_float32_max_loads_and_stays_finite(tmp_path):
    top = np.finfo(np.float32).max
    path = write_emb(tmp_path, f"1 2\na {float(top)!r} {float(-top)!r}\n")
    _, emb = load_embeddings(path)
    assert np.array_equal(emb.matrix[2].astype(np.float32), [top, -top])


def test_duplicate_token_cites_both_lines(tmp_path):
    lines = ["8 2"] + [f"tok{i} {i} {i}" for i in range(7)]
    lines.insert(8, "tok2 9 9")  # line 9 duplicates line 4's token
    path = write_emb(tmp_path, "\n".join(lines) + "\n")
    assert embedding_error(path) == (
        f"{path}: line 9: duplicate token 'tok2' (first seen on line 4)")


# ------------------------------------------------------------- vocabulary


def test_vocabulary_rejects_reserved_and_gaps():
    with pytest.raises(ValueError, match="reserved"):
        Vocabulary({"a": 1})
    with pytest.raises(ValueError, match="contiguous"):
        Vocabulary({"a": 2, "b": 4})


def test_vocabulary_lookup_defaults_to_unk():
    v = Vocabulary({"a": 2})
    assert v.index("a") == 2
    assert v.index("zzz") == UNK_INDEX


def test_build_vocab_filter_and_order():
    v = build_vocab([["a", "a", "a", "b"], ["a", "a", "b", "c"]], min_count=2)
    assert v.token_to_index == {"a": 2, "b": 3}


def test_build_vocab_tie_breaks_lexicographically():
    v = build_vocab([["b", "a", "b", "a"]], min_count=1)
    assert v.token_to_index == {"a": 2, "b": 3}


def test_build_vocab_empty_error():
    with pytest.raises(ValueError, match="empty vocabulary"):
        build_vocab([["rare"]], min_count=5)


def test_init_embeddings_seeded_pad_zero():
    v = Vocabulary({"a": 2, "b": 3})
    e1 = init_embeddings(v, 8, seed=3)
    e2 = init_embeddings(v, 8, seed=3)
    e3 = init_embeddings(v, 8, seed=4)
    assert np.array_equal(e1.matrix, e2.matrix)
    assert not np.array_equal(e1.matrix, e3.matrix)
    assert e1.matrix.shape == (4, 8)
    assert np.all(e1.matrix[PAD_INDEX] == 0.0)
    assert np.all(np.abs(e1.matrix) < 0.05)


def test_embedding_matrix_validation():
    with pytest.raises(ValueError, match="PAD row"):
        EmbeddingMatrix(np.ones((3, 2)))
    with pytest.raises(ValueError, match="non-finite"):
        bad = np.zeros((3, 2))
        bad[2, 1] = np.inf
        EmbeddingMatrix(bad)
    with pytest.raises(ValueError, match="2-D"):
        EmbeddingMatrix(np.zeros(4))


# ---------------------------------------------------------------- encoding

VOCAB = Vocabulary({"die": 5, "want": 9, "a": 2, "b": 3, "c": 4, "d": 6, "e": 7, "f": 8})


def test_encode_pre_pads():
    assert encode(["die", "want", "die"], VOCAB, 5) == [0, 0, 5, 9, 5]


def test_encode_keeps_last_tokens():
    out = encode(["a", "b", "c", "d", "e", "f", "die"], VOCAB, 5)
    assert out == [4, 6, 7, 8, 5]  # tokens 3..7


def test_encode_unknown_to_unk():
    assert encode(["mystery"], VOCAB, 3) == [0, 0, UNK_INDEX]


def test_encode_rejects_bad_max_len():
    with pytest.raises(ValueError):
        encode(["a"], VOCAB, 0)


def test_encode_maps_known_tokens_to_their_indices_in_order():
    tokens = ["want", "die", "b"]
    assert encode(tokens, VOCAB, 6) == [PAD_INDEX] * 3 + [9, 5, 3]


def test_encode_maps_oov_to_unk_index():
    assert encode(["want", "zzz"], VOCAB, 4) == [PAD_INDEX, PAD_INDEX, 9, UNK_INDEX]


def test_encode_batch_shape_dtype():
    X = encode_batch([["a"], ["b", "c"], ["die"] * 9], VOCAB, 4)
    assert X.shape == (3, 4) and X.dtype == np.int64
    assert X[0].tolist() == [0, 0, 0, 2]
    assert X[2].tolist() == [5, 5, 5, 5]


@given(
    st.lists(st.sampled_from(["a", "b", "die", "want", "zzz", "qqq"]), max_size=30),
    st.integers(min_value=1, max_value=12),
)
@settings(max_examples=300, deadline=None)
def test_encode_length_and_range(tokens, max_len):
    out = encode(tokens, VOCAB, max_len)
    assert len(out) == max_len
    assert all(0 <= i < VOCAB.size for i in out)
    # padding is a prefix, never interleaved
    body = [i for i in out if i != PAD_INDEX]
    assert out == [PAD_INDEX] * (max_len - len(body)) + body


@given(st.lists(st.sampled_from(["a", "b", "c", "die"]), min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_encode_keeps_short_known_sequences_whole(tokens):
    out = encode(tokens, VOCAB, 8)
    assert out == [PAD_INDEX] * (8 - len(tokens)) + [VOCAB.index(t) for t in tokens]


# ------------------------------------------------------------------- dump


def test_save_vocab_csv(tmp_path, monkeypatch):
    # `train` writes the vocabulary in index order, whatever its dict order
    monkeypatch.setattr(embed, "build_vocab",
                        lambda token_lists, min_count: Vocabulary({"b": 3, "a": 2}))
    out = fit_on_tiny_corpus("train", tmp_path)
    assert (out / "vocab.csv").read_text(encoding="utf-8") == (
        f"token,index\n{PAD_TOKEN},0\n{UNK_TOKEN},1\na,2\nb,3\n"
    )
