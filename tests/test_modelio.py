"""Model file format: byte-exact round trips and corruption diagnostics."""

import dataclasses
import json
import math
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import float64_model, needs_digit_limit
from risknet.embed import EmbeddingMatrix, PAD_INDEX, Vocabulary
from risknet.model import VARIANTS, Model, ModelConfig, init_params, param_shapes
from risknet.modelio import FORMAT_VERSION, ModelFileError, load_model, save_model

HEADER = struct.Struct("<I")


def small_model(variant="lstm_attention_cnn", seed=0):
    cfg = ModelConfig(max_len=6, embed_dim=4, lstm_units=3, dropout_rate=0.5,
                      filters=2, kernel=3, pool=2, seed=seed, variant=variant)
    rng = np.random.default_rng(seed)
    m = rng.normal(scale=0.3, size=(7, 4)).astype(np.float32)
    m[PAD_INDEX] = 0.0
    return Model(cfg, init_params(cfg, EmbeddingMatrix(m)))


VOCAB = Vocabulary({"help": 2, "die": 3, "want": 4, "lost": 5, "end": 6})


def saved(tmp_path, model=None, name="model.rkn"):
    path = tmp_path / name
    save_model(model or small_model(), VOCAB, path)
    return path


def seal(body):
    """`body` followed by the CRC32 trailer that covers it."""
    return body + HEADER.pack(zlib.crc32(body))


def split(data):
    """A model file's manifest dict and tensor bytes."""
    (mlen,) = HEADER.unpack_from(data)
    return json.loads(data[HEADER.size : HEADER.size + mlen]), data[HEADER.size + mlen : -4]


def rewrite(path, mutate=lambda m: None, edit_blob=lambda b: b):
    """Re-pack a model file with `mutate` applied to its manifest and
    `edit_blob` to its tensor bytes, and reseal the CRC, so the edit reaches
    the loader's own check for it."""
    manifest, blob = split(path.read_bytes())
    manifest = mutate(manifest) or manifest
    payload = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(seal(HEADER.pack(len(payload)) + payload + edit_blob(blob)))


# ------------------------------------------------------------- round trips


@pytest.mark.parametrize("variant", VARIANTS)
def test_save_load_save_byte_identical(tmp_path, variant):
    model = small_model(variant)
    p1 = tmp_path / "a.rkn"
    p2 = tmp_path / "b.rkn"
    save_model(model, VOCAB, p1)
    loaded, vocab = load_model(p1)
    save_model(loaded, vocab, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_restores_config_vocab_params(tmp_path):
    model = small_model()
    path = saved(tmp_path, model)
    loaded, vocab = load_model(path)
    assert loaded.cfg == model.cfg
    assert vocab.token_to_index == VOCAB.token_to_index
    assert list(model.params) == list(loaded.params)
    for name, a in model.params.items():
        assert np.array_equal(a, loaded.params[name]), name


def test_loaded_model_predicts_identically(tmp_path):
    model = small_model()
    path = saved(tmp_path, model)
    loaded, _ = load_model(path)
    X = np.random.default_rng(1).integers(0, 7, size=(5, 6))
    assert np.array_equal(model.predict(X), loaded.predict(X))


def test_float64_params_save_as_float32_storage(tmp_path):
    # a gradient check's float64 copy of a model saves the model's own bytes
    model = small_model()
    path = saved(tmp_path, float64_model(model))
    assert path.read_bytes() == saved(tmp_path, model, "f32.rkn").read_bytes()
    loaded, _ = load_model(path)
    assert all(a.dtype == np.float32 for a in loaded.params.values())


def test_load_allocates_the_tensor_bytes_about_once(tmp_path):
    # a wide LSTM input and a five-token vocabulary, so that the tensors are
    # nearly the whole file; reading the file whole and casting each tensor
    # out of it peaked at about twice the tensor bytes
    cfg = ModelConfig(max_len=6, embed_dim=512, lstm_units=128, filters=2, kernel=3, pool=2)
    m = np.random.default_rng(0).normal(scale=0.3, size=(7, 512)).astype(np.float32)
    m[PAD_INDEX] = 0.0
    path = saved(tmp_path, Model(cfg, init_params(cfg, EmbeddingMatrix(m))))
    manifest_bytes = HEADER.unpack_from(path.read_bytes())[0]
    tensor_bytes = path.stat().st_size - 2 * HEADER.size - manifest_bytes
    tracemalloc.start()
    try:
        loaded, _ = load_model(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tensor_bytes > 1_000_000
    assert peak <= 1.1 * tensor_bytes + manifest_bytes
    # the float32 tensors are views of one buffer, not copies
    bases = [a.base for a in loaded.params.values()]
    assert bases[0] is not None and all(b is bases[0] for b in bases)


def test_save_is_deterministic(tmp_path):
    a = saved(tmp_path, small_model(seed=5), "a.rkn")
    b = saved(tmp_path, small_model(seed=5), "b.rkn")
    assert a.read_bytes() == b.read_bytes()


# -------------------------------------------------------------- corruption


def test_truncated_header(tmp_path):
    path = tmp_path / "m.rkn"
    path.write_bytes(b"\x01\x02")
    with pytest.raises(ModelFileError, match="missing manifest length"):
        load_model(path)


def test_manifest_shorter_than_declared(tmp_path):
    path = tmp_path / "m.rkn"
    path.write_bytes(seal(HEADER.pack(100) + b"{}"))
    with pytest.raises(ModelFileError, match="manifest shorter than declared"):
        load_model(path)


def test_garbage_manifest(tmp_path):
    path = tmp_path / "m.rkn"
    payload = b"not json at all"
    path.write_bytes(seal(HEADER.pack(len(payload)) + payload))
    with pytest.raises(ModelFileError, match="corrupted manifest"):
        load_model(path)


@needs_digit_limit
def test_manifest_integer_past_the_digit_limit(tmp_path):
    path = tmp_path / "m.rkn"
    payload = b'{"format_version": 1' + b"0" * 5000 + b"}"
    path.write_bytes(seal(HEADER.pack(len(payload)) + payload))
    with pytest.raises(ModelFileError) as info:
        load_model(path)
    assert str(info.value) == "corrupted manifest: invalid JSON (an integer has too many digits)"


def test_version_mismatch(tmp_path):
    path = saved(tmp_path)
    rewrite(path, lambda m: m.update(format_version=FORMAT_VERSION + 1))
    with pytest.raises(ModelFileError, match="format version mismatch: file has 6, expected 5"):
        load_model(path)


def test_version_1_file_is_rejected(tmp_path):
    # version 1 stored the LSTM as twelve per-gate tensors; it is not converted
    path = saved(tmp_path)
    rewrite(path, lambda m: m.update(format_version=1))
    with pytest.raises(ModelFileError, match="format version mismatch: file has 1, expected 5"):
        load_model(path)


def test_version_3_file_is_rejected(tmp_path):
    # version 3 models scaled attention's output by alpha alone, not T * alpha
    path = saved(tmp_path)
    rewrite(path, lambda m: m.update(format_version=3))
    with pytest.raises(ModelFileError, match="format version mismatch: file has 3, expected 5"):
        load_model(path)


def test_version_4_file_is_rejected(tmp_path):
    # version 4 had the same tensors, but its config also held the class
    # count and a dtype; it is not converted
    path = saved(tmp_path)
    rewrite(path, lambda m: m.update(format_version=4)
            or m["config"].update(classes=4, dtype="float32"))
    with pytest.raises(ModelFileError) as info:
        load_model(path)
    assert str(info.value) == "format version mismatch: file has 4, expected 5"


def test_version_2_file_is_rejected_at_the_checksum(tmp_path):
    # version 2 had no trailing CRC, so its last four bytes do not seal the file
    path = saved(tmp_path)
    manifest, blob = split(path.read_bytes())
    manifest.update(format_version=2, blob_bytes=len(blob), blob_crc32=zlib.crc32(blob))
    payload = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(HEADER.pack(len(payload)) + payload + blob)
    with pytest.raises(ModelFileError, match="checksum mismatch: .* older than format version 5"):
        load_model(path)


def test_file_is_manifest_tensors_and_a_crc32_of_every_byte_before(tmp_path):
    data = saved(tmp_path).read_bytes()
    manifest, blob = split(data)
    assert manifest["format_version"] == FORMAT_VERSION == 5
    assert sorted(manifest) == ["config", "format_version", "vocab"]
    assert sorted(manifest["config"]) == sorted(f.name for f in dataclasses.fields(ModelConfig))
    assert manifest["vocab"] == ["help", "die", "want", "lost", "end"]
    # 7 x 4 embedding, 4 x 12 + 3 x 12 + 12 LSTM, 3 + 6 attention, 3 x 3 x 2 + 2
    # conv, 6 x 4 + 4 dense
    assert len(blob) == 4 * 181
    assert HEADER.unpack_from(data, len(data) - 4) == (zlib.crc32(data[:-4]),)


def test_flipped_blob_byte(tmp_path):
    # a flipped bit in the last dense bias used to load and predict silently
    path = saved(tmp_path)
    data = bytearray(path.read_bytes())
    data[-5] ^= 0x01
    path.write_bytes(bytes(data))
    with pytest.raises(ModelFileError, match="checksum mismatch"):
        load_model(path)


def _load_outcome(path, data):
    """None when `data` ends in ModelFileError, else what happened instead."""
    path.write_bytes(data)
    try:
        load_model(path)
    except ModelFileError:
        return None
    except Exception as exc:  # any other error is a finding
        return type(exc).__name__
    return "loaded"


@pytest.mark.parametrize("variant", VARIANTS)
def test_every_bit_flip_and_truncation_is_rejected(tmp_path, variant):
    # with the blob-only CRC of format version 2, 137 of the full model's
    # 11,904 single-bit flips loaded (most of them in the manifest) and one
    # ended in a ZeroDivisionError
    data = saved(tmp_path, small_model(variant)).read_bytes()
    path = tmp_path / "bad.rkn"
    escaped = {}
    for bit in range(8 * len(data)):
        flipped = bytearray(data)
        flipped[bit // 8] ^= 1 << (bit % 8)
        if (outcome := _load_outcome(path, bytes(flipped))) is not None:
            escaped[f"bit {bit}"] = outcome
    for size in range(len(data)):
        if (outcome := _load_outcome(path, data[:size])) is not None:
            escaped[f"first {size} bytes"] = outcome
    assert escaped == {}


@pytest.mark.parametrize("field", ["format_version", "config", "vocab"])
def test_missing_manifest_field_named(tmp_path, field):
    path = saved(tmp_path)
    rewrite(path, lambda m: {k: v for k, v in m.items() if k != field})
    with pytest.raises(ModelFileError, match=f"missing field '{field}'"):
        load_model(path)


def test_bad_config_rejected(tmp_path):
    path = saved(tmp_path)
    rewrite(path, lambda m: m["config"].update(variant="perceptron"))
    with pytest.raises(ModelFileError, match="bad config"):
        load_model(path)


def test_blob_truncated(tmp_path):
    path = saved(tmp_path)
    rewrite(path, edit_blob=lambda b: b[:-8])
    with pytest.raises(ModelFileError, match="blob length mismatch: the config and 5 vocabulary "
                                             "tokens need 724 bytes, the file has 716"):
        load_model(path)


def test_tensor_overruns_blob(tmp_path):
    # a blob that ends inside the last tensor's final float
    path = saved(tmp_path)
    rewrite(path, edit_blob=lambda b: b[:-2])
    with pytest.raises(ModelFileError, match="need 724 bytes, the file has 722"):
        load_model(path)


def test_tensors_must_fill_the_blob(tmp_path):
    # 8 trailing blob bytes that no tensor claims used to load silently
    path = saved(tmp_path)
    rewrite(path, edit_blob=lambda b: b + bytes(8))
    with pytest.raises(ModelFileError, match="need 724 bytes, the file has 732"):
        load_model(path)


def test_missing_embedding_tensor(tmp_path):
    path = saved(tmp_path)
    rewrite(path, edit_blob=lambda b: b[7 * 4 * 4 :])
    with pytest.raises(ModelFileError, match="need 724 bytes, the file has 612"):
        load_model(path)


def test_missing_dense_group(tmp_path):
    # without attention the file used to load, and predict ended in an AttributeError
    spans = {"lstm": (112, 496), "attention": (496, 532), "conv": (532, 612), "dense": (612, 724)}
    for group, (start, end) in spans.items():
        path = saved(tmp_path)
        rewrite(path, edit_blob=lambda b: b[:start] + b[end:])
        with pytest.raises(ModelFileError, match=f"the file has {724 - (end - start)}$"):
            load_model(path)


def test_tensor_group_the_variant_does_not_use(tmp_path):
    # lstm_cnn has no attention group, so the attention bytes are surplus
    path = saved(tmp_path)
    rewrite(path, lambda m: m["config"].update(variant="lstm_cnn"))
    with pytest.raises(ModelFileError, match="need 688 bytes, the file has 724"):
        load_model(path)


def test_vocab_longer_than_embedding(tmp_path):
    # the file used to load, and predict ended in an IndexError
    path = saved(tmp_path)
    rewrite(path, lambda m: m["vocab"].extend(f"extra{i}" for i in range(50)))
    with pytest.raises(ModelFileError, match="the config and 55 vocabulary tokens need 1524 "
                                             "bytes, the file has 724"):
        load_model(path)


# the first three used to end in a TypeError, AttributeError or UFuncTypeError
# (exit 2 in predict); vocab_repeated ended in a plain ValueError (exit 2)
@pytest.mark.parametrize("mutate,message", [
    (lambda m: m.update(vocab=5), "'vocab' must be a list of strings"),
    (lambda m: m.update(vocab=list(range(len(m["vocab"])))), "'vocab' must be a list of strings"),
    (lambda m: m["config"].update(max_len=6.5), r"bad config \(max_len must be of type int"),
    (lambda m: m["vocab"].__setitem__(1, m["vocab"][0]), "'vocab' repeats a token"),
    # the rest used to load, and predict either exited 0 or ended in a
    # TypeError with exit 2
    (lambda m: m["config"].update(pool=True), r"bad config \(pool must be of type int"),
    (lambda m: m["config"].update(dropout_rate="x"),
     r"bad config \(dropout_rate must be of type float"),
    (lambda m: m["config"].update(seed="7"), r"bad config \(seed must be of type int"),
    # format 4's keys: the class count is the risk tiers', the dtype float32
    (lambda m: m["config"].update(classes=4), r"bad config \(unknown field 'classes'\)$"),
    (lambda m: m["config"].update(dtype="float32"), r"bad config \(unknown field 'dtype'\)$"),
    # a config of no object, or with a field left out, used to be read by
    # `ModelConfig(**config)`: the seed loaded as 0
    (lambda m: m.update(config=[6]), r"bad config \(not a JSON object\)$"),
    (lambda m: m["config"].pop("seed"), r"bad config \(missing field 'seed'\)$"),
    (lambda m: m["config"].update(filters=5), "need 988 bytes, the file has 724"),
    (lambda m: m["config"].update(lstm_units=5), "need 1196 bytes, the file has 724"),
    (lambda m: m["config"].update(kernel=5), "need 772 bytes, the file has 724"),
    (lambda m: m["config"].update(embed_dim=5), "need 800 bytes, the file has 724"),
    (lambda m: m["config"].update(max_len=8), "need 764 bytes, the file has 724"),
    # tokens that no token file can hold, so their rows could never be looked up
    *[(lambda m, t=token: m["vocab"].__setitem__(2, t),
       "'vocab': each token must be non-empty and contain no whitespace")
      for token in ("", " ", "a b", "\t")],
], ids=["vocab_number", "vocab_ints", "max_len_float", "vocab_repeated", "pool_bool",
        "dropout_string", "seed_string", "classes_4", "dtype_float32", "config_list",
        "seed_missing", "filters_5", "lstm_units_5", "kernel_5", "embed_dim_5", "max_len_8",
        "token_empty", "token_space", "token_two_words", "token_tab"])
def test_malformed_manifest_raises_model_file_error(tmp_path, mutate, message):
    path = saved(tmp_path)
    rewrite(path, mutate)
    with pytest.raises(ModelFileError, match=message):
        load_model(path)


def tensor_spans(cfg, rows):
    """Each tensor's dotted name -> its (start, end) float offsets in the blob."""
    spans, start = {}, 0
    for name, shape in param_shapes(cfg, rows).items():
        spans[name] = (start, start + math.prod(shape))
        start += math.prod(shape)
    return spans


def test_model_with_five_classes_is_rejected(tmp_path):
    # a fifth dense column whose bias wins: the file used to load, and predict
    # exited 0 with label 4, which is no risk tier.  The config cannot state
    # the class count, so the widened head is a blob of the wrong length
    path = saved(tmp_path)
    start, end = tensor_spans(small_model().cfg, VOCAB.size)["dense.W"]

    def widen(blob):
        floats = np.frombuffer(blob, dtype="<f4")
        W = np.zeros(((end - start) // 4, 5), dtype="<f4")
        W[:, :4] = floats[start:end].reshape(-1, 4)
        b = np.array([0, 0, 0, 0, 50], dtype="<f4")
        return floats[:start].tobytes() + W.tobytes() + b.tobytes()

    rewrite(path, edit_blob=widen)
    with pytest.raises(ModelFileError, match="need 724 bytes, the file has 752"):
        load_model(path)
    rewrite(path, lambda m: m["config"].update(classes=5))
    with pytest.raises(ModelFileError, match="bad config"):
        load_model(path)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("tensor", ["lstm.U", "attention.w", "conv.kernels", "dense.W"])
def test_non_finite_tensor_is_rejected(tmp_path, tensor, value):
    # the file used to load, and predict ended in a NumericsError, exit 2
    path = saved(tmp_path)
    start, _ = tensor_spans(small_model().cfg, VOCAB.size)[tensor]

    def poison(blob):
        floats = np.frombuffer(blob, dtype="<f4").copy()
        floats[start] = value
        return floats.tobytes()

    rewrite(path, edit_blob=poison)
    with pytest.raises(ModelFileError, match=rf"non-finite values in tensor '{tensor}'"):
        load_model(path)


def test_non_finite_embedding_is_rejected(tmp_path):
    path = saved(tmp_path)
    rewrite(path, edit_blob=lambda b: b[:40] + np.float32(math.nan).tobytes() + b[44:])
    with pytest.raises(ModelFileError, match="embedding matrix contains non-finite entries"):
        load_model(path)


# ----------------------------------------------------------------- fuzzing

# JSON values a resealed manifest may hold where a config value belongs
_ODD_VALUES = st.one_of(
    st.integers(min_value=-3, max_value=9), st.booleans(), st.just(2**70), st.just(-(2**70)),
    st.floats(allow_nan=True, allow_infinity=True), st.sampled_from(["", "4", "float64"]),
    st.none(), st.lists(st.integers(0, 3), max_size=2))
_SIZE = st.one_of(st.integers(min_value=1, max_value=8), _ODD_VALUES)
# "classes" and "dtype" are format 4's keys, which a version 5 config must not hold
_CONFIG_VALUES = {
    "max_len": _SIZE, "embed_dim": _SIZE, "lstm_units": _SIZE, "filters": _SIZE,
    "kernel": _SIZE, "pool": _SIZE, "classes": _SIZE,
    "dropout_rate": st.one_of(st.floats(min_value=0.0, max_value=0.9), _ODD_VALUES),
    "seed": st.one_of(st.integers(min_value=0, max_value=2**64 - 1), _ODD_VALUES),
    "variant": st.one_of(st.sampled_from(VARIANTS), _ODD_VALUES),
    "dtype": st.one_of(st.sampled_from(["float32", "float64"]), _ODD_VALUES),
}
_TOKENS = st.sampled_from(["help", "die", "", " ", "a b", "\t", "end"])
# tensors past this many floats are not written, so the blob is short
_FUZZ_MAX_FLOATS = 20_000


def _implied_floats(config: dict, rows: int):
    """The floats of every tensor the config implies, or None if it implies
    none (a config that is no `ModelConfig`'s) or too many to write.  The
    config's own checks are skipped, so that a config they would reject gets
    its tensors too."""
    cfg = ModelConfig.__new__(ModelConfig)
    cfg.__dict__.update(config)
    try:
        total = sum(math.prod(s) for s in param_shapes(cfg, rows).values())
    except (TypeError, ValueError, KeyError, AttributeError, ArithmeticError):
        return None
    return total if type(total) is int and 0 <= total <= _FUZZ_MAX_FLOATS else None


@given(overrides=st.dictionaries(st.sampled_from(sorted(_CONFIG_VALUES)), st.none(), max_size=3)
       .flatmap(lambda keys: st.fixed_dictionaries({k: _CONFIG_VALUES[k] for k in keys})),
       vocab=st.one_of(st.lists(_TOKENS, max_size=6, unique=True), st.lists(_TOKENS, max_size=6)),
       tensors=st.sampled_from(["implied", "implied", "short", "long"]),
       poison=st.one_of(st.none(), st.sampled_from([math.nan, math.inf, -math.inf])),
       data=st.data())
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_resealed_manifest_fuzz(tmp_path, overrides, vocab, tensors, poison, data):
    """A manifest resealed with drawn config values and vocabulary tokens
    either fails to load with `ModelFileError`, or loads a model whose every
    prediction is a risk tier and whose every token a token file can hold."""
    config = {**small_model().cfg.to_dict(), **overrides}
    count = _implied_floats(config, len(vocab) + 2)
    if count is None or tensors != "implied":
        # 181 floats are the small model's tensors
        count = (count or 181) + (1 if tensors == "long" else -1)
    values = np.random.default_rng(0).normal(scale=0.3, size=count).astype("<f4")
    dim = config["embed_dim"] if type(config["embed_dim"]) is int else 0
    values[: max(0, min(dim, count))] = 0.0  # the PAD row
    if poison is not None and count > 0:
        values[data.draw(st.integers(0, count - 1), label="poisoned float")] = poison
    path = tmp_path / "fuzz.rkn"
    save_model(small_model(), VOCAB, path)
    rewrite(path, lambda m: {**m, "config": config, "vocab": vocab},
            lambda _: values.tobytes())
    try:
        model, loaded_vocab = load_model(path)
    except ModelFileError:
        return
    assert all(tok and not any(c.isspace() for c in tok) for tok in vocab)
    X = np.random.default_rng(1).integers(0, loaded_vocab.size, size=(3, model.cfg.max_len))
    labels = model.predict(X)
    assert labels.shape == (3,) and set(labels.tolist()) <= {0, 1, 2, 3}
