"""Model file format: byte-exact round trips and corruption diagnostics."""

import json
import struct
import zlib

import numpy as np
import pytest

from risknet.embed import EmbeddingMatrix, PAD_INDEX, Vocabulary
from risknet.model import VARIANTS, Model, ModelConfig, init_params
from risknet.modelio import FORMAT_VERSION, ModelFileError, load_model, save_model

HEADER = struct.Struct("<I")


def small_model(variant="lstm_attention_cnn", dtype="float32", seed=0):
    cfg = ModelConfig(max_len=6, embed_dim=4, lstm_units=3, dropout_rate=0.5,
                      filters=2, kernel=3, pool=2, seed=seed, variant=variant, dtype=dtype)
    rng = np.random.default_rng(seed)
    m = rng.normal(scale=0.3, size=(7, 4)).astype(cfg.np_dtype)
    m[PAD_INDEX] = 0.0
    return Model(cfg, init_params(cfg, EmbeddingMatrix(m)))


VOCAB = Vocabulary({"help": 2, "die": 3, "want": 4, "lost": 5, "end": 6})


def saved(tmp_path, model=None, name="model.rkn"):
    path = tmp_path / name
    save_model(model or small_model(), VOCAB, path)
    return path


def rewrite(path, mutate):
    """Load, mutate, and re-pack the manifest; blob bytes untouched."""
    data = path.read_bytes()
    (mlen,) = HEADER.unpack_from(data)
    manifest = json.loads(data[HEADER.size : HEADER.size + mlen])
    blob = data[HEADER.size + mlen :]
    manifest = mutate(manifest) or manifest
    payload = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(HEADER.pack(len(payload)) + payload + blob)


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
    for (name, a), (_, b) in zip(model.params.named_arrays(), loaded.params.named_arrays()):
        assert np.array_equal(a, b), name


def test_loaded_model_predicts_identically(tmp_path):
    model = small_model()
    path = saved(tmp_path, model)
    loaded, _ = load_model(path)
    X = np.random.default_rng(1).integers(0, 7, size=(5, 6))
    assert np.array_equal(model.predict(X), loaded.predict(X))


def test_float64_round_trip_preserves_float32_storage(tmp_path):
    model = small_model(dtype="float64")
    path = saved(tmp_path, model)
    loaded, _ = load_model(path)
    assert loaded.params.dense.W.dtype == np.float64
    second = tmp_path / "again.rkn"
    save_model(loaded, VOCAB, second)
    assert path.read_bytes() == second.read_bytes()


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
    path.write_bytes(HEADER.pack(100) + b"{}")
    with pytest.raises(ModelFileError, match="manifest shorter than declared"):
        load_model(path)


def test_garbage_manifest(tmp_path):
    path = tmp_path / "m.rkn"
    payload = b"not json at all"
    path.write_bytes(HEADER.pack(len(payload)) + payload)
    with pytest.raises(ModelFileError, match="corrupted manifest"):
        load_model(path)


def test_version_mismatch(tmp_path):
    path = saved(tmp_path)

    def bump(m):
        m["format_version"] = FORMAT_VERSION + 1

    rewrite(path, bump)
    with pytest.raises(ModelFileError, match="format version mismatch: file has 3, expected 2"):
        load_model(path)


def test_version_1_file_is_rejected(tmp_path):
    # version 1 stored the LSTM as twelve per-gate tensors; it is not converted
    path = saved(tmp_path)

    def downgrade(m):
        m["format_version"] = 1
        del m["blob_crc32"]
        lstm = next(i for i, t in enumerate(m["tensors"]) if t["name"] == "lstm.W")
        m["tensors"][lstm]["name"] = "lstm.W_f"

    rewrite(path, downgrade)
    with pytest.raises(ModelFileError, match="format version mismatch: file has 1, expected 2"):
        load_model(path)


def test_manifest_carries_the_blob_crc32(tmp_path):
    data = saved(tmp_path).read_bytes()
    (mlen,) = HEADER.unpack_from(data)
    manifest = json.loads(data[HEADER.size : HEADER.size + mlen])
    assert manifest["format_version"] == FORMAT_VERSION == 2
    assert manifest["blob_crc32"] == zlib.crc32(data[HEADER.size + mlen :])
    assert [t["name"] for t in manifest["tensors"]][1:4] == ["lstm.W", "lstm.U", "lstm.b"]


def test_flipped_blob_byte(tmp_path):
    # a flipped bit in the last dense bias used to load and predict silently
    path = saved(tmp_path)
    data = bytearray(path.read_bytes())
    data[-1] ^= 0x01
    path.write_bytes(bytes(data))
    with pytest.raises(ModelFileError, match="blob checksum mismatch"):
        load_model(path)


@pytest.mark.parametrize("field", ["format_version", "config", "vocab", "tensors", "blob_bytes",
                                   "blob_crc32"])
def test_missing_manifest_field_named(tmp_path, field):
    path = saved(tmp_path)
    rewrite(path, lambda m: {k: v for k, v in m.items() if k != field})
    with pytest.raises(ModelFileError, match=f"missing field '{field}'"):
        load_model(path)


def test_bad_config_rejected(tmp_path):
    path = saved(tmp_path)

    def poison(m):
        m["config"]["variant"] = "perceptron"

    rewrite(path, poison)
    with pytest.raises(ModelFileError, match="bad config"):
        load_model(path)


def test_blob_truncated(tmp_path):
    path = saved(tmp_path)
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(ModelFileError, match="blob length mismatch: expected"):
        load_model(path)


def test_tensor_overruns_blob(tmp_path):
    path = saved(tmp_path)

    def stretch(m):
        m["tensors"][-1]["shape"] = [10_000]

    rewrite(path, stretch)
    with pytest.raises(ModelFileError, match="overruns blob"):
        load_model(path)


def test_tensor_entry_missing_key(tmp_path):
    path = saved(tmp_path)

    def strip(m):
        del m["tensors"][0]["shape"]

    rewrite(path, strip)
    with pytest.raises(ModelFileError, match="tensor entry missing 'shape'"):
        load_model(path)


def test_missing_embedding_tensor(tmp_path):
    path = saved(tmp_path)

    def drop(m):
        m["tensors"] = [t for t in m["tensors"] if t["name"] != "embedding"]

    rewrite(path, drop)
    with pytest.raises(ModelFileError, match="missing tensor 'embedding'"):
        load_model(path)


def test_missing_dense_group(tmp_path):
    # without attention the file used to load, and predict ended in an AttributeError
    for group in ("dense", "attention", "lstm", "conv"):
        path = saved(tmp_path)

        def drop(m):
            m["tensors"] = [t for t in m["tensors"] if not t["name"].startswith(group + ".")]

        rewrite(path, drop)
        with pytest.raises(ModelFileError, match=f"missing tensor group '{group}'"):
            load_model(path)


def test_tensor_group_the_variant_does_not_use(tmp_path):
    path = saved(tmp_path)
    rewrite(path, lambda m: m["config"].update(variant="lstm_cnn"))
    with pytest.raises(ModelFileError,
                       match="unexpected tensor group 'attention' for variant 'lstm_cnn'"):
        load_model(path)


def test_vocab_longer_than_embedding(tmp_path):
    # the file used to load, and predict ended in an IndexError
    path = saved(tmp_path)
    rewrite(path, lambda m: m["vocab"].extend(f"extra{i}" for i in range(50)))
    with pytest.raises(ModelFileError, match="55 vocabulary tokens need 57 embedding rows, "
                                             "the file has 7"):
        load_model(path)


# the first six used to end in a TypeError, AttributeError or UFuncTypeError
# (exit 2 in predict); the last four used to load and predict with exit 0
@pytest.mark.parametrize("mutate,message", [
    (lambda m: m.update(vocab=5), "'vocab' must be a list of strings"),
    (lambda m: m["tensors"][1].update(name=7), "tensor name 7 is not a string"),
    (lambda m: m["tensors"][0].update(shape="ab"),
     "tensor 'embedding' shape must be a list of non-negative integers"),
    (lambda m: m["tensors"][1].update(offset="0"), "tensor 'lstm.W' offset must be an integer"),
    (lambda m: m["tensors"][1].update(offset=1.5), "tensor 'lstm.W' offset must be an integer"),
    (lambda m: m.update(tensors=[1]), "'tensors' must be a list of objects"),
    (lambda m: m.update(vocab=list(range(len(m["vocab"])))), "'vocab' must be a list of strings"),
    (lambda m: m["tensors"][-1].update(shape=[-4]),
     "tensor 'dense.b' shape must be a list of non-negative integers"),
    (lambda m: m["tensors"][2].update(offset=m["tensors"][1]["offset"]),
     r"tensor 'lstm.U' starts at byte 112, expected 304"),
    (lambda m: m["tensors"].insert(1, dict(m["tensors"][1])), "duplicated tensor 'lstm.W'"),
    # the rest used to load, and predict either exited 0 or ended in a
    # TypeError with exit 2
    (lambda m: m.update(blob_crc32=m["blob_crc32"] ^ 1), "blob checksum mismatch"),
    (lambda m: m.update(blob_crc32=str(m["blob_crc32"])), "blob checksum mismatch"),
    (lambda m: m["config"].update(max_len=6.5), r"bad config \(max_len must be of type int"),
    (lambda m: m["config"].update(pool=True), r"bad config \(pool must be of type int"),
    (lambda m: m["config"].update(dropout_rate="x"),
     r"bad config \(dropout_rate must be of type float"),
    (lambda m: m["config"].update(seed="7"), r"bad config \(seed must be of type int"),
    (lambda m: m["config"].update(classes=3),
     r"tensor 'dense.W' has shape \[6, 4\], the config needs \[6, 3\]"),
    (lambda m: m["config"].update(filters=5),
     r"tensor 'conv.kernels' has shape \[3, 3, 2\], the config needs \[3, 3, 5\]"),
    (lambda m: m["config"].update(lstm_units=5),
     r"tensor 'lstm.W' has shape \[4, 12\], the config needs \[4, 20\]"),
    (lambda m: m["config"].update(kernel=5),
     r"tensor 'conv.kernels' has shape \[3, 3, 2\], the config needs \[5, 3, 2\]"),
    (lambda m: m["config"].update(embed_dim=5),
     r"tensor 'embedding' has shape \[7, 4\], the config needs \[7, 5\]"),
    (lambda m: m["config"].update(max_len=8),
     r"tensor 'attention.b' has shape \[6, 1\], the config needs \[8, 1\]"),
    (lambda m: m["tensors"][1].update(name="lstm.W_f"), "missing tensor 'lstm.W'"),
    (lambda m: m["tensors"].append({"name": "lstm.peephole", "shape": [0],
                                    "offset": m["blob_bytes"]}),
     "unexpected tensor 'lstm.peephole'"),
], ids=["vocab_number", "name_number", "shape_string", "offset_string", "offset_float",
        "tensors_numbers", "vocab_ints", "shape_negative", "offset_shared", "entry_duplicated",
        "crc_changed", "crc_string", "max_len_float", "pool_bool", "dropout_string",
        "seed_string", "classes_3", "filters_5", "lstm_units_5", "kernel_5", "embed_dim_5",
        "max_len_8", "per_gate_name", "extra_tensor"])
def test_malformed_manifest_raises_model_file_error(tmp_path, mutate, message):
    path = saved(tmp_path)
    rewrite(path, mutate)
    with pytest.raises(ModelFileError, match=message):
        load_model(path)


def test_tensors_must_fill_the_blob(tmp_path):
    # 8 trailing blob bytes that no tensor claims used to load silently
    path = saved(tmp_path)
    path.write_bytes(path.read_bytes() + bytes(8))
    rewrite(path, lambda m: m.update(blob_bytes=m["blob_bytes"] + 8))
    with pytest.raises(ModelFileError, match=r"tensors cover \d+ of \d+ bytes"):
        load_model(path)
