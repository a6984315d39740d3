"""Model persistence: JSON manifest + little-endian float32 blob.

File layout: a 4-byte little-endian unsigned manifest length, the UTF-8 JSON
manifest, then every parameter tensor as float32 little-endian bytes
concatenated in manifest order.  The manifest carries the format version,
the full model config (including seed), the vocabulary, per-tensor
name/shape/byte-offset entries and the CRC32 of the blob, so a model file is
self-contained for prediction.  Version 2 stores the LSTM as the fused
`lstm.W`, `lstm.U` and `lstm.b`; version-1 files are rejected, not converted.
save -> load -> save is byte-identical.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from pathlib import Path

import numpy as np

from .embed import EmbeddingMatrix, Vocabulary
from .model import Model, ModelConfig, ModelParams, _is_int, param_groups, param_shapes

FORMAT_VERSION = 2
_HEADER = struct.Struct("<I")


class ModelFileError(ValueError):
    pass


def save_model(model: Model, vocab: Vocabulary, path: str | Path) -> None:
    blobs = []
    tensors = []
    offset = crc = 0
    for name, arr in model.params.named_arrays():
        raw = np.ascontiguousarray(arr, dtype="<f4").tobytes()
        tensors.append({"name": name, "shape": list(arr.shape), "offset": offset})
        blobs.append(raw)
        offset += len(raw)
        crc = zlib.crc32(raw, crc)
    index_order = sorted(vocab.token_to_index, key=vocab.token_to_index.get)
    manifest = {
        "format_version": FORMAT_VERSION,
        "config": model.cfg.to_dict(),
        "vocab": index_order,
        "tensors": tensors,
        "blob_bytes": offset,
        "blob_crc32": crc,
    }
    payload = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with Path(path).open("wb") as fh:
        fh.write(_HEADER.pack(len(payload)))
        fh.write(payload)
        for raw in blobs:
            fh.write(raw)


def _require(manifest: dict, field: str):
    if field not in manifest:
        raise ModelFileError(f"corrupted manifest: missing field '{field}'")
    return manifest[field]


def load_model(path: str | Path) -> tuple[Model, Vocabulary]:
    data = Path(path).read_bytes()
    if len(data) < _HEADER.size:
        raise ModelFileError("truncated file: missing manifest length")
    (mlen,) = _HEADER.unpack_from(data)
    if len(data) < _HEADER.size + mlen:
        raise ModelFileError("truncated file: manifest shorter than declared")
    try:
        manifest = json.loads(data[_HEADER.size : _HEADER.size + mlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ModelFileError(f"corrupted manifest: {exc}") from None
    if not isinstance(manifest, dict):
        raise ModelFileError("corrupted manifest: expected a JSON object")
    version = _require(manifest, "format_version")
    if version != FORMAT_VERSION:
        raise ModelFileError(f"format version mismatch: file has {version}, expected {FORMAT_VERSION}")
    cfg_dict = _require(manifest, "config")
    try:
        cfg = ModelConfig(**cfg_dict)
    except (TypeError, ValueError) as exc:
        raise ModelFileError(f"corrupted manifest: bad config ({exc})") from None
    vocab_tokens = _require(manifest, "vocab")
    if not isinstance(vocab_tokens, list) or not all(isinstance(t, str) for t in vocab_tokens):
        raise ModelFileError("corrupted manifest: 'vocab' must be a list of strings")
    tensors = _require(manifest, "tensors")
    if not isinstance(tensors, list) or not all(isinstance(e, dict) for e in tensors):
        raise ModelFileError("corrupted manifest: 'tensors' must be a list of objects")
    declared = _require(manifest, "blob_bytes")
    crc = _require(manifest, "blob_crc32")
    blob = data[_HEADER.size + mlen :]
    if len(blob) != declared:
        raise ModelFileError(f"blob length mismatch: expected {declared} bytes, got {len(blob)}")
    names: set[str] = set()
    for entry in tensors:
        for key in ("name", "shape", "offset"):
            if key not in entry:
                raise ModelFileError(f"corrupted manifest: tensor entry missing '{key}'")
        name, shape, offset = entry["name"], entry["shape"], entry["offset"]
        if not isinstance(name, str):
            raise ModelFileError(f"corrupted manifest: tensor name {json.dumps(name)} "
                                 "is not a string")
        if not isinstance(shape, list) or not all(_is_int(d) and d >= 0 for d in shape):
            raise ModelFileError(f"corrupted manifest: tensor '{name}' shape must be a list "
                                 "of non-negative integers")
        if not _is_int(offset):
            raise ModelFileError(f"corrupted manifest: tensor '{name}' offset must be an integer")
        if name in names:
            raise ModelFileError(f"corrupted manifest: duplicated tensor '{name}'")
        names.add(name)

    # the tensors must be exactly those of the config; PAD and UNK take the
    # first two embedding rows
    expected = param_shapes(cfg, len(vocab_tokens) + 2)
    wanted = param_groups(cfg.variant)
    found = {name.partition(".")[0] for name in names}
    for name in expected:
        if name not in names:
            g = name.partition(".")[0]
            what = f"tensor group '{g}'" if g != name and g not in found else f"tensor '{name}'"
            raise ModelFileError(f"corrupted manifest: missing {what}")
    extra = next((e["name"] for e in tensors if e["name"] not in expected), None)
    if extra is not None:
        g = extra.partition(".")[0]
        if g not in wanted:
            raise ModelFileError(f"corrupted manifest: unexpected tensor group '{g}' "
                                 f"for variant '{cfg.variant}'")
        raise ModelFileError(f"corrupted manifest: unexpected tensor '{extra}'")

    # tensors lie back to back in manifest order and fill the blob, as
    # save_model writes them, so no two share bytes
    end = 0
    for entry in tensors:
        if entry["offset"] != end:
            raise ModelFileError(f"corrupted manifest: tensor '{entry['name']}' starts at byte "
                                 f"{entry['offset']}, expected {end}")
        end += 4 * math.prod(entry["shape"])
        if end > len(blob):
            raise ModelFileError(f"blob length mismatch: tensor '{entry['name']}' overruns blob")
    if end != len(blob):
        raise ModelFileError(f"blob length mismatch: tensors cover {end} of {len(blob)} bytes")
    actual = zlib.crc32(blob)
    if actual != crc:
        raise ModelFileError(f"blob checksum mismatch: manifest has {json.dumps(crc)}, "
                             f"blob has {actual}")

    arrays: dict[str, np.ndarray] = {}
    for entry in tensors:
        name, shape, want = entry["name"], tuple(entry["shape"]), expected[entry["name"]]
        if shape != want:
            if name == "embedding" and shape[1:] == want[1:]:
                raise ModelFileError(f"corrupted manifest: {len(vocab_tokens)} vocabulary tokens "
                                     f"need {want[0]} embedding rows, the file has {shape[0]}")
            raise ModelFileError(f"corrupted manifest: tensor '{name}' has shape {list(shape)}, "
                                 f"the config needs {list(want)}")
        flat = np.frombuffer(blob, dtype="<f4", count=math.prod(shape), offset=entry["offset"])
        arrays[name] = flat.reshape(shape).astype(cfg.np_dtype)
    members = {g: {} for g in wanted}
    for name, arr in arrays.items():
        g, _, member = name.partition(".")
        members[g][member] = arr
    try:
        params = ModelParams(embedding=EmbeddingMatrix(arrays["embedding"]), **{
            g: cls(**members[g]) for g, cls in wanted.items() if g != "embedding"})
    except ValueError as exc:
        raise ModelFileError(f"corrupted model: bad tensor values ({exc})") from None
    vocab = Vocabulary({tok: i + 2 for i, tok in enumerate(vocab_tokens)})
    return Model(cfg, params), vocab
