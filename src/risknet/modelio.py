"""Model persistence: JSON manifest + little-endian float32 blob.

File layout: a 4-byte little-endian unsigned manifest length, the UTF-8 JSON
manifest, then every parameter tensor as float32 little-endian bytes
concatenated in manifest order.  The manifest carries the format version,
the full model config (including seed), the vocabulary, and per-tensor
name/shape/byte-offset entries, so a model file is self-contained for
prediction.  save -> load -> save is byte-identical.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .embed import EmbeddingMatrix, Vocabulary
from .model import Model, ModelConfig, ModelParams, param_groups

FORMAT_VERSION = 1
_HEADER = struct.Struct("<I")


class ModelFileError(ValueError):
    pass


def save_model(model: Model, vocab: Vocabulary, path: str | Path) -> None:
    blobs = []
    tensors = []
    offset = 0
    for name, arr in model.params.named_arrays():
        raw = np.ascontiguousarray(arr, dtype="<f4").tobytes()
        tensors.append({"name": name, "shape": list(arr.shape), "offset": offset})
        blobs.append(raw)
        offset += len(raw)
    index_order = sorted(vocab.token_to_index, key=vocab.token_to_index.get)
    manifest = {
        "format_version": FORMAT_VERSION,
        "config": model.cfg.to_dict(),
        "vocab": index_order,
        "tensors": tensors,
        "blob_bytes": offset,
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
    version = _require(manifest, "format_version")
    if version != FORMAT_VERSION:
        raise ModelFileError(f"format version mismatch: file has {version}, expected {FORMAT_VERSION}")
    cfg_dict = _require(manifest, "config")
    try:
        cfg = ModelConfig(**cfg_dict)
    except (TypeError, ValueError) as exc:
        raise ModelFileError(f"corrupted manifest: bad config ({exc})") from None
    vocab_tokens = _require(manifest, "vocab")
    tensors = _require(manifest, "tensors")
    declared = _require(manifest, "blob_bytes")
    blob = data[_HEADER.size + mlen :]
    if len(blob) != declared:
        raise ModelFileError(f"blob length mismatch: expected {declared} bytes, got {len(blob)}")
    arrays: dict[str, np.ndarray] = {}
    for entry in tensors:
        for key in ("name", "shape", "offset"):
            if key not in entry:
                raise ModelFileError(f"corrupted manifest: tensor entry missing '{key}'")
        shape = tuple(entry["shape"])
        nbytes = int(np.prod(shape)) * 4
        start = entry["offset"]
        if start + nbytes > len(blob):
            raise ModelFileError(f"blob length mismatch: tensor '{entry['name']}' overruns blob")
        flat = np.frombuffer(blob, dtype="<f4", count=int(np.prod(shape)), offset=start)
        arrays[entry["name"]] = flat.reshape(shape).astype(cfg.np_dtype)

    if "embedding" not in arrays:
        raise ModelFileError("corrupted manifest: missing tensor 'embedding'")
    # the tensor groups must be exactly those the variant's layer chain uses
    wanted = param_groups(cfg.variant)
    found = {name.partition(".")[0] for name in arrays}
    for g in wanted:
        if g not in found:
            raise ModelFileError(f"corrupted manifest: missing tensor group '{g}'")
    unexpected = sorted(found.difference(wanted))
    if unexpected:
        raise ModelFileError(f"corrupted manifest: unexpected tensor group '{unexpected[0]}' "
                             f"for variant '{cfg.variant}'")
    members = {g: {} for g in wanted}
    for name, arr in arrays.items():
        g, _, member = name.partition(".")
        members[g][member] = arr
    try:
        params = ModelParams(embedding=EmbeddingMatrix(arrays["embedding"]), **{
            g: cls(**members[g]) for g, cls in wanted.items() if g != "embedding"})
    except (TypeError, ValueError) as exc:
        raise ModelFileError(f"corrupted manifest: inconsistent tensors ({exc})") from None
    # PAD and UNK take the first two embedding rows
    n_rows = params.embedding.vocab_size
    if len(vocab_tokens) + 2 != n_rows:
        raise ModelFileError(f"corrupted manifest: {len(vocab_tokens)} vocabulary tokens need "
                             f"{len(vocab_tokens) + 2} embedding rows, the file has {n_rows}")
    vocab = Vocabulary({tok: i + 2 for i, tok in enumerate(vocab_tokens)})
    return Model(cfg, params), vocab
