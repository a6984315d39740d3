"""Model persistence: JSON manifest + little-endian float32 tensors + CRC32.

File layout (format version 5, whose config holds only the choices a run
makes; see `model.ModelConfig`):

    <u32 manifest length> | manifest JSON | float32 tensors | <u32 CRC32>

All integers are little-endian.  The manifest holds only `format_version`,
`config` (exactly the `ModelConfig` fields, seed included) and `vocab` (the
tokens of indices 2, 3, ...), so a model file is self-contained for
prediction.  The config alone fixes the tensors: exactly
`model.param_shapes(cfg, len(vocab) + 2)`, in that order, back to back.  The
trailing CRC32 covers every byte before it, manifest included, and is checked
before anything is parsed.  Files of earlier versions are rejected, not
converted.
save -> load -> save is byte-identical.

`load_model` never holds the whole file as one `bytes`.  It reads the length
word and the manifest bytes, then the tensor bytes straight into one NumPy
buffer (allocated as float32, so it is aligned for them), and the trailer.
The CRC32 runs over those pieces in file order, and the manifest is parsed
only once it matches.  Each tensor is then a float32 view of the buffer, so
a model costs the file's tensor bytes once; the tensors are cast, and so
copied, only on a big-endian host.  The slicing loop puts each tensor
straight into `Model.params` under its `param_shapes` name.  The embedding
passes `EmbeddingMatrix`'s PAD-row and finiteness checks, and every other
tensor a finiteness check.
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib
from dataclasses import fields
from pathlib import Path

import numpy as np

from .corpus import check_words, parse_json_object, require_fields
from .embed import EmbeddingMatrix, Vocabulary, all_finite
from .model import Model, ModelConfig, param_shapes

FORMAT_VERSION = 5
_U32 = struct.Struct("<I")


class ModelFileError(ValueError):
    pass


def save_model(model: Model, vocab: Vocabulary, path: str | Path) -> None:
    manifest = {
        "format_version": FORMAT_VERSION,
        "config": model.cfg.to_dict(),
        "vocab": sorted(vocab.token_to_index, key=vocab.token_to_index.get),
    }
    payload = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    chunks = [_U32.pack(len(payload)), payload]
    chunks += [np.ascontiguousarray(a, dtype="<f4").tobytes() for a in model.params.values()]
    crc = 0
    with Path(path).open("wb") as fh:
        for chunk in chunks:
            fh.write(chunk)
            crc = zlib.crc32(chunk, crc)
        fh.write(_U32.pack(crc))


def _require(manifest: dict, field: str):
    if field not in manifest:
        raise ModelFileError(f"corrupted manifest: missing field '{field}'")
    return manifest[field]


def load_model(path: str | Path) -> tuple[Model, Vocabulary]:
    with Path(path).open("rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < 2 * _U32.size:
            raise ModelFileError("truncated file: missing manifest length or checksum")
        head = _read(fh, _U32.size)
        (mlen,) = _U32.unpack(head)
        # a declared length past the trailer reads as far as the trailer, so
        # that the checksum is checked before the length is
        payload = _read(fh, min(mlen, size - 2 * _U32.size))
        nblob = size - 2 * _U32.size - len(payload)
        # float32 storage aligns the buffer for the tensor views
        tensors = np.empty(-(-nblob // 4), dtype="<f4")
        blob = tensors.view(np.uint8)[:nblob]
        if fh.readinto(blob) != nblob:
            raise ModelFileError("truncated file: it shrank while being read")
        (stored,) = _U32.unpack(_read(fh, _U32.size))
    actual = zlib.crc32(blob, zlib.crc32(payload, zlib.crc32(head)))
    if actual != stored:
        raise ModelFileError(f"checksum mismatch: the file ends in {stored:#010x}, its bytes "
                             f"give {actual:#010x} (corrupted, or older than format version "
                             f"{FORMAT_VERSION})")
    if len(payload) < mlen:
        raise ModelFileError("truncated file: manifest shorter than declared")
    try:
        manifest = parse_json_object(payload.decode("utf-8"))
    except ValueError as exc:  # not UTF-8, not JSON, or not an object
        raise ModelFileError(f"corrupted manifest: {exc}") from None
    version = _require(manifest, "format_version")
    if version != FORMAT_VERSION:
        raise ModelFileError(f"format version mismatch: file has {version}, expected {FORMAT_VERSION}")
    cfg_dict = _require(manifest, "config")
    names = [f.name for f in fields(ModelConfig)]
    try:  # a key of another format, or a field left out, is named, not read or defaulted
        if not isinstance(cfg_dict, dict):
            raise TypeError("not a JSON object")
        for key in cfg_dict:
            if key not in names:
                raise TypeError(f"unknown field '{key}'")
        require_fields(cfg_dict, names)
        cfg = ModelConfig(**cfg_dict)
    except (TypeError, ValueError) as exc:
        raise ModelFileError(f"corrupted manifest: bad config ({exc})") from None
    vocab_tokens = _require(manifest, "vocab")
    if not isinstance(vocab_tokens, list) or not all(isinstance(t, str) for t in vocab_tokens):
        raise ModelFileError("corrupted manifest: 'vocab' must be a list of strings")
    if len(set(vocab_tokens)) != len(vocab_tokens):
        raise ModelFileError("corrupted manifest: 'vocab' repeats a token")
    try:  # a token that no token file can hold would never be looked up
        check_words(vocab_tokens)
    except ValueError as exc:
        raise ModelFileError(f"corrupted manifest: 'vocab': {exc}") from None

    # PAD and UNK take the first two embedding rows
    shapes = param_shapes(cfg, len(vocab_tokens) + 2)
    need = 4 * sum(math.prod(s) for s in shapes.values())
    if nblob != need:
        raise ModelFileError(f"blob length mismatch: the config and {len(vocab_tokens)} "
                             f"vocabulary tokens need {need} bytes, the file has {nblob}")
    params: dict[str, np.ndarray] = {}
    offset = 0
    for name, shape in shapes.items():
        count = math.prod(shape)
        arr = tensors[offset : offset + count].reshape(shape)
        # `EmbeddingMatrix` checks the embedding's values below
        if name != "embedding" and not all_finite(arr):
            raise ModelFileError(f"corrupted model: non-finite values in tensor '{name}'")
        if not arr.dtype.isnative:  # a big-endian host
            arr = arr.astype(np.float32)
        params[name] = arr
        offset += count
    try:  # the PAD row and finiteness checks of an input embedding
        EmbeddingMatrix(params["embedding"])
    except ValueError as exc:
        raise ModelFileError(f"corrupted model: bad tensor values ({exc})") from None
    vocab = Vocabulary({tok: i + 2 for i, tok in enumerate(vocab_tokens)})
    return Model(cfg, params), vocab


def _read(fh, n: int) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise ModelFileError("truncated file: it shrank while being read")
    return data
