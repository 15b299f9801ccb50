"""Versioned binary container for named tensors plus a JSON header.

Layout (little-endian):
  magic ``FRTENS01`` | u32 header length | header JSON (UTF-8)
  | u32 tensor count | per tensor: u16 name length, name, u8 dtype code
  (0 = float32, 1 = float64), u8 ndim, u32 * ndim shape, raw data.

Model checkpoints and the serving rep store both store float64 tensors as
they are in memory, so a model scores the same before and after a save and
load. A checkpoint's ``version_tag`` is the SHA-256 of its header (minus the
tag itself) and tensor bytes, so any artifact built from it can be matched
to exactly that parameter snapshot. A rep store's ``digest`` is the same
:func:`content_digest` of its own header and tensors, so each loader detects
a flipped byte. A float32 checkpoint written by an older release loads under
its own tag, its tensors widened to float64 after the tag is checked.

:func:`read_artifact` is the one header reader of both loaders, this
module's :func:`load_checkpoint` and ``flowrec.serve.load_store``.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct

import numpy as np

from .errors import ConfigError, byte_reader, replacing
from .model import ModelConfig, ModelParams

MAGIC = b"FRTENS01"
FORMAT_VERSION = 1
_DTYPES = {0: "<f4", 1: "<f8"}
_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}


def _tensor_bytes(name: str, array: np.ndarray) -> tuple[bytes, np.ndarray]:
    """One tensor's record as two buffers: its name, dtype and shape prefix, and
    its data, ``array`` itself when it is already contiguous in the stored
    dtype, so that writing and hashing it take no copy."""
    code = _DTYPE_CODES.get(array.dtype)
    if code is None:
        raise ConfigError(f"tensor {name!r} has unsupported dtype {array.dtype}")
    raw = name.encode("utf-8")
    prefix = struct.pack("<H", len(raw)) + raw + struct.pack(f"<BB{array.ndim}I", code, array.ndim, *array.shape)
    return prefix, np.ascontiguousarray(array, dtype=_DTYPES[code])


def content_digest(header: dict, tensors: dict[str, np.ndarray]) -> str:
    digest = hashlib.sha256()
    digest.update(json.dumps(header, sort_keys=True).encode("utf-8"))
    for name in sorted(tensors):
        for part in _tensor_bytes(name, tensors[name]):
            digest.update(part)
    return digest.hexdigest()


def write_tensor_file(path, header: dict, tensors: dict[str, np.ndarray]) -> None:
    """Write a container; an error partway leaves an existing file at ``path`` untouched."""
    header_raw = json.dumps(header, ensure_ascii=False).encode("utf-8")
    with replacing(path) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(header_raw)))
        fh.write(header_raw)
        fh.write(struct.pack("<I", len(tensors)))
        for name, array in tensors.items():
            for part in _tensor_bytes(name, array):
                fh.write(part)


def read_tensor_file(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Header and tensors of a container, each tensor in the dtype it was stored
    in; a file that is cut short or garbled raises :class:`ConfigError` naming
    what could not be read."""
    with open(path, "rb") as fh:
        take = byte_reader(fh, path)
        if take(len(MAGIC), "the magic") != MAGIC:
            raise ConfigError(f"{path} is not a tensor container (bad magic)")
        (header_len,) = struct.unpack("<I", take(4, "the header length"))
        raw = take(header_len, "the header")
        try:
            header = json.loads(raw)
        except ValueError as exc:  # not UTF-8, or not JSON
            raise ConfigError(f"{path}: unreadable header ({exc})") from None
        if not isinstance(header, dict):
            raise ConfigError(f"{path}: the header is not a JSON object")
        (count,) = struct.unpack("<I", take(4, "the tensor count"))
        tensors: dict[str, np.ndarray] = {}
        for i in range(count):
            (name_len,) = struct.unpack("<H", take(2, f"tensor {i}'s name length"))
            raw = take(name_len, f"tensor {i}'s name")
            try:
                name = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ConfigError(f"{path}: unreadable name of tensor {i} ({exc})") from None
            code, ndim = struct.unpack("<BB", take(2, f"tensor {name!r}'s dtype"))
            if code not in _DTYPES:
                raise ConfigError(f"{path}: tensor {name!r} has unknown dtype code {code}")
            shape = struct.unpack(f"<{ndim}I", take(4 * ndim, f"tensor {name!r}'s shape"))
            size = math.prod(shape)  # Python ints: a garbled shape cannot wrap to a short read
            raw = take(int(_DTYPES[code][-1]) * size, f"tensor {name!r}'s data")
            try:
                tensors[name] = np.frombuffer(raw, dtype=_DTYPES[code]).reshape(shape)
            except ValueError:  # over 64 dims, or dims whose product overflows numpy's element count
                raise ConfigError(f"{path}: tensor {name!r} has a shape numpy cannot build "
                                  f"({ndim} dims, {size} elements)") from None
    return header, tensors


def checkpoint_header(params: ModelParams) -> dict:
    return {
        "kind": "checkpoint",
        "format_version": FORMAT_VERSION,
        "config": params.config.to_dict(),
        "vocabs": params.vocabs,
        "dims": {
            "article_dim": params.config.article_dim,
            "user_dim": params.config.user_dim,
        },
    }


def ensure_version_tag(params: ModelParams) -> str:
    """Stamp (if needed) the tag this snapshot would carry on disk."""
    if not params.version_tag:
        params.version_tag = content_digest(checkpoint_header(params), params.tensors)
    return params.version_tag


def save_checkpoint(path, params: ModelParams) -> str:
    """Write a checkpoint of the tensors as they are; returns (and stamps) its version tag."""
    header = checkpoint_header(params)
    header["version_tag"] = params.version_tag = content_digest(header, params.tensors)
    write_tensor_file(path, header, params.tensors)
    return params.version_tag


CHECKPOINT_KEYS = {"config": dict, "vocabs": dict, "version_tag": str}


def read_artifact(path, kind: str, keys: dict[str, type]) -> tuple[dict, dict[str, np.ndarray]]:
    """Header and tensors of a container of this ``kind`` and format version whose
    header holds every key of ``keys`` with its type; otherwise a ConfigError naming the file."""
    header, tensors = read_tensor_file(path)
    if header.get("kind") != kind:
        raise ConfigError(f"{path} is not a {kind} file (kind {header.get('kind')!r})")
    if header.get("format_version") != FORMAT_VERSION:
        raise ConfigError(f"{path}: unsupported {kind} format version {header.get('format_version')}")
    for key, want in keys.items():
        if type(header.get(key)) is not want:
            raise ConfigError(f"{path}: header key {key!r} is missing or not {want.__name__}")
    return header, tensors


def load_checkpoint(path) -> ModelParams:
    """A saved checkpoint, checked once, here: against the layout its config and
    vocabs give, then its ``version_tag`` against the digest of the tensors as
    stored; only then are they widened to float64."""
    header, tensors = read_artifact(path, "checkpoint", CHECKPOINT_KEYS)
    try:
        params = ModelParams(config=ModelConfig.from_dict(header["config"]), vocabs=header["vocabs"],
                             tensors=tensors, version_tag=header["version_tag"])
        params.validate_shapes()
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    untagged = {k: v for k, v in header.items() if k != "version_tag"}
    if content_digest(untagged, tensors) != params.version_tag:
        raise ConfigError(f"{path}: its content does not match its version_tag (the file was altered)")
    with np.errstate(invalid="ignore"):  # a float32 signalling NaN that its tag covers is quieted
        params.tensors = {name: t.astype(np.float64, copy=False) for name, t in tensors.items()}
    return params
