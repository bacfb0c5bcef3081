"""The checkpoint byte codec: named float64 tensors plus JSON metadata.

Layout (JSON, sorted keys, compact separators, hence byte-deterministic):

    {
      "format": "routeseq-checkpoint/1",
      "meta": {...arbitrary JSON-serializable metadata...},
      "tensors": {
        "<name>": {"shape": [d0, d1, ...], "data": "<base64 of little-endian float64 bytes>"}
      }
    }

The base64 round trip is bit-exact for 64-bit values.  ``encode_float64``
and ``decode_float64`` are the repository's one format for float64 arrays;
the dataset's travel-time matrices use them too.  The codec reads and
writes bytes only; ``predictor.save_model`` and ``load_model`` are the file
path.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math

import numpy as np

from ..errors import SchemaError

CHECKPOINT_FORMAT = "routeseq-checkpoint/1"


def encode_float64(array) -> str:
    """Base64 of the little-endian float64 bytes of ``array`` in C order."""
    return base64.b64encode(np.ascontiguousarray(array, dtype="<f8").tobytes()).decode("ascii")


def decode_float64(data, count: int) -> np.ndarray:
    """The ``count`` values that ``encode_float64`` wrote into ``data``, as an
    owned, writable, flat float64 array.  A ``ValueError`` when ``data`` is
    not a string of strict base64 (no character outside the alphabet) that
    holds exactly ``8 * count`` bytes."""
    if not isinstance(data, str):
        raise ValueError(f"expected a base64 string, got {type(data).__name__}")
    raw = base64.b64decode(data, validate=True)
    if len(raw) != 8 * count:
        raise ValueError(f"expected {count} float64 values, got {len(raw)} bytes")
    return np.frombuffer(raw, dtype="<f8").astype(np.float64)


def serialize_checkpoint(tensors: dict, meta: dict) -> bytes:
    blob = {
        "format": CHECKPOINT_FORMAT,
        "meta": meta,
        "tensors": {
            name: {
                "shape": list(np.asarray(t).shape),
                "data": encode_float64(t),
            }
            for name, t in tensors.items()
        },
    }
    return json.dumps(blob, sort_keys=True, separators=(",", ":")).encode("utf-8")


def deserialize_checkpoint(raw: bytes):
    try:
        blob = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SchemaError("$", f"not a JSON checkpoint: {exc}") from exc
    if not isinstance(blob, dict) or blob.get("format") != CHECKPOINT_FORMAT:
        raise SchemaError("format", f"expected {CHECKPOINT_FORMAT!r}")
    entries, meta = blob.get("tensors", {}), blob.get("meta", {})
    if not isinstance(entries, dict):
        raise SchemaError("tensors", "expected an object")
    if not isinstance(meta, dict):
        raise SchemaError("meta", "expected an object")
    tensors = {}
    for name, entry in entries.items():
        path = f"tensors.{name}"
        if not isinstance(entry, dict) or "shape" not in entry or "data" not in entry:
            raise SchemaError(path, "missing shape/data")
        shape = entry["shape"]
        if not (isinstance(shape, list) and all(type(d) is int and d >= 0 for d in shape)):
            raise SchemaError(path, f"shape must be a list of non-negative integers, got {shape!r}")
        try:
            tensors[name] = decode_float64(entry["data"], math.prod(shape)).reshape(shape)
        except ValueError as exc:
            raise SchemaError(path, f"undecodable tensor data for shape {shape}: {exc}") from exc
    return tensors, meta


def checkpoint_id(raw: bytes) -> str:
    """The checkpoint's content hash: the sha-256 of its bytes."""
    return hashlib.sha256(raw).hexdigest()
