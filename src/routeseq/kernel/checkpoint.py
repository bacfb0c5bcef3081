"""The checkpoint byte codec: named float64 tensors plus JSON metadata.

Layout (JSON, sorted keys, compact separators, hence byte-deterministic):

    {
      "format": "routeseq-checkpoint/1",
      "meta": {...arbitrary JSON-serializable metadata...},
      "tensors": {
        "<name>": {"shape": [d0, d1, ...], "data": "<base64 of little-endian float64 bytes>"}
      }
    }

The base64 round trip is bit-exact for 64-bit values.  The codec reads and
writes bytes only; ``predictor.save_model`` and ``load_model`` are the file
path.
"""

from __future__ import annotations

import base64
import hashlib
import json

import numpy as np

from ..errors import SchemaError

CHECKPOINT_FORMAT = "routeseq-checkpoint/1"


def serialize_checkpoint(tensors: dict, meta: dict) -> bytes:
    blob = {
        "format": CHECKPOINT_FORMAT,
        "meta": meta,
        "tensors": {
            name: {
                "shape": list(np.asarray(t).shape),
                "data": base64.b64encode(np.ascontiguousarray(t, dtype="<f8").tobytes()).decode("ascii"),
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
        shape = tuple(shape)
        try:
            flat = np.frombuffer(base64.b64decode(entry["data"]), dtype="<f8")
        except (ValueError, TypeError) as exc:
            raise SchemaError(path, f"undecodable tensor data: {exc}") from exc
        expected = int(np.prod(shape)) if shape else 1
        if flat.size != expected:
            raise SchemaError(path, f"expected {expected} values for shape {shape}, got {flat.size}")
        tensors[name] = flat.reshape(shape).astype(np.float64).copy()
    return tensors, meta


def checkpoint_id(raw: bytes) -> str:
    """The checkpoint's content hash: the sha-256 of its bytes."""
    return hashlib.sha256(raw).hexdigest()
