"""Self-describing binary checkpoints.

Layout (all integers little-endian):

    magic   6 bytes  b"MARIA1"
    version u32
    digest  32 bytes sha256 of the header JSON bytes
    hlen    u32      header JSON length
    header  hlen bytes: {"spec": ..., "meta": ...} canonical JSON
    count   u32      parameter records
    record: nlen u16, name utf-8, ndim u8, dims u32 each, float64 data

The header embeds the full structural spec, so a checkpoint can be loaded
without the original config file; the digest catches corrupted or edited
headers before any tensor is trusted. A parameter value that float32, the
precision models train and score in, cannot hold (NaN, an infinity, or a
magnitude above float32's largest finite value) is refused on load.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
from pathlib import Path

import numpy as np

from .autodiff import Graph
from .config import canonical_json
from .fileio import atomic_writer
from .model import model_from_spec

MAGIC = b"MARIA1"
VERSION = 1
_FLOAT32_MAX = float(np.finfo(np.float32).max)


class CheckpointError(ValueError):
    """Unreadable, corrupted, or incompatible checkpoint file."""


def save_checkpoint(path: str | Path, spec: dict, params: list[tuple[str, np.ndarray]], meta: dict | None = None) -> None:
    header = canonical_json({"spec": spec, "meta": meta or {}}).encode("utf-8")
    with atomic_writer(path) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(hashlib.sha256(header).digest())
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        fh.write(struct.pack("<I", len(params)))
        for name, arr in params:
            encoded = name.encode("utf-8")
            arr = np.ascontiguousarray(arr, dtype="<f8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(arr.tobytes())


def load_checkpoint(path: str | Path) -> tuple[dict, dict, list[tuple[str, np.ndarray]]]:
    import json

    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def read(n: int, what: str) -> bytes:
            # A corrupt length can ask for more than the file holds, or than
            # memory does; refuse it before the read allocates its buffer.
            if n > size - fh.tell():
                raise CheckpointError(f"truncated checkpoint while reading {what}")
            return fh.read(n)

        if read(len(MAGIC), "magic") != MAGIC:
            raise CheckpointError(f"{path}: not a model checkpoint (bad magic)")
        (version,) = struct.unpack("<I", read(4, "version"))
        if version != VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
        stored_digest = read(32, "digest")
        (hlen,) = struct.unpack("<I", read(4, "header length"))
        header = read(hlen, "header")
        if hashlib.sha256(header).digest() != stored_digest:
            raise CheckpointError(f"{path}: header digest mismatch (corrupted file?)")
        try:
            doc = json.loads(header.decode("utf-8"))
            spec, meta = doc["spec"], doc["meta"]
        except (ValueError, KeyError, TypeError) as exc:
            raise CheckpointError(f"{path}: header is not a spec and meta document ({type(exc).__name__}: {exc})") from exc
        (count,) = struct.unpack("<I", read(4, "parameter count"))
        params: list[tuple[str, np.ndarray]] = []
        names: set[str] = set()
        for _ in range(count):
            (nlen,) = struct.unpack("<H", read(2, "name length"))
            try:
                name = read(nlen, "name").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CheckpointError(f"{path}: parameter name is not UTF-8 ({exc.reason})") from exc
            if name in names:  # load_model compares name sets, so a second copy would overwrite the first
                raise CheckpointError(f"{path}: parameter {name!r} is stored twice")
            names.add(name)
            (ndim,) = struct.unpack("<B", read(1, "rank"))
            shape = struct.unpack(f"<{ndim}I", read(4 * ndim, f"{name} dim"))
            raw = read(math.prod(shape) * 8, f"{name} data")
            arr = np.frombuffer(raw, dtype="<f8").reshape(shape)
            held = np.abs(arr) <= _FLOAT32_MAX  # false for NaN too
            if not held.all():
                raise CheckpointError(
                    f"{path}: parameter {name!r} holds {float(arr[~held][0])!r}; parameters must be finite "
                    f"and at most {_FLOAT32_MAX:.7g} in magnitude, since models score in float32"
                )
            params.append((name, arr.copy()))
        if fh.read(1):
            raise CheckpointError(f"{path}: trailing bytes after the last parameter")
    return spec, meta, params


def save_model(path: str | Path, model, meta: dict | None = None) -> None:
    save_checkpoint(path, model.spec(), [(n, v.data) for n, v in model.named_parameters()], meta)


def load_model(path: str | Path, seed: int = 0):
    """Rebuild the saved model on a float32 graph; returns (model, graph, meta)."""
    spec, meta, params = load_checkpoint(path)
    graph = Graph(seed=seed)
    try:
        model = model_from_spec(graph, spec, seed=seed)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise CheckpointError(f"{path}: spec cannot build a model ({type(exc).__name__}: {exc})") from exc
    named = dict(model.named_parameters())
    saved_names = [name for name, _ in params]
    if set(named) != set(saved_names):
        missing = sorted(set(named) - set(saved_names))
        extra = sorted(set(saved_names) - set(named))
        raise CheckpointError(f"parameter names disagree with the saved architecture: missing {missing}, extra {extra}")
    for name, arr in params:
        target = named[name]
        if target.data.shape != arr.shape:
            raise CheckpointError(f"parameter {name!r}: saved shape {arr.shape}, model expects {target.data.shape}")
        target.data[...] = arr
    return model, graph, meta
