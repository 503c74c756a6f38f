"""Versioned binary container for named arrays.

Layout: 8-byte magic, uint32 little-endian header length, UTF-8 JSON
header, raw little-endian payload. The header carries a format-version
integer, the payload's ``zlib.crc32`` (checked when present), an arbitrary
``meta`` dict (model config, adapter hyperparams, ...) and one record per
array: name, dtype, shape and byte offset into the payload. Arrays are
stored row-major; a NaN or inf in one is a data error at load.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import CcmError, DataError

MAGIC = b"CCMCKPT\x00"
FORMAT_VERSION = 1

_DTYPES = {"float32": np.float32, "float64": np.float64}
_RECORD_KEYS = {"name", "dtype", "shape", "offset", "nbytes"}


def save_arrays(path: str | Path, arrays: dict[str, np.ndarray],
                meta: dict | None = None) -> None:
    records = []
    payload = bytearray()
    for name, arr in arrays.items():
        if arr.dtype.name not in _DTYPES:
            raise DataError(f"unsupported dtype {arr.dtype} for record {name!r}")
        raw = np.ascontiguousarray(arr).tobytes()
        records.append({
            "name": name,
            "dtype": arr.dtype.name,
            "shape": list(arr.shape),
            "offset": len(payload),
            "nbytes": len(raw),
        })
        payload.extend(raw)
    header = json.dumps({
        "format_version": FORMAT_VERSION,
        "crc32": zlib.crc32(payload),
        "meta": meta or {},
        "records": records,
    }, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        fh.write(payload)


def load_arrays(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a container back; returns (arrays, meta)."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"checkpoint not found: {path}")
    blob = path.read_bytes()
    if blob[:8] != MAGIC:
        raise DataError(f"{path}: not a checkpoint container")
    if len(blob) < 12:
        raise DataError(f"{path}: truncated before the header length")
    (header_len,) = struct.unpack("<I", blob[8:12])
    if 12 + header_len > len(blob):
        raise DataError(f"{path}: header length {header_len} runs past the file end")
    try:
        header = json.loads(blob[12:12 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"{path}: corrupt header: {exc}") from exc
    if not isinstance(header, dict) or not isinstance(header.get("records"), list) \
            or not isinstance(header.get("meta"), dict):
        raise DataError(f"{path}: header lacks a records list or a meta dict")
    if header.get("format_version") != FORMAT_VERSION:
        raise DataError(
            f"{path}: format version {header.get('format_version')} "
            f"!= supported {FORMAT_VERSION}")
    payload = blob[12 + header_len:]
    if "crc32" in header and header["crc32"] != zlib.crc32(payload):
        raise DataError(f"{path}: payload fails its checksum {header['crc32']!r}")
    arrays: dict[str, np.ndarray] = {}
    for rec in header["records"]:
        if not isinstance(rec, dict) or not _RECORD_KEYS <= rec.keys():
            raise DataError(f"{path}: record {rec!r} lacks one of {sorted(_RECORD_KEYS)}")
        name, shape, lo, nbytes = rec["name"], rec["shape"], rec["offset"], rec["nbytes"]
        if not isinstance(name, str) or name in arrays:
            raise DataError(f"{path}: bad or duplicate record name {name!r}")
        dtype = _DTYPES.get(str(rec["dtype"]))
        if dtype is None:
            raise DataError(f"{path}: record {name!r} has bad dtype {rec['dtype']}")
        ints = [lo, nbytes] + (shape if isinstance(shape, list) else [None])
        if not all(isinstance(x, int) and x >= 0 for x in ints) \
                or nbytes != math.prod(shape) * np.dtype(dtype).itemsize:
            raise DataError(f"{path}: record {name!r} has inconsistent shape, "
                            f"offset or size: {rec!r}")
        if lo + nbytes > len(payload):
            raise DataError(f"{path}: record {name!r} overruns payload")
        raw = np.frombuffer(payload[lo:lo + nbytes], dtype=dtype)
        if not np.isfinite(raw).all():
            raise DataError(f"{path}: record {name!r} holds NaN or inf")
        arrays[name] = raw.reshape(shape).copy()
    return arrays, header["meta"]


@contextmanager
def read_checkpoint(path, kind: str):
    """(arrays, meta) of a ``kind`` checkpoint; bad values read in it are DataErrors."""
    arrays, meta = load_arrays(path)
    if meta.get("kind") != kind:
        raise DataError(f"{path}: not a {kind} checkpoint")
    try:
        yield arrays, meta
    except (LookupError, TypeError, ValueError, ArithmeticError, CcmError) as exc:
        raise DataError(f"{path}: malformed {kind} checkpoint ({exc!r})") from None


def check_records(path, arrays: dict, shapes: dict[str, tuple[int, ...]]) -> None:
    """The records must be exactly the name -> shape table ``shapes``."""
    bad = sorted({name: a.shape for name, a in arrays.items()}.items() ^ shapes.items())
    if bad:
        raise DataError(f"{path}: records missing, unexpected or misshapen: {bad[:4]}")
