"""Binary matrix container: `UNCAL-MAT v1` header plus row-major f32 payload.

The header is a single ASCII line `UNCAL-MAT v1 rows=<n> dims=<d> dtype=f32le`
followed by rows*dims little-endian 32-bit floats, all finite. Row identities
live in a sidecar JSON Lines file, one object per row read by `jsonio.ROW_ID`:
a string `qid` and an optional int `token_index` >= 0, nothing else.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

from . import jsonio
from .errors import AlignmentError, IoError

_HEADER_RE = re.compile(rb"^UNCAL-MAT v1 rows=(\d+) dims=(\d+) dtype=f32le\n$")


def write_matrix(path, values) -> None:
    values = np.asarray(values, dtype=np.float32)
    if values.ndim != 2:
        raise ValueError("matrix must be 2-dimensional")
    rows, dims = values.shape
    header = f"UNCAL-MAT v1 rows={rows} dims={dims} dtype=f32le\n".encode("ascii")
    try:
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(values.astype("<f4").tobytes(order="C"))
    except OSError as exc:
        raise IoError(f"cannot write matrix file {path}: {exc}") from exc


def read_matrix(path) -> np.ndarray:
    try:
        with open(path, "rb") as fh:
            header = fh.readline()
            m = _HEADER_RE.match(header)
            if not m:
                raise IoError(f"{path}: not an UNCAL-MAT v1 file")
            rows, dims = int(m.group(1)), int(m.group(2))
            payload = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read matrix file {path}: {exc}") from exc
    expected = rows * dims * 4
    if len(payload) != expected:
        raise IoError(f"{path}: expected {expected} payload bytes, got {len(payload)}")
    values = np.frombuffer(payload, dtype="<f4").reshape(rows, dims).astype(np.float32)
    if not np.isfinite(values).all():
        raise IoError(f"{path}: payload holds a NaN or infinite value")
    return values


def write_row_ids(path, rows) -> None:
    """Write a sidecar, one canonical line per row, as `jsonio.write_jsonl` does."""
    jsonio.write_jsonl(path, rows)


def read_row_ids(path) -> list[dict]:
    """The sidecar's rows as `{"qid": str, "token_index": int | None}`. Any
    row the `jsonio.ROW_ID` table refuses fails the whole file, naming the
    sidecar, the line and the field."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot read sidecar {path}: {exc}") from exc
    rows = []
    for i, obj in jsonio.decode_lines(text):
        if isinstance(obj, json.JSONDecodeError):
            raise IoError(f"{path}:{i}: invalid JSON: {obj}") from obj
        try:
            rows.append(jsonio.read_table(jsonio.ROW_ID, obj))
        except ValueError as exc:
            raise AlignmentError(f"{path}:{i}: {exc}") from None
    return rows
