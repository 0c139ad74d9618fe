"""Binary matrix container: `UNCAL-MAT v1` header plus row-major f32 payload.

The header is a single ASCII line `UNCAL-MAT v1 rows=<n> dims=<d> dtype=f32le`
followed by rows*dims little-endian 32-bit floats, all finite. A read checks
the payload's size before it allocates and then reads the payload into the
one float32 array it returns. Row identities live in a sidecar JSON Lines
file, one object per row read by `jsonio.ROW_ID`: a string `qid` and an
optional int `token_index` >= 0, nothing else. A sidecar is read as every
JSON Lines file is (`jsonio.read_lines`: a block of lines at a time, one
check per field column), and its first refused row fails it.
"""

from __future__ import annotations

import json
import os
import re
import stat

import numpy as np

from . import jsonio
from .errors import AlignmentError, IoError
from .reprgeo import BLOCK_ROWS

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
    """The matrix in an UNCAL-MAT v1 file, as native float32. A file that is
    not a regular file (a pipe) is refused: it has no size to check first."""
    try:
        with open(path, "rb") as fh:
            header = fh.readline(256)  # bounded: a file without a newline is not read whole
            m = _HEADER_RE.match(header)
            if not m:
                raise IoError(f"{path}: not an UNCAL-MAT v1 file")
            rows, dims = int(m.group(1)), int(m.group(2))
            st = os.fstat(fh.fileno())
            if not stat.S_ISREG(st.st_mode):
                raise IoError(f"{path}: not a regular file")
            expected = rows * dims * 4
            size = st.st_size - fh.tell()
            if size != expected:
                raise IoError(f"{path}: expected {expected} payload bytes, got {size}")
            values = np.empty((rows, dims), dtype="<f4")
            # a uint8 view: `memoryview.cast` would refuse a zero in the shape
            got = fh.readinto(values.view(np.uint8))
    except OSError as exc:
        raise IoError(f"cannot read matrix file {path}: {exc}") from exc
    if got != expected:  # the file shrank after its size was checked
        raise IoError(f"{path}: expected {expected} payload bytes, got {got}")
    for start in range(0, rows, BLOCK_ROWS):  # a mask of one block, not of the matrix
        if not np.isfinite(values[start:start + BLOCK_ROWS]).all():
            raise IoError(f"{path}: payload holds a NaN or infinite value")
    return values.astype(np.float32, copy=False)


def read_row_ids(path) -> jsonio.LoadResult:
    """The sidecar's columns, `qid` (str) and `token_index` (int or None),
    with the sha256 of its bytes (its `errors` are always empty). The first
    row the `jsonio.ROW_ID` table refuses fails the whole file, naming the
    sidecar, the line and the field; a line that is not JSON is an I/O fault."""
    try:
        fh, sha256 = jsonio.open_hashed(path)
        with fh:
            rows, errors, total = jsonio.read_lines(fh, jsonio.ROW_IDS)
    except OSError as exc:
        raise IoError(f"cannot read sidecar {path}: {exc}") from exc
    if errors:
        i, exc = errors[0]
        if isinstance(exc, json.JSONDecodeError):
            raise IoError(f"{path}:{i}: invalid JSON: {exc}") from exc
        raise AlignmentError(f"{path}:{i}: {exc}") from None
    return jsonio.LoadResult(records=rows, errors=[], total_lines=total,
                             sha256=sha256.hexdigest())
