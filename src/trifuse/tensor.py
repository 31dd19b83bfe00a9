"""Dense float64 tensors: coercion and a little-endian binary file format.

Every array handled by this package is a ``numpy.ndarray`` of float64. Input
is copied row-major (last index fastest); a float64 array, such as the strided
``[B, C, T]`` view an extractor block returns, is used as it is. A scalar is an
array of shape ``()``.
"""

from __future__ import annotations

import math
import mmap
import os
import stat
import struct

import numpy as np

MAGIC_HEADER_ORDER = "<I"  # order: u32
MAGIC_HEADER_DIM = "<Q"  # each dim: u64


class ShapeError(ValueError):
    """Raised when tensor shapes are incompatible or a tensor file is malformed."""


def as_tensor(data) -> np.ndarray:
    """Coerce input to a float64 array (0-d stays 0-d); a float64 array is
    returned as it is, views included."""
    return np.asarray(data, dtype=np.float64)


def save_tensor(path, t: np.ndarray) -> None:
    """Write order (u32), each dim (u64), then the f64 payload, little-endian;
    the payload straight from the array, which a C-ordered ``<f8`` input is.

    The file is written beside ``path`` and then renamed over it, so a reader
    that maps the old file (``load_tensor(path, mapped=True)``) keeps the old
    payload, and a failed write leaves the old file as it was."""
    t = as_tensor(t)
    tmp = f"{os.fspath(path)}.tmp-{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(struct.pack(f"<I{t.ndim}Q", t.ndim, *t.shape))
            np.ascontiguousarray(t, dtype="<f8").tofile(fh)  # 1-d for a 0-d t: the header above is t's
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def file_problem(path) -> str | None:
    """Why ``path`` cannot be read as a data file: it ``"does not exist"`` or
    ``"is not a regular file"``; None when it can. Checked before opening, since
    opening a FIFO for reading blocks until some writer opens it."""
    if not os.path.exists(path):
        return "does not exist"
    if not stat.S_ISREG(os.stat(path).st_mode):
        return "is not a regular file"
    return None


def load_tensor(path, mapped: bool = False) -> np.ndarray:
    """Inverse of :func:`save_tensor`. The header is checked against the file
    size first, then the payload is read once, straight into the returned array.

    With ``mapped`` the payload is not read: the array is a read-only view of
    the file's pages from byte ``4 + 8*order``, so never 8-byte aligned. It holds a duplicate of the file's descriptor until the
    array is freed, and the file must not be rewritten in place meanwhile."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < 4:
            raise ShapeError("tensor payload too short for header")
        (order,) = struct.unpack(MAGIC_HEADER_ORDER, fh.read(4))
        offset = 4 + 8 * order
        if offset > size:
            raise ShapeError("tensor payload truncated in dimension list")
        shape = struct.unpack(f"<{order}Q", fh.read(8 * order))
        count = math.prod(shape)  # Python ints: dims whose product overflows int64 must fail the length check
        expected = offset + 8 * count
        if size != expected:
            raise ShapeError(f"tensor payload has {size} bytes, expected {expected} for shape {shape}")
        if mapped:
            payload = np.frombuffer(mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ),
                                    dtype="<f8", count=count, offset=offset)
        else:
            payload = np.fromfile(fh, dtype="<f8", count=count)
        return payload.astype(np.float64, copy=False).reshape(shape)
