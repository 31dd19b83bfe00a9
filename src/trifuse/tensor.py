"""Dense float64 tensor primitives: pairwise contraction and a little-endian
binary file format.

Every array handled by this package is a C-contiguous ``numpy.ndarray`` of
float64 (row-major, last index fastest). A scalar is an array of shape ``()``.
"""

from __future__ import annotations

import math
import struct
from typing import Sequence

import numpy as np

MAGIC_HEADER_ORDER = "<I"  # order: u32
MAGIC_HEADER_DIM = "<Q"  # each dim: u64


class ShapeError(ValueError):
    """Raised when tensor shapes or axis lists are incompatible."""


def as_tensor(data) -> np.ndarray:
    """Coerce input to a C-contiguous float64 array (0-d stays 0-d)."""
    return np.asarray(data, dtype=np.float64, order="C")


def _check_axes(name: str, axes: Sequence[int], ndim: int) -> list[int]:
    axes = list(axes)
    if len(set(axes)) != len(axes):
        raise ShapeError(f"{name} axis list {axes} contains duplicates")
    for ax in axes:
        if not 0 <= ax < ndim:
            raise ShapeError(f"{name} axis {ax} out of range for order-{ndim} tensor")
    return axes


def contract(a: np.ndarray, b: np.ndarray, axes_a: Sequence[int], axes_b: Sequence[int]) -> np.ndarray:
    """Sum-product contraction of ``a`` and ``b`` over paired axes.

    The result carries the free axes of ``a`` (in order) followed by the free
    axes of ``b``. Contracting all axes of both operands yields a scalar.
    """
    a = as_tensor(a)
    b = as_tensor(b)
    axes_a = _check_axes("a", axes_a, a.ndim)
    axes_b = _check_axes("b", axes_b, b.ndim)
    if len(axes_a) != len(axes_b):
        raise ShapeError(f"axis lists differ in length: {axes_a} vs {axes_b}")
    for ax_a, ax_b in zip(axes_a, axes_b):
        if a.shape[ax_a] != b.shape[ax_b]:
            raise ShapeError(
                f"cannot contract shapes {a.shape} and {b.shape}: "
                f"axis pair ({ax_a}, {ax_b}) has sizes {a.shape[ax_a]} != {b.shape[ax_b]}"
            )
    return np.tensordot(a, b, axes=(axes_a, axes_b))


def tensor_to_bytes(t: np.ndarray) -> bytes:
    """Serialize: order (u32), each dim (u64), then the f64 payload, little-endian."""
    t = as_tensor(t)
    header = struct.pack(MAGIC_HEADER_ORDER, t.ndim)
    header += b"".join(struct.pack(MAGIC_HEADER_DIM, d) for d in t.shape)
    return header + t.astype("<f8").tobytes(order="C")


def tensor_from_bytes(raw: bytes) -> np.ndarray:
    """Inverse of :func:`tensor_to_bytes`."""
    if len(raw) < 4:
        raise ShapeError("tensor payload too short for header")
    (order,) = struct.unpack_from(MAGIC_HEADER_ORDER, raw, 0)
    offset = 4
    shape = []
    for _ in range(order):
        if offset + 8 > len(raw):
            raise ShapeError("tensor payload truncated in dimension list")
        (d,) = struct.unpack_from(MAGIC_HEADER_DIM, raw, offset)
        shape.append(int(d))
        offset += 8
    count = math.prod(shape)  # Python ints: dims whose product overflows int64 must fail the length check
    expected = offset + 8 * count
    if len(raw) != expected:
        raise ShapeError(f"tensor payload has {len(raw)} bytes, expected {expected} for shape {tuple(shape)}")
    data = np.frombuffer(raw, dtype="<f8", count=count, offset=offset)
    return data.astype(np.float64).reshape(shape)


def save_tensor(path, t: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(tensor_to_bytes(t))


def load_tensor(path) -> np.ndarray:
    with open(path, "rb") as fh:
        return tensor_from_bytes(fh.read())
