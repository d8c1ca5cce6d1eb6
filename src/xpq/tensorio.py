"""Binary tensor serialization shared by all checkpoint formats.

A tensor is written as rows u32, cols u32, then rows*cols IEEE-754 binary32
values, row-major, little-endian. Containers prepend a 4-byte magic and a
u32 version.
"""

from __future__ import annotations

import os
import struct
from typing import BinaryIO

import numpy as np

from .errors import FormatError, TruncationError


def write_header(f: BinaryIO, magic: bytes, version: int) -> None:
    f.write(magic + struct.pack("<I", version))


def read_header(f: BinaryIO, magic: bytes, path: str) -> int:
    head = f.read(8)
    if len(head) < 8 or head[:4] != magic:
        raise FormatError(f"bad magic in {path}: expected {magic!r}, got {head[:4]!r}")
    return struct.unpack("<I", head[4:])[0]


def write_u32s(f: BinaryIO, *values: int) -> None:
    f.write(struct.pack(f"<{len(values)}I", *values))


def read_u32s(f: BinaryIO, count: int, path: str) -> tuple[int, ...]:
    raw = f.read(4 * count)
    if len(raw) < 4 * count:
        raise TruncationError(f"unexpected end of file in {path}")
    return struct.unpack(f"<{count}I", raw)


def write_tensor(f: BinaryIO, arr: np.ndarray) -> None:
    a = np.ascontiguousarray(arr, dtype="<f4")
    if a.ndim == 1:
        a = a.reshape(1, -1)
    if a.ndim != 2:
        raise ValueError(f"can only serialize 1-D or 2-D tensors, got shape {arr.shape}")
    write_u32s(f, a.shape[0], a.shape[1])
    f.write(a.tobytes(order="C"))


def read_tensor(f: BinaryIO, path: str) -> np.ndarray:
    """The next tensor of f; its declared size is checked against the bytes
    left in the file before anything is read or allocated."""
    rows, cols = read_u32s(f, 2, path)
    nbytes = 4 * rows * cols
    left = os.fstat(f.fileno()).st_size - f.tell()
    if nbytes > left:
        raise TruncationError(
            f"tensor in {path} declares {rows}x{cols} ({nbytes} bytes) but {left} bytes remain"
        )
    raw = f.read(nbytes)
    return np.frombuffer(raw, dtype="<f4").reshape(rows, cols).copy()
