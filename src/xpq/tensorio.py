"""The checkpoint blob container: one writer and one strict reader.

A blob is, all little-endian: a 4-byte magic, a u32 version, a fixed header
packed with a struct format, then tensors. Each tensor is rows u32, cols
u32, then rows*cols IEEE-754 binary32 values, row-major; a 1-D tensor of n
values is stored as 1 x n. Nothing follows the last tensor.

The reader checks the magic, the version and the header length, compares
each tensor's declared size with the bytes left in the file before anything
is read or allocated, checks each tensor's shape against the one the header
implies, refuses a tensor holding a NaN or an infinity, and refuses
trailing bytes.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path
from typing import BinaryIO, Callable, Iterable

import numpy as np

from .errors import ConfigError, FormatError, TruncationError


def _stored_shape(shape: tuple[int, ...]) -> tuple[int, ...]:
    return (1, shape[0]) if len(shape) == 1 else tuple(shape)


def write_blob(
    path, magic: bytes, version: int, header: bytes, tensors: Iterable[np.ndarray]
) -> None:
    """Write the blob to path + ".tmp", then rename it over path."""
    tmp = Path(str(path) + ".tmp")
    with open(tmp, "wb") as f:
        f.write(magic + struct.pack("<I", version) + header)
        for t in tensors:
            a = np.ascontiguousarray(t, dtype="<f4")
            f.write(struct.pack("<II", *_stored_shape(a.shape)))
            f.write(a.tobytes(order="C"))
    tmp.replace(path)


def _read(f: BinaryIO, count: int, path) -> bytes:
    raw = f.read(count)
    if len(raw) < count:
        raise TruncationError(f"unexpected end of file in {path}")
    return raw


def read_blob(
    path,
    magic: bytes,
    version: int,
    header_fmt: str,
    shapes: Callable[..., Iterable[tuple[str, tuple[int, ...]]]],
) -> tuple[tuple, list[np.ndarray]]:
    """(header fields, tensors) of the blob at path.

    shapes(*header) yields (name, shape) for each tensor in file order; it is
    consumed one tensor at a time, so a hostile header cannot make it build a
    huge list. A ConfigError it raises is reported as a FormatError naming
    path. Tensors come back as float32 arrays of exactly those shapes.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        head = f.read(8)
        if len(head) < 8 or head[:4] != magic:
            raise FormatError(f"bad magic in {path}: expected {magic!r}, got {head[:4]!r}")
        (found,) = struct.unpack("<I", head[4:])
        if found != version:
            raise FormatError(f"unsupported version {found} in {path}, expected {version}")
        header = struct.unpack(header_fmt, _read(f, struct.calcsize(header_fmt), path))
        try:
            expected = shapes(*header)
        except ConfigError as e:
            raise FormatError(f"{path}: {e}") from None
        tensors = []
        for name, shape in expected:
            rows, cols = struct.unpack("<II", _read(f, 8, path))
            nbytes = 4 * rows * cols
            left = size - f.tell()
            if nbytes > left:
                raise TruncationError(
                    f"tensor in {path} declares {rows}x{cols} ({nbytes} bytes) "
                    f"but {left} bytes remain"
                )
            if (rows, cols) != _stored_shape(shape):
                got = (cols,) if len(shape) == 1 and rows == 1 else (rows, cols)
                raise FormatError(f"{path}: {name} has shape {got}, expected {shape}")
            tensor = np.frombuffer(f.read(nbytes), dtype="<f4").reshape(shape).copy()
            if not np.isfinite(tensor).all():
                raise FormatError(f"{path}: {name} holds a non-finite value")
            tensors.append(tensor)
        left = size - f.tell()
        if left:
            raise FormatError(f"{path}: {left} bytes follow the last tensor")
    return header, tensors
