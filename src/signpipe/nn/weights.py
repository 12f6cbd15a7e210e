"""Binary tensor container used for model weights and feature files.

Layout (all header integers little-endian): magic ``SGNW``, u32 version (1),
u32 tensor count; then per tensor a u16 name length, the UTF-8 name, a u8
rank, u32 dims, and the float32 little-endian payload in row-major order.
Loading a saved store reproduces it bit-exactly, in the same order.

A load reads each payload straight into its own new array, after checking
that the file holds it, so it allocates no more than the tensors themselves.
"""

from __future__ import annotations

import io
import os
import stat
import struct
import sys
from pathlib import Path
from typing import BinaryIO

import numpy as np

from ..errors import WeightFormatError
from ..jsonio import decode_text, replacing

__all__ = ["save_tensors", "load_tensors", "save_weights", "load_weights",
           "write_tensors"]

MAGIC = b"SGNW"
VERSION = 1


def write_tensors(tensors: dict[str, np.ndarray], f: BinaryIO) -> None:
    """Write a store to an open binary file, each payload from its own buffer."""
    f.write(MAGIC + struct.pack("<II", VERSION, len(tensors)))
    for name, arr in tensors.items():
        nb = name.encode("utf-8")
        if not 0 < len(nb) <= 0xFFFF:
            raise WeightFormatError(f"tensor name {name!r} has unusable length")
        a = np.ascontiguousarray(arr, dtype="<f4")
        f.write(struct.pack(f"<H{len(nb)}sB{a.ndim}I", len(nb), nb, a.ndim, *a.shape))
        f.write(a)


def save_tensors(tensors: dict[str, np.ndarray], path: str | Path) -> None:
    with replacing(path) as f:
        write_tensors(tensors, f)


def load_tensors(path: str | Path) -> dict[str, np.ndarray]:
    with open(path, "rb") as f:
        st = os.fstat(f.fileno())
        if stat.S_ISREG(st.st_mode):
            return _read_store(f, st.st_size)
        data = f.read()  # a pipe or a device: its size is what it yields
    return _read_store(io.BytesIO(data), len(data))


def _read_store(f: BinaryIO, size: int) -> dict[str, np.ndarray]:
    """Parse a store of `size` bytes from `f`. A payload is allocated only
    after `size` shows the file holds it."""
    off = 0

    def truncated(what: str) -> WeightFormatError:
        return WeightFormatError(f"truncated file: expected {what} at byte {off}")

    def read_into(buf, n: int, what: str):
        nonlocal off
        if off + n > size or f.readinto(buf) != n:  # short only if the file shrank
            raise truncated(what)
        off += n
        return buf

    def take(n: int, what: str) -> bytearray:
        """The next n header bytes (n < 64 KiB, so allocated before the check)."""
        return read_into(bytearray(n), n, what)

    if take(4, "magic") != MAGIC:
        raise WeightFormatError(f"bad magic, not a {MAGIC.decode()} file")
    version, count = struct.unpack("<II", take(8, "version/count"))
    if version != VERSION:
        raise WeightFormatError(f"unsupported version {version}")
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2, "name length"))
        name = decode_text(take(name_len, "name"), "tensor name", WeightFormatError)
        (rank,) = struct.unpack("<B", take(1, "rank"))
        dims = struct.unpack(f"<{rank}I", take(4 * rank, "dims"))
        n_bytes = 4
        for d in dims:
            n_bytes *= d
        what = f"payload of {name!r}"
        if off + n_bytes > size:
            raise truncated(what)
        if name in out:
            raise WeightFormatError(f"duplicate tensor name {name!r}")
        try:
            arr = np.empty(dims, dtype=np.float32)
        except ValueError:  # an empty tensor whose other dims overflow numpy's size
            raise WeightFormatError(f"tensor {name!r} has unusable dims {dims}") from None
        out[name] = read_into(arr, n_bytes, what)
        if sys.byteorder == "big":
            arr.byteswap(inplace=True)
    if off != size:
        raise WeightFormatError(f"{size - off} trailing bytes after last tensor")
    return out


# Model weights use the same container.
save_weights = save_tensors
load_weights = load_tensors
