"""Binary tensor container used for model weights and feature files.

Layout (all header integers little-endian): magic ``SGNW``, u32 version (1),
u32 tensor count; then per tensor a u16 name length, the UTF-8 name, a u8
rank, u32 dims, and the float32 little-endian payload in row-major order.
Loading a saved store reproduces it bit-exactly, in the same order.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from ..errors import WeightFormatError
from ..jsonio import decode_text

__all__ = ["save_tensors", "load_tensors", "save_weights", "load_weights"]

MAGIC = b"SGNW"
VERSION = 1


def save_tensors(tensors: dict[str, np.ndarray], path: str | Path) -> None:
    parts = [MAGIC, struct.pack("<II", VERSION, len(tensors))]
    for name, arr in tensors.items():
        nb = name.encode("utf-8")
        if not 0 < len(nb) <= 0xFFFF:
            raise WeightFormatError(f"tensor name {name!r} has unusable length")
        a = np.ascontiguousarray(arr, dtype="<f4")
        if a.ndim > 0xFF:
            raise WeightFormatError(f"tensor {name!r} rank {a.ndim} exceeds 255")
        parts.append(struct.pack("<H", len(nb)))
        parts.append(nb)
        parts.append(struct.pack("<B", a.ndim))
        parts.append(struct.pack(f"<{a.ndim}I", *a.shape))
        parts.append(a.tobytes())
    Path(path).write_bytes(b"".join(parts))


def load_tensors(path: str | Path) -> dict[str, np.ndarray]:
    data = memoryview(Path(path).read_bytes())
    off = 0

    def take(n: int, what: str) -> memoryview:
        """The next n bytes, as a view: each tensor is copied once, by astype."""
        nonlocal off
        if off + n > len(data):
            raise WeightFormatError(f"truncated file: expected {what} at byte {off}")
        chunk = data[off:off + n]
        off += n
        return chunk

    if take(4, "magic") != MAGIC:
        raise WeightFormatError(f"bad magic, not a {MAGIC.decode()} file")
    version, count = struct.unpack("<II", take(8, "version/count"))
    if version != VERSION:
        raise WeightFormatError(f"unsupported version {version}")
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2, "name length"))
        name = decode_text(bytes(take(name_len, "name")), "tensor name", WeightFormatError)
        (rank,) = struct.unpack("<B", take(1, "rank"))
        dims = struct.unpack(f"<{rank}I", take(4 * rank, "dims"))
        n_elems = 1
        for d in dims:
            n_elems *= d
        payload = take(4 * n_elems, f"payload of {name!r}")
        if name in out:
            raise WeightFormatError(f"duplicate tensor name {name!r}")
        arr = np.frombuffer(payload, dtype="<f4", count=n_elems)
        try:
            out[name] = arr.reshape(dims).astype(np.float32)
        except ValueError:  # an empty tensor whose other dims overflow numpy's size
            raise WeightFormatError(f"tensor {name!r} has unusable dims {dims}") from None
    if off != len(data):
        raise WeightFormatError(f"{len(data) - off} trailing bytes after last tensor")
    return out


# Model weights use the same container.
save_weights = save_tensors
load_weights = load_tensors
