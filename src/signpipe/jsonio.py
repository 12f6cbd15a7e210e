"""The one checked reader for text and JSON from files, frames and replies,
and the one writer of output files.

Malformed means: bytes that are not UTF-8, text that is not JSON (an integer
past the interpreter's digit limit or nesting too deep to parse included),
or a value that does not fit its shape. Each raises the caller's own error
class as one "{what}: ..." message. A shape is int (not bool), float (a
finite number, not bool), str, list or dict; [shape], an array whose items
fit shape; or {key: shape}, an object whose keys fit theirs. With required,
every key a shape names must be present; other keys are never looked at,
except by check_fields, which names a top-level key that a file's format
does not know.
The non-JSON constants NaN, Infinity and -Infinity fit no shape: each is
read as a marker that float rejects as not finite and any other shape, or
an exact type check, as the wrong type.

Bytes and text are parsed by the json module, with the cyclic garbage
collector paused (gc_paused); only the wire decoder reads a written clip
with orjson, in netpipe/wire.py.
"""

from __future__ import annotations

import gc
import json
import os
import secrets
import stat
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Iterator

__all__ = ["decode_text", "read_text", "replacing", "write_text", "check_json",
           "check_fields", "parse_json", "load_json", "gc_paused"]

_NAMES = {int: "an integer", float: "a number", str: "a string",
          list: "a JSON array", dict: "a JSON object"}
_ABSENT = object()


class _NotJson(float):
    """A NaN, Infinity or -Infinity token: a NaN, so not a finite number,
    and not of any type that an exact type check lets through."""


_NOT_JSON = _NotJson("nan")


class gc_paused:
    """A block that runs with the cyclic garbage collector paused; the state
    it found is restored as the block exits, by return or by raise.

    Building or walking a clip makes ~16k lists at once, and every few
    hundred of them would otherwise start a collection that finds no
    cycle. A collector that was already disabled is left alone, so a
    caller's gc.disable() holds through the block. The state is
    process-wide: another thread may see the collector paused for as long
    as one block runs, and a process forked meanwhile (a server's child)
    starts with the collector as the block found it, since no thread there
    will end the block. This is the package's one use of gc's switches.
    """

    __slots__ = ("_resume",)
    # Whether an open block paused an enabled collector. Process-wide, as
    # the collector's state is; set before the pause and cleared after it,
    # so a fork between the two never leaves a child's collector off.
    _holding = False

    def __enter__(self) -> None:
        self._resume = gc.isenabled()
        if self._resume:
            gc_paused._holding = True
        gc.disable()

    def __exit__(self, *exc) -> None:
        if self._resume:
            gc.enable()
            gc_paused._holding = False

    @staticmethod
    def _after_fork_in_child() -> None:
        if gc_paused._holding:
            gc_paused._holding = False
            gc.enable()


os.register_at_fork(after_in_child=gc_paused._after_fork_in_child)


def decode_text(data: bytes, what: str, error: type[Exception]) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise error(f"{what}: not UTF-8 text ({e})") from None


def read_text(path: str | Path, what: str, error: type[Exception]) -> str:
    return decode_text(Path(path).read_bytes(), what, error)


@contextmanager
def replacing(path: str | Path) -> Iterator[BinaryIO]:
    """A binary file that takes `path`'s place when the block exits cleanly.

    The file is created in `path`'s directory as the block starts, so a
    directory that cannot be written fails before any work is done. If the
    block raises, the file is removed and `path` is left as it was. The new
    file's mode is the one a plain ``open`` gives (the umask applies). A
    symlink is followed: the file it resolves to is replaced and the link
    stays a link. A `path` that exists but is not a regular file (a device
    or a pipe) is written in place instead.
    """
    path = Path(path)
    try:
        regular = stat.S_ISREG(os.stat(path).st_mode)
    except FileNotFoundError:
        regular = True
    if not regular:
        with open(path, "wb") as f:
            yield f
        return
    path = Path(os.path.realpath(path))
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(4)}.tmp")
    f = open(tmp, "xb")
    try:
        with f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text(path: str | Path, text: str) -> None:
    with replacing(path) as f:
        f.write(text.encode("utf-8"))


def _fault(value, shape, where: str, required: bool) -> str | None:
    """Where value first departs from shape, as a message; None if it fits."""
    kind = type(shape) if isinstance(shape, (list, dict)) else shape
    if isinstance(value, bool) or not isinstance(
            value, (int, float) if kind is float else kind):
        return f"{where} must be {_NAMES[kind]}" if where else f"expected {_NAMES[kind]}"
    if kind is float and not -sys.float_info.max <= value <= sys.float_info.max:
        return f"{where} must be a finite number" if where else "expected a finite number"
    if isinstance(shape, list):
        fields = ((f"{where}[{i}]", item, shape[0]) for i, item in enumerate(value))
    elif isinstance(shape, dict):
        fields = ((f"{where}.{key}" if where else key, value.get(key, _ABSENT), sub)
                  for key, sub in shape.items() if required or key in value)
    else:
        return None
    for field, item, sub in fields:
        fault = (f"missing field {field!r}" if item is _ABSENT
                 else _fault(item, sub, field, required))
        if fault is not None:
            return fault
    return None


def check_json(value, what: str, error: type[Exception], shape=dict,
               required: bool = False):
    """value itself once it fits shape, else error naming the first misfit."""
    fault = _fault(value, shape, "", required)
    if fault is not None:
        raise error(f"{what}: {fault}")
    return value


def check_fields(value: dict, what: str, error: type[Exception], fields) -> dict:
    """value itself once it has no key outside fields, else error naming
    every key it should not have."""
    unknown = set(value) - set(fields)
    if unknown:
        raise error(f"{what}: unknown fields {sorted(unknown)}")
    return value


def parse_json(data: str | bytes | bytearray, what: str, error: type[Exception],
               shape=dict, required: bool = False):
    """JSON text or UTF-8 bytes, parsed and checked against shape."""
    if isinstance(data, (bytes, bytearray)):
        data = decode_text(data, what, error)
    try:
        with gc_paused():
            value = json.loads(data, parse_constant=lambda token: _NOT_JSON)
    except (ValueError, RecursionError) as e:
        raise error(f"{what}: invalid JSON ({e})") from None
    return check_json(value, what, error, shape, required)


def load_json(path: str | Path, what: str, error: type[Exception], shape=dict):
    return parse_json(Path(path).read_bytes(), what, error, shape)
