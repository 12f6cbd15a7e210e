"""Landmark domain types and the portable corpus file format.

A sample is a `LandmarkRows`: four read-only row-order columns,
``frame_index`` (N,) int64, ``kind`` (N,) int8 (the `LandmarkKind` code),
``landmark_index`` (N,) int64 and ``xyz`` (N, 3) float64, NaN if missing.
A row is checked once, by `_check_rows`, when rows are packed into a
`LandmarkRows`; no two rows of a sample share (frame_index, kind,
landmark_index). A `LandmarkFrame` is a plain row and checks nothing by
itself.

A corpus is a UTF-8 CSV with header
``sample_id,frame,kind,landmark_index,x,y,z,label``. Coordinates are
normalized image coordinates; a missing coordinate is an empty field on disk
and NaN in memory. Labels are carried inline on every row of a sample
(denormalized) so one file is self-contained.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import pickle
import signal
from array import array
from dataclasses import dataclass
from enum import Enum
from itertools import groupby, islice
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np
import orjson

from .errors import CorpusFormatError, ValidationError
from .jsonio import load_json, replacing, write_text

__all__ = [
    "MISSING",
    "LandmarkKind",
    "KIND_CAPACITY",
    "LandmarkFrame",
    "LandmarkRows",
    "SignSample",
    "LabelMap",
    "frame_ordinal",
    "read_corpus",
    "write_corpus",
    "read_label_map",
    "write_label_map",
]

# In-memory sentinel for a missing coordinate. Serialized as an empty field.
MISSING = math.nan


class LandmarkKind(Enum):
    """Landmark source stream. Enum values are the stable wire/serial codes."""

    FACE = 0
    LEFT_HAND = 1
    POSE = 2
    RIGHT_HAND = 3

    @property
    def csv_name(self) -> str:
        return self.name.lower()


KIND_CAPACITY = {
    LandmarkKind.FACE: 468,
    LandmarkKind.LEFT_HAND: 21,
    LandmarkKind.POSE: 33,
    LandmarkKind.RIGHT_HAND: 21,
}

_KINDS = tuple(LandmarkKind)  # indexed by code
_CAPACITY = np.array([KIND_CAPACITY[k] for k in _KINDS])  # indexed by code
_KIND_CODE = {k.csv_name: k.value for k in _KINDS}


def kind_from_name(name: str) -> LandmarkKind:
    try:
        return _KINDS[_KIND_CODE[name]]
    except KeyError:
        raise ValidationError(f"unknown landmark kind {name!r}") from None


def kind_from_code(code: int) -> LandmarkKind:
    try:
        return LandmarkKind(code)
    except ValueError:
        raise ValidationError(f"unknown landmark kind code {code!r}") from None


def frame_ordinal(frame_index: np.ndarray) -> np.ndarray:
    """Each row's rank among the distinct (non-decreasing) frame indices."""
    return np.cumsum(np.diff(frame_index, prepend=frame_index[:1]) != 0)


class _RowError(ValidationError):
    """A row breaks an invariant; `row` is its position in the sample."""

    def __init__(self, row: int, reason: str):
        super().__init__(f"row {row}: {reason}")
        self.row = row


def _fail_first(mask: np.ndarray, reason: str) -> None:
    hits = np.flatnonzero(mask)
    if hits.size:
        raise _RowError(int(hits[0]), reason)


def _check_rows(frame_index: np.ndarray, kind: np.ndarray,
                landmark_index: np.ndarray, xyz: np.ndarray) -> None:
    """The one check of every row invariant, over a sample's columns, each
    only after the previous passed; raises _RowError naming the first row
    that breaks one."""
    _fail_first(frame_index < 0, "negative frame index")
    _fail_first((kind < 0) | (kind >= len(_KINDS)), "unknown landmark kind code")
    _fail_first((landmark_index < 0) | (landmark_index >= _CAPACITY[kind]),
                "landmark index outside its kind's capacity")
    x, y, z = np.isinf(xyz).T  # faster than .any(axis=1) on 3 columns
    _fail_first(x | y | z, "infinite coordinate")
    _fail_first(np.diff(frame_index, prepend=0) < 0, "frame index decreases")
    # The frame ordinal is at most N, so the packed key cannot overflow.
    key = ((frame_ordinal(frame_index) * len(_KINDS) + kind) * _CAPACITY.max()
           + landmark_index)
    repeated = np.ones(len(key), dtype=bool)
    repeated[np.unique(key, return_index=True)[1]] = False
    _fail_first(repeated, "repeats an earlier (frame_index, kind, landmark_index)")


def _int64(values: Sequence[int], what: str) -> np.ndarray:
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        row = next(r for r, v in enumerate(values) if not -2**63 <= v < 2**63)
        raise _RowError(row, f"{what} outside the int64 range") from None


class LandmarkFrame(NamedTuple):
    """One landmark observation at one video frame: a plain row, checked
    only when it is packed into a `LandmarkRows`."""

    frame_index: int
    kind: LandmarkKind
    landmark_index: int
    x: float
    y: float
    z: float = MISSING

    # NaN-aware equality so the missing sentinel survives round-trip checks.
    def __eq__(self, other) -> bool:
        if not isinstance(other, LandmarkFrame):
            return NotImplemented
        return all(a == b or a != a and b != b for a, b in zip(self, other))

    def __ne__(self, other) -> bool:
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    __hash__ = None  # equal frames may hold distinct NaNs


class LandmarkRows:
    """A sample's rows as checked, read-only, row-order columns. Iterating
    or indexing yields `LandmarkFrame` values."""

    __slots__ = ("frame_index", "kind", "landmark_index", "xyz")

    def __init__(self, frame_index: Sequence[int], kind: Sequence[int],
                 landmark_index: Sequence[int], xyz):
        frame_index = _int64(frame_index, "frame index")
        kind = _int64(kind, "kind code")
        landmark_index = _int64(landmark_index, "landmark index")
        xyz = np.array(xyz, dtype=np.float64, order="C").reshape(len(frame_index), 3)
        _check_rows(frame_index, kind, landmark_index, xyz)
        columns = (frame_index, kind.astype(np.int8), landmark_index, xyz)
        for name, column in zip(self.__slots__, columns):
            column.flags.writeable = False
            setattr(self, name, column)

    @classmethod
    def of(cls, frames: Sequence[LandmarkFrame]) -> "LandmarkRows":
        frame_index, kind, landmark_index, *xyz = list(zip(*frames)) or [()] * 6
        return cls(frame_index, [k.value for k in kind], landmark_index, np.transpose(xyz))

    def __len__(self) -> int:
        return len(self.frame_index)

    def __iter__(self):
        return map(LandmarkFrame, self.frame_index.tolist(),
                   map(_KINDS.__getitem__, self.kind.tolist()),
                   self.landmark_index.tolist(), *self.xyz.T.tolist())

    def __getitem__(self, i: int) -> LandmarkFrame:
        return LandmarkFrame(int(self.frame_index[i]), _KINDS[self.kind[i]],
                             int(self.landmark_index[i]), *self.xyz[i].tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, LandmarkRows):
            return NotImplemented
        return all(np.array_equal(getattr(self, name), getattr(other, name), equal_nan=True)
                   for name in self.__slots__)

    def tolist(self, missing=None) -> list[list]:
        """Rows [frame_index, kind, landmark_index, x, y, z]; NaN -> missing."""
        table = np.empty((len(self), 6), dtype=object)
        table[:, :3] = np.column_stack((self.frame_index, self.kind, self.landmark_index))
        table[:, 3:] = self.xyz
        table[:, 3:][np.isnan(self.xyz)] = missing
        return table.tolist()


@dataclass
class SignSample:
    """A labeled (or unlabeled) landmark sequence for one isolated sign. A
    list of `LandmarkFrame` rows is packed, and so checked, once; a
    `LandmarkRows` is shared."""

    sample_id: str
    frames: LandmarkRows
    label: int | None = None

    def __post_init__(self):
        if not self.sample_id:
            raise ValidationError("sample_id must be non-empty")
        if not isinstance(self.frames, LandmarkRows):
            self.frames = LandmarkRows.of(self.frames)
        if not len(self.frames):
            raise ValidationError(f"sample {self.sample_id!r} has no frames")
        # The upper bound belongs to the model and the label map, not the sample.
        if self.label is not None and self.label < 0:
            raise ValidationError(
                f"sample {self.sample_id!r}: label {self.label} is negative"
            )


@dataclass(frozen=True)
class LabelMap:
    """Bijective class id <-> gloss map; ids are dense in [0, len)."""

    glosses: tuple[str, ...]

    def __post_init__(self):
        if not self.glosses:
            raise ValidationError("label map is empty")
        seen: set[str] = set()
        for g in self.glosses:
            if not g:
                raise ValidationError("empty gloss in label map")
            if g in seen:
                raise ValidationError(f"duplicate gloss {g!r} in label map")
            seen.add(g)

    def __len__(self) -> int:
        return len(self.glosses)

    def gloss_for(self, class_id: int) -> str:
        if not 0 <= class_id < len(self.glosses):
            raise ValidationError(f"class id {class_id} outside [0, {len(self)})")
        return self.glosses[class_id]


CORPUS_HEADER = ["sample_id", "frame", "kind", "landmark_index", "x", "y", "z", "label"]
_HEADER_LINE = ",".join(CORPUS_HEADER)


def _parse_float(text: str, column: str, line: int) -> float:
    if text == "":
        return MISSING
    try:
        return float(text)
    except ValueError:
        raise CorpusFormatError(f"non-numeric {column} value {text!r}", line) from None


def _parse_int(text: str, column: str, line: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise CorpusFormatError(f"non-integer {column} value {text!r}", line) from None


_EMPTY_AS_NAN = {"": "nan"}  # .get(v, v): an empty coordinate reads as NaN
# Records parsed together by csv: enough to spread the per-chunk work thin,
# few enough that a chunk's strings are still in cache when it is converted.
_CHUNK_ROWS = 512
# The bytes a number column's joined text may hold for orjson to read it.
# Of such text orjson reads each number as int() and float() do, or refuses
# it, but for -0: int 0, where float() reads -0.0.
_NUMBER_BYTES = b"0123456789+-.eE,"


def _check_header(reader) -> None:
    """Read and check the header record; a csv error is the caller's."""
    try:
        header = next(reader)
    except StopIteration:
        raise CorpusFormatError("missing header", 1) from None
    if header != CORPUS_HEADER:
        raise CorpusFormatError(f"bad header {header!r}, expected {CORPUS_HEADER!r}", 1)


def _parse_each(texts: Sequence[str], typecode: str) -> array:
    """array(typecode) of a column's texts, each read by int() ("q") or by
    float() ("d", an empty text as NaN)."""
    if typecode == "q":
        return array("q", map(int, texts))
    return array("d", map(float, map(_EMPTY_AS_NAN.get, texts, texts) if "" in texts else texts))


def _parse_numbers(texts: Sequence[str], typecode: str) -> array:
    """`_parse_each` of a column, from one orjson.loads of the joined texts
    where that reads each text as int() or float() does: the texts hold
    only the characters of a number, orjson reads one int (or, for "d", one
    int or float) per text, and no float text is -0."""
    joined = ",".join(texts)
    if (not joined.encode().translate(None, _NUMBER_BYTES)
            and (typecode == "q" or "-" not in joined or "-0," not in joined + ",")):
        try:
            values = orjson.loads(f"[{joined}]")
            if len(values) == len(texts):  # a lone empty text reads as []
                return array(typecode, values)
        except (orjson.JSONDecodeError, TypeError):  # TypeError: a float in "q"
            pass
    return _parse_each(texts, typecode)


def _parse_run(labels: set[str], frames, kinds, indices, x, y, z):
    """(label, frames, kinds, indices, x, y, z) of a run of records that
    share a sample_id, from the set of its label texts and its other
    columns' texts, one conversion per column into an `array`; None if a
    field is malformed or outside int64, or the labels differ."""
    try:
        (label,) = {None if text == "" else int(text) for text in labels}
        return (label,
                _parse_numbers(frames, "q"),
                array("b", map(_KIND_CODE.__getitem__, kinds)),
                _parse_numbers(indices, "q"),
                *(_parse_numbers(column, "d") for column in (x, y, z)))
    except (KeyError, ValueError, OverflowError):
        return None


def _add_run(columns: dict, labels: dict, sample_id: str, parsed) -> bool:
    """Extend sample_id's columns by a `_parse_run` value; False if that is
    None, the id is empty, or the label is not the sample's."""
    if parsed is None or not sample_id:
        return False
    label, *values = parsed
    if sample_id not in columns:
        columns[sample_id], labels[sample_id] = values, label
        return True
    if labels[sample_id] != label:
        return False
    for column, part in zip(columns[sample_id], values):
        column.extend(part)
    return True


def _samples(columns: dict[str, list], labels: dict[str, int | None],
             lines: dict[str, list[int]] | None = None) -> list[SignSample] | None:
    """Each sample from its frame, kind, landmark_index, x, y and z columns,
    in order of first appearance. At a row that breaks a sample invariant:
    None, or, given each row's start line, a CorpusFormatError naming it."""
    samples = []
    for sample_id in list(columns):
        frames, kinds, indices, *xyz = columns.pop(sample_id)
        try:
            rows = LandmarkRows(frames, kinds, indices, np.column_stack(xyz))
            samples.append(SignSample(sample_id, rows, labels[sample_id]))
        except ValidationError as e:  # a row, or SignSample's label rule
            if lines is None:
                return None
            if isinstance(e, _RowError):
                raise CorpusFormatError(f"sample {sample_id!r}: {e}",
                                        lines[sample_id][e.row]) from None
            raise CorpusFormatError(str(e), lines[sample_id][0]) from None
    return samples


def _read_columns(fh):
    """(columns, labels) of a corpus stream's records, tokenized by csv a
    chunk of records at a time, with one `_parse_run` for each run of
    records that share a sample_id; None at the first fault of any kind."""
    reader = csv.reader(fh)
    columns, labels = {}, {}
    try:
        _check_header(reader)
        while chunk := list(islice(reader, _CHUNK_ROWS)):
            if [] in chunk:  # blank lines
                chunk = [row for row in chunk if row]
            for sample_id, run in groupby(chunk, itemgetter(0)):
                try:
                    _, frames, kinds, indices, x, y, z, run_labels = zip(*run, strict=True)
                except ValueError:
                    return None  # a record has the wrong number of fields
                parsed = _parse_run(set(run_labels), frames, kinds, indices, x, y, z)
                if not _add_run(columns, labels, sample_id, parsed):
                    return None
    except (csv.Error, UnicodeDecodeError):
        return None
    return columns, labels


def _split_fields(text: str, header: bool):
    """The fields of a quote-free block's records, eight a record, the last
    field of each ending in "\\n": split on the block's one line end, LF or
    CRLF, with blank lines dropped as csv drops them, after the header line
    if `header`. _UNSPLIT if the block holds a lone CR or both line ends, or
    is longer than a csv field may be; None if the header is not
    CORPUS_HEADER or a line holds other than seven commas."""
    end = "\r\n" if "\r" in text else "\n"
    lines = text.split(end)
    if lines[-1] == "":  # the text ends a line
        lines.pop()
    if (end == "\r\n" and ("\r" in (probe := "".join(lines)) or "\n" in probe)
            or len(text) > csv.field_size_limit()):
        return _UNSPLIT
    if header:
        if lines[:1] != [_HEADER_LINE]:
            return None
        del lines[0]
    if "" in lines:
        lines = [line for line in lines if line]
    records = len(lines)
    lines.append("")
    # Each line ends in "\n,", so a field holds at most one "\n", last.
    fields = "\n,".join(lines).split(",")
    if len(fields) != 8 * records + 1 or "".join(fields[7::8]).count("\n") != records:
        return None
    return fields


def _read_fields(fields: list[str], columns: dict, labels: dict) -> bool:
    """Add `_split_fields`' records to columns and labels, one `_parse_run`
    for each run of records that share a sample_id; False at a fault."""
    stop = 0
    for sample_id, run in groupby(fields[0:-1:8]):
        start, stop = stop, stop + len(list(run))
        frames, kinds, indices, x, y, z, run_labels = (
            fields[8 * start + c:8 * stop:8] for c in range(1, 8))
        parsed = _parse_run({text[:-1] for text in set(run_labels)},
                            frames, kinds, indices, x, y, z)
        if not _add_run(columns, labels, sample_id, parsed):
            return False
    return True


# The least a file holds per part before it is split. On a 2-vCPU box two
# parts broke even with one stream at ~1 MiB of corpus (the fork, the pipe
# and the pickled columns) and read 4 and 8 MiB 35-39% faster.
_MIN_PART_BYTES = 4 << 20
_BLOCK_BYTES = 64 << 10  # read at a time; larger blocks raise the peak RSS
_UNSPLIT = "unsplit"  # a part that asks for the file to be read as one stream


def _line_start(fd: int, offset: int) -> int:
    """The first offset at or after `offset` (> 0) that follows a newline,
    or the end of the file."""
    offset -= 1
    while block := os.pread(fd, _BLOCK_BYTES, offset):
        newline = block.find(b"\n")
        if newline >= 0:
            return offset + newline + 1
        offset += len(block)
    return offset


def _ranges(fd: int) -> list[tuple[int, int]]:
    """Line-aligned byte ranges that split the file: one per available CPU,
    each of at least _MIN_PART_BYTES, and one for a smaller file. A
    device's size reads 0: no range. Where the CPUs cannot be read (no
    sched_getaffinity, as on macOS), one range."""
    size = os.fstat(fd).st_size
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    parts = min(cpus, size // _MIN_PART_BYTES)
    cuts = sorted({0, size, *(_line_start(fd, i * size // parts) for i in range(1, parts))})
    return list(zip(cuts, cuts[1:]))


def _read_range(fd: int, start: int, stop: int, header: bool):
    """(columns, labels) of the records in bytes [start, stop), which start
    and end a line, after the header if `header`: a block of whole lines at
    a time, split by `_split_fields`. None at the first fault of any kind;
    _UNSPLIT at a block that holds a quote (a cut may have split a quoted
    field), or that `_split_fields` leaves to csv."""
    columns, labels = {}, {}
    tail = b""
    while start < stop and (data := os.pread(fd, min(_BLOCK_BYTES, stop - start), start)):
        start += len(data)
        block = tail + data
        if b'"' in block:
            return _UNSPLIT
        cut = block.rfind(b"\n") + 1 if start < stop else len(block)
        block, tail = block[:cut], block[cut:]
        if not block:
            continue
        try:
            text = block.decode("utf-8")
        except UnicodeDecodeError:
            return None
        fields = _split_fields(text, header)
        if fields is _UNSPLIT or fields is None:
            return fields
        if not _read_fields(fields, columns, labels):
            return None
        header = False
    return columns, labels


def _fork_part(fd: int, start: int, stop: int):
    """(pid, pipe) of a child that sends `_read_range` of bytes [start,
    stop) down the pipe. The child ends in os._exit, so it never returns to
    the caller's code and never flushes the stdio it inherited."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(r)
            with os.fdopen(w, "wb") as out:
                pickler = pickle.Pickler(out, pickle.HIGHEST_PROTOCOL)
                pickler.fast = True  # no memo, so each column is freed once sent
                pickler.dump(_read_range(fd, start, stop, header=False))
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    return pid, os.fdopen(r, "rb")


def _read_parts(fd: int, ranges: list[tuple[int, int]]) -> list:
    """`_read_range` of each range, in order: the first in this process,
    header included, while a forked child reads each other one. A child
    that cannot be forked, or sends no part, asks for one stream. Every
    child is killed and reaped before this returns or raises."""
    children = []
    try:
        try:
            for start, stop in ranges[1:]:
                children.append(_fork_part(fd, start, stop))
        except OSError:
            return [_UNSPLIT]
        parts = [_read_range(fd, *ranges[0], header=True)]
        for _, pipe in children:
            try:
                parts.append(pickle.load(pipe))
            except (EOFError, pickle.UnpicklingError):
                parts.append(_UNSPLIT)
        return parts
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _merge(parts: list) -> tuple[dict, dict] | None:
    """The parts' (columns, labels) joined in part order, emptying parts: a
    sample that runs on across a cut is extended, and a sample new to the
    merge is taken as it is. None if a sample's label differs across parts."""
    columns, labels = parts.pop(0)
    while parts:
        part_columns, part_labels = parts.pop(0)
        for sample_id, values in part_columns.items():
            if sample_id not in columns:
                columns[sample_id], labels[sample_id] = values, part_labels[sample_id]
            elif labels[sample_id] != part_labels[sample_id]:
                return None
            else:
                for column, part in zip(columns[sample_id], values):
                    column.extend(part)
    return columns, labels


def _read_chunked(fh) -> list[SignSample] | None:
    """The corpus read by `_read_range`, as line-aligned byte ranges at once
    (`_read_parts`), or by `_read_columns` as one stream from fh: for a
    file with a quote anywhere, since a quoted field may hold a line break,
    or a range that `_split_fields` leaves to csv. None at the first fault
    of any kind."""
    ranges = _ranges(fh.fileno())
    parts = _read_parts(fh.fileno(), ranges) if ranges else [_UNSPLIT]
    if _UNSPLIT in parts:
        parts = [_read_columns(fh)]
    if None in parts or (merged := _merge(parts)) is None:
        return None
    return _samples(*merged)


def _read_records(fh) -> list[SignSample]:
    """The corpus read one record at a time, each field through its own
    parser, so that the first fault in file order is raised, naming the
    physical line its record starts on: one past the line on which the
    record before it ended."""
    reader = csv.reader(fh)
    columns, labels, lines = {}, {}, {}
    start = 1
    try:
        _check_header(reader)
        start = reader.line_num + 1
        for row in reader:
            line, start = start, reader.line_num + 1
            if not row:
                continue
            if len(row) != len(CORPUS_HEADER):
                raise CorpusFormatError(
                    f"expected {len(CORPUS_HEADER)} columns, got {len(row)}", line)
            sample_id, frame_s, kind_s, index_s, x_s, y_s, z_s, label_s = row
            if not sample_id:
                raise CorpusFormatError("empty sample_id", line)
            label = None if label_s == "" else _parse_int(label_s, "label", line)
            if sample_id not in columns:
                # Python ints, so LandmarkRows names a row outside int64.
                columns[sample_id] = ([], array("b"), [],
                                      array("d"), array("d"), array("d"))
                labels[sample_id], lines[sample_id] = label, []
            elif labels[sample_id] != label:
                raise CorpusFormatError(f"inconsistent label for sample {sample_id!r}", line)
            frames, kinds, indices, x, y, z = columns[sample_id]
            try:
                kinds.append(_KIND_CODE[kind_s])
            except KeyError:
                raise CorpusFormatError(f"unknown landmark kind {kind_s!r}", line) from None
            frames.append(_parse_int(frame_s, "frame", line))
            indices.append(_parse_int(index_s, "landmark_index", line))
            x.append(_parse_float(x_s, "x", line))
            y.append(_parse_float(y_s, "y", line))
            z.append(_parse_float(z_s, "z", line))
            lines[sample_id].append(line)
    except csv.Error as e:
        raise CorpusFormatError(f"unreadable CSV record: {e}", start) from None
    return _samples(columns, labels, lines)


def read_corpus(path: str | Path) -> list[SignSample]:
    """Parse a corpus CSV into samples, grouped by sample_id.

    Row order within a sample is preserved. Any malformed content, including
    a row that breaks a sample invariant, raises CorpusFormatError naming the
    physical line (1-based) on which the offending record starts.

    Errors come in file order: the first malformed record is reported, and
    within it the first bad field in this order: column count, empty
    sample_id, label, label consistency with the sample's earlier rows,
    kind, frame, landmark_index, x, y, z. Sample invariants (`LandmarkRows`
    and `SignSample`'s label rule, named at the sample's first record) are
    checked once the whole file has parsed, sample by sample in order of
    first appearance. Only a faulty file is read a second time, record by
    record, to name its fault; a pipe, which cannot be read twice, is read
    once, record by record.

    A regular file with no quote in it is read as line-aligned byte ranges
    at once: one range for a small file, else one per available CPU, each
    but the first in a forked child that has ended by the time this returns
    or raises. A range is read 64 KiB at a time: its lines are split on
    their line end, LF or CRLF, and each number column of a run of records
    that share a sample_id is parsed with one orjson.loads, wherever orjson
    reads each field as int() or float() does. A file that holds a quote or
    a lone CR is tokenized by csv, as one stream.
    """
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            if fh.seekable():
                if (samples := _read_chunked(fh)) is not None:
                    return samples
                fh.seek(0)
            return _read_records(fh)
    except UnicodeDecodeError as e:
        raise CorpusFormatError(f"corpus {path}: not UTF-8 text ({e.reason})") from None


def write_corpus(samples: list[SignSample], path: str | Path) -> None:
    """Write samples as corpus CSV; read_corpus(write_corpus(s)) == s."""
    with replacing(path) as f, io.TextIOWrapper(f, encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CORPUS_HEADER)
        for sample in samples:
            label = "" if sample.label is None else sample.label
            writer.writerows(
                (sample.sample_id, frame_index, _KINDS[code].csv_name,
                 landmark_index, x, y, z, label)
                for frame_index, code, landmark_index, x, y, z
                in sample.frames.tolist(missing="")
            )


def read_label_map(path: str | Path) -> LabelMap:
    """Load a label map: a JSON array of glosses, index == class id."""
    return LabelMap(tuple(load_json(path, f"label map {path}", ValidationError, [str])))


def write_label_map(labels: LabelMap, path: str | Path) -> None:
    write_text(path, json.dumps(list(labels.glosses), ensure_ascii=False, indent=0) + "\n")
