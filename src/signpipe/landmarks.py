"""Landmark domain types and the portable corpus file format.

A sample is a `LandmarkRows`: four read-only row-order columns,
``frame_index`` (N,) int64, ``kind`` (N,) int8 (the `LandmarkKind` code),
``landmark_index`` (N,) int64 and ``xyz`` (N, 3) float64, NaN if missing.
`_check_rows` checks every row invariant, once, when they are built; no two
rows of a sample share (frame_index, kind, landmark_index).

A corpus is a UTF-8 CSV with header
``sample_id,frame,kind,landmark_index,x,y,z,label``. Coordinates are
normalized image coordinates; a missing coordinate is an empty field on disk
and NaN in memory. Labels are carried inline on every row of a sample
(denormalized) so one file is self-contained.
"""

from __future__ import annotations

import csv
import json
import math
from array import array
from dataclasses import dataclass
from enum import Enum
from itertools import groupby
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import CorpusFormatError, ValidationError

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

# Default lexicon size; per-corpus maps may be smaller (toy datasets).
DEFAULT_NUM_CLASSES = 250


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
_KIND_BY_NAME = {k.csv_name: k for k in LandmarkKind}


def kind_from_name(name: str) -> LandmarkKind:
    try:
        return _KIND_BY_NAME[name]
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


def _row_faults(frame_index, kind, landmark_index, x, y, z):
    """(bad, reason) per single-row invariant, each only after the previous
    passed. Plain operators make it work on one row's scalars or on columns."""
    yield frame_index < 0, "negative frame index"
    yield (kind < 0) | (kind >= len(_KINDS)), "unknown landmark kind code"
    yield ((landmark_index < 0) | (landmark_index >= _CAPACITY[kind]),
           "landmark index outside its kind's capacity")
    yield (abs(x) == math.inf) | (abs(y) == math.inf) | (abs(z) == math.inf), \
        "infinite coordinate"


def _check_rows(frame_index: np.ndarray, kind: np.ndarray,
                landmark_index: np.ndarray, xyz: np.ndarray) -> None:
    """The one check of every row invariant over a sample's columns; raises
    _RowError naming the first row that breaks one."""
    for bad, reason in _row_faults(frame_index, kind, landmark_index, *xyz.T):
        _fail_first(bad, reason)
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


@dataclass(frozen=True, eq=False)
class LandmarkFrame:
    """One landmark observation at one video frame."""

    frame_index: int
    kind: LandmarkKind
    landmark_index: int
    x: float
    y: float
    z: float = MISSING

    def __post_init__(self):
        for bad, reason in _row_faults(self.frame_index, self.kind.value,
                                       self.landmark_index, self.x, self.y, self.z):
            if bad:
                raise ValidationError(f"{reason}: {self}")

    # NaN-aware equality so the missing sentinel survives round-trip checks.
    def __eq__(self, other) -> bool:
        if not isinstance(other, LandmarkFrame):
            return NotImplemented
        return LandmarkRows.of([self]) == LandmarkRows.of([other])


def _row(frame_index: int, code: int, landmark_index: int,
         xyz: list[float]) -> LandmarkFrame:
    # A checked row needs no second check, so skip __post_init__.
    row = object.__new__(LandmarkFrame)
    row.__dict__.update(frame_index=frame_index, kind=_KINDS[code],
                        landmark_index=landmark_index,
                        x=xyz[0], y=xyz[1], z=xyz[2])
    return row


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
        return cls([f.frame_index for f in frames],
                   [f.kind.value for f in frames],
                   [f.landmark_index for f in frames],
                   [(f.x, f.y, f.z) for f in frames])

    def __len__(self) -> int:
        return len(self.frame_index)

    def __iter__(self):
        return map(_row, self.frame_index.tolist(), self.kind.tolist(),
                   self.landmark_index.tolist(), self.xyz.tolist())

    def __getitem__(self, i: int) -> LandmarkFrame:
        return _row(int(self.frame_index[i]), int(self.kind[i]),
                    int(self.landmark_index[i]), self.xyz[i].tolist())

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
    list of `LandmarkFrame` rows is packed once; a `LandmarkRows` is shared."""

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
        if self.label is not None and not 0 <= self.label < DEFAULT_NUM_CLASSES:
            raise ValidationError(
                f"sample {self.sample_id!r}: label {self.label} outside "
                f"[0, {DEFAULT_NUM_CLASSES})"
            )

    def by_frame(self) -> list[tuple[int, list[LandmarkFrame]]]:
        """Frames grouped by distinct frame_index, in order of appearance."""
        return [(t, list(group))
                for t, group in groupby(self.frames, key=lambda f: f.frame_index)]

    def num_frames(self) -> int:
        return int(frame_ordinal(self.frames.frame_index)[-1]) + 1


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

    def id_for(self, gloss: str) -> int:
        try:
            return self.glosses.index(gloss)
        except ValueError:
            raise ValidationError(f"unknown gloss {gloss!r}") from None


CORPUS_HEADER = ["sample_id", "frame", "kind", "landmark_index", "x", "y", "z", "label"]


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


def read_corpus(path: str | Path) -> list[SignSample]:
    """Parse a corpus CSV into samples, grouped by sample_id.

    Row order within a sample is preserved. Any malformed content, including
    a row that breaks a sample invariant, raises CorpusFormatError with the
    1-based line number.
    """
    path = Path(path)
    # sample_id -> frame, kind, landmark_index, (x, y, z) and line columns
    columns: dict[str, tuple] = {}
    labels: dict[str, int | None] = {}
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise CorpusFormatError("missing header", 1) from None
            if header != CORPUS_HEADER:
                raise CorpusFormatError(
                    f"bad header {header!r}, expected {CORPUS_HEADER!r}", 1
                )
            for line, row in enumerate(reader, start=2):
                if not row:
                    continue  # tolerate blank trailing lines
                if len(row) != len(CORPUS_HEADER):
                    raise CorpusFormatError(
                        f"expected {len(CORPUS_HEADER)} columns, got {len(row)}", line
                    )
                sample_id, frame_s, kind_s, index_s, x_s, y_s, z_s, label_s = row
                if not sample_id:
                    raise CorpusFormatError("empty sample_id", line)
                label = None if label_s == "" else _parse_int(label_s, "label", line)
                if sample_id not in columns:
                    columns[sample_id] = ([], [], [], array("d"), array("q"))
                    labels[sample_id] = label
                elif labels[sample_id] != label:
                    raise CorpusFormatError(
                        f"inconsistent label for sample {sample_id!r}", line
                    )
                frames, kinds, indices, coords, lines = columns[sample_id]
                try:
                    kinds.append(_KIND_BY_NAME[kind_s].value)
                except KeyError:
                    raise CorpusFormatError(
                        f"unknown landmark kind {kind_s!r}", line) from None
                frames.append(_parse_int(frame_s, "frame", line))
                indices.append(_parse_int(index_s, "landmark_index", line))
                coords.extend((_parse_float(x_s, "x", line),
                               _parse_float(y_s, "y", line),
                               _parse_float(z_s, "z", line)))
                lines.append(line)
    except UnicodeDecodeError as e:
        raise CorpusFormatError(f"corpus {path}: not UTF-8 text ({e.reason})") from None
    samples = []
    for sample_id, (frames, kinds, indices, coords, lines) in columns.items():
        try:
            rows = LandmarkRows(frames, kinds, indices, coords)
        except _RowError as e:
            raise CorpusFormatError(f"sample {sample_id!r}: {e}", lines[e.row]) from None
        samples.append(SignSample(sample_id, rows, labels[sample_id]))
    return samples


def write_corpus(samples: list[SignSample], path: str | Path) -> None:
    """Write samples as corpus CSV; read_corpus(write_corpus(s)) == s."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
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
    with Path(path).open(encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (ValueError, RecursionError) as e:
            raise ValidationError(f"label map {path}: invalid JSON ({e})") from None
    if not isinstance(data, list) or not all(isinstance(g, str) for g in data):
        raise ValidationError(f"label map {path}: expected a JSON array of strings")
    return LabelMap(tuple(data))


def write_label_map(labels: LabelMap, path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        json.dump(list(labels.glosses), fh, ensure_ascii=False, indent=0)
        fh.write("\n")
