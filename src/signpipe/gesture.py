"""Gesture descriptors, co-speech markup, and speech/gesture scheduling.

Markup grammar: ``script := (plain | span)*`` with
``span := '[' tag ']' plain '[/' tag ']'``. Spans are flat: they never nest
or overlap. Tags must exist in the descriptor database. Parse errors carry
the byte offset of the offending token and name the tag involved.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path
from typing import Iterator, Union

import numpy as np

from .errors import SignpipeError, ValidationError

__all__ = [
    "GestureDescriptor",
    "GestureDb",
    "descriptors_from_json",
    "load_descriptors",
    "PlaytimeStats",
    "playtime_stats",
    "PlainText",
    "GestureSpan",
    "TaggedScript",
    "MarkupError",
    "parse_markup",
    "render_markup",
    "strip_tags",
    "normalize_spoken_text",
    "SpeechEvent",
    "GestureEvent",
    "Timeline",
    "schedule",
]

_TAG_FORBIDDEN = re.compile(r"[\s\[\]]")


@dataclass(frozen=True)
class GestureDescriptor:
    """Metadata for one prerecorded robot gesture."""

    tag: str
    description: str
    playtime_s: float
    body_parts: frozenset[str]

    def __post_init__(self):
        if not self.tag:
            raise ValidationError("gesture tag must be non-empty")
        if _TAG_FORBIDDEN.search(self.tag):
            raise ValidationError(
                f"gesture tag {self.tag!r} contains whitespace or brackets"
            )
        if not self.playtime_s > 0:
            raise ValidationError(
                f"gesture {self.tag!r}: playtime_s must be positive, "
                f"got {self.playtime_s}"
            )
        if not self.body_parts:
            raise ValidationError(f"gesture {self.tag!r}: body_parts is empty")


class GestureDb:
    """Ordered, immutable collection of descriptors with unique tags."""

    def __init__(self, descriptors: list[GestureDescriptor] | tuple[GestureDescriptor, ...] = ()):
        self._descriptors = tuple(descriptors)
        self._by_tag: dict[str, GestureDescriptor] = {}
        for d in self._descriptors:
            if d.tag in self._by_tag:
                raise ValidationError(f"duplicate gesture tag {d.tag!r}")
            self._by_tag[d.tag] = d

    def __iter__(self) -> Iterator[GestureDescriptor]:
        return iter(self._descriptors)

    def __len__(self) -> int:
        return len(self._descriptors)

    def __contains__(self, tag: str) -> bool:
        return tag in self._by_tag

    def get(self, tag: str) -> GestureDescriptor:
        try:
            return self._by_tag[tag]
        except KeyError:
            raise ValidationError(f"unknown gesture tag {tag!r}") from None

    @property
    def tags(self) -> tuple[str, ...]:
        return tuple(d.tag for d in self._descriptors)


def descriptors_from_json(text: str, origin: str = "descriptor db") -> GestureDb:
    """Parse a descriptor DB: a JSON array of
    {tag, description, playtime_s, body_parts} objects."""
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as e:
        raise ValidationError(f"{origin}: invalid JSON ({e})") from None
    if not isinstance(data, list):
        raise ValidationError(f"{origin}: expected a JSON array")
    descriptors = []
    for i, entry in enumerate(data):
        if not isinstance(entry, dict):
            raise ValidationError(f"{origin}: entry {i} is not an object")
        try:
            tag = entry["tag"]
            description = entry["description"]
            playtime = entry["playtime_s"]
            parts = entry["body_parts"]
        except KeyError as e:
            raise ValidationError(
                f"{origin}: entry {i} missing field {e.args[0]!r}"
            ) from None
        if not isinstance(parts, list) or not all(isinstance(p, str) for p in parts):
            raise ValidationError(
                f"{origin}: entry {i}: body_parts must be a string array"
            )
        descriptors.append(
            GestureDescriptor(tag, description, float(playtime), frozenset(parts))
        )
    return GestureDb(descriptors)


def load_descriptors(path: str | Path) -> GestureDb:
    origin = f"descriptor db {path}"
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ValidationError(f"{origin}: not UTF-8 text ({e})") from None
    return descriptors_from_json(text, origin=origin)


@dataclass(frozen=True)
class PlaytimeStats:
    mean: float
    std: float
    min: float
    p25: float
    p50: float
    p75: float
    max: float

    def as_pairs(self) -> list[tuple[str, float]]:
        return [("mean", self.mean), ("std", self.std), ("min", self.min),
                ("p25", self.p25), ("p50", self.p50), ("p75", self.p75),
                ("max", self.max)]


def playtime_stats(db: GestureDb) -> PlaytimeStats:
    """Playtime summary: sample (n-1) std, quantiles by linear interpolation."""
    if len(db) == 0:
        raise ValidationError("cannot compute playtime stats of an empty db")
    xs = np.array([d.playtime_s for d in db], dtype=float)
    std = float(xs.std(ddof=1)) if xs.size > 1 else 0.0
    p25, p50, p75 = (float(v) for v in np.percentile(xs, [25, 50, 75]))
    return PlaytimeStats(float(xs.mean()), std, float(xs.min()),
                         p25, p50, p75, float(xs.max()))


@dataclass(frozen=True)
class PlainText:
    text: str


@dataclass(frozen=True)
class GestureSpan:
    tag: str
    text: str


Segment = Union[PlainText, GestureSpan]


@dataclass(frozen=True)
class TaggedScript:
    segments: tuple[Segment, ...]

    def spans(self) -> tuple[GestureSpan, ...]:
        return tuple(s for s in self.segments if isinstance(s, GestureSpan))


class MarkupError(SignpipeError):
    """Markup parse failure; offset is in bytes of the UTF-8 input."""

    def __init__(self, message: str, offset: int, tag: str | None = None):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset
        self.tag = tag


def _byte_offset(text: str, char_index: int) -> int:
    return len(text[:char_index].encode("utf-8"))


def parse_markup(text: str, db: GestureDb) -> TaggedScript:
    """Parse flat gesture markup against db. Raises MarkupError with the
    byte offset and tag name on unknown tags, malformed tokens, nesting,
    mismatched closes, or unclosed spans."""
    segments: list[Segment] = []
    plain_start = 0
    open_span: tuple[str, int, int] | None = None  # (tag, inner_start, open_pos)
    i = 0
    n = len(text)
    while i < n:
        if text[i] != "[":
            i += 1
            continue
        end = text.find("]", i)
        if end == -1:
            raise MarkupError("unterminated tag token", _byte_offset(text, i))
        token = text[i + 1:end]
        closing = token.startswith("/")
        name = token[1:] if closing else token
        if not name or _TAG_FORBIDDEN.search(name):
            raise MarkupError(
                f"malformed tag token {token!r}", _byte_offset(text, i), name or None
            )
        if not closing:
            if open_span is not None:
                raise MarkupError(
                    f"tag {name!r} opened inside span {open_span[0]!r}: "
                    "spans cannot nest",
                    _byte_offset(text, i),
                    name,
                )
            if name not in db:
                raise MarkupError(
                    f"unknown gesture tag {name!r}", _byte_offset(text, i), name
                )
            if plain_start < i:
                segments.append(PlainText(text[plain_start:i]))
            open_span = (name, end + 1, i)
        else:
            if open_span is None:
                raise MarkupError(
                    f"closing tag {name!r} without an open span",
                    _byte_offset(text, i),
                    name,
                )
            if name != open_span[0]:
                raise MarkupError(
                    f"closing tag {name!r} does not match open span "
                    f"{open_span[0]!r}",
                    _byte_offset(text, i),
                    name,
                )
            segments.append(GestureSpan(name, text[open_span[1]:i]))
            open_span = None
            plain_start = end + 1
        i = end + 1
    if open_span is not None:
        raise MarkupError(
            f"span {open_span[0]!r} is never closed",
            _byte_offset(text, open_span[2]),
            open_span[0],
        )
    if plain_start < n:
        segments.append(PlainText(text[plain_start:]))
    return TaggedScript(tuple(segments))


def render_markup(script: TaggedScript) -> str:
    """Serialize back to markup; the exact inverse of parse_markup."""
    parts = []
    for seg in script.segments:
        if isinstance(seg, GestureSpan):
            parts.append(f"[{seg.tag}]{seg.text}[/{seg.tag}]")
        else:
            parts.append(seg.text)
    return "".join(parts)


def normalize_spoken_text(text: str) -> str:
    """Collapse whitespace runs to single spaces and re-attach whitespace
    that ends up stranded before sentence punctuation."""
    out = " ".join(text.split())
    return re.sub(r"\s+([.,!?;:])", r"\1", out)


def strip_tags(script: TaggedScript) -> str:
    """The spoken text of a script: all segments concatenated, spans
    unwrapped, whitespace normalized."""
    return normalize_spoken_text("".join(seg.text for seg in script.segments))


@dataclass(frozen=True)
class SpeechEvent:
    text: str
    start_s: float
    duration_s: float


@dataclass(frozen=True)
class GestureEvent:
    tag: str
    start_s: float
    duration_s: float
    body_parts: frozenset[str]


@dataclass(frozen=True)
class Timeline:
    events: tuple[Union[SpeechEvent, GestureEvent], ...]
    warnings: tuple[str, ...]

    def speech_events(self) -> tuple[SpeechEvent, ...]:
        return tuple(e for e in self.events if isinstance(e, SpeechEvent))

    def gesture_events(self) -> tuple[GestureEvent, ...]:
        return tuple(e for e in self.events if isinstance(e, GestureEvent))


# Extra seconds a gesture may outlast its span before a warning is emitted.
OVERRUN_SLACK_S = 0.5


def schedule(script: TaggedScript, db: GestureDb,
             speech_rate_wpm: float = 150.0) -> Timeline:
    """Lay script segments on a timeline at 60/speech_rate_wpm seconds per
    whitespace-delimited word. A span's gesture starts with its first word
    and runs for the descriptor's playtime; speech is never blocked.
    Warnings flag gestures that overrun their span by more than
    OVERRUN_SLACK_S and pairs of overlapping gestures sharing a body part.
    """
    if not speech_rate_wpm > 0:
        raise ValidationError(f"speech_rate_wpm must be positive, got {speech_rate_wpm}")
    per_word = 60.0 / speech_rate_wpm
    cursor = 0.0
    events: list[Union[SpeechEvent, GestureEvent]] = []
    gestures: list[GestureEvent] = []
    warnings: list[str] = []
    for seg in script.segments:
        words = seg.text.split()
        span_duration = len(words) * per_word
        if isinstance(seg, GestureSpan):
            desc = db.get(seg.tag)
            ev = GestureEvent(desc.tag, cursor, desc.playtime_s, desc.body_parts)
            events.append(ev)
            gestures.append(ev)
            if desc.playtime_s > span_duration + OVERRUN_SLACK_S:
                warnings.append(
                    f"gesture '{desc.tag}' plays {desc.playtime_s:.2f}s but its "
                    f"span speaks for only {span_duration:.2f}s"
                )
        if words:
            events.append(SpeechEvent(" ".join(words), cursor, span_duration))
        cursor += span_duration
    for a, b in combinations(gestures, 2):
        overlap = a.start_s < b.start_s + b.duration_s and b.start_s < a.start_s + a.duration_s
        shared = a.body_parts & b.body_parts
        if overlap and shared:
            warnings.append(
                f"gestures '{a.tag}' and '{b.tag}' overlap in time and both "
                f"move {', '.join(sorted(shared))}"
            )
    events.sort(key=lambda e: e.start_s)
    return Timeline(tuple(events), tuple(warnings))
