"""Gesture descriptors, co-speech markup, and speech/gesture scheduling.

Markup grammar: ``script := (plain | span)*`` with
``span := '[' tag ']' plain '[/' tag ']'``. Spans are flat: they never nest
or overlap. Tags must exist in the descriptor database. Parse errors carry
the byte offset of the offending token and name the tag involved.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Iterator, Union

import numpy as np

from .errors import SignpipeError, ValidationError
from .jsonio import parse_json, read_text

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
    "check_speech_rate",
    "schedule",
]

_TAG_FORBIDDEN = re.compile(r"[\s\[\]]")
# One markup token: '[' up to the next ']'; group 2 is empty when no ']' follows.
_TOKEN = re.compile(r"\[([^\]]*)(\]?)")


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
        if not 0 < self.playtime_s <= sys.float_info.max:
            raise ValidationError(
                f"gesture {self.tag!r}: playtime_s must be positive and finite, "
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
    entries = parse_json(text, origin, ValidationError, [{
        "tag": str, "description": str, "playtime_s": float, "body_parts": [str]}],
        required=True)
    return GestureDb([GestureDescriptor(e["tag"], e["description"], float(e["playtime_s"]),
                                        frozenset(e["body_parts"])) for e in entries])


def load_descriptors(path: str | Path) -> GestureDb:
    origin = f"descriptor db {path}"
    return descriptors_from_json(read_text(path, origin, ValidationError), origin)


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


def _markup_error(text: str, index: int, message: str,
                  tag: str | None = None) -> MarkupError:
    """MarkupError at text[index], its offset in UTF-8 bytes. A JSON reply can
    carry a lone surrogate ("\\ud800"); it counts 3 bytes."""
    return MarkupError(message, len(text[:index].encode("utf-8", "surrogatepass")), tag)


def parse_markup(text: str, db: GestureDb) -> TaggedScript:
    """Parse flat gesture markup against db. Raises MarkupError with the
    byte offset and tag name on unknown tags, malformed tokens, nesting,
    mismatched closes, or unclosed spans."""
    segments: list[Segment] = []
    plain_start = 0
    opener: re.Match | None = None  # the open span's token; group 1 is its tag
    for token in _TOKEN.finditer(text):
        body, closed = token.groups()
        i = token.start()
        if not closed:
            raise _markup_error(text, i, "unterminated tag token")
        name = body.removeprefix("/")
        if not name or _TAG_FORBIDDEN.search(name):
            raise _markup_error(text, i, f"malformed tag token {body!r}", name or None)
        if name == body:  # an opening tag
            if opener is not None:
                raise _markup_error(text, i, f"tag {name!r} opened inside span "
                                    f"{opener[1]!r}: spans cannot nest", name)
            if name not in db:
                raise _markup_error(text, i, f"unknown gesture tag {name!r}", name)
            if plain_start < i:
                segments.append(PlainText(text[plain_start:i]))
            opener = token
        elif opener is None:
            raise _markup_error(text, i, f"closing tag {name!r} without an open span", name)
        elif name != opener[1]:
            raise _markup_error(text, i, f"closing tag {name!r} does not match open span "
                                f"{opener[1]!r}", name)
        else:
            segments.append(GestureSpan(name, text[opener.end():i]))
            opener = None
            plain_start = token.end()
    if opener is not None:
        raise _markup_error(text, opener.start(), f"span {opener[1]!r} is never closed",
                            opener[1])
    if plain_start < len(text):
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


def check_speech_rate(wpm: float) -> None:
    """Raise ValidationError unless wpm is a positive finite rate whose
    60/wpm seconds per word is finite too."""
    if not (wpm > 0 and math.isfinite(wpm) and math.isfinite(60.0 / wpm)):
        raise ValidationError(
            f"speech rate must be a finite wpm > 0 with finite 60/wpm, got {wpm}")


def schedule(script: TaggedScript, db: GestureDb,
             speech_rate_wpm: float = 150.0) -> Timeline:
    """Lay script segments on a timeline at 60/speech_rate_wpm seconds per
    whitespace-delimited word. A span's gesture starts with its first word
    and runs for the descriptor's playtime; speech is never blocked.
    Warnings flag gestures that overrun their span by more than
    OVERRUN_SLACK_S and pairs of overlapping gestures sharing a body part.
    """
    check_speech_rate(speech_rate_wpm)
    per_word = 60.0 / speech_rate_wpm
    cursor = 0.0
    events: list[Union[SpeechEvent, GestureEvent]] = []
    gestures: list[GestureEvent] = []
    warnings: list[str] = []
    for seg in script.segments:
        words = seg.text.split()
        span_duration = len(words) * per_word
        if not math.isfinite(cursor + span_duration):
            raise ValidationError(
                f"at speech rate {speech_rate_wpm} wpm the script's timeline "
                f"is not finite")
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
