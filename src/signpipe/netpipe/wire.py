"""Length-prefixed JSON wire format and every message body.

A frame is a 4-byte big-endian unsigned payload length followed by that many
bytes of UTF-8 JSON shaped `{"type": ..., "body": {...}}`. Payloads are
capped at 16 MiB. orjson writes a payload whenever it gives the bytes that
json.dumps gives, up to how a float that repr spells with an exponent is
spelled (1e-05 as 0.00001, 1e+16 as 1e16: the same double); json.dumps
writes the rest and names what cannot be sent. The decoder is incremental:
bytes may arrive split at any boundary and frames are emitted as soon as
they complete. MessageSocket puts both directions over one connected
socket. The *_message functions are the only builders of each body, and
reply_body the one check a client makes of what the server sends.
"""

from __future__ import annotations

import json
import math
import socket
import struct
from collections import deque
from dataclasses import dataclass, field
from itertools import chain

import numpy as np
import orjson

from ..errors import FrameError, ProtocolViolation, ValidationError
from ..gesture import GestureEvent, Timeline
from ..jsonio import check_json, gc_paused, parse_json
from ..landmarks import LandmarkRows, SignSample

__all__ = [
    "DEFAULT_PORT",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "WIRE_TYPES",
    "WireMessage",
    "encode_frame",
    "decode_frame",
    "FrameDecoder",
    "MessageSocket",
    "hello_message",
    "landmarks_message",
    "result_message",
    "script_message",
    "error_message",
    "reply_body",
    "sample_to_body",
    "sample_from_body",
]

DEFAULT_PORT = 9470
PROTOCOL_VERSION = 1
MAX_FRAME_BYTES = 16 * 1024 * 1024

WIRE_TYPES = ("HELLO", "LANDMARKS", "RESULT", "SCRIPT", "ERROR", "BYE")

_LEN = struct.Struct(">I")


@dataclass(frozen=True)
class WireMessage:
    type: str
    body: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.type not in WIRE_TYPES:
            raise ValidationError(f"unknown wire message type {self.type!r}")
        if not isinstance(self.body, dict):
            raise ValidationError("wire message body must be an object")


_JSON_TYPES = frozenset({dict, list, tuple, str, int, float, bool, type(None)})
_CONTAINERS = (dict, list, tuple)
_SEQUENCES = frozenset({list, tuple})
_is_float = float.__instancecheck__  # isinstance(v, float), one argument
# orjson raises past 255 levels; a body as deep as this takes json's path.
_FAST_DEPTH = 64
# A level longer than this is summed before its types are looked at: a
# clip's coordinates are one level of ~100k numbers.
_LONG_LEVEL = 64


def _plain_and_finite(body: dict) -> bool:
    """Whether body is a dict that holds only JSON types (float subclasses
    among them) and no NaN or infinity, at any depth, walked one level at a
    time. A False may also mean only that the walk gave up: on a body too
    deep or too big to be a frame, or a cycle."""
    if type(body) is not dict:
        return False
    level, budget = list(body.values()), MAX_FRAME_BYTES // 2
    for _ in range(_FAST_DEPTH):
        if len(level) > _LONG_LEVEL:
            try:
                # Numbers alone (None and other falsy values left out) sum to
                # a finite number only when each one is finite. np.float64
                # values add by numpy's rules, which warn of an inf or NaN sum.
                with np.errstate(all="ignore"):
                    return math.isfinite(sum(filter(None, level)))
            except (TypeError, ValueError, ArithmeticError):
                pass  # a string, a container or some other type is here
        types = set(map(type, level))
        others = types - _JSON_TYPES
        if others and not all(issubclass(t, float) for t in others):
            return False
        if (float in types or others) and not all(
                map(math.isfinite, filter(_is_float, level))):
            return False
        if types.isdisjoint(_CONTAINERS):
            return True
        if not types <= _SEQUENCES:
            level = [v.values() if type(v) is dict else v
                     for v in level if isinstance(v, _CONTAINERS)]
        budget -= sum(map(len, level))
        if budget < 0:
            return False
        level = list(chain.from_iterable(level))
    return False


def encode_frame(msg: WireMessage) -> bytes:
    """Canonical bytes for one message: no whitespace, keys type then body."""
    obj = {"type": msg.type, "body": msg.body}
    payload = None
    with gc_paused():
        if _plain_and_finite(msg.body):
            try:
                # A float subclass such as np.float64 is written as its float.
                payload = orjson.dumps(obj, default=float.__float__)
            except orjson.JSONEncodeError:
                pass  # json.dumps below names the fault
        if payload is None:
            try:
                payload = json.dumps(
                    obj, separators=(",", ":"), ensure_ascii=False, allow_nan=False,
                ).encode("utf-8")
            except (TypeError, ValueError) as e:
                raise FrameError(f"body is not wire-encodable: {e}") from None
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(
            f"payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame cap"
        )
    return _LEN.pack(len(payload)) + payload


def check_port(port: int) -> None:
    """Raise ValidationError unless port is a TCP port number."""
    if not 0 <= port <= 65535:
        raise ValidationError(f"port {port} is outside 0-65535")


class FrameDecoder:
    """Incremental frame parser. feed() buffers arbitrary chunks and returns
    every message completed so far; a partial frame just waits for more
    bytes. Oversized or malformed frames raise FrameError, after which the
    decoder must be discarded (the stream has lost sync)."""

    def __init__(self):
        self._buf = bytearray()

    @property
    def pending_bytes(self) -> int:
        return len(self._buf)

    def feed(self, data: bytes) -> list[WireMessage]:
        self._buf.extend(data)
        out: list[WireMessage] = []
        while len(self._buf) >= _LEN.size:
            (length,) = _LEN.unpack_from(self._buf)
            if length > MAX_FRAME_BYTES:
                raise FrameError(
                    f"declared payload of {length} bytes exceeds the "
                    f"{MAX_FRAME_BYTES}-byte frame cap"
                )
            end = _LEN.size + length
            if len(self._buf) < end:
                break
            if len(self._buf) == end:  # the usual case: parse the buffer itself
                payload, self._buf = self._buf, bytearray()
                del payload[:_LEN.size]
            else:
                payload = self._buf[_LEN.size:end]
                del self._buf[:end]
            obj = parse_json(payload, "payload", FrameError, {"type": str, "body": dict})
            if obj.keys() != {"type", "body"}:
                raise FrameError("payload must have exactly the keys 'type' and 'body'")
            if obj["type"] not in WIRE_TYPES:
                raise FrameError(f"unknown message type {obj['type']!r}")
            out.append(WireMessage(obj["type"], obj["body"]))
        return out


class MessageSocket:
    """Whole messages over a connected stream socket. send() writes all of
    its messages with one sendall, so a multi-frame reply never leaves a
    small second write waiting out the peer's delayed ACK. recv() returns
    the next message, or None once the peer has closed. OSError and
    FrameError pass through unchanged."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._decoder = FrameDecoder()
        self._inbox: deque[WireMessage] = deque()

    def send(self, *messages: WireMessage) -> None:
        self._sock.sendall(b"".join(map(encode_frame, messages)))

    def recv(self) -> WireMessage | None:
        while not self._inbox:
            data = self._sock.recv(65536)
            if not data:
                return None
            self._inbox.extend(self._decoder.feed(data))
        return self._inbox.popleft()


def decode_frame(data: bytes) -> WireMessage:
    """Decode exactly one complete frame; partial or trailing bytes error."""
    decoder = FrameDecoder()
    messages = decoder.feed(data)
    if len(messages) != 1 or decoder.pending_bytes:
        raise FrameError(
            f"expected one frame, got {len(messages)} complete and "
            f"{decoder.pending_bytes} bytes of an incomplete one"
        )
    return messages[0]


def hello_message() -> WireMessage:
    return WireMessage("HELLO", {"protocol_version": PROTOCOL_VERSION})


def hello_fault(body: dict) -> str | None:
    """Why a HELLO body does not speak this protocol; None if it does."""
    version = body.get("protocol_version")
    if type(version) is int and version == PROTOCOL_VERSION:
        return None
    return f"unsupported protocol version {version!r}, expected {PROTOCOL_VERSION}"


def result_message(gloss: str, confidence_pct: float) -> WireMessage:
    return WireMessage("RESULT", {"gloss": gloss, "confidence_pct": confidence_pct})


def script_message(tagged_text: str, timeline: Timeline,
                   warnings: tuple[str, ...]) -> WireMessage:
    """SCRIPT for a scheduled reply: warnings go before the timeline's own."""
    events = [
        {"kind": "gesture", "tag": ev.tag, "start_s": ev.start_s,
         "duration_s": ev.duration_s, "body_parts": sorted(ev.body_parts)}
        if isinstance(ev, GestureEvent) else
        {"kind": "speech", "text": ev.text, "start_s": ev.start_s,
         "duration_s": ev.duration_s}
        for ev in timeline.events
    ]
    return WireMessage("SCRIPT", {
        "tagged_text": tagged_text,
        "timeline": {"events": events, "warnings": [*warnings, *timeline.warnings]},
    })


def error_message(code: str, message: str) -> WireMessage:
    return WireMessage("ERROR", {"code": code, "message": message})


_REPLY_SHAPES = {
    "HELLO": {},
    "RESULT": {"gloss": str, "confidence_pct": float},
    "SCRIPT": {"tagged_text": str, "timeline": {"events": [dict], "warnings": [str]}},
    "ERROR": {"code": str, "message": str},
    "BYE": {},
}
_KIND_SHAPES = {
    "gesture": {"start_s": float, "duration_s": float, "tag": str},
    "speech": {"start_s": float, "duration_s": float, "text": str},
}


def reply_body(msg: WireMessage) -> dict:
    """msg's body once it holds what a client reads of its type, a HELLO
    speaks this protocol, each SCRIPT event fits its kind's shape and no
    event time is negative; else ProtocolViolation naming "{type} reply"
    (this is remote input)."""
    what = f"{msg.type} reply"
    if msg.type not in _REPLY_SHAPES:
        raise ProtocolViolation(f"{what}: a server may not send {msg.type}")
    body = check_json(msg.body, what, ProtocolViolation, _REPLY_SHAPES[msg.type],
                      required=True)
    if msg.type == "HELLO" and (fault := hello_fault(body)) is not None:
        raise ProtocolViolation(f"{what}: {fault}")
    for ev in body["timeline"]["events"] if msg.type == "SCRIPT" else ():
        kind = ev.get("kind")
        if not (isinstance(kind, str) and kind in _KIND_SHAPES):
            raise ProtocolViolation(f"{what}: unknown event kind {kind!r}")
        check_json(ev, f"{what} event", ProtocolViolation, _KIND_SHAPES[kind],
                   required=True)
        if ev["start_s"] < 0 or ev["duration_s"] < 0:
            raise ProtocolViolation(f"{what}: an event time is negative")
    return body


def sample_to_body(sample: SignSample) -> dict:
    """LANDMARKS body for a sample. The label never crosses the wire.

    Rows are [frame_index, kind_code, landmark_index, x, y, z] with null
    for missing coordinates.
    """
    with gc_paused():
        return {"sample": {"id": sample.sample_id, "frames": sample.frames.tolist()}}


def _require(values, allowed: set, what: str, key=type) -> None:
    if not set(map(key, values)) <= allowed:
        row = next(i for i, v in enumerate(values) if key(v) not in allowed)
        raise ValidationError(f"sample frame {row}: {what}")


def sample_from_body(body: dict) -> SignSample:
    """Inverse of sample_to_body; raises ValidationError on any shape or
    content problem (this is remote input)."""
    with gc_paused():
        check_json(body, "LANDMARKS body", ValidationError,
                   {"sample": {"id": str, "frames": list}}, required=True)
        sample_id, rows = body["sample"]["id"], body["sample"]["frames"]
        _require(rows, {list}, "expected an array of 6 elements")
        _require(rows, {6}, "expected 6 elements", key=len)
        frame_index, kind, landmark_index, *xyz = list(zip(*rows)) or [()] * 6
        _require(frame_index, {int}, "frame index must be an int")
        _require(kind, {int}, "kind code must be an int")
        _require(landmark_index, {int}, "landmark index must be an int")
        for column in xyz:
            _require(column, {int, float, type(None)}, "coordinate is not a number")
        try:
            coords = np.array(xyz, dtype=np.float64).T  # null -> NaN
        except OverflowError:
            raise ValidationError("sample frames: coordinate outside the float64 range") from None
        return SignSample(sample_id, LandmarkRows(frame_index, kind, landmark_index, coords))


def landmarks_message(sample: SignSample) -> WireMessage:
    return WireMessage("LANDMARKS", sample_to_body(sample))
