"""Length-prefixed JSON wire format and every message body.

A frame is a 4-byte big-endian unsigned payload length followed by that many
bytes of UTF-8 JSON shaped `{"type": ..., "body": {...}}`. Payloads are
capped at 16 MiB. orjson writes a clip, a body shaped exactly as
landmarks_message builds it, in the bytes json.dumps gives up to how a
float that repr spells with an exponent is spelled (1e-05 as 0.00001,
1e+16 as 1e16: the same double); one json encoder writes every other
body, as json.dumps would, and names what cannot be sent. The decoder is
incremental: bytes may arrive split at any boundary and frames are emitted
as soon as they complete. MessageSocket puts both directions over one
connected socket. The *_message functions are the only builders of each
body, and reply_body the one check a client makes of what the server
sends. A LANDMARKS body holds the sample's checked LandmarkRows, which
encode_frame writes from its columns as the rows sample_to_body lists.
FrameDecoder reads such a frame back with one orjson parse wherever its
outline proves orjson's value json's, building the rows into LandmarkRows
in the same pass or, where they do not convert, leaving them listed for
sample_from_body to name the fault. parse_json reads only a frame whose
outline fails, that orjson refuses, or whose int column holds a float of
magnitude >= 2**63 (orjson's reading of a long integer token).
sample_from_body takes either body, so its errors, and the decoder's, are
the same. No other module of the package uses orjson.
"""

from __future__ import annotations

import json
import socket
import struct
from array import array
from collections import deque
from dataclasses import dataclass, field

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


def _is_clip(body: dict) -> bool:
    """Whether body is shaped exactly as landmarks_message builds it: a str
    id and the sample's LandmarkRows, whose columns were checked when its
    rows were packed (ints, and no infinity)."""
    if type(body) is not dict or body.keys() != {"sample"}:
        return False
    sample = body["sample"]
    return (type(sample) is dict and sample.keys() == {"id", "frames"}
            and type(sample["id"]) is str and type(sample["frames"]) is LandmarkRows)


def _zipped_rows(rows: LandmarkRows) -> list:
    """A clip's rows as tuples zipped from its columns, for orjson to write
    (it writes a NaN as null)."""
    return list(zip(rows.frame_index.tolist(), rows.kind.tolist(),
                    rows.landmark_index.tolist(), *rows.xyz.T.tolist()))


class _RowsListed(json.JSONEncoder):
    """json's encoder, with a LandmarkRows written as its tolist()."""

    def default(self, o):
        return o.tolist() if type(o) is LandmarkRows else super().default(o)


_ENCODER = _RowsListed(separators=(",", ":"), ensure_ascii=False, allow_nan=False)


def encode_frame(msg: WireMessage) -> bytes:
    """Canonical bytes for one message: no whitespace, keys type then body.
    A LandmarkRows in the body is written as the rows of its tolist(), by
    orjson in a clip and by _ENCODER anywhere else."""
    obj = {"type": msg.type, "body": msg.body}
    payload = None
    with gc_paused():
        if _is_clip(msg.body):
            try:
                payload = orjson.dumps(obj, default=_zipped_rows)
            except orjson.JSONEncodeError:
                pass  # an id that is not valid Unicode: json names the fault
        if payload is None:
            try:
                payload = _ENCODER.encode(obj).encode("utf-8")
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
    decoder must be discarded (the stream has lost sync). A LANDMARKS
    message's body may hold its rows as checked LandmarkRows already (see
    the module docstring)."""

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
            with gc_paused():  # the row lists orjson parses die inside the pause
                obj = _read_landmarks(payload)
            if obj is None:
                obj = parse_json(payload, "payload", FrameError, {"type": str, "body": dict})
            if obj.keys() != {"type", "body"}:
                raise FrameError("payload must have exactly the keys 'type' and 'body'")
            if obj["type"] not in WIRE_TYPES:
                raise FrameError(f"unknown message type {obj['type']!r}")
            out.append(WireMessage(obj["type"], obj["body"]))
        return out


# A payload's outline keeps only its bytes []{}"\ t and f: its nesting, its
# strings with their t and f, any escape, and each true and false. A
# LANDMARKS payload that encode_frame writes starts with _PREFIX, and its
# outline is _HEAD, the id's outline and closing quote, then _ROWS_OPEN, one
# [] per row, and _ROWS_CLOSE.
_NOT_OUTLINE = bytes(b for b in range(256) if b not in b'[]{}"\\tf')
_PREFIX = b'{"type":"LANDMARKS",'
_HEAD = b'{"type":"LANDMARKS","body":{"sample":{"id":"'.translate(None, _NOT_OUTLINE)
_ROWS_OPEN, _ROWS_CLOSE = b'"f"[', b"]}}}"
# orjson reads an integer token outside [-2**63, 2**64) as a float of at
# least this magnitude, where json reads the int.
_LONG_FLOAT = 2.0 ** 63


def _read_landmarks(payload: bytearray) -> dict | None:
    """orjson's value of a LANDMARKS payload, its rows checked LandmarkRows
    where the keys are landmarks_message's and the rows convert; None where
    the outline fails, orjson refuses or an int column holds a float of
    magnitude _LONG_FLOAT or more: parse_json reads it as any frame."""
    if not payload.startswith(_PREFIX):
        return None
    # The outline bounds the nesting before orjson, whose reader recurses
    # without a bound and so can overrun the C stack, reads a byte. It also
    # proves the layout {"type": "LANDMARKS", k: {k: {k: "id", k: [...]}}}
    # with no other string, no escape in the id, no true or false, and n
    # arrays of numbers and nulls, perhaps with numbers and nulls between
    # them, in the frames array: orjson's value is json's but for a long int.
    shape = payload.translate(None, _NOT_OUTLINE)
    if not shape.startswith(_HEAD):
        return None
    id_end = shape.find(b'"', len(_HEAD))
    n = (len(shape) - id_end - 1 - len(_ROWS_OPEN) - len(_ROWS_CLOSE)) // 2
    if (id_end < 0 or b"\\" in shape[len(_HEAD):id_end]
            or shape[id_end + 1:] != _ROWS_OPEN + b"[]" * n + _ROWS_CLOSE):
        return None
    try:
        obj = orjson.loads(payload)
    except ValueError:
        return None
    _, body = obj.values()
    (sample,) = body.values()
    _, rows = sample.values()
    # orjson's float for a long int is the double np.array makes of json's
    # int, so it changes what sample_from_body names only in an int column:
    # a misnamed key, then a row's shape, are named whatever the numbers are.
    if (*obj, *body, *sample) != ("type", "body", "sample", "id", "frames"):
        return obj
    try:  # strict: every row is as long as the first, which holds 6 values
        frame_index, kind, landmark_index, x, y, z = (
            zip(*rows, strict=True) if rows else [()] * 6)
    except (ValueError, TypeError):
        return obj
    int_columns = (frame_index, kind, landmark_index)
    try:  # array("q") refuses a float, a null and an int outside int64.
        ints = [array("q", column) for column in int_columns]
    except (TypeError, OverflowError):
        long_int = any(type(v) is float and abs(v) >= _LONG_FLOAT for c in int_columns for v in c)
        return None if long_int else obj
    # np.fromiter reads a null as NaN, as np.array does.
    xyz = np.stack([np.fromiter(column, np.float64, n) for column in (x, y, z)], axis=1)
    try:
        sample["frames"] = LandmarkRows(*ints, xyz)
    except ValidationError:
        pass  # sample_from_body names the fault from the listed rows
    return obj


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
    content problem (this is remote input). Frames that are already checked
    LandmarkRows, as in the body landmarks_message builds and FrameDecoder
    reads a LANDMARKS frame into, are taken as they are."""
    with gc_paused():
        check_json(body, "LANDMARKS body", ValidationError, {"sample": {"id": str}},
                   required=True)
        sample_id, rows = body["sample"]["id"], body["sample"].get("frames")
        if type(rows) is LandmarkRows:
            return SignSample(sample_id, rows)
        check_json(body, "LANDMARKS body", ValidationError,
                   {"sample": {"id": str, "frames": list}}, required=True)
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
    """LANDMARKS for a sample: sample_to_body's body, with the sample's
    LandmarkRows itself as its frames, so no row list is built."""
    return WireMessage("LANDMARKS", {"sample": {"id": sample.sample_id,
                                                "frames": sample.frames}})
