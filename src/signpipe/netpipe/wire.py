"""Length-prefixed JSON wire format.

A frame is a 4-byte big-endian unsigned payload length followed by that many
bytes of UTF-8 JSON shaped `{"type": ..., "body": {...}}`. Payloads are
capped at 16 MiB. The decoder is incremental: bytes may arrive split at any
boundary and frames are emitted as soon as they complete. MessageSocket
puts both directions over one connected socket.
"""

from __future__ import annotations

import json
import socket
import struct
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..errors import FrameError, ValidationError
from ..jsonio import check_json, parse_json
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
    "error_message",
    "landmarks_message",
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


def encode_frame(msg: WireMessage) -> bytes:
    """Canonical bytes for one message: no whitespace, keys type then body."""
    try:
        payload = json.dumps(
            {"type": msg.type, "body": msg.body},
            separators=(",", ":"),
            ensure_ascii=False,
            allow_nan=False,
        ).encode("utf-8")
    except (TypeError, ValueError) as e:
        raise FrameError(f"body is not wire-encodable: {e}") from None
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(
            f"payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame cap"
        )
    return _LEN.pack(len(payload)) + payload


def _decode_payload(payload: bytes) -> WireMessage:
    data = parse_json(payload, "payload", FrameError, {"type": str, "body": dict})
    if data.keys() != {"type", "body"}:
        raise FrameError("payload must have exactly the keys 'type' and 'body'")
    if data["type"] not in WIRE_TYPES:
        raise FrameError(f"unknown message type {data['type']!r}")
    return WireMessage(data["type"], data["body"])


def check_port(port: int) -> None:
    """Raise ValidationError unless port is a TCP port number."""
    if not 0 <= port <= 65535:
        raise ValidationError(f"port {port} is outside 0-65535")


def _declared_length(data) -> int:
    (length,) = _LEN.unpack_from(data)
    if length > MAX_FRAME_BYTES:
        raise FrameError(
            f"declared payload of {length} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame cap"
        )
    return length


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
        while True:
            if len(self._buf) < _LEN.size:
                return out
            length = _declared_length(self._buf)
            if len(self._buf) < _LEN.size + length:
                return out
            payload = bytes(self._buf[_LEN.size:_LEN.size + length])
            del self._buf[:_LEN.size + length]
            out.append(_decode_payload(payload))


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
    if len(data) < _LEN.size:
        raise FrameError("incomplete frame header")
    length = _declared_length(data)
    if len(data) != _LEN.size + length:
        raise FrameError(
            f"frame declares {length} payload bytes but {len(data) - _LEN.size} "
            "are present"
        )
    return _decode_payload(data[_LEN.size:])


def error_message(code: str, message: str) -> WireMessage:
    return WireMessage("ERROR", {"code": code, "message": message})


def sample_to_body(sample: SignSample) -> dict:
    """LANDMARKS body for a sample. The label never crosses the wire.

    Rows are [frame_index, kind_code, landmark_index, x, y, z] with null
    for missing coordinates.
    """
    return {"sample": {"id": sample.sample_id, "frames": sample.frames.tolist()}}


def _require(values, allowed: set, what: str, key=type) -> None:
    if not set(map(key, values)) <= allowed:
        row = next(i for i, v in enumerate(values) if key(v) not in allowed)
        raise ValidationError(f"sample frame {row}: {what}")


def sample_from_body(body: dict) -> SignSample:
    """Inverse of sample_to_body; raises ValidationError on any shape or
    content problem (this is remote input)."""
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
