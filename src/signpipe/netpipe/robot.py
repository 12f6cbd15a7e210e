"""Simulated robot client: stream samples, enact the returned scripts.

The "enactment" is a plain-text event log so behavior is verifiable without
hardware: one SAMPLE/RESULT/SCRIPT block per submitted sample with the
scheduled speech and gesture events indented beneath. Times are seconds from
the start of the script with two decimals. The log carries no wall-clock
times or addresses, so identical server replies produce identical bytes.
"""

from __future__ import annotations

import logging
import socket
import sys
import time
from pathlib import Path
from typing import Iterable

from ..errors import ProtocolViolation, SignpipeError, TransportError, ValidationError
from ..jsonio import check_json
from ..landmarks import SignSample
from .wire import PROTOCOL_VERSION, MessageSocket, WireMessage, check_port, landmarks_message

__all__ = ["robot_sim"]

log = logging.getLogger(__name__)


# What the log writer and _play_realtime read from each reply type. A
# SCRIPT's events are checked one by one against the shape of their kind.
_BODY_SHAPES = {
    "HELLO": {},
    "RESULT": {"gloss": str, "confidence_pct": float},
    "SCRIPT": {"tagged_text": str, "timeline": {"events": [dict], "warnings": [str]}},
    "ERROR": {"code": str, "message": str},
    "BYE": {},
}
_EVENT_SHAPES = {
    "gesture": {"start_s": float, "duration_s": float, "tag": str},
    "speech": {"start_s": float, "duration_s": float, "text": str},
}


def _finite(x: float) -> bool:
    """False for NaN, infinities, and integers too large to be a float."""
    return -sys.float_info.max <= x <= sys.float_info.max


def _check_body(msg: WireMessage) -> dict:
    what = f"{msg.type} reply"
    body = check_json(msg.body, what, ProtocolViolation, _BODY_SHAPES[msg.type],
                      required=True)
    numbers = [body["confidence_pct"]] if msg.type == "RESULT" else []
    for ev in body["timeline"]["events"] if msg.type == "SCRIPT" else ():
        kind = ev.get("kind")
        if not (isinstance(kind, str) and kind in _EVENT_SHAPES):
            raise ProtocolViolation(f"{what}: unknown event kind {kind!r}")
        check_json(ev, f"{what} event", ProtocolViolation, _EVENT_SHAPES[kind],
                   required=True)
        numbers += [ev["start_s"], ev["duration_s"]]
    if not all(map(_finite, numbers)):
        raise ProtocolViolation(f"{what}: a number is not finite")
    return body


def _expect(link: MessageSocket, msg_type: str) -> WireMessage:
    msg = link.recv()
    if msg is None:
        raise TransportError("server closed the connection")
    if msg.type not in (msg_type, "ERROR"):
        raise ProtocolViolation(f"expected {msg_type}, server sent {msg.type}")
    body = _check_body(msg)
    if msg.type == "ERROR":
        raise ProtocolViolation(f"server error {body['code']}: {body['message']}")
    return msg


def _write_script_block(out, result_body: dict, script_body: dict) -> None:
    out.write(f"RESULT {result_body['gloss']} {result_body['confidence_pct']:.2f}\n")
    out.write(f"SCRIPT {script_body['tagged_text']}\n")
    timeline = script_body["timeline"]
    for ev in timeline["events"]:
        start = ev["start_s"]
        if ev["kind"] == "gesture":
            out.write(f"  {start:6.2f}s gesture {ev['tag']} ({ev['duration_s']:.2f}s)\n")
        else:
            out.write(f"  {start:6.2f}s speech {ev['text']}\n")
    for warning in timeline["warnings"]:
        out.write(f"  warning: {warning}\n")


def _play_realtime(script_body: dict) -> None:
    t0 = time.monotonic()
    for start in sorted(ev["start_s"] for ev in script_body["timeline"]["events"]):
        delay = start - (time.monotonic() - t0)
        if delay > 0:
            time.sleep(delay)


def robot_sim(address: tuple[str, int], samples: Iterable[SignSample],
              log_path: str | Path, realtime: bool = False,
              timeout_s: float = 30.0) -> int:
    """Run the client against a server; returns a process exit status.

    0: every sample got its RESULT and SCRIPT and the session closed
    cleanly. 1: transport or protocol failure, a malformed reply included
    (the log keeps everything received up to that point). A bad port or
    timeout raises ValidationError. Text that is not valid Unicode (a lone
    surrogate) is logged backslash-escaped.
    """
    check_port(address[1])
    if not timeout_s > 0:
        raise ValidationError("timeout_s must be positive")
    log_path = Path(log_path)
    with log_path.open("w", encoding="utf-8", errors="backslashreplace") as out:
        try:
            sock = socket.create_connection(address, timeout=timeout_s)
        except OSError as e:
            log.error("cannot connect to %s:%d: %s", address[0], address[1], e)
            return 1
        with sock:
            link = MessageSocket(sock)
            try:
                link.send(WireMessage("HELLO", {"protocol_version": PROTOCOL_VERSION}))
                _expect(link, "HELLO")
                for sample in samples:
                    out.write(f"SAMPLE {sample.sample_id}\n")
                    out.flush()
                    link.send(landmarks_message(sample))
                    result = _expect(link, "RESULT")
                    script = _expect(link, "SCRIPT")
                    _write_script_block(out, result.body, script.body)
                    out.flush()
                    if realtime:
                        _play_realtime(script.body)
                link.send(WireMessage("BYE", {}))
                _expect(link, "BYE")
            except (OSError, SignpipeError) as e:  # socket.timeout is an OSError
                log.error("session failed: %s", e)
                return 1
    return 0
