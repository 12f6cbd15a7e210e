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
import threading
import time
from pathlib import Path
from typing import Iterable

from ..errors import ProtocolViolation, SignpipeError, TransportError, ValidationError
from ..landmarks import SignSample
from .wire import (MessageSocket, WireMessage, check_port, hello_message, landmarks_message,
                   reply_body)

__all__ = ["robot_sim"]

log = logging.getLogger(__name__)


def _expect(link: MessageSocket, msg_type: str) -> dict:
    """The body of the next reply, which must be a well-formed msg_type."""
    msg = link.recv()
    if msg is None:
        raise TransportError("server closed the connection")
    if msg.type not in (msg_type, "ERROR"):
        raise ProtocolViolation(f"expected {msg_type}, server sent {msg.type}")
    body = reply_body(msg)
    if msg.type == "ERROR":
        raise ProtocolViolation(f"server error {body['code']}: {body['message']}")
    return body


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


def _play_realtime(script_body: dict, timeout_s: float) -> None:
    """Wait out the script's events in real time. A script that would hold
    the robot longer than its own timeout fails before any wait."""
    starts = sorted(ev["start_s"] for ev in script_body["timeline"]["events"])
    if starts and starts[-1] > timeout_s:
        raise ProtocolViolation(
            f"SCRIPT reply: an event starts at {starts[-1]} s, "
            f"later than the {timeout_s} s timeout")
    t0 = time.monotonic()
    for start in starts:
        delay = start - (time.monotonic() - t0)
        if delay > 0:
            time.sleep(delay)


def robot_sim(address: tuple[str, int], samples: Iterable[SignSample],
              log_path: str | Path, realtime: bool = False,
              timeout_s: float = 30.0) -> int:
    """Run the client against a server; returns a process exit status.

    0: every sample got its RESULT and SCRIPT and the session closed
    cleanly. 1: transport or protocol failure, a malformed reply included
    (the log keeps everything received up to that point), and, with
    realtime, a script whose last event starts after timeout_s. A bad port, or a
    timeout outside (0, threading.TIMEOUT_MAX] (the most a socket accepts),
    raises ValidationError. Text that is not valid Unicode (a lone surrogate) is
    logged backslash-escaped.
    """
    check_port(address[1])
    if not 0 < timeout_s <= threading.TIMEOUT_MAX:
        raise ValidationError(
            f"timeout_s must be positive and at most {threading.TIMEOUT_MAX:.0f} s")
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
                link.send(hello_message())
                _expect(link, "HELLO")
                for sample in samples:
                    out.write(f"SAMPLE {sample.sample_id}\n")
                    out.flush()
                    link.send(landmarks_message(sample))
                    result = _expect(link, "RESULT")
                    script = _expect(link, "SCRIPT")
                    _write_script_block(out, result, script)
                    out.flush()
                    if realtime:
                        _play_realtime(script, timeout_s)
                link.send(WireMessage("BYE", {}))
                _expect(link, "BYE")
            except (OSError, SignpipeError) as e:  # socket.timeout is an OSError
                log.error("session failed: %s", e)
                return 1
    return 0
