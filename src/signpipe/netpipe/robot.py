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
import time
from pathlib import Path
from typing import Iterable

from ..errors import ProtocolViolation, SignpipeError, TransportError
from ..landmarks import SignSample
from .wire import PROTOCOL_VERSION, MessageSocket, WireMessage, landmarks_message

__all__ = ["robot_sim"]

log = logging.getLogger(__name__)


def _expect(link: MessageSocket, msg_type: str) -> WireMessage:
    msg = link.recv()
    if msg is None:
        raise TransportError("server closed the connection")
    if msg.type == "ERROR":
        body = msg.body
        raise ProtocolViolation(
            f"server error {body.get('code')}: {body.get('message')}"
        )
    if msg.type != msg_type:
        raise ProtocolViolation(f"expected {msg_type}, server sent {msg.type}")
    return msg


def _write_script_block(out, result_body: dict, script_body: dict) -> None:
    out.write(
        f"RESULT {result_body.get('gloss')} "
        f"{float(result_body.get('confidence_pct', 0.0)):.2f}\n"
    )
    out.write(f"SCRIPT {script_body.get('tagged_text', '')}\n")
    timeline = script_body.get("timeline", {})
    for ev in timeline.get("events", ()):
        start = float(ev.get("start_s", 0.0))
        duration = float(ev.get("duration_s", 0.0))
        if ev.get("kind") == "gesture":
            out.write(f"  {start:6.2f}s gesture {ev.get('tag')} ({duration:.2f}s)\n")
        else:
            out.write(f"  {start:6.2f}s speech {ev.get('text')}\n")
    for warning in timeline.get("warnings", ()):
        out.write(f"  warning: {warning}\n")


def _play_realtime(script_body: dict) -> None:
    t0 = time.monotonic()
    events = script_body.get("timeline", {}).get("events", ())
    for ev in sorted(events, key=lambda e: float(e.get("start_s", 0.0))):
        delay = float(ev.get("start_s", 0.0)) - (time.monotonic() - t0)
        if delay > 0:
            time.sleep(delay)


def robot_sim(address: tuple[str, int], samples: Iterable[SignSample],
              log_path: str | Path, realtime: bool = False,
              timeout_s: float = 30.0) -> int:
    """Run the client against a server; returns a process exit status.

    0: every sample got its RESULT and SCRIPT and the session closed
    cleanly. 1: transport or protocol failure (the log keeps everything
    received up to that point).
    """
    log_path = Path(log_path)
    with log_path.open("w", encoding="utf-8") as out:
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
