"""Per-connection protocol state machine.

States: AWAIT_HELLO -> READY -> CLOSED. The machine is pure: on_message
returns what to send back, whether a LANDMARKS body should be processed,
and whether the connection must close. Exactly three (state, type) cells
are legal: (AWAIT_HELLO, HELLO), (READY, LANDMARKS), (READY, BYE); every
other combination replies ERROR{PROTOCOL} and closes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .wire import WireMessage, error_message, hello_fault, hello_message

__all__ = ["SessionState", "SessionEffect", "Session"]


class SessionState(Enum):
    AWAIT_HELLO = "await_hello"
    READY = "ready"
    CLOSED = "closed"


@dataclass(frozen=True)
class SessionEffect:
    """What the transport should do after one inbound message."""

    replies: tuple[WireMessage, ...] = ()
    sample_body: dict | None = None
    close: bool = False


class Session:
    def __init__(self):
        self.state = SessionState.AWAIT_HELLO

    def _reject(self, message: str) -> SessionEffect:
        self.state = SessionState.CLOSED
        return SessionEffect(
            replies=(error_message("PROTOCOL", message),), close=True
        )

    def on_message(self, msg: WireMessage) -> SessionEffect:
        if self.state is SessionState.CLOSED:
            return self._reject("session is closed")
        if self.state is SessionState.AWAIT_HELLO:
            if msg.type != "HELLO":
                return self._reject(f"{msg.type} before HELLO")
            if (fault := hello_fault(msg.body)) is not None:
                return self._reject(fault)
            self.state = SessionState.READY
            return SessionEffect(replies=(hello_message(),))
        # READY
        if msg.type == "LANDMARKS":
            return SessionEffect(sample_body=msg.body)
        if msg.type == "BYE":
            self.state = SessionState.CLOSED
            return SessionEffect(replies=(WireMessage("BYE", {}),), close=True)
        if msg.type == "HELLO":
            return self._reject("duplicate HELLO")
        return self._reject(f"client may not send {msg.type}")
