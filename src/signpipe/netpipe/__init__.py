"""TCP link between the recognition server and the robot client."""

from .wire import (
    DEFAULT_PORT,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    WIRE_TYPES,
    FrameDecoder,
    MessageSocket,
    WireMessage,
    decode_frame,
    encode_frame,
    error_message,
    hello_message,
    landmarks_message,
    reply_body,
    result_message,
    sample_from_body,
    sample_to_body,
    script_message,
)
from .session import Session, SessionState
from .server import ServerConfig, serve
from .robot import robot_sim

__all__ = [
    "DEFAULT_PORT",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "WIRE_TYPES",
    "FrameDecoder",
    "MessageSocket",
    "WireMessage",
    "decode_frame",
    "encode_frame",
    "error_message",
    "hello_message",
    "landmarks_message",
    "reply_body",
    "result_message",
    "sample_from_body",
    "sample_to_body",
    "script_message",
    "Session",
    "SessionState",
    "ServerConfig",
    "serve",
    "robot_sim",
]
