"""The recognition server: preprocess -> classify -> compose, over TCP.

One thread per connection: each gets its own protocol session, message
socket, and LLM backend instance, and serves its samples inline on that
thread. Model weights, the descriptor DB, and templates are shared and
immutable. A sample's deadline starts when it arrives and is checked between
stages and before each backend call; a backend call already in flight is not
interrupted. The replies to one inbound message leave in one write. Every
ERROR reply closes the connection; the client reconnects for a fresh session.
"""

from __future__ import annotations

import logging
import socketserver
import threading
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..dialogue import LlmBackend, PromptTemplate, RecognitionEvent, compose
from ..errors import FrameError, ShapeError, SignpipeError, ValidationError
from ..gesture import GestureDb, check_speech_rate, render_markup, schedule
from ..landmarks import LabelMap
from ..nn import ModelConfig, predict
from ..nn.network import _check_weights
from ..preprocess import SelectionSpec, preprocess_pipeline
from .session import Session
from .wire import (DEFAULT_PORT, MessageSocket, WireMessage, check_port, error_message,
                   result_message, sample_from_body, script_message)

__all__ = ["ServerConfig", "ServerHandle", "serve"]

log = logging.getLogger(__name__)

# How often the accept loop checks for shutdown; close() waits up to this long.
_POLL_INTERVAL_S = 0.05


@dataclass
class ServerConfig:
    weights: dict[str, np.ndarray]
    model_config: ModelConfig
    selection: SelectionSpec
    db: GestureDb
    template: PromptTemplate
    backend_factory: Callable[[], LlmBackend]
    labels: LabelMap | None = None
    host: str = "127.0.0.1"
    port: int = DEFAULT_PORT
    wpm: float = 150.0
    max_retries: int = 2
    deadline_s: float = 10.0

    def validate(self) -> None:
        try:
            _check_weights(self.weights, self.model_config)
        except ShapeError as e:
            raise ValidationError(f"weights: {e}") from None
        self.model_config.check_inputs(self.selection.feature_dim, self.labels)
        if not self.deadline_s > 0:
            raise ValidationError("deadline_s must be positive")
        check_speech_rate(self.wpm)
        if self.max_retries < 0:
            raise ValidationError("max_retries must not be negative")
        check_port(self.port)


class _Overdue(Exception):
    """The sample's deadline passed before its reply was ready."""


class _Deadline(LlmBackend):
    """The connection's backend behind one sample's deadline, an instant on
    time.monotonic(): check() raises _Overdue once it has passed, and so
    does every backend call that would start after it."""

    def __init__(self, backend: LlmBackend, seconds: float):
        self._backend = backend
        self._at = time.monotonic() + seconds

    def check(self) -> None:
        if time.monotonic() > self._at:
            raise _Overdue

    def complete(self, prompt: str) -> str:
        self.check()
        return self._backend.complete(prompt)


def _send(link: MessageSocket, replies: list[WireMessage]) -> list[WireMessage]:
    """Send replies in one write, or one ERROR INTERNAL in their place if
    any cannot be encoded. Returns what was sent."""
    try:
        link.send(*replies)
    except FrameError as e:
        log.error("cannot encode a reply: %s", e)
        replies = [error_message("INTERNAL", "the server could not encode its reply")]
        link.send(*replies)
    return replies


class _Handler(socketserver.BaseRequestHandler):
    server: "_PipelineServer"

    def handle(self):
        link = MessageSocket(self.request)
        session = Session()
        backend = self.server.cfg.backend_factory()
        try:
            try:
                while (msg := link.recv()) is not None:
                    effect = session.on_message(msg)
                    replies = list(effect.replies)
                    if effect.sample_body is not None:
                        replies += self._respond(backend, effect.sample_body)
                    replies = _send(link, replies)
                    if effect.close or replies[-1].type == "ERROR":
                        return
            except FrameError as e:
                link.send(error_message("BAD_FRAME", str(e)))
        except OSError:
            return  # the peer is gone

    def _respond(self, backend: LlmBackend, body: dict) -> list[WireMessage]:
        """RESULT and SCRIPT for one sample, or one ERROR if the body is
        malformed, processing fails, or the deadline passes first."""
        cfg = self.server.cfg
        deadline = _Deadline(backend, cfg.deadline_s)
        try:
            try:
                sample = sample_from_body(body)
            except SignpipeError as e:
                return [error_message("PROTOCOL", str(e))]
            x = preprocess_pipeline(sample, cfg.selection, cfg.model_config.max_seq_len)
            deadline.check()
            pred = predict(x, cfg.weights, cfg.model_config, cfg.labels)
            event = RecognitionEvent(pred.gloss, pred.confidence * 100.0)
            composed = compose(event, cfg.db, deadline, cfg.template, cfg.max_retries)
            timeline = schedule(composed.script, cfg.db, cfg.wpm)
            script = script_message(render_markup(composed.script), timeline,
                                    composed.warnings)
            deadline.check()
        except _Overdue:
            return [error_message("TIMEOUT", f"processing exceeded {cfg.deadline_s:g}s")]
        except SignpipeError as e:
            return [error_message("INTERNAL", str(e))]
        except Exception:
            log.exception("unexpected error while processing a sample")
            return [error_message("INTERNAL", "unexpected server error")]
        return [result_message(event.gloss, event.confidence_pct), script]


class _PipelineServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, cfg: ServerConfig):
        self.cfg = cfg
        super().__init__((cfg.host, cfg.port), _Handler)


class ServerHandle:
    """A running server plus its accept thread. Use as a context manager or
    call close() when done; address is the actually bound (host, port)."""

    def __init__(self, server: _PipelineServer, thread: threading.Thread):
        self._server = server
        self._thread = thread

    @property
    def address(self) -> tuple[str, int]:
        host, port = self._server.server_address[:2]
        return host, port

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def serve(cfg: ServerConfig) -> ServerHandle:
    """Validate the config, bind, and start accepting in a daemon thread.

    Pass port 0 to bind an ephemeral port; read it back from .address.
    """
    cfg.validate()
    server = _PipelineServer(cfg)
    thread = threading.Thread(target=server.serve_forever, args=(_POLL_INTERVAL_S,),
                              name="signpipe-server", daemon=True)
    thread.start()
    log.info("serving on %s:%d", *server.server_address[:2])
    return ServerHandle(server, thread)
