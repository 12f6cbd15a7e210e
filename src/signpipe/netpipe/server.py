"""The recognition server: preprocess -> classify -> compose, over TCP.

Each connection gets its own thread, protocol session, frame decoder, and
LLM backend instance. Model weights, the descriptor DB, and templates are
shared and immutable. Every ERROR reply closes the connection; the client
reconnects for a fresh session.
"""

from __future__ import annotations

import concurrent.futures
import logging
import socket
import socketserver
import threading
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..dialogue import LlmBackend, PromptTemplate, RecognitionEvent, compose
from ..errors import ProtocolViolation, ShapeError, SignpipeError, ValidationError
from ..gesture import GestureDb, Timeline, render_markup, schedule
from ..landmarks import LabelMap
from ..nn import ModelConfig, predict
from ..nn.network import _check_weights
from ..preprocess import SelectionSpec, preprocess_pipeline
from .session import Session
from .wire import DEFAULT_PORT, FrameDecoder, WireMessage, encode_frame, error_message, sample_from_body

__all__ = ["ServerConfig", "ServerHandle", "serve"]

log = logging.getLogger(__name__)


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
        if self.deadline_s <= 0:
            raise ValidationError("deadline_s must be positive")


def _timeline_body(timeline: Timeline, extra_warnings: tuple[str, ...]) -> dict:
    events = []
    for ev in timeline.events:
        if hasattr(ev, "tag"):
            events.append({
                "kind": "gesture",
                "tag": ev.tag,
                "start_s": ev.start_s,
                "duration_s": ev.duration_s,
                "body_parts": sorted(ev.body_parts),
            })
        else:
            events.append({
                "kind": "speech",
                "text": ev.text,
                "start_s": ev.start_s,
                "duration_s": ev.duration_s,
            })
    return {"events": events, "warnings": list(extra_warnings) + list(timeline.warnings)}


class _Handler(socketserver.BaseRequestHandler):
    server: "_PipelineServer"

    def handle(self):
        cfg = self.server.cfg
        session = Session()
        decoder = FrameDecoder()
        backend = cfg.backend_factory()
        executor = concurrent.futures.ThreadPoolExecutor(max_workers=1)
        try:
            while True:
                try:
                    data = self.request.recv(65536)
                except OSError:
                    return
                if not data:
                    return
                try:
                    messages = decoder.feed(data)
                except SignpipeError as e:
                    self._send(error_message("BAD_FRAME", str(e)))
                    return
                for msg in messages:
                    effect = session.on_message(msg)
                    for reply in effect.replies:
                        self._send(reply)
                    if effect.sample_body is not None:
                        if not self._respond(executor, backend, effect.sample_body):
                            return
                    if effect.close:
                        return
        finally:
            executor.shutdown(wait=False)

    def _respond(self, executor, backend, body: dict) -> bool:
        """Process one sample under the deadline; False closes the session."""
        cfg = self.server.cfg
        future = executor.submit(self._process, backend, body)
        try:
            replies = future.result(timeout=cfg.deadline_s)
        except concurrent.futures.TimeoutError:
            self._send(error_message(
                "TIMEOUT", f"processing exceeded {cfg.deadline_s:g}s"
            ))
            return False
        except ProtocolViolation as e:
            self._send(error_message("PROTOCOL", str(e)))
            return False
        except SignpipeError as e:
            self._send(error_message("INTERNAL", str(e)))
            return False
        except Exception:
            log.exception("unexpected error while processing a sample")
            self._send(error_message("INTERNAL", "unexpected server error"))
            return False
        for reply in replies:
            self._send(reply)
        return True

    def _process(self, backend, body: dict) -> list[WireMessage]:
        cfg = self.server.cfg
        try:
            sample = sample_from_body(body)
        except SignpipeError as e:
            raise ProtocolViolation(str(e)) from None
        x = preprocess_pipeline(sample, cfg.selection, cfg.model_config.max_seq_len)
        pred = predict(x, cfg.weights, cfg.model_config, cfg.labels)
        confidence_pct = pred.confidence * 100.0
        result = WireMessage(
            "RESULT", {"gloss": pred.gloss, "confidence_pct": confidence_pct}
        )
        event = RecognitionEvent(pred.gloss, confidence_pct)
        composed = compose(event, cfg.db, backend, cfg.template, cfg.max_retries)
        timeline = schedule(composed.script, cfg.db, cfg.wpm)
        script = WireMessage(
            "SCRIPT",
            {
                "tagged_text": render_markup(composed.script),
                "timeline": _timeline_body(timeline, composed.warnings),
            },
        )
        return [result, script]

    def _send(self, msg: WireMessage) -> None:
        try:
            self.request.sendall(encode_frame(msg))
        except OSError:
            pass  # peer is gone; the handler loop will notice on recv


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
    thread = threading.Thread(
        target=server.serve_forever, name="signpipe-server", daemon=True
    )
    thread.start()
    log.info("serving on %s:%d", *server.server_address[:2])
    return ServerHandle(server, thread)
