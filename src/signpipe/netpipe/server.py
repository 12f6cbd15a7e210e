"""The recognition server: preprocess -> classify -> compose, over TCP.

One process per connection: the accept loop forks a child for each accepted
connection, and the child serves its samples inline with its own protocol
session, message socket, and LLM backend instance. Model weights, the
descriptor DB, and templates are shared copy-on-write and never written.
Each child runs BLAS on its share of the parent's threads: the parent's
OpenBLAS thread count // live connections, at least 1. A sample's deadline
is one interval timer, armed when the sample arrives and disarmed before its
reply is written, so it covers every stage and backend call; outside a sample
the child ignores SIGALRM, so a stray or late alarm never ends a session.
The sample arrives once its frame is decoded: the decoder has already built
and checked a LANDMARKS frame's rows, so that work, like the parse, runs
before the timer is armed.
The replies to one inbound message leave in one write. Every ERROR reply
closes the connection; the client reconnects for a fresh session.
"""

from __future__ import annotations

import ctypes
import logging
import mmap
import os
import signal
import socketserver
import stat
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..dialogue import LlmBackend, PromptTemplate, RecognitionEvent, check_max_retries, compose
from ..errors import FrameError, ShapeError, SignpipeError, ValidationError
from ..gesture import GestureDb, check_speech_rate, render_markup, schedule
from ..landmarks import LabelMap
from ..nn import ModelConfig, predict
from ..nn.network import _check_weights
from ..preprocess import SelectionSpec, preprocess_pipeline
from .session import Session
from .wire import (DEFAULT_PORT, MessageSocket, WireMessage, check_port, error_message,
                   result_message, sample_from_body, script_message)

__all__ = ["ServerConfig", "serve"]

log = logging.getLogger(__name__)

# How often the accept loop checks for shutdown and reaps exited children.
_POLL_INTERVAL_S = 0.05
# How long close() lets live children finish an in-flight sample before it
# kills them; a child waiting on an idle client would otherwise never exit.
_CLOSE_GRACE_S = 0.5


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
        check_max_retries(self.max_retries)
        check_port(self.port)


class _Overdue(BaseException):
    """The sample's deadline passed before its reply was ready. Not an
    Exception, so that a backend's own `except Exception` cannot swallow it."""


def _raise_overdue(signum, frame):
    raise _Overdue


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


def _openblas_threads() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """OpenBLAS's get_num_threads and set_num_threads, found through numpy's
    own extension module: dlsym on its handle also searches the libraries it
    links, so no path to the BLAS library is needed. The names differ by
    build (scipy-openblas or plain, 64- or 32-bit integers). None where
    numpy's BLAS is not OpenBLAS."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    lib = ctypes.CDLL(umath.__file__)
    for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("scipy_", ""), ("", "")):
        get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
        set_ = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


def _close_inherited_sockets(keep: int) -> None:
    """Close every socket in this process except fd `keep`. A forked child
    inherits the listener and every socket the parent had open, among them
    an in-process client's end of the child's own connection; while the
    child holds that end, the client's close never reaches it as EOF.

    The open descriptors are listed by /dev/fd (Linux and macOS). Each
    socket is replaced by /dev/null rather than closed, so a stale socket
    object that closes its fd later cannot close a reused one."""
    null = os.open(os.devnull, os.O_RDWR)
    try:
        for fd in map(int, os.listdir("/dev/fd")):
            try:
                is_socket = stat.S_ISSOCK(os.fstat(fd).st_mode)
            except OSError:
                continue  # the listing's own fd, closed once listdir returned
            if is_socket and fd != keep:
                os.dup2(null, fd)
    finally:
        os.close(null)


class _PipelineServer(socketserver.ForkingMixIn, socketserver.TCPServer):
    """The running server: the listener, its accept thread, and one forked
    child per accepted connection. Use as a context manager or call close();
    address is the bound (host, port). The parent alone writes the
    live-connection count, when it forks a child and when it reaps one; the
    count sits in shared memory, where every child reads it."""

    allow_reuse_address = True
    block_on_close = False  # close() kills what its grace leaves; see server_close
    # No cap on live children, as there was none on threads. At ForkingMixIn's
    # default cap (40) the accept loop blocks in waitpid(-1) until a child
    # exits, so close() would wait on idle clients, and that waitpid can reap
    # processes the server did not fork.
    max_children = sys.maxsize

    def __init__(self, cfg: ServerConfig):
        self.cfg = cfg
        self._live = ctypes.c_int.from_buffer(mmap.mmap(-1, ctypes.sizeof(ctypes.c_int)))
        blas = _openblas_threads()
        if blas is None:
            self._blas_threads, self._set_blas_threads = 1, lambda n: None
        else:
            # The parent's own count honours OPENBLAS_NUM_THREADS and the
            # CPU affinity; the children split it.
            get, self._set_blas_threads = blas
            self._blas_threads = get()
        # finish_request serves each connection, so no request handler class.
        super().__init__((cfg.host, cfg.port), None)
        self._accept_thread = threading.Thread(
            target=self.serve_forever, args=(_POLL_INTERVAL_S,),
            name="signpipe-server", daemon=True)

    @property
    def address(self) -> tuple[str, int]:
        host, port = self.server_address[:2]
        return host, port

    def share_blas_threads(self) -> None:
        """Give this child's BLAS its share of the parent's threads. The live
        count includes this child until the parent reaps it, so it is at
        least 1 here."""
        self._set_blas_threads(max(1, self._blas_threads // self._live.value))

    def process_request(self, request, client_address):
        self._live.value = len(self.active_children or ()) + 1
        super().process_request(request, client_address)

    def collect_children(self, *, blocking=False):
        super().collect_children(blocking=blocking)
        self._live.value = len(self.active_children or ())

    def finish_request(self, request, client_address):
        """Serve one connection. ForkingMixIn calls this in the child only."""
        _close_inherited_sockets(keep=request.fileno())
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        link = MessageSocket(request)
        session = Session()
        backend = self.cfg.backend_factory()
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
        malformed, processing fails, or the deadline passes first.

        The deadline is an ITIMER_REAL alarm whose handler raises _Overdue,
        both set inside the try that catches _Overdue, as the alarm can fire
        as setitimer returns. SIGALRM is ignored again before the disarm and
        any reply byte, so outside a sample a stray or late alarm never ends
        the session. _Overdue may tear any state; an ERROR ends the child."""
        cfg = self.cfg
        try:
            signal.signal(signal.SIGALRM, _raise_overdue)
            signal.setitimer(signal.ITIMER_REAL, min(cfg.deadline_s, threading.TIMEOUT_MAX))
            try:
                try:
                    sample = sample_from_body(body)
                except SignpipeError as e:
                    return [error_message("PROTOCOL", str(e))]
                x = preprocess_pipeline(sample, cfg.selection, cfg.model_config.max_seq_len)
                self.share_blas_threads()
                pred = predict(x, cfg.weights, cfg.model_config, cfg.labels)
                event = RecognitionEvent(pred.gloss, pred.confidence * 100.0)
                composed = compose(event, cfg.db, backend, cfg.template, cfg.max_retries)
                timeline = schedule(composed.script, cfg.db, cfg.wpm)
                return [result_message(event.gloss, event.confidence_pct),
                        script_message(render_markup(composed.script), timeline,
                                       composed.warnings)]
            except SignpipeError as e:
                return [error_message("INTERNAL", str(e))]
            except Exception:
                log.exception("unexpected error while processing a sample")
                return [error_message("INTERNAL", "unexpected server error")]
            finally:
                signal.signal(signal.SIGALRM, signal.SIG_IGN)
                signal.setitimer(signal.ITIMER_REAL, 0)
        except _Overdue:
            return [error_message("TIMEOUT", f"processing exceeded {cfg.deadline_s:g}s")]

    def close(self) -> None:
        """Stop accepting, then end every connection's child; see
        server_close. Never waits on a client."""
        self.shutdown()
        self._accept_thread.join(timeout=5)
        self.server_close()

    def __exit__(self, *exc) -> None:
        self.close()

    def server_close(self):
        """Stop listening, give live children _CLOSE_GRACE_S to finish an
        in-flight sample, then kill and reap the rest."""
        super().server_close()
        give_up = time.monotonic() + _CLOSE_GRACE_S
        while self.active_children and time.monotonic() < give_up:
            time.sleep(0.01)
            self.collect_children()
        for pid in self.active_children or ():
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass  # exited since the last poll; reaped below
        self.collect_children(blocking=True)


def serve(cfg: ServerConfig) -> _PipelineServer:
    """Validate the config, bind, start accepting on a daemon thread, and
    return the running server.

    Pass port 0 to bind an ephemeral port; read it back from .address.
    """
    cfg.validate()
    server = _PipelineServer(cfg)
    server._accept_thread.start()
    log.info("serving on %s:%d", *server.address)
    return server
