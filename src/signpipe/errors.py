"""Shared exception hierarchy.

Every error the library raises deliberately derives from SignpipeError so
callers (and the CLI) can separate expected failures from bugs.
"""

from __future__ import annotations


class SignpipeError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(SignpipeError):
    """A value violates a domain invariant."""


class CorpusFormatError(ValidationError):
    """A corpus file is malformed; the message carries the line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)
        self.line = line


class DegenerateInputError(SignpipeError):
    """Input carries no usable signal (e.g. every coordinate missing)."""


class ShapeError(SignpipeError):
    """A tensor has the wrong shape; message names the offending tensor."""


class WeightFormatError(SignpipeError):
    """A tensor container file is corrupt, truncated, or not ours."""


class DivergenceError(SignpipeError):
    """Training produced a non-finite loss."""


class TemplateError(SignpipeError):
    """A prompt template is missing or duplicates a required placeholder."""


class BackendError(SignpipeError):
    """An LLM backend failed at the transport or response-shape level."""


class FrameError(SignpipeError):
    """A wire frame is malformed (bad length, bad JSON, unknown type)."""


class ProtocolViolation(SignpipeError):
    """A structurally valid message arrived where the protocol forbids it."""


class TransportError(SignpipeError):
    """The peer vanished: connection refused, reset, or closed mid-message."""


class UsageError(SignpipeError):
    """Bad command-line usage or configuration (exit code 2, not 1)."""
