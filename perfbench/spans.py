"""In-memory spans recorded around calls into signpipe's public functions.

A span has a name, start and end (perf_counter seconds), the id of the span
open around it, and a request id shared by every span of one sample. Spans
stay in memory until dump() writes them as JSON lines.
"""

from __future__ import annotations

import contextlib
import json
import time
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, request_id: str | None = None):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "request": request_id,
            "start": 0.0,
            "end": 0.0,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def durations_ms(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for s in self.spans:
            out.setdefault(s["name"], []).append((s["end"] - s["start"]) * 1000.0)
        return out

    def dump(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def no_span(name: str, request_id: str | None = None):
    """Stand-in for Tracer.span in the untraced pass."""
    return contextlib.nullcontext()
