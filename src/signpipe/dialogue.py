"""Two-step LLM orchestration: recognized sign -> gesture-tagged dialogue.

Step 1 asks the backend for a spoken reply to the recognized sign. Step 2
feeds that reply back together with the gesture descriptor listing and asks
for a tagged version. The tagged reply is validated with parse_markup; on
failure step 2 is retried with the parse error appended, and after the retry
budget is spent the reply is degraded to untagged speech so the interaction
never dies on a malformed LLM response.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import random
import re
import urllib.request
import warnings
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import BackendError, TemplateError, ValidationError
from .gesture import (
    GestureDb,
    MarkupError,
    PlainText,
    TaggedScript,
    normalize_spoken_text,
    parse_markup,
)

__all__ = [
    "RecognitionEvent",
    "PromptTemplate",
    "DialogueWarning",
    "render_step1",
    "render_step2",
    "ComposeResult",
    "compose",
    "LlmBackend",
    "MockLlmBackend",
    "ScriptedLlmBackend",
    "HttpLlmBackend",
    "API_KEY_ENV",
]

API_KEY_ENV = "SIGNPIPE_API_KEY"


class DialogueWarning(UserWarning):
    """Non-fatal composition issue (empty descriptor DB, degraded output)."""


@dataclass(frozen=True)
class RecognitionEvent:
    """One recognized sign: its gloss and the model's confidence in percent."""

    gloss: str
    confidence_pct: float

    def __post_init__(self):
        if not self.gloss:
            raise ValidationError("recognition event has an empty gloss")
        if not 0.0 <= self.confidence_pct <= 100.0:
            raise ValidationError(
                f"confidence_pct {self.confidence_pct} outside [0, 100]"
            )


def _require_once(text: str, placeholder: str, which: str) -> None:
    n = text.count(placeholder)
    if n != 1:
        raise TemplateError(
            f"{which} template must contain {placeholder} exactly once, "
            f"found {n}"
        )


def _read_template(path: str | Path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise TemplateError(f"template {path}: not UTF-8 text ({e})") from None


@dataclass(frozen=True)
class PromptTemplate:
    """The two prompt bodies. Step 1 carries {gloss} and {confidence};
    step 2 carries {descriptors} and {dialogue}. Each placeholder must
    appear exactly once. A `####` line separates instructions from payload.
    """

    step1_instructions: str
    step2_instructions: str

    def __post_init__(self):
        _require_once(self.step1_instructions, "{gloss}", "step-1")
        _require_once(self.step1_instructions, "{confidence}", "step-1")
        _require_once(self.step2_instructions, "{descriptors}", "step-2")
        _require_once(self.step2_instructions, "{dialogue}", "step-2")

    @classmethod
    def load(cls, step1_path: str | Path, step2_path: str | Path) -> "PromptTemplate":
        return cls(_read_template(step1_path), _read_template(step2_path))

    @classmethod
    def load_dir(cls, directory: str | Path) -> "PromptTemplate":
        """Load step1.txt and step2.txt from one directory."""
        d = Path(directory)
        return cls.load(d / "step1.txt", d / "step2.txt")

    @classmethod
    def default(cls) -> "PromptTemplate":
        root = resources.files("signpipe") / "data" / "templates"
        return cls(
            (root / "step1.txt").read_text(encoding="utf-8"),
            (root / "step2.txt").read_text(encoding="utf-8"),
        )


def render_step1(event: RecognitionEvent, template: PromptTemplate) -> str:
    """Fill the step-1 template; confidence renders as an integer percent."""
    out = template.step1_instructions
    out = out.replace("{gloss}", event.gloss)
    out = out.replace("{confidence}", str(round(event.confidence_pct)))
    return out


def describe_db(db: GestureDb) -> str:
    """One `- [Tag] ...` line per descriptor, in db order."""
    lines = []
    for d in db:
        parts = ", ".join(sorted(d.body_parts))
        lines.append(
            f"- [{d.tag}] {d.description} "
            f"(plays {d.playtime_s:.2f}s; moves {parts})"
        )
    return "\n".join(lines)


def render_step2(dialogue: str, db: GestureDb, template: PromptTemplate) -> str:
    """Fill the step-2 template with the descriptor listing and the step-1
    dialogue. An empty db renders an empty listing and warns: the backend
    will have no tags to choose from."""
    if len(db) == 0:
        warnings.warn(
            "descriptor db is empty: step-2 prompt lists no gestures",
            DialogueWarning,
            stacklevel=2,
        )
    out = template.step2_instructions
    out = out.replace("{descriptors}", describe_db(db))
    out = out.replace("{dialogue}", dialogue)
    return out


@dataclass(frozen=True)
class ComposeResult:
    """Outcome of one two-step composition.

    script is always safe to schedule against the same db. warnings is
    non-empty when the output was degraded to untagged speech. backend_calls
    counts every complete() issued (2 + retries).
    """

    script: TaggedScript
    spoken_reply: str
    warnings: tuple[str, ...]
    backend_calls: int


_BRACKET_TOKEN = re.compile(r"\[[^\[\]]*\]")


def _strip_bracket_tokens(text: str) -> str:
    out = _BRACKET_TOKEN.sub(" ", text)
    out = out.replace("[", " ").replace("]", " ")
    return normalize_spoken_text(out)


def compose(event: RecognitionEvent, db: GestureDb, backend: "LlmBackend",
            template: PromptTemplate, max_retries: int = 2) -> ComposeResult:
    """Run the two steps against backend and validate the tagged reply.

    Step-2 parse failures are retried up to max_retries times with the error
    text appended to the prompt; when the budget runs out the last reply is
    stripped of bracket tokens and returned untagged with a warning. Backend
    transport failures propagate as BackendError.
    """
    if max_retries < 0:
        raise ValidationError(f"max_retries must be >= 0, got {max_retries}")
    dialogue = backend.complete(render_step1(event, template))
    prompt2 = render_step2(dialogue, db, template)
    calls = 1
    prompt = prompt2
    reply = ""
    last_error = ""
    for _ in range(max_retries + 1):
        reply = backend.complete(prompt)
        calls += 1
        try:
            script = parse_markup(reply, db)
        except MarkupError as e:
            last_error = str(e)
            prompt = (
                f"{prompt2}\n\nYour previous reply was rejected: {last_error}\n"
                "Reply again using only the listed gesture tags, with every "
                "opened tag closed and no nesting."
            )
            continue
        return ComposeResult(script, dialogue, (), calls)
    text = _strip_bracket_tokens(reply)
    script = TaggedScript((PlainText(text),) if text else ())
    message = (
        f"degraded to untagged speech after {max_retries + 1} invalid "
        f"replies (last error: {last_error})"
    )
    warnings.warn(message, DialogueWarning, stacklevel=2)
    return ComposeResult(script, dialogue, (message,), calls)


class LlmBackend:
    """Interface: complete(prompt) -> reply text. Implementations must be
    safe to call repeatedly from a single composition at a time."""

    def complete(self, prompt: str) -> str:
        raise NotImplementedError


# Matches the descriptor listing lines produced by describe_db; their
# presence is how the mock tells a step-2 prompt from a step-1 prompt.
_LISTED_TAG = re.compile(r"(?m)^- \[([^\]\s]+)\]")
_STEP1_PAYLOAD = re.compile(r"depicted an? (.+?) with an? (\d+)% accuracy")

_MOCK_OPENERS = ("Great!", "Nice one!", "Well done!", "I see.")
_MOCK_REMARKS = (
    "Let's keep going.",
    "Show me another sign.",
    "That was easy to read.",
    "You are getting quicker.",
)


class MockLlmBackend(LlmBackend):
    """Deterministic stand-in: the reply is a pure function of (seed, prompt).

    Step-1 prompts get a short spoken reply mentioning the recognized word;
    step-2 prompts get the embedded dialogue with one or two spans wrapped
    in tags taken from the prompt's own descriptor listing, so the result
    always parses against the db that produced the prompt.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed

    def _rng(self, prompt: str) -> random.Random:
        digest = hashlib.sha256(
            str(self.seed).encode("utf-8") + b"\x00" + prompt.encode("utf-8")
        ).digest()
        return random.Random(int.from_bytes(digest[:8], "big"))

    def complete(self, prompt: str) -> str:
        rng = self._rng(prompt)
        tags = _LISTED_TAG.findall(prompt)
        if tags:
            return self._tag_dialogue(prompt, tags, rng)
        return self._spoken_reply(prompt, rng)

    def _spoken_reply(self, prompt: str, rng: random.Random) -> str:
        m = _STEP1_PAYLOAD.search(prompt)
        subject = m.group(1) if m else "sign"
        return (
            f"{rng.choice(_MOCK_OPENERS)} You signed {subject}. "
            f"{rng.choice(_MOCK_REMARKS)}"
        )

    def _tag_dialogue(self, prompt: str, tags: list[str], rng: random.Random) -> str:
        dialogue = prompt.rsplit("####", 1)[-1].strip()
        words = dialogue.split()
        if not words:
            return dialogue
        n_spans = 1 if len(words) < 6 else rng.choice((1, 2))
        # Non-overlapping word ranges, chosen left to right.
        bounds = sorted(rng.sample(range(len(words) + 1), 2 * n_spans))
        pieces: list[str] = []
        cursor = 0
        for i in range(n_spans):
            start, stop = bounds[2 * i], bounds[2 * i + 1]
            if start == stop:
                continue
            tag = rng.choice(tags)
            pieces.extend(words[cursor:start])
            pieces.append(f"[{tag}]")
            pieces.extend(words[start:stop])
            pieces.append(f"[/{tag}]")
            cursor = stop
        pieces.extend(words[cursor:])
        return " ".join(pieces)


class ScriptedLlmBackend(LlmBackend):
    """Replays canned replies in order; records the prompts it saw."""

    def __init__(self, replies: list[str]):
        self.replies = list(replies)
        self.prompts: list[str] = []
        self._next = 0

    def complete(self, prompt: str) -> str:
        self.prompts.append(prompt)
        if self._next >= len(self.replies):
            raise BackendError(
                f"scripted backend exhausted after {len(self.replies)} replies"
            )
        reply = self.replies[self._next]
        self._next += 1
        return reply


class HttpLlmBackend(LlmBackend):
    """Chat-completions client: POST {model, messages} with bearer auth.

    The API key is read from the SIGNPIPE_API_KEY environment variable at
    call time. Any transport or response-shape problem raises BackendError.
    """

    def __init__(self, base_url: str, model: str, timeout_s: float = 30.0):
        if not base_url:
            raise ValidationError("base_url must be non-empty")
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.timeout_s = timeout_s

    def complete(self, prompt: str) -> str:
        key = os.environ.get(API_KEY_ENV)
        if not key:
            raise BackendError(f"{API_KEY_ENV} is not set")
        request = urllib.request.Request(
            f"{self.base_url}/chat/completions",
            data=json.dumps({
                "model": self.model,
                "messages": [{"role": "user", "content": prompt}],
            }).encode("utf-8"),
            headers={"Authorization": f"Bearer {key}",
                     "Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout_s) as resp:
                data = json.loads(resp.read())
        except (OSError, http.client.HTTPException) as e:  # incl. HTTPError, URLError
            raise BackendError(f"LLM request failed: {e}") from e
        except ValueError as e:  # bad JSON or bad UTF-8
            raise BackendError(f"LLM response is not JSON: {e}") from None
        try:
            text = data["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError):
            raise BackendError(
                "LLM response missing choices[0].message.content"
            ) from None
        if not isinstance(text, str):
            raise BackendError("LLM response content is not text")
        return text
