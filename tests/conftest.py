"""Shared fixtures: tiny model configs, corpora builders, descriptor DBs,
and the package walk that the one-owner guards share."""

from __future__ import annotations

import ast
import contextlib
import gc
import glob
import http.server
import json
import math
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

import signpipe
from signpipe.gesture import GestureDb, GestureDescriptor
from signpipe.landmarks import KIND_CAPACITY, LandmarkFrame, LandmarkKind, SignSample
from signpipe.nn import ModelConfig, init_weights

# The published two-step example: the spoken reply and its tagged version.
SPOKEN_FIXTURE = (
    "Great! You drew a cloud sign, but the weather today is really nice. "
    "Just look up at the sky."
)
TAGGED_FIXTURE = (
    "[Yes] Great! [/Yes] You drew a cloud sign, but [Excited] the weather "
    "today is really nice [/Excited]. Just [ShowSky] look up at the sky "
    "[/ShowSky]."
)


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fail a test that leaves a thread it started running for more than 1 s
    after it ends: work that outlives its test outlives its caller too."""
    before = set(threading.enumerate())
    yield
    give_up = time.monotonic() + 1.0
    started = [t for t in threading.enumerate() if t not in before]
    for thread in started:
        thread.join(timeout=max(0.0, give_up - time.monotonic()))
    alive = [t.name for t in started if t.is_alive()]
    assert not alive, f"threads still running after the test: {alive}"


@pytest.fixture(autouse=True)
def collector_left_enabled():
    """Fail a test that leaves the cyclic garbage collector disabled, and
    enable it again for the tests after: a pause that outlives its block
    leaves every later cycle in the process uncollected."""
    yield
    enabled = gc.isenabled()
    gc.enable()
    assert enabled, "the cyclic garbage collector was left disabled"


def chat_reply(content: str, size: int | None = None) -> bytes:
    """A well-formed chat-completions reply carrying content, padded with
    trailing spaces to size bytes when size is given."""
    body = json.dumps({"choices": [{"message": {"content": content}}]}).encode()
    return body if size is None else body + b" " * (size - len(body))


@contextlib.contextmanager
def chat_http_stub(body: bytes):
    """An HTTP endpoint on 127.0.0.1 that answers every POST with body.
    Yields its base URL."""

    class Handler(http.server.BaseHTTPRequestHandler):
        def do_POST(self):
            self.rfile.read(int(self.headers["Content-Length"]))
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    with http.server.HTTPServer(("127.0.0.1", 0), Handler) as server:
        thread = threading.Thread(target=server.serve_forever, name="chat-http-stub")
        thread.start()
        try:
            yield "http://%s:%d" % server.server_address
        finally:
            server.shutdown()
            thread.join(timeout=10.0)


def child_pids() -> set[int]:
    """This process's child processes, unreaped zombies included, as Linux
    lists them per thread under /proc; empty where /proc does not."""
    pids: set[int] = set()
    for path in glob.glob("/proc/self/task/*/children"):
        try:
            with open(path) as f:
                pids.update(map(int, f.read().split()))
        except OSError:
            pass  # the thread ended while we looked
    return pids


@pytest.fixture(autouse=True)
def no_leaked_children():
    """Fail a test that leaves a child process it started running, or
    unreaped, for more than 1 s after it ends: a server's close() must end
    every child it forked."""
    before = child_pids()
    yield
    give_up = time.monotonic() + 1.0
    while (left := child_pids() - before) and time.monotonic() < give_up:
        time.sleep(0.01)
    assert not left, f"child processes still running after the test: {sorted(left)}"


# -- the package walk that the one-owner guards share -------------------------

def package_sources() -> dict[str, str]:
    """The source of each module of signpipe by its path in the package
    (`netpipe/server.py`), in path order."""
    root = Path(signpipe.__file__).parent
    return {path.relative_to(root).as_posix(): path.read_text(encoding="utf-8")
            for path in sorted(root.rglob("*.py"))}


def package_sites(finder) -> list[str]:
    """Every site that finder(source, module) finds in the package."""
    return [site for module, source in package_sources().items()
            for site in finder(source, module)]


def scoped_nodes(source: str) -> list[tuple[ast.AST, str]]:
    """Each node of source's syntax tree, depth first, with its scope: its
    outermost def with any classes that enclose it (`Class.method`), the
    enclosing classes outside every def, and "" at module level."""
    nodes = []

    def visit(node, scope, in_def):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not in_def:
            scope = f"{scope}.{node.name}" if scope else node.name
            in_def = not isinstance(node, ast.ClassDef)
        nodes.append((node, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope, in_def)

    visit(ast.parse(source), "", False)
    return nodes


def module_names(nodes, module: str) -> set[str]:
    """The names that the nodes' `import module` statements bind, aliases
    included."""
    return {alias.asname or alias.name for node, _ in nodes if isinstance(node, ast.Import)
            for alias in node.names if alias.name == module}


# -- orjson runs only in wire.py: loads in _read_landmarks, dumps in encode_frame

# The one def in which each orjson function may be used: (module, def, name).
_ORJSON_ALLOWED = {("netpipe/wire.py", "_read_landmarks", "loads"),
                   ("netpipe/wire.py", "encode_frame", "dumps")}


def orjson_sites(source: str, module: str) -> list[str]:
    """`module:line` of each import of orjson outside netpipe/wire.py, and of
    each use of orjson.loads or orjson.dumps, however orjson is imported,
    outside the def _ORJSON_ALLOWED names for it. `from orjson import *`
    uses both."""
    nodes = scoped_nodes(source)
    names = module_names(nodes, "orjson")
    sites = []
    for node, scope in nodes:
        if isinstance(node, ast.Import):
            imports = any(alias.name.split(".")[0] == "orjson" for alias in node.names)
            used = set()
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
              and node.module.split(".")[0] == "orjson"):
            imports, used = True, {alias.name for alias in node.names}
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in names):
            imports, used = False, {node.attr}
        else:
            continue
        used = {"loads", "dumps"} if "*" in used else used & {"loads", "dumps"}
        if (imports and module != "netpipe/wire.py"
                or any((module, scope, name) not in _ORJSON_ALLOWED for name in used)):
            sites.append(f"{module}:{node.lineno}")
    return sites


@pytest.fixture
def tiny_cfg() -> ModelConfig:
    return ModelConfig(
        input_dim=6,
        extractor_dims=(8,),
        model_dim=8,
        num_layers=2,
        num_heads=2,
        ff_dim=16,
        num_classes=5,
        max_seq_len=4,
    )


@pytest.fixture
def tiny_weights(tiny_cfg):
    return init_weights(tiny_cfg, seed=123)


@pytest.fixture
def fixture_db() -> GestureDb:
    def g(tag, playtime, parts):
        return GestureDescriptor(tag, f"{tag} gesture", playtime, frozenset(parts))

    return GestureDb([
        g("Yes", 1.4, {"Neck"}),
        g("Excited", 2.6, {"Left Arm", "Right Arm"}),
        g("ShowSky", 2.1, {"Right Arm", "Right Hand"}),
        g("Thinking", 2.17, {"Eyes", "Neck", "Right Arm", "Right Hand"}),
    ])


def make_sample(sample_id: str = "s1", num_frames: int = 5, seed: int = 0,
                label: int | None = 3, with_missing: bool = False) -> SignSample:
    """A small right-hand-plus-pose sample with deterministic coordinates."""
    rng = np.random.default_rng(seed)
    frames = []
    for t in range(num_frames):
        for kind, count in ((LandmarkKind.RIGHT_HAND, 21), (LandmarkKind.POSE, 6)):
            for i in range(count):
                index = i if kind is LandmarkKind.RIGHT_HAND else 11 + i
                x, y, z = rng.uniform(0.1, 0.9, size=3)
                if with_missing and rng.uniform() < 0.2:
                    x = y = z = float("nan")
                frames.append(LandmarkFrame(t, kind, index, float(x), float(y), float(z)))
    return SignSample(sample_id, frames, label)


_ROW_KEYS = [(kind, index) for kind in LandmarkKind for index in range(KIND_CAPACITY[kind])]
_COORD = st.one_of(st.just(math.nan), st.floats(allow_nan=False, allow_infinity=False))
_XYZ = st.one_of(st.just((math.nan,) * 3), st.tuples(_COORD, _COORD, _COORD))
_SAMPLE_IDS = st.text(st.characters(exclude_categories=("Cs",)), min_size=1, max_size=8)


@st.composite
def sign_samples(draw) -> SignSample:
    """Any subset and order of landmarks per frame, coordinates finite or
    NaN (whole rows too), and a label that is None or in [0, 250)."""
    frame_indices = draw(st.lists(st.integers(0, 2**63 - 1), min_size=1,
                                  max_size=4, unique=True))
    rows = [
        LandmarkFrame(t, kind, index, *draw(_XYZ))
        for t in sorted(frame_indices)
        for kind, index in draw(st.lists(st.sampled_from(_ROW_KEYS), min_size=1,
                                         max_size=6, unique=True))
    ]
    label = draw(st.one_of(st.none(), st.integers(0, 249)))
    return SignSample(draw(_SAMPLE_IDS), rows, label)
