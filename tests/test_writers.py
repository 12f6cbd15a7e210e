"""Every output file is written through `jsonio.replacing`: whole or not at all."""

import ast
import hashlib
import os
import re
import resource
import signal
from contextlib import contextmanager

import numpy as np
import pytest

from signpipe.landmarks import LabelMap, read_corpus, write_corpus, write_label_map
from signpipe.nn import ModelConfig, save_tensors
from signpipe.preprocess import SelectionSpec

from conftest import make_sample, package_sites, scoped_nodes


def _samples():
    return [make_sample("a", num_frames=2, seed=1, with_missing=True),
            make_sample('b,"ü"', num_frames=1, seed=2, label=None)]


# Each writer with one fixed input, and the sha256 of the bytes it writes.
WRITERS = {
    "corpus": (
        lambda path: write_corpus(_samples(), path),
        "8c51e78a4589f8db207a6f446d2ac8706dca40244fbe2c1de55196cf55f85034"),
    "label-map": (
        lambda path: write_label_map(LabelMap(("hello", "naïve", "日本", 'say "hi"')), path),
        "d079da9043d5ea7a940c9fed7aab26660c81a1cba1a52db4852ac7e68783f9c1"),
    "model-config": (
        lambda path: ModelConfig(input_dim=6, extractor_dims=(8,), model_dim=8,
                                 num_layers=2, num_heads=2, ff_dim=16,
                                 num_classes=5, max_seq_len=4).save(path),
        "af3ba4da2647ac899bd0d92cc2dfc2a43d11bb386cedd99786ce06cab303373f"),
    "selection-spec": (
        lambda path: SelectionSpec(lips=(0, 13), pose=(11, 12)).save(path),
        "23d2c3f8b7eed744aad8fd7dccea4eb2813c3be20970fc1b67695a21b1fa436e"),
    "tensors": (
        lambda path: save_tensors({"w": np.arange(6, dtype=np.float32).reshape(2, 3),
                                   "b": np.float32(-1.5), "é": np.zeros((0, 4))}, path),
        "abd11c91c7c8f41f9bffb3866f57bf1d7fe4795429a5b641e2333bde39ecd9b9"),
}
OLD = b"the previous output\n"


@contextmanager
def file_size_limit(limit: int):
    """Any write past `limit` bytes of a file fails with EFBIG, as on a full
    disk. The limit is this process's own (RLIMIT_FSIZE)."""
    soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
    handler = signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
    resource.setrlimit(resource.RLIMIT_FSIZE, (limit, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
        signal.signal(signal.SIGXFSZ, handler)


@pytest.mark.parametrize("writer", WRITERS)
def test_output_bytes_are_pinned(tmp_path, writer):
    write, digest = WRITERS[writer]
    write(tmp_path / "out")
    assert hashlib.sha256((tmp_path / "out").read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("writer", WRITERS)
def test_a_write_that_fails_midway_leaves_the_old_file(tmp_path, writer):
    path = tmp_path / "out"
    path.write_bytes(OLD)
    with file_size_limit(8), pytest.raises(OSError, match="too large"):
        WRITERS[writer][0](path)
    assert path.read_bytes() == OLD
    assert os.listdir(tmp_path) == ["out"]


def test_a_corpus_whose_samples_fail_midway_leaves_the_old_file(tmp_path):
    def samples():
        yield make_sample("a")
        raise RuntimeError("the second sample is lost")

    path = tmp_path / "corpus.csv"
    path.write_bytes(OLD)
    with pytest.raises(RuntimeError, match="second sample"):
        write_corpus(samples(), path)
    assert path.read_bytes() == OLD
    assert os.listdir(tmp_path) == ["corpus.csv"]


def test_a_symlinked_target_is_followed(tmp_path):
    (tmp_path / "d").mkdir()
    target = tmp_path / "d" / "target.csv"
    target.write_bytes(OLD)
    link = tmp_path / "link.csv"
    link.symlink_to("d/target.csv")
    write_corpus(_samples(), link)
    assert link.is_symlink() and os.readlink(link) == "d/target.csv"
    assert read_corpus(target) == _samples()
    assert not list(tmp_path.rglob("*.tmp"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
def test_a_link_to_an_open_descriptor_writes_its_file(tmp_path):
    # /dev/stdout is such a link: to /proc/self/fd/1, which names the file
    # that stdout was redirected to.
    out = tmp_path / "out.bin"
    with open(out, "wb") as f:
        link = tmp_path / "stdout"
        link.symlink_to(f"/proc/self/fd/{f.fileno()}")
        WRITERS["tensors"][0](link)
    assert link.is_symlink()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == WRITERS["tensors"][1]


# -- the one write path -----------------------------------------------------

# Where a module may open a file for writing itself: the writer every other
# output goes through, and the robot log, which is streamed so that it keeps
# what was received up to a failure.
ALLOWED = {("jsonio.py", "replacing"), ("netpipe/robot.py", "robot_sim")}
_WRITE_MODE = re.compile(r"[rbt]*[wax+][rwxabt+]*")


def write_sites(source: str, module: str) -> list[str]:
    """`module:line` of each call in source that opens a file for writing:
    an `open` or `.open` with a w, a, x or + mode, or a `.write_text` or
    `.write_bytes` method. Calls inside the functions ALLOWED names are left
    out."""
    sites = []
    for node, scope in scoped_nodes(source):
        if isinstance(node, ast.Call) and (module, scope) not in ALLOWED:
            method = getattr(node.func, "attr", None)
            opens = "open" in (method, getattr(node.func, "id", None))
            modes = [*node.args[:2], *(k.value for k in node.keywords if k.arg == "mode")]
            if method in ("write_text", "write_bytes") or opens and any(
                    isinstance(m, ast.Constant) and isinstance(m.value, str)
                    and _WRITE_MODE.fullmatch(m.value) for m in modes):
                sites.append(f"{module}:{node.lineno}")
    return sites


def test_the_guard_finds_each_kind_of_write():
    source = """
import os
def f(path, p):
    open(path, "w"); open(path, mode="ab"); p.open("x"); p.open("r+")
    p.write_text("t"); p.write_bytes(b"b")
    open(path); open(path, "rb"); p.open(newline=""); os.open(path, os.O_RDONLY)
    write_text(path, "t")
def replacing(path):
    open(path, "wb")
"""
    assert write_sites(source, "m.py") == ["m.py:4"] * 4 + ["m.py:5"] * 2 + ["m.py:9"]
    assert write_sites(source, "jsonio.py") == ["jsonio.py:4"] * 4 + ["jsonio.py:5"] * 2


def test_no_module_opens_a_file_for_writing_itself():
    assert package_sites(write_sites) == []
