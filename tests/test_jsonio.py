"""The checked JSON reader and every loader that goes through it."""

import ast
import io
import json
import math
import struct
from types import SimpleNamespace

import pytest

from signpipe.cli import _load_config_file
from signpipe.dialogue import API_KEY_ENV, HttpLlmBackend, PromptTemplate
from signpipe.errors import (
    BackendError,
    FrameError,
    TemplateError,
    UsageError,
    ValidationError,
)
from signpipe.gesture import descriptors_from_json, load_descriptors
from signpipe.jsonio import check_json
from signpipe.landmarks import read_label_map
from signpipe.netpipe import decode_frame
from signpipe.nn import ModelConfig
from signpipe.preprocess import SelectionSpec

from conftest import module_names, orjson_sites, package_sites, package_sources, scoped_nodes


def _from_file(load):
    def call(tmp_path, data: bytes, monkeypatch):
        path = tmp_path / "input.json"
        path.write_bytes(data)
        return load(path)
    return call


def _from_llm(tmp_path, data: bytes, monkeypatch):
    monkeypatch.setenv(API_KEY_ENV, "k")
    monkeypatch.setattr("urllib.request.urlopen",
                        lambda request, timeout: io.BytesIO(data))
    return HttpLlmBackend("http://127.0.0.1:9", "m").complete("hi")


# loader -> (its error class, how to feed it bytes, a wrongly typed field)
LOADERS = {
    "config file": (
        UsageError,
        _from_file(lambda p: _load_config_file(SimpleNamespace(config=str(p)))),
        b'{"port": [9470]}'),
    "model config": (ValidationError, _from_file(ModelConfig.load),
                     b'{"input_dim": "176"}'),
    "selection spec": (ValidationError, _from_file(SelectionSpec.load),
                       b'{"lips": [true]}'),
    "descriptor db": (
        ValidationError, _from_file(load_descriptors),
        b'[{"tag": 5, "description": "d", "playtime_s": 1, "body_parts": ["Neck"]}]'),
    "label map": (ValidationError, _from_file(read_label_map), b'["a", 5]'),
    "template": (TemplateError, _from_file(lambda p: PromptTemplate.load(p, p)),
                 b'{"gloss": 5}'),
    "wire frame": (FrameError,
                   lambda tmp_path, data, mp: decode_frame(
                       struct.pack(">I", len(data)) + data),
                   b'{"type": 5, "body": {}}'),
    "LLM reply": (BackendError, _from_llm,
                  b'{"choices": [{"message": {"content": 5}}]}'),
}

MALFORMED = {
    "not-utf8": b"\xff\xfe{}",
    "invalid-json": b"{nope",
    "5000-digit-int": b"9" * 5000,
    "deep-nesting": b"[" * 100_000,
    "wrong-top-level": b'"text"',
}


@pytest.mark.parametrize("case", [*MALFORMED, "wrong-field"])
@pytest.mark.parametrize("loader", LOADERS)
def test_every_loader_raises_only_its_own_error(loader, case, tmp_path, monkeypatch):
    error, call, wrong_field = LOADERS[loader]
    data = wrong_field if case == "wrong-field" else MALFORMED[case]
    with pytest.raises(Exception) as exc:
        call(tmp_path, data, monkeypatch)
    assert type(exc.value) is error, repr(exc.value)


@pytest.mark.parametrize("parse, text, field", [
    (descriptors_from_json,
     '[{"tag": "A", "description": "d", "playtime_s": "abc", "body_parts": ["Neck"]}]',
     "playtime_s"),
    (descriptors_from_json,
     '[{"tag": 5, "description": "d", "playtime_s": 1, "body_parts": ["Neck"]}]',
     "tag"),
    (SelectionSpec.from_json, '{"lips": [true]}', "lips"),
    (lambda text: ModelConfig.from_dict(json.loads(text)), '{"input_dim": "176"}',
     "input_dim"),
    (lambda text: ModelConfig.from_dict(json.loads(text)), '{"extractor_dims": 5}',
     "extractor_dims"),
])
def test_wrongly_typed_field_is_named(parse, text, field):
    with pytest.raises(ValidationError, match=field):
        parse(text)


def test_nested_llm_reply_is_backend_error(tmp_path, monkeypatch):
    with pytest.raises(BackendError, match="invalid JSON"):
        _from_llm(tmp_path, b"[" * 100_000, monkeypatch)


def test_llm_reply_without_choices(tmp_path, monkeypatch):
    with pytest.raises(BackendError, match="choices"):
        _from_llm(tmp_path, b'{"choices": []}', monkeypatch)
    assert _from_llm(tmp_path, b'{"choices": [{"message": {"content": "hi"}}]}',
                     monkeypatch) == "hi"


class TestShapes:
    @pytest.mark.parametrize("value, shape", [
        (3, int), (3, float), (2.5, float), ("s", str), ([1, 2], [int]),
        ({"a": [1.5, 2]}, {"a": [float]}), ({"other": True}, {"a": int}),
        (1e308, float), (-1e308, float),
    ])
    def test_fits(self, value, shape):
        assert check_json(value, "x", ValidationError, shape) is value

    @pytest.mark.parametrize("value, shape, message", [
        (True, int, "x: expected an integer"),
        (False, float, "x: expected a number"),
        (2.0, int, "x: expected an integer"),
        ([1, "2"], [int], r"x: \[1\] must be an integer"),
        ({"a": {"b": None}}, {"a": {"b": str}}, "x: a.b must be a string"),
        (math.nan, float, "x: expected a finite number"),
        (math.inf, float, "x: expected a finite number"),
        (-math.inf, float, "x: expected a finite number"),
        pytest.param(10**400, float, "x: expected a finite number", id="400-digit-int"),
        ({"a": [1.0, math.inf]}, {"a": [float]}, r"x: a\[1\] must be a finite number"),
    ])
    def test_misfits(self, value, shape, message):
        with pytest.raises(ValidationError, match=message):
            check_json(value, "x", ValidationError, shape)

    def test_required_fields(self):
        assert check_json([{}], "x", ValidationError, [{"a": int}]) == [{}]
        with pytest.raises(ValidationError, match=r"x: missing field '\[0\].a'"):
            check_json([{}], "x", ValidationError, [{"a": int}], required=True)


# -- the one JSON parse site --------------------------------------------------

def json_read_sites(source: str, module: str) -> list[str]:
    """`module:line` of each call in source to json.load or json.loads,
    through the module (json.loads, or an alias of json) or through a name
    imported from it (from json import loads)."""
    nodes = scoped_nodes(source)
    modules = module_names(nodes, "json")
    names = {alias.asname or alias.name for node, _ in nodes
             if isinstance(node, ast.ImportFrom) and node.module == "json"
             for alias in node.names if alias.name in ("load", "loads")}
    return [f"{module}:{node.lineno}" for node, _ in nodes
            if isinstance(node, ast.Call) and (
                isinstance(node.func, ast.Attribute) and node.func.attr in ("load", "loads")
                and isinstance(node.func.value, ast.Name) and node.func.value.id in modules
                or isinstance(node.func, ast.Name) and node.func.id in names)]


def test_the_guard_finds_each_form_of_json_read():
    source = """
import json
import json as j
from json import loads, load as read
def f(text, fh, self):
    json.loads(text); json.load(fh)
    j.loads(text); loads(text); read(fh)
    json.dumps(text); load_json(text); self.load(fh); pickle.loads(text)
"""
    assert json_read_sites(source, "m.py") == ["m.py:6"] * 2 + ["m.py:7"] * 3


def test_json_is_parsed_only_in_jsonio():
    """So every reader takes the one rule for NaN, Infinity and -Infinity."""
    assert {site.split(":")[0] for site in package_sites(json_read_sites)} == {"jsonio.py"}


def test_the_guard_finds_each_use_of_orjson_loads():
    source = """
import orjson
import orjson as fast
from orjson import loads
from orjson import dumps, loads as read
from orjson import *
def f(data):
    orjson.loads(data); fast.loads(data)
    json.loads(data); fast.JSONDecodeError
    parse = orjson.loads
def loads_outlined(data):
    return orjson.loads(data)
def _read_landmarks(data):
    return orjson.loads(data), fast.loads(data), orjson.JSONDecodeError
def encode_frame():
    return orjson.loads(b"1")
"""
    # jsonio.py is a module like any other: every import and every use is a site.
    assert orjson_sites(source, "jsonio.py") == [
        "jsonio.py:2", "jsonio.py:3", "jsonio.py:4", "jsonio.py:5", "jsonio.py:6",
        "jsonio.py:8", "jsonio.py:8", "jsonio.py:10", "jsonio.py:12", "jsonio.py:14",
        "jsonio.py:14", "jsonio.py:16"]
    assert orjson_sites(source, "netpipe/wire.py") == [
        "netpipe/wire.py:4", "netpipe/wire.py:5", "netpipe/wire.py:6", "netpipe/wire.py:8",
        "netpipe/wire.py:8", "netpipe/wire.py:10", "netpipe/wire.py:12", "netpipe/wire.py:16"]


def test_orjson_parses_only_in_jsonio():
    """Named for where orjson's parse once was: jsonio now reads with json
    alone. orjson.loads runs only in wire._read_landmarks, after the outline
    has bounded the nesting that would overrun the C stack, and in
    landmarks._parse_numbers, on number text that holds no bracket."""
    assert orjson_sites(package_sources()["jsonio.py"], "jsonio.py") == []
    assert package_sites(orjson_sites) == []
