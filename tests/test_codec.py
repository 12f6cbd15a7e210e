"""The wire codec's two readers and two writers give one result: orjson's
fast path and the json module's exact path agree on every frame, value,
error and message, and real-looking clips stay on the fast path. The codec
builds and walks a clip with the cyclic garbage collector paused, and
restores the state it found."""

import ast
import gc
import json
import math
import os
import struct
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import orjson
import pytest
from hypothesis import given, settings, strategies as st

from signpipe import jsonio
from signpipe.errors import FrameError, ValidationError
from signpipe.jsonio import _NOT_JSON, check_json, gc_paused, parse_json
from signpipe.landmarks import (KIND_CAPACITY, LandmarkFrame, LandmarkKind, LandmarkRows,
                                SignSample)
from signpipe.netpipe import (
    MAX_FRAME_BYTES,
    FrameDecoder,
    WireMessage,
    decode_frame,
    encode_frame,
    landmarks_message,
    result_message,
    sample_from_body,
    sample_to_body,
)
from signpipe.netpipe import wire

from conftest import make_sample


def reference_encode_frame(msg: WireMessage) -> bytes:
    """The json.dumps encoder that orjson's fast path stands in for, kept as
    its reference."""
    try:
        payload = json.dumps(
            {"type": msg.type, "body": msg.body},
            separators=(",", ":"),
            ensure_ascii=False,
            allow_nan=False,
        ).encode("utf-8")
    except (TypeError, ValueError) as e:
        raise FrameError(f"body is not wire-encodable: {e}") from None
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(
            f"payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame cap"
        )
    return struct.pack(">I", len(payload)) + payload


def reference_parse_json(data: bytes, what: str, error: type[Exception], shape=dict):
    """The json.loads reader that orjson's fast path stands in for."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise error(f"{what}: not UTF-8 text ({e})") from None
    try:
        value = json.loads(text, parse_constant=lambda token: _NOT_JSON)
    except (ValueError, RecursionError) as e:
        raise error(f"{what}: invalid JSON ({e})") from None
    return check_json(value, what, error, shape)


def outcome(call, *args):
    """What a call gives, with the exact type of every value and each float
    by its repr, or the type and message of what it raises."""
    def canon(v):
        if isinstance(v, dict):
            return "dict", [(k, canon(x)) for k, x in v.items()]
        if isinstance(v, (list, tuple)):
            return type(v).__name__, [canon(x) for x in v]
        return type(v).__name__, float.__repr__(v) if isinstance(v, float) else v
    try:
        return "value", canon(call(*args))
    except Exception as e:
        return "error", type(e).__name__, str(e)


def floats_in(value):
    if isinstance(value, dict):
        return [f for v in value.values() for f in floats_in(v)]
    if isinstance(value, (list, tuple)):
        return [f for v in value for f in floats_in(v)]
    return [value] if isinstance(value, float) else []


# -- encode --------------------------------------------------------------------

_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(2**63 - 2, 2**66), st.integers(-2**66, -2**63 + 2),
    st.floats(), st.sampled_from([math.nan, math.inf, -math.inf]),
    st.floats().map(np.float64),
    st.text(max_size=6), st.sampled_from(["\ud800", "a\udfffb"]),
    st.binary(max_size=3),
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=24)
_BODIES = st.dictionaries(st.text(max_size=4), _VALUES, max_size=4)


class TestEncode:
    @settings(deadline=None, max_examples=400)
    @given(_BODIES)
    def test_matches_the_json_encoder(self, body):
        msg = WireMessage("RESULT", body)
        expected = outcome(reference_encode_frame, msg)
        got = outcome(encode_frame, msg)
        if expected[0] == "error" or got[0] == "error":
            assert got == expected
            return
        frame, reference = encode_frame(msg), reference_encode_frame(msg)
        assert json.loads(frame[4:]) == json.loads(reference[4:])
        assert struct.unpack(">I", frame[:4])[0] == len(frame) - 4
        if not any("e" in float.__repr__(f) for f in floats_in(body)):
            assert frame == reference

    @pytest.mark.parametrize("value", [
        math.nan, -math.inf, np.float64("inf"), [[0.5, [math.nan]]],
        {"a": {"b": (1, math.inf)}}, [1e308, 1e308, math.inf],
    ])
    def test_a_non_finite_float_anywhere_raises(self, value):
        with pytest.raises(FrameError, match="Out of range float values"):
            encode_frame(WireMessage("RESULT", {"x": value}))

    @pytest.mark.parametrize("body", [
        {"x": 2**64}, {"x": b"raw"}, {"x": "\ud800"}, {1: "int key"},
        {"x": np.int64(3)}, {"x": np.float32(0.5)}, {"x": {1, 2}},
    ])
    def test_what_orjson_refuses_is_the_json_encoders_call(self, body):
        msg = WireMessage("RESULT", body)
        assert outcome(encode_frame, msg) == outcome(reference_encode_frame, msg)

    def test_values_orjson_would_write_itself_take_the_json_path(self):
        import dataclasses
        import datetime
        import enum
        import uuid

        @dataclasses.dataclass
        class Point:
            x: int = 1

        class Colour(enum.Enum):
            RED = 1

        class Text(str):
            pass

        for value in (Point(), Colour.RED, uuid.UUID(int=5), datetime.date(2020, 1, 2),
                      Text("t"), enum.IntEnum("Level", "LOW").LOW):
            msg = WireMessage("RESULT", {"x": [value]})
            assert outcome(encode_frame, msg) == outcome(reference_encode_frame, msg)

    def test_a_cycle_is_named_not_walked_forever(self):
        loop = []
        loop.extend([loop, loop])
        with pytest.raises(FrameError, match="Circular reference"):
            encode_frame(WireMessage("RESULT", {"x": loop}))

    def test_exponent_floats_are_the_same_double(self):
        body = {"x": [1e-05, 1e16, -2e-05, 3.5e-07, 1.7976931348623157e308, 5e-324]}
        frame = encode_frame(WireMessage("RESULT", body))
        assert frame[4:] == (b'{"type":"RESULT","body":{"x":[0.00001,1e16,-0.00002,'
                             b'3.5e-7,1.7976931348623157e308,5e-324]}}')
        assert json.loads(frame[4:])["body"] == body

    def test_np_float64_is_written_as_its_float(self):
        msg = WireMessage("RESULT", {"gloss": "g", "confidence_pct": np.float64(93.25)})
        assert encode_frame(msg) == reference_encode_frame(msg)


# -- decode --------------------------------------------------------------------

_NUMBER_TOKENS = st.from_regex(
    r"-?(0|[1-9][0-9]{0,24})(\.[0-9]{1,24})?([eE][-+]?[0-9]{1,3})?", fullmatch=True)
_TOKEN_TEXTS = st.lists(
    st.one_of(_NUMBER_TOKENS, st.sampled_from(["NaN", "Infinity", "-Infinity"])),
    min_size=1, max_size=6).map(lambda tokens: '{"v": [' + ", ".join(tokens) + "]}")
_VALUE_TEXTS = st.builds(
    lambda value, ascii_only, indent: json.dumps({"v": value}, ensure_ascii=ascii_only,
                                                 indent=indent),
    _VALUES.map(lambda v: json.loads(json.dumps(v, default=repr))),
    st.booleans(), st.sampled_from([None, 0, 2]))
_PAYLOADS = st.one_of(
    _TOKEN_TEXTS.map(str.encode),
    _VALUE_TEXTS.map(lambda text: text.encode("utf-8", "surrogatepass")),
    st.binary(max_size=24),
    st.binary(max_size=12).map(lambda junk: b'{"v": "' + junk + b'"}'),
)


class TestDecode:
    @settings(deadline=None, max_examples=400)
    @given(_PAYLOADS, st.booleans())
    def test_matches_the_json_reader(self, payload, as_bytearray):
        data = bytearray(payload) if as_bytearray else payload
        assert outcome(parse_json, data, "payload", FrameError) == outcome(
            reference_parse_json, payload, "payload", FrameError)

    @pytest.mark.parametrize("payload", [
        b'{"v": -9999999999999999999}',
        b'{"v": 18446744073709551616}',
        b'{"v": 18446744073709551615}',
        b'{"v": -9223372036854775809}',
        b'{"v": [1, 12345678901234567890123]}',
        b'{"v": 1234567890123456789.5}',
        b'{"v": 0.0012345678901234567}',
        b'{"v": "12345678901234567890123"}',
        b'{"v": 1e400}',
        b'{"v": -1e400}',
        b'{"v": "\\ud800"}',
        b'{"v": "\\\\\\"[[{"}',
        b'\xef\xbb\xbf{"v": 1}',
        b'{"v": "\xff"}',
        b'{"v": "\xed\xa0\x80"}',
        b'{"v": 1, "w": 2, "v": 3}',
        b'{"v": NaN}',
        b'{"v": Infinity, "w": -Infinity}',
        b'[1, 2]',
        b'{"v": 1} x',
        b'',
    ], ids=repr)
    def test_edge_cases(self, payload):
        assert outcome(parse_json, payload, "payload", FrameError) == outcome(
            reference_parse_json, payload, "payload", FrameError)

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("key", ["checked", "unchecked"])
    def test_non_json_constants(self, token, key):
        payload = f'{{"{key}": {token}}}'.encode()
        shape = {"checked": float}
        assert outcome(parse_json, payload, "payload", FrameError, shape) == outcome(
            reference_parse_json, payload, "payload", FrameError, shape)

    @pytest.mark.parametrize("depth", [63, 64, 65, 999, 1001, 5000, 200_000])
    @pytest.mark.parametrize("opener, closer", [(b"[", b"]"), (b'{"a":', b"}")])
    def test_deep_nesting(self, depth, opener, closer):
        # orjson's reader overruns the C stack at ~100,000 nested objects.
        payload = b'{"v": ' + opener * depth + b"1" + closer * depth + b"}"
        got = outcome(parse_json, payload, "payload", FrameError)
        assert got == outcome(reference_parse_json, payload, "payload", FrameError)
        assert (got[0] == "error") is (depth > 900)

    def test_nesting_between_escaped_quotes_is_found(self):
        # Read as string delimiters, the escaped quotes would hide the nesting.
        payload = (b'{"v": ["\\"", ' + b"[" * 100_000 + b"]" * 100_000
                   + b', "\\""]}')
        assert outcome(parse_json, payload, "payload", FrameError) == outcome(
            reference_parse_json, payload, "payload", FrameError)


# -- the fast path on clips like real ones -------------------------------------

def _refuse(*args, **kwargs):
    raise AssertionError("the json module was called")


def real_looking_sample() -> SignSample:
    """Coordinates like MediaPipe's: z near 0, so repr spells many of them
    with an exponent, and x and y with runs of fraction digits."""
    rng = np.random.default_rng(11)
    rows = []
    for t in range(4):
        for i in range(21):
            x, y = rng.uniform(1e-4, 1e-2, size=2)
            z = [3.5e-07, -2e-05, 0.0012345678901234567, -1e-4][i % 4] * (t + 1)
            rows.append(LandmarkFrame(t, LandmarkKind.RIGHT_HAND, i, float(x), float(y), z))
        rows.append(LandmarkFrame(t, LandmarkKind.POSE, 11, math.nan, math.nan, math.nan))
    return SignSample("real", rows)


def test_real_looking_clips_never_reach_the_json_module(monkeypatch):
    sample = real_looking_sample()
    monkeypatch.setattr(wire, "json", SimpleNamespace(dumps=_refuse))
    monkeypatch.setattr(jsonio, "json", SimpleNamespace(loads=_refuse))
    frame = encode_frame(landmarks_message(sample))
    [msg] = FrameDecoder().feed(frame)
    assert sample_from_body(msg.body) == sample


# -- the collector is paused while the codec runs ------------------------------

def _failing_rows():
    def tolist(missing=None):
        raise ValidationError("rows cannot be listed")
    return SimpleNamespace(sample_id="s", frames=SimpleNamespace(tolist=tolist))


_LANDMARKS_BODY = sample_to_body(make_sample())
# Each codec function: what it calls inside the pause (an owner and the name
# there), a call that returns, a call that raises, and what that raises.
_PAUSED = {
    "parse_json orjson": (orjson, "loads", lambda: parse_json(b'{"a": [1]}', "p", FrameError),
                          lambda: parse_json(b'{"a": [1', "p", FrameError), FrameError),
    "parse_json json": (json, "loads", lambda: parse_json('{"a": [1]}', "p", FrameError),
                        lambda: parse_json('{"a": NaN', "p", FrameError), FrameError),
    "encode_frame": (orjson, "dumps", lambda: encode_frame(result_message("g", 9.5)),
                     lambda: encode_frame(WireMessage("RESULT", {"x": [math.nan]})),
                     FrameError),
    "sample_to_body": (LandmarkRows, "tolist", lambda: sample_to_body(make_sample()),
                       lambda: sample_to_body(_failing_rows()), ValidationError),
    "sample_from_body": (wire, "LandmarkRows", lambda: sample_from_body(_LANDMARKS_BODY),
                         lambda: sample_from_body({"sample": {"id": "s", "frames": [[0]]}}),
                         ValidationError),
}


@pytest.mark.parametrize("name", _PAUSED)
class TestPause:
    def test_paused_inside_and_enabled_again_after_a_return(self, name, monkeypatch):
        owner, attr, returns, _, _ = _PAUSED[name]
        inner, enabled = getattr(owner, attr), []

        def spy(*args, **kwargs):
            enabled.append(gc.isenabled())
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, attr, spy)
        returns()
        assert enabled == [False]
        assert gc.isenabled()

    def test_enabled_again_after_a_raise(self, name):
        _, _, _, raises, error = _PAUSED[name]
        with pytest.raises(error):
            raises()
        assert gc.isenabled()

    def test_a_collector_the_caller_disabled_stays_disabled(self, name):
        _, _, returns, raises, error = _PAUSED[name]
        gc.disable()
        try:
            returns()
            assert not gc.isenabled()
            with pytest.raises(error):
                raises()
            assert not gc.isenabled()
        finally:
            gc.enable()


def collector_enabled_in_a_child() -> bool:
    """gc.isenabled() in a child forked now."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.write(write, b"1" if gc.isenabled() else b"0")
        os._exit(0)
    os.close(write)
    with open(read, "rb") as pipe:
        state = pipe.read()
    os.waitpid(pid, 0)
    return state == b"1"


@pytest.mark.parametrize("enabled", [True, False])
def test_a_child_forked_during_a_pause_starts_with_the_state_it_found(enabled):
    """A server forks its children from the accept thread while another
    thread may be encoding: no thread in the child will end that pause."""
    inside, leave = threading.Event(), threading.Event()

    def hold():
        with gc_paused():
            inside.set()
            leave.wait(10)

    thread = threading.Thread(target=hold)
    if not enabled:
        gc.disable()
    try:
        thread.start()
        assert inside.wait(10)
        assert not gc.isenabled()
        assert collector_enabled_in_a_child() is enabled
    finally:
        leave.set()
        thread.join(10)
        gc.enable()
    assert not thread.is_alive()


def holistic_sample(frames: int) -> SignSample:
    """Every landmark of every kind in each frame, as a Holistic clip sends."""
    keys = [(kind.value, index) for kind in LandmarkKind for index in range(KIND_CAPACITY[kind])]
    rows = [(t, kind, index) for t in range(frames) for kind, index in keys]
    xyz = np.random.default_rng(5).uniform(0.1, 0.9, size=(len(rows), 3))
    return SignSample("holistic", LandmarkRows(*zip(*rows), xyz))


def test_a_clip_round_trip_starts_at_most_four_collections():
    sample = holistic_sample(20)
    assert len(sample.frames) >= 10_000
    started = []

    def count(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        received = sample_from_body(decode_frame(encode_frame(landmarks_message(sample))).body)
    finally:
        gc.callbacks.remove(count)
    assert received == sample
    assert len(started) <= 4, started


# -- only gc_paused switches the collector -------------------------------------

_GC_SWITCHES = {"disable", "enable", "freeze", "set_threshold"}


def gc_switch_sites(source: str, module: str) -> list[str]:
    """`module:line` of each use of gc.disable, gc.enable, gc.freeze or
    gc.set_threshold, however gc is imported, outside jsonio.gc_paused."""
    tree = ast.parse(source)
    exempt = {id(node) for top in tree.body
              if module == "jsonio.py" and isinstance(top, ast.ClassDef)
              and top.name == "gc_paused" for node in ast.walk(top)}
    names = {alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.Import) for alias in node.names if alias.name == "gc"}
    return sorted(
        (f"{module}:{node.lineno}" for node in ast.walk(tree) if id(node) not in exempt
         and (isinstance(node, ast.Attribute) and node.attr in _GC_SWITCHES
              and isinstance(node.value, ast.Name) and node.value.id in names
              or isinstance(node, ast.ImportFrom) and node.module == "gc"
              and _GC_SWITCHES & {alias.name for alias in node.names})),
        key=lambda site: int(site.rsplit(":", 1)[1]))


def test_the_guard_finds_each_switch_of_the_collector():
    source = """
import gc
import gc as collector
from gc import freeze
from gc import collect, set_threshold
def f():
    gc.disable(); collector.enable()
    logging.disable(10); gc.collect(); gc.isenabled()
class gc_paused:
    def __enter__(self):
        gc.disable()
"""
    assert gc_switch_sites(source, "m.py") == [
        "m.py:4", "m.py:5", "m.py:7", "m.py:7", "m.py:11"]
    assert gc_switch_sites(source, "jsonio.py") == [
        "jsonio.py:4", "jsonio.py:5", "jsonio.py:7", "jsonio.py:7"]


def test_only_gc_paused_switches_the_collector():
    root = Path(jsonio.__file__).parent
    sources = {path.relative_to(root).as_posix(): path.read_text(encoding="utf-8")
               for path in sorted(root.rglob("*.py"))}
    assert [site for module, source in sources.items()
            for site in gc_switch_sites(source, module)] == []
    assert gc_switch_sites(sources["jsonio.py"], "elsewhere.py")  # the helper's own
