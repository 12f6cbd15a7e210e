"""The wire codec gives what the json module gives. encode_frame writes a
reply as json.dumps does and a clip, orjson's, in the same bytes up to how
a float with an exponent is spelled; parse_json reads as json.loads does;
and real-looking clips never reach the json module. A LANDMARKS frame
written from a sample's columns is the frame of its listed rows, and
encode_frame is the one writer. The decoder reads a LANDMARKS frame back
into checked columns in one pass, with the sample or the error the old
reader gives: written frames take that pass, rows that do not convert are
not parsed again, and of the frames the outline admits only one with a
long integer in an int column is read by json. The codec builds and walks a
clip with the cyclic garbage collector paused, and restores the state it
found."""

import ast
import gc
import json
import math
import os
import struct
import threading
from types import SimpleNamespace

import numpy as np
import orjson
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

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
from signpipe.synth import make_synthetic_samples

from conftest import (make_sample, module_names, orjson_sites, package_sites, package_sources,
                      scoped_nodes, sign_samples)


def reference_encode_frame(msg: WireMessage) -> bytes:
    """json.dumps as encode_frame calls it, kept as the reference for the
    clips that orjson writes and for the encoder that writes the rest."""
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
    """json.loads of UTF-8 bytes, as parse_json reads them."""
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
        assert outcome(encode_frame, msg) == outcome(reference_encode_frame, msg)

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
        sample = pose_sample("s", [[1e-05, 1e16, -2e-05],
                                   [3.5e-07, 1.7976931348623157e308, 5e-324]])
        frame = encode_frame(landmarks_message(sample))
        assert frame[4:] == (b'{"type":"LANDMARKS","body":{"sample":{"id":"s","frames":'
                             b'[[0,2,11,0.00001,1e16,-0.00002],'
                             b'[1,2,11,3.5e-7,1.7976931348623157e308,5e-324]]}}}')
        assert json.loads(frame[4:])["body"] == sample_to_body(sample)

    def test_a_reply_float_is_spelled_as_repr_spells_it(self):
        msg = WireMessage("RESULT", {"x": [1e-05, 1e16, -2e-05, 3.5e-07,
                                           1.7976931348623157e308, 5e-324]})
        frame = encode_frame(msg)
        assert frame[4:] == (b'{"type":"RESULT","body":{"x":[1e-05,1e+16,-2e-05,'
                             b'3.5e-07,1.7976931348623157e+308,5e-324]}}')
        assert frame == reference_encode_frame(msg)

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


# -- clips like real ones never reach the json module --------------------------

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


# -- a LANDMARKS frame is written from the sample's columns --------------------

def assert_written_as_listed(sample: SignSample) -> None:
    """encode_frame(landmarks_message(sample)), whose body holds the sample's
    LandmarkRows, against the json encoder of sample_to_body's listed rows:
    the same error and message, or the same value, in the same bytes where
    no listed float's repr has an exponent."""
    msg = landmarks_message(sample)
    assert msg.body["sample"]["frames"] is sample.frames
    listed = WireMessage("LANDMARKS", sample_to_body(sample))
    got = outcome(encode_frame, msg)
    expected = outcome(reference_encode_frame, listed)
    if got[0] == "error" or expected[0] == "error":
        assert got == expected
        return
    frame, reference = encode_frame(msg), reference_encode_frame(listed)
    assert json.loads(frame[4:]) == json.loads(reference[4:])
    if not any("e" in float.__repr__(f) for f in floats_in(listed.body)):
        assert frame == reference


def pose_sample(sample_id, xyz, frame_index=None) -> SignSample:
    """One pose landmark per frame, frames 0, 1, ... unless given."""
    frame_index = range(len(xyz)) if frame_index is None else frame_index
    return SignSample(sample_id, LandmarkRows(frame_index, [LandmarkKind.POSE.value] * len(xyz),
                                              [11] * len(xyz), xyz))


_ODD_IDS = st.sampled_from(['say "hi"', "back\\slash", "\x00\x01\n\t\x1f\x7f", "\u2028",
                            "\U0001f91f sign", "\ud800", "a\udfffb"])


class TestLandmarksWriter:
    @settings(deadline=None, max_examples=300)
    @given(sign_samples(), st.one_of(st.none(), st.text(min_size=1, max_size=8), _ODD_IDS))
    def test_matches_the_listed_body(self, sample, sample_id):
        assert_written_as_listed(sample if sample_id is None
                                 else SignSample(sample_id, sample.frames))

    @pytest.mark.parametrize("xyz", [
        [[math.nan] * 3] * 3,
        [[-0.0, 0.0, -0.0]],
        [[5e-324, -5e-324, 1e-7]],
        [[0.1 + 0.2, 1e-05, 1e16], [math.nan, 2.5e-08, -1.7976931348623157e308]],
    ], ids=["all-nan", "signed-zero", "subnormal-and-1e-7", "repr-digits"])
    def test_coordinates(self, xyz):
        assert_written_as_listed(pose_sample("s", xyz))

    def test_the_largest_frame_index(self):
        assert_written_as_listed(pose_sample("s", [[0.5, math.nan, 0.25]] * 2,
                                             frame_index=[0, 2**63 - 1]))

    @pytest.mark.parametrize("sample_id", [
        'say "hi"', "back\\slash", "".join(map(chr, range(32))) + "\x7f", "\U0001f91f sign",
        "\ud800", "a\udfffb", 7, 2**64, b"bytes", ("a", "b"),
    ], ids=repr)
    def test_ids(self, sample_id):
        assert_written_as_listed(pose_sample(sample_id, [[0.5, 0.5, math.nan]]))


def holistic_sample(frames: int, missing_hands: bool = False) -> SignSample:
    """Every landmark of every kind in each frame, as a Holistic clip sends;
    with missing_hands, one hand's rows are null in every fifth frame."""
    keys = [(kind.value, index) for kind in LandmarkKind for index in range(KIND_CAPACITY[kind])]
    rows = [(t, kind, index) for t in range(frames) for kind, index in keys]
    xyz = np.random.default_rng(5).uniform(0.1, 0.9, size=(len(rows), 3))
    if missing_hands:
        hand = np.array([kind == LandmarkKind.LEFT_HAND.value for _, kind, _ in rows])
        xyz[hand & (np.array([t for t, _, _ in rows]) % 5 == 0)] = math.nan
    return SignSample("holistic", LandmarkRows(*zip(*rows), xyz))


# -- a LANDMARKS frame is read into checked columns in one pass ----------------

def reference_feed(frame: bytes) -> list[WireMessage]:
    """FrameDecoder.feed on one whole frame as it read every frame before the
    one-pass LANDMARKS reader: parse_json, then the key and type checks."""
    obj = parse_json(frame[4:], "payload", FrameError, {"type": str, "body": dict})
    if obj.keys() != {"type", "body"}:
        raise FrameError("payload must have exactly the keys 'type' and 'body'")
    if obj["type"] not in wire.WIRE_TYPES:
        raise FrameError(f"unknown message type {obj['type']!r}")
    return [WireMessage(obj["type"], obj["body"])]


def _require(values, allowed: set, what: str, key=type) -> None:
    if not set(map(key, values)) <= allowed:
        row = next(i for i, v in enumerate(values) if key(v) not in allowed)
        raise ValidationError(f"sample frame {row}: {what}")


def reference_sample_from_body(body: dict) -> SignSample:
    """sample_from_body of a body with listed rows, as it was before the
    one-pass reader: the reference that reader stands in for."""
    check_json(body, "LANDMARKS body", ValidationError,
               {"sample": {"id": str, "frames": list}}, required=True)
    sample_id, rows = body["sample"]["id"], body["sample"]["frames"]
    _require(rows, {list}, "expected an array of 6 elements")
    _require(rows, {6}, "expected 6 elements", key=len)
    frame_index, kind, landmark_index, *xyz = list(zip(*rows)) or [()] * 6
    _require(frame_index, {int}, "frame index must be an int")
    _require(kind, {int}, "kind code must be an int")
    _require(landmark_index, {int}, "landmark index must be an int")
    for column in xyz:
        _require(column, {int, float, type(None)}, "coordinate is not a number")
    try:
        coords = np.array(xyz, dtype=np.float64).T  # null -> NaN
    except OverflowError:
        raise ValidationError("sample frames: coordinate outside the float64 range") from None
    return SignSample(sample_id, LandmarkRows(frame_index, kind, landmark_index, coords))


def read_with(feed, build, frame: bytes):
    """The layer and error a frame ends in, or the sample it gives with every
    column's dtype, shape and bytes."""
    try:
        [msg] = feed(frame)
    except FrameError as e:
        return "BAD_FRAME", type(e).__name__, str(e)
    if msg.type != "LANDMARKS":
        return "type", msg.type
    try:
        sample = build(msg.body)
    except ValidationError as e:
        return "PROTOCOL", type(e).__name__, str(e)
    return "sample", sample.sample_id, sample.label, [
        (column.dtype.str, column.shape, column.tobytes())
        for column in (sample.frames.frame_index, sample.frames.kind,
                       sample.frames.landmark_index, sample.frames.xyz)]


def assert_read_as_today(frame: bytes):
    """The decoder and sample_from_body give what the reference reader gives;
    returns the decoded message, or None if the frame raised."""
    got = read_with(lambda f: FrameDecoder().feed(f), sample_from_body, frame)
    assert got == read_with(reference_feed, reference_sample_from_body, frame)
    return None if got[0] == "BAD_FRAME" else FrameDecoder().feed(frame)[0]


def framed(payload: bytes) -> bytes:
    return struct.pack(">I", len(payload)) + payload


_INT_TOKENS = [
    "null", "true", "false", "3.0", "1e0", "-0", '"3"', "[]", "{}", "[1]",
    "9223372036854775807", "9223372036854775808", "-9223372036854775808",
    "-9223372036854775809", "18446744073709551615", "18446744073709551616",
    "1" + "0" * 18, "1" + "0" * 399, "1e0000000000000000001", "1.5e400",
    "9.2e18", "9.3e18", "-9.3e18", "1e19",  # floats either side of 2**63
    "NaN", "Infinity", "-Infinity",
    # orjson's largest double and the first token it refuses, and a rounding tie
    str(2**1024 - 2**970 - 1), str(2**1024 - 2**970), str(-2**1024 + 2**970 + 1),
    str(-2**1024 + 2**970), str(2**64 + 2**11), str(2**64 + 2**11 + 1),
]
_COORD_TOKENS = [
    "null", "true", "false", "0", "-0", "-0.0", "1", "0.5", "1e-05", "3.5e-7", "1E+2",
    "5e-324", "1e-400", "1e308", "1.7976931348623157e308", "9.2e18", "9.3e18", "-9.3e18",
    "9223372036854775807", "9223372036854775808", "-9223372036854775809",
    "18446744073709551616", "12345678901234567890123", "-12345678901234567890123",
    "1" * 25 + ".5", "0." + "0" * 398 + "1", "1" + "0" * 399, "-" + "9" * 400,
    "1e0000000000000000001", "1e-0000000000000000000002", "1.5e400", "-1.5e400",
    "NaN", "Infinity", "-Infinity", '"0.5"', "[]", "[0.5]", "{}",
    str(2**1024 - 2**970 - 1), str(2**1024 - 2**970), str(-2**1024 + 2**970 + 1),
    str(-2**1024 + 2**970), str(2**64 + 2**11), str(2**64 + 2**11 + 1),
]
_ROW_TOKENS = ["5", "null", "true", '"row"', "{}", "[]", "[[0,2,11,0.5,0.5,0.5]]",
               '{"a":1}']
_DEPTHS = [2, 3, 64, 1000, 200_000]
_ID_TEXTS = st.one_of(
    st.text(st.characters(exclude_categories=("Cs",)), max_size=6).map(
        lambda i: json.dumps(i, ensure_ascii=False)),
    st.text(max_size=6).map(json.dumps),  # escapes: \uXXXX, \", \\, \n
    st.sampled_from([
        '"a\\u0074"', '"\\""', '"\\\\"', '"t[f{}]\\/"', '"tf[]{}"', '"a\x01"', '"\x1f"',
        '"\x7f"', '"\\ud800"', '""', '"  \U0001f91f"', "5", "null", "true", "[]",
        '"a" "b"',
    ]),
).map(lambda text: text.encode("utf-8", "surrogatepass")) | st.sampled_from(
    [b'"\xff"', b'"\xed\xa0\x80"', b'"\xc0\x80"'])


@st.composite
def landmarks_frames(draw) -> bytes:
    """A LANDMARKS frame as landmarks_message writes it, or with up to three
    faults in its values, rows, id, keys, whitespace or nesting."""
    sample = draw(sign_samples())
    rows = [[json.dumps(value) for value in row] for row in sample.frames.tolist()]
    index = st.integers(0, len(rows) - 1)
    id_text = json.dumps(sample.sample_id, ensure_ascii=False).encode("utf-8")
    layout, kinds = set(), ["int", "coord", "length", "row", "nest", "empty", "id",
                            "extra", "repeat", "reorder", "rename", "space", "type"]
    # Faults in values come before those that replace a row or the rows.
    for fault in sorted(draw(st.lists(st.sampled_from(kinds), max_size=3)), key=kinds.index):
        if fault == "int" and rows:
            rows[draw(index)][draw(st.integers(0, 2))] = draw(st.sampled_from(_INT_TOKENS))
        elif fault == "coord" and rows:
            rows[draw(index)][draw(st.integers(3, 5))] = draw(
                st.sampled_from(_COORD_TOKENS) | st.floats().map(repr))
        elif fault == "length" and rows:
            i = draw(index)
            rows[i] = (rows[i] * 2)[:draw(st.integers(0, 12).filter(lambda n: n != 6))]
        elif fault == "row" and rows:
            rows[draw(index)] = draw(st.sampled_from(_ROW_TOKENS))
        elif fault == "nest" and rows:
            depth = draw(st.sampled_from(_DEPTHS))
            rows[draw(index)] = "[" * depth + "]" * depth
        elif fault == "empty":
            rows = []
        elif fault == "id":
            id_text = draw(_ID_TEXTS)
        else:
            layout.add(fault)
    if not draw(st.integers(0, 3)):  # now and then a frame whose rows all fail
        rows = rows[:1]
    comma, colon = (", ", ": ") if "space" in layout else (",", ":")
    row_texts = [row if isinstance(row, str) else "[" + comma.join(row) + "]" for row in rows]
    entries = [b'"id"' + colon.encode() + id_text,
               ('"frames"' + colon + "[" + comma.join(row_texts) + "]").encode()]
    if "reorder" in layout:
        entries.reverse()
    if "repeat" in layout:
        entries.append(b'"id":"again"')
    if "rename" in layout:
        entries[0] = draw(st.sampled_from([b'"ID":"s"', b'"i":"s"', b'"idt":"s"']))
    extra = draw(st.sampled_from([b'"x":1', b'"x":"y"', b'"f":true', b'"x":[[1]]']))
    where = draw(st.sampled_from(["sample", "body", "top"]))
    sample_text = b"{" + comma.encode().join(
        entries + ([extra] if "extra" in layout and where == "sample" else [])) + b"}"
    body_entries = [b'"sample"' + colon.encode() + sample_text]
    body_entries += [extra] if "extra" in layout and where == "body" else []
    top = [b'"type"' + colon.encode() + draw(st.sampled_from(
               [b'"LANDMARKS"', b'"LANDMARK"', b'"HELLO"', b'"LANDMARKS" ']))
           if "type" in layout else b'"type":"LANDMARKS"',
           b'"body"' + colon.encode() + b"{" + comma.encode().join(body_entries) + b"}"]
    top += [extra] if "extra" in layout and where == "top" else []
    return framed(b"{" + b",".join(top) + b"}")


@pytest.fixture
def parse_json_calls(monkeypatch) -> list:
    """The arguments of each call the wire module makes to parse_json."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return parse_json(*args, **kwargs)

    monkeypatch.setattr(wire, "parse_json", spy)
    return calls


class TestLandmarksReader:
    @settings(deadline=None, max_examples=400,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(landmarks_frames())
    def test_reads_every_frame_as_today(self, frame):
        assert_read_as_today(frame)

    @settings(deadline=None, max_examples=100)
    @given(sign_samples(), st.one_of(st.none(), st.text(min_size=1, max_size=8), _ODD_IDS))
    def test_reads_what_landmarks_message_writes(self, sample, sample_id):
        if sample_id is not None:
            sample = SignSample(sample_id, sample.frames)
        try:
            frame = encode_frame(landmarks_message(sample))
        except FrameError:
            return  # an id that is not valid Unicode cannot be written
        msg = assert_read_as_today(frame)
        assert sample_from_body(msg.body) == SignSample(sample.sample_id, sample.frames)

    @pytest.mark.parametrize("rows, sample_id", [
        # parse_json reads these: the outline fails,
        ("[[0,2,11,0.5,0.5,null]]", '"a\\u0062"'),          # an escape in the id
        ("[[0,2,11,0.5,0.5,null]]", '"\\"["'),              # an escaped quote, a bracket
        ("[[0,2,11,0.5,0.5,null],[1,2,11,true,0.5,null]]", '"s"'),   # a bool
        # orjson reads a long int in an int column as a float,
        ("[[18446744073709551616,2,11,0.5,0.5,null]]", '"s"'),
        # or orjson refuses.
        ("[[0,2,11," + "9" * 400 + ",0.5,null]]", '"s"'),     # past float64 for json
        ("[[0,2,11,1.5e400,0.5,null]]", '"s"'),             # infinite
        ("[[0,2,11,NaN,0.5,null]]", '"s"'),                 # not JSON
        # orjson's rows, listed, reach sample_from_body: they do not convert,
        ("[[0,2,11,0.5,0.5,null],[1.0,2,11,0.5,0.5,null]]", '"s"'),  # a float int
        ("[[0,null,11,0.5,0.5,null]]", '"s"'),              # a null int
        ("[[9223372036854775808,2,11,0.5,0.5,null]]", '"s"'),  # past int64
        ("[[0,2,11,0.5,0.5]]", '"s"'),                      # a short row
        ("[[0,2,11,0.5,0.5,null],5]", '"s"'),               # a number for a row
        # or LandmarkRows refuses them.
        ("[[0,9,11,0.5,0.5,null]]", '"s"'),
        ("[[0,2,11,0.5,0.5,null],[0,2,11,0.5,0.5,null]]", '"s"'),  # a repeated row
    ], ids=repr)
    def test_declined_frames_are_read_as_today(self, rows, sample_id):
        """Frames whose rows the one-pass reader does not build into
        LandmarkRows, whether parse_json reads them or the reader hands its
        listed rows on."""
        frame = framed(('{"type":"LANDMARKS","body":{"sample":{"id":%s,"frames":%s}}}'
                        % (sample_id, rows)).encode())
        msg = assert_read_as_today(frame)
        assert msg is None or type(msg.body["sample"]["frames"]) is list

    @pytest.mark.parametrize("frames", [
        '"frames":[[0,2,11,0.5,0.5,null],[1,9,11,0.5,0.5,null]]',
        '"frames":[[0,2,11,0.5,0.5,null],[0,2,11,0.5,0.5,null]]',
        '"frames":[[0,2,11,0.5,0.5,null],[1.0,2,11,0.5,0.5,null]]',
        '"frames":[[0,null,11,0.5,0.5,null]]',
        '"frames":[[0,2,9223372036854775808,0.5,0.5,null]]',
        '"frames":[[0,2,11,0.5,0.5,null],5,[1,2,11,0.5,0.5,null]]',
        '"frames":[[0,2,11,0.5,0.5,null],[1,2,11,0.5,0.5]]',
        '"framez":[[0,2,11,0.5,0.5,null]]',
        '"framez":[[18446744073709551616,2,11,0.5,0.5,null]]',
        '"frames":[[18446744073709551616,2,11,0.5,0.5,null],[1,2,11,0.5,0.5]]',
    ], ids=["kind 9", "repeated row", "float frame index", "null kind", "int past int64",
            "number between rows", "short row", "framez", "framez with a long int",
            "short row after a long int"])
    def test_a_refused_row_is_parsed_once(self, frames, parse_json_calls):
        frame = framed(('{"type":"LANDMARKS","body":{"sample":{"id":"s",%s}}}'
                        % frames).encode())
        expected = read_with(reference_feed, reference_sample_from_body, frame)
        assert expected[0] == "PROTOCOL"
        assert read_with(lambda f: FrameDecoder().feed(f), sample_from_body, frame) == expected
        assert parse_json_calls == []

    @pytest.mark.parametrize("rows", [
        "[[18446744073709551616,2,11,0.5,0.5,null]]",
    ], ids=["int column"])
    def test_a_long_int_is_read_by_json(self, rows, parse_json_calls):
        """orjson reads an integer token from 2**64 up as a float, where json
        reads the int."""
        frame = framed(('{"type":"LANDMARKS","body":{"sample":{"id":"s","frames":%s}}}'
                        % rows).encode())
        assert read_with(lambda f: FrameDecoder().feed(f), sample_from_body, frame) == read_with(
            reference_feed, reference_sample_from_body, frame)
        assert len(parse_json_calls) == 1

    @pytest.mark.parametrize("rows", [
        "[[0,2,11,18446744073709551616,0.5,null]]",
        "[[0,2,11,0.5,18446744073709551616,null]]",
    ], ids=["x", "y"])
    def test_a_long_int_coordinate_takes_the_one_pass_reader(self, rows, parse_json_calls):
        """A coordinate is the double np.array makes of json's int, which is
        the float orjson reads."""
        frame = framed(('{"type":"LANDMARKS","body":{"sample":{"id":"s","frames":%s}}}'
                        % rows).encode())
        assert read_with(lambda f: FrameDecoder().feed(f), sample_from_body, frame) == read_with(
            reference_feed, reference_sample_from_body, frame)
        assert parse_json_calls == []
        [msg] = FrameDecoder().feed(frame)
        assert type(msg.body["sample"]["frames"]) is LandmarkRows

    @pytest.mark.parametrize("where", ["row", "frames", "id", "extra key", "body"])
    def test_deep_nesting_is_declined(self, where):
        # orjson 3.8.3 overruns the C stack at 200,000 nested arrays.
        deep = "[" * 200_000 + "]" * 200_000
        sample = {"row": '{"id":"s","frames":[[0,2,11,0.5,0.5,null],%s]}' % deep,
                  "frames": '{"id":"s","frames":%s}' % deep,
                  "id": '{"id":%s,"frames":[]}' % deep,
                  "extra key": '{"id":"s","frames":[],"x":%s}' % deep}.get(where)
        body = deep if sample is None else '{"sample":%s}' % sample
        frame = framed(('{"type":"LANDMARKS","body":%s}' % body).encode())
        assert assert_read_as_today(frame) is None

    def test_an_empty_frames_array_is_a_protocol_error_as_today(self):
        frame = framed(b'{"type":"LANDMARKS","body":{"sample":{"id":"s","frames":[]}}}')
        msg = assert_read_as_today(frame)
        with pytest.raises(ValidationError, match="has no frames"):
            sample_from_body(msg.body)


def tutor_sample() -> SignSample:
    """A clip of the 88 landmarks the default selection reads."""
    return make_synthetic_samples(1, 1, seed=4)[0]


@pytest.mark.parametrize("sample", [
    holistic_sample(30, missing_hands=True), real_looking_sample(), tutor_sample(),
], ids=["holistic", "real-looking", "tutor"])
def test_written_frames_take_the_one_pass_reader(sample, parse_json_calls):
    """A silent decline would leave every frame on the slow path."""
    calls = parse_json_calls
    frame = encode_frame(landmarks_message(sample))
    [msg] = FrameDecoder().feed(frame)
    assert calls == []
    assert type(msg.body["sample"]["frames"]) is LandmarkRows
    assert sample_from_body(msg.body) == SignSample(sample.sample_id, sample.frames)
    assert read_with(lambda f: [msg], sample_from_body, frame) == read_with(
        reference_feed, reference_sample_from_body, frame)


def test_a_read_clip_leaves_no_collection_behind():
    """The rows orjson parses die inside the reader's pause, so the
    allocations after a read start no collection over them."""
    frame = encode_frame(landmarks_message(holistic_sample(20, missing_hands=True)))
    started, per_read = [], []

    def count(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        for read in range(4):
            [msg] = FrameDecoder().feed(frame)
            sample_from_body(msg.body)
            for _ in range(1000):
                SimpleNamespace(read=read)  # no free list: each one is counted
            per_read.append(len(started))
            started.clear()
    finally:
        gc.callbacks.remove(count)
    assert per_read[0] <= 1 and per_read[1:] == [0, 0, 0], per_read


# -- the collector is paused while the codec runs ------------------------------

def _failing_rows():
    def tolist(missing=None):
        raise ValidationError("rows cannot be listed")
    return SimpleNamespace(sample_id="s", frames=SimpleNamespace(tolist=tolist))


_LANDMARKS_BODY = sample_to_body(make_sample())
_CLIP = landmarks_message(make_sample())
# A clip whose id orjson refuses, and json names as not valid Unicode.
_UNWRITABLE_CLIP = landmarks_message(SignSample("\ud800", make_sample().frames))
# A clip frame that passes the outline and that orjson, and then json, refuses.
_UNREADABLE_CLIP = framed(b'{"type":"LANDMARKS","body":{"sample":{"id":"s",'
                          b'"frames":[[0,2,11,0.5,0.5,nul]]}}}')
# Each codec function: what it calls inside the pause (an owner and the name
# there), a call that returns, a call that raises, and what that raises.
_PAUSED = {
    "clip read": (orjson, "loads", lambda: FrameDecoder().feed(encode_frame(_CLIP)),
                  lambda: FrameDecoder().feed(_UNREADABLE_CLIP), FrameError),
    "parse_json json": (json, "loads", lambda: parse_json('{"a": [1]}', "p", FrameError),
                        lambda: parse_json('{"a": NaN', "p", FrameError), FrameError),
    "encode_frame": (orjson, "dumps", lambda: encode_frame(_CLIP),
                     lambda: encode_frame(_UNWRITABLE_CLIP), FrameError),
    "encode_frame json": (wire._ENCODER, "encode", lambda: encode_frame(result_message("g", 9.5)),
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


def test_a_written_clip_leaves_no_collection_behind():
    """A clip's row tuples live and die inside encode_frame's pause, so the
    allocations after a write start no collection over them. A full
    collection empties CPython's free list of small tuples, and a write that
    finds it empty leaves up to 2,000 freed tuples on the young count: at
    most one collection, over nothing the write kept alive. A write after
    that leaves none."""
    sample = holistic_sample(20)
    assert len(sample.frames) >= 10_000
    started, per_write = [], []

    def count(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        for write in range(4):
            encode_frame(landmarks_message(sample))
            for _ in range(1000):
                SimpleNamespace(write=write)  # no free list: each one is counted
            per_write.append(len(started))
            started.clear()
    finally:
        gc.callbacks.remove(count)
    assert per_write[0] <= 1 and per_write[1:] == [0, 0, 0], per_write


# -- only encode_frame writes a frame with orjson ------------------------------

def test_the_guard_finds_each_use_of_orjson_dumps():
    source = """
import orjson
import orjson as fast
from orjson import dumps
from orjson import dumps as write, JSONDecodeError
from orjson import *
def f(data):
    orjson.dumps(data); fast.dumps(data)
    json.dumps(data); fast.OPT_INDENT_2
    write = orjson.dumps
def encode_frame(msg):
    return orjson.dumps(msg), fast.dumps(msg), orjson.JSONDecodeError
def _read_landmarks(data):
    return orjson.dumps(data)
class Writer:
    def encode_frame(self):
        return orjson.dumps
def _parse_numbers(texts):
    return orjson.loads(texts), orjson.dumps(texts)
"""
    # Anywhere but wire.py and landmarks.py every import is a site, and so
    # is every use.
    assert orjson_sites(source, "m.py") == [
        "m.py:2", "m.py:3", "m.py:4", "m.py:5", "m.py:6", "m.py:8", "m.py:8", "m.py:10",
        "m.py:12", "m.py:12", "m.py:14", "m.py:17", "m.py:19", "m.py:19"]
    assert orjson_sites(source, "netpipe/wire.py") == [
        "netpipe/wire.py:4", "netpipe/wire.py:5", "netpipe/wire.py:6", "netpipe/wire.py:8",
        "netpipe/wire.py:8", "netpipe/wire.py:10", "netpipe/wire.py:14", "netpipe/wire.py:17",
        "netpipe/wire.py:19", "netpipe/wire.py:19"]
    # landmarks.py may import orjson and read with it in _parse_numbers alone.
    assert orjson_sites(source, "landmarks.py") == [
        "landmarks.py:4", "landmarks.py:5", "landmarks.py:6", "landmarks.py:8",
        "landmarks.py:8", "landmarks.py:10", "landmarks.py:12", "landmarks.py:12",
        "landmarks.py:14", "landmarks.py:17", "landmarks.py:19"]


def test_only_encode_frame_writes_with_orjson():
    """orjson.dumps only on a clip, and no module but wire.py and
    landmarks.py imports orjson."""
    assert package_sites(orjson_sites) == []
    for module in ("netpipe/wire.py", "landmarks.py"):
        assert orjson_sites(package_sources()[module], "elsewhere.py")


# -- only gc_paused switches the collector -------------------------------------

_GC_SWITCHES = {"disable", "enable", "freeze", "set_threshold"}


def gc_switch_sites(source: str, module: str) -> list[str]:
    """`module:line` of each use of gc.disable, gc.enable, gc.freeze or
    gc.set_threshold, however gc is imported, outside jsonio.gc_paused."""
    nodes = scoped_nodes(source)
    names = module_names(nodes, "gc")
    return [f"{module}:{node.lineno}" for node, scope in nodes
            if (module, scope.split(".")[0]) != ("jsonio.py", "gc_paused")
            and (isinstance(node, ast.Attribute) and node.attr in _GC_SWITCHES
                 and isinstance(node.value, ast.Name) and node.value.id in names
                 or isinstance(node, ast.ImportFrom) and node.module == "gc"
                 and _GC_SWITCHES & {alias.name for alias in node.names})]


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
    assert package_sites(gc_switch_sites) == []
    assert gc_switch_sites(package_sources()["jsonio.py"], "elsewhere.py")  # the helper's own
