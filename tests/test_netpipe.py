"""Wire format, protocol state machine, server, and robot client."""

import ast
import contextlib
import hashlib
import json
import logging
import math
import os
import signal
import socket
import socketserver
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from signpipe.dialogue import (
    API_KEY_ENV,
    HttpLlmBackend,
    LlmBackend,
    MockLlmBackend,
    PromptTemplate,
    ScriptedLlmBackend,
)
from signpipe.errors import (
    BackendError,
    FrameError,
    ProtocolViolation,
    ValidationError,
)
from signpipe.gesture import GestureEvent, parse_markup, render_markup, schedule
from signpipe.landmarks import (
    KIND_CAPACITY,
    LabelMap,
    LandmarkFrame,
    LandmarkKind,
    SignSample,
)
from signpipe.netpipe import (
    DEFAULT_PORT,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    WIRE_TYPES,
    FrameDecoder,
    MessageSocket,
    ServerConfig,
    Session,
    SessionState,
    WireMessage,
    decode_frame,
    encode_frame,
    error_message,
    landmarks_message,
    reply_body,
    result_message,
    robot_sim,
    sample_from_body,
    sample_to_body,
    script_message,
    serve,
)
from signpipe.netpipe.server import _openblas_threads
from signpipe.nn import ModelConfig, init_weights
from signpipe.preprocess import SelectionSpec

from conftest import (TAGGED_FIXTURE, child_pids, make_sample, module_names, package_sites,
                      scoped_nodes, sign_samples)

HELLO = WireMessage("HELLO", {"protocol_version": PROTOCOL_VERSION})
BYE = WireMessage("BYE", {})


def random_json_value(rng, depth=0):
    kinds = ["str", "int", "float", "bool", "null"]
    if depth < 2:
        kinds += ["list", "dict"]
    kind = kinds[rng.integers(len(kinds))]
    if kind == "str":
        alphabet = "abc xyz λµ日本 []{}\"\\\n"
        return "".join(alphabet[rng.integers(len(alphabet))]
                       for _ in range(rng.integers(0, 12)))
    if kind == "int":
        return int(rng.integers(-10**9, 10**9))
    if kind == "float":
        return float(rng.standard_normal() * 10.0 ** rng.integers(-3, 6))
    if kind == "bool":
        return bool(rng.integers(2))
    if kind == "null":
        return None
    if kind == "list":
        return [random_json_value(rng, depth + 1)
                for _ in range(rng.integers(0, 4))]
    return {f"k{j}": random_json_value(rng, depth + 1)
            for j in range(rng.integers(0, 4))}


def random_message(rng):
    body = {f"f{j}": random_json_value(rng) for j in range(rng.integers(0, 4))}
    return WireMessage(WIRE_TYPES[rng.integers(len(WIRE_TYPES))], body)


class TestFrameEncoding:
    def test_bye_frame_bytes(self):
        frame = encode_frame(BYE)
        assert frame == b"\x00\x00\x00\x18" + b'{"type":"BYE","body":{}}'
        assert len(frame) == 28

    def test_round_trip(self):
        msg = WireMessage("RESULT", {"gloss": "cloud", "confidence_pct": 93.5})
        assert decode_frame(encode_frame(msg)) == msg

    def test_non_ascii_stays_utf8(self):
        msg = WireMessage("SCRIPT", {"tagged_text": "très 日本"})
        payload = encode_frame(msg)[4:]
        assert "très 日本".encode("utf-8") in payload
        assert decode_frame(encode_frame(msg)) == msg

    def test_canonical_payload_has_no_spaces(self):
        payload = encode_frame(WireMessage("RESULT", {"a": 1, "b": [1, 2]}))[4:]
        assert b" " not in payload

    def test_rejects_unencodable_bodies(self):
        with pytest.raises(FrameError):
            encode_frame(WireMessage("RESULT", {"x": float("nan")}))
        with pytest.raises(FrameError):
            encode_frame(WireMessage("RESULT", {"x": float("inf")}))
        with pytest.raises(FrameError):
            encode_frame(WireMessage("RESULT", {"x": b"bytes"}))

    def test_rejects_oversize_payload(self):
        big = WireMessage("RESULT", {"x": "a" * MAX_FRAME_BYTES})
        with pytest.raises(FrameError, match="cap"):
            encode_frame(big)

    def test_message_type_validation(self):
        with pytest.raises(ValidationError):
            WireMessage("NOPE", {})
        with pytest.raises(ValidationError):
            WireMessage("RESULT", [])

    def test_error_message_shape(self):
        msg = error_message("TIMEOUT", "too slow")
        assert msg.type == "ERROR"
        assert msg.body == {"code": "TIMEOUT", "message": "too slow"}


class TestDecodeFrame:
    def test_incomplete_header(self):
        with pytest.raises(FrameError, match="incomplete"):
            decode_frame(b"\x00\x00")

    def test_length_mismatch(self):
        good = encode_frame(BYE)
        with pytest.raises(FrameError):
            decode_frame(good + b"x")
        with pytest.raises(FrameError):
            decode_frame(good[:-1])
        with pytest.raises(FrameError, match="got 2 complete"):
            decode_frame(good + good)

    def test_declared_length_over_cap(self):
        with pytest.raises(FrameError, match="cap"):
            decode_frame(struct.pack(">I", MAX_FRAME_BYTES + 1))

    @pytest.mark.parametrize("payload", [
        b"not json",
        b"[1,2]",
        b'{"type":"BYE"}',
        b'{"type":"BYE","body":{},"extra":1}',
        b'{"type":"NOPE","body":{}}',
        b'{"type":"BYE","body":[]}',
        b'{"type":5,"body":{}}',
        b"\xff\xfe",
        pytest.param(b'{"type":"BYE","body":{"n":' + b"9" * 5000 + b"}}",
                     id="int-over-4300-digits"),
        pytest.param(b"[" * 100_000, id="deep-nesting"),
    ])
    def test_malformed_payloads(self, payload):
        with pytest.raises(FrameError):
            decode_frame(struct.pack(">I", len(payload)) + payload)


class TestFrameDecoder:
    def test_multiple_frames_in_one_chunk(self):
        stream = encode_frame(HELLO) + encode_frame(BYE)
        assert FrameDecoder().feed(stream) == [HELLO, BYE]

    def test_partial_frame_waits(self):
        dec = FrameDecoder()
        stream = encode_frame(HELLO)
        assert dec.feed(stream[:7]) == []
        assert dec.pending_bytes == 7
        assert dec.feed(stream[7:]) == [HELLO]
        assert dec.pending_bytes == 0

    def test_byte_at_a_time(self):
        dec = FrameDecoder()
        out = []
        for b in encode_frame(HELLO) + encode_frame(BYE):
            out.extend(dec.feed(bytes([b])))
        assert out == [HELLO, BYE]

    def test_every_split_of_a_two_frame_stream(self):
        stream = encode_frame(HELLO) + encode_frame(BYE)
        for i in range(len(stream) + 1):
            dec = FrameDecoder()
            out = dec.feed(stream[:i]) + dec.feed(stream[i:])
            assert out == [HELLO, BYE], f"split at byte {i}"

    def test_oversize_declaration_fails_fast(self):
        dec = FrameDecoder()
        with pytest.raises(FrameError, match="cap"):
            dec.feed(struct.pack(">I", MAX_FRAME_BYTES + 1))

    def test_random_messages_random_chunks(self):
        rng = np.random.default_rng(42)
        messages = [random_message(rng) for _ in range(200)]
        stream = b"".join(encode_frame(m) for m in messages)
        dec = FrameDecoder()
        out = []
        i = 0
        while i < len(stream):
            step = int(rng.integers(1, 400))
            out.extend(dec.feed(stream[i:i + step]))
            i += step
        assert out == messages
        assert dec.pending_bytes == 0

    @settings(deadline=None, max_examples=300)
    @given(pieces=st.lists(st.one_of(
               st.binary(max_size=12),
               st.binary(max_size=40).map(lambda p: struct.pack(">I", len(p)) + p),
               st.text(max_size=30).map(
                   lambda t: struct.pack(">I", len(t.encode())) + t.encode()),
               st.sampled_from([encode_frame(HELLO), encode_frame(BYE)])),
               max_size=8),
           cuts=st.lists(st.integers(min_value=0, max_value=400), max_size=10))
    def test_arbitrary_bytes_in_arbitrary_chunks(self, pieces, cuts):
        """Every feed yields messages or raises FrameError, nothing else."""
        stream = b"".join(pieces)
        bounds = sorted({0, len(stream), *(min(c, len(stream)) for c in cuts)})
        dec = FrameDecoder()
        try:
            for start, end in zip(bounds, bounds[1:]):
                assert all(isinstance(m, WireMessage)
                           for m in dec.feed(stream[start:end]))
        except FrameError:
            pass


class TestMessageSocket:
    def test_one_send_delivers_messages_in_order(self):
        a, b = socket.socketpair()
        with a, b:
            first = WireMessage("RESULT", {"gloss": "cloud"})
            MessageSocket(a).send(first, BYE)
            link = MessageSocket(b)
            assert link.recv() == first
            assert link.recv() == BYE

    def test_recv_returns_none_after_peer_closes(self):
        a, b = socket.socketpair()
        with b:
            MessageSocket(a).send(HELLO)
            a.close()
            link = MessageSocket(b)
            assert link.recv() == HELLO
            assert link.recv() is None

    def test_garbage_raises_frame_error(self):
        a, b = socket.socketpair()
        with a, b:
            a.sendall(struct.pack(">I", 3) + b"abc")
            with pytest.raises(FrameError):
                MessageSocket(b).recv()


class TestSampleBody:
    def test_round_trip_drops_label_and_keeps_nan(self):
        s = make_sample(with_missing=True, seed=3, label=7)
        back = sample_from_body(sample_to_body(s))
        assert back == SignSample(s.sample_id, s.frames)
        assert back.label is None

    def test_missing_coordinate_travels_as_null(self):
        s = SignSample("s", [LandmarkFrame(0, LandmarkKind.POSE, 11,
                                           0.5, float("nan"), 0.25)])
        body = sample_to_body(s)
        row = body["sample"]["frames"][0]
        assert row == [0, LandmarkKind.POSE.value, 11, 0.5, None, 0.25]

    def test_landmarks_message_survives_the_wire(self):
        s = make_sample(with_missing=True, seed=5)
        msg = decode_frame(encode_frame(landmarks_message(s)))
        assert msg.type == "LANDMARKS"
        assert sample_from_body(msg.body) == SignSample(s.sample_id, s.frames)

    @pytest.mark.parametrize("body", [
        {},
        {"sample": 5},
        {"sample": {"id": 7, "frames": []}},
        {"sample": {"id": "s", "frames": {}}},
        {"sample": {"id": "s", "frames": [[0, 2, 11, 0.5, 0.5]]}},
        {"sample": {"id": "s", "frames": [[0.5, 2, 11, 0.5, 0.5, None]]}},
        {"sample": {"id": "s", "frames": [[0, True, 11, 0.5, 0.5, None]]}},
        {"sample": {"id": "s", "frames": [[0, 2, 11, "x", 0.5, None]]}},
        {"sample": {"id": "s", "frames": [[0, 2, 11, True, 0.5, None]]}},
        {"sample": {"id": "s", "frames": [[0, 9, 11, 0.5, 0.5, None]]}},
        {"sample": {"id": "s", "frames": [[0, 2, 40, 0.5, 0.5, None]]}},
        {"sample": {"id": "s", "frames": []}},
    ])
    def test_junk_bodies_rejected(self, body):
        with pytest.raises(ValidationError):
            sample_from_body(body)

    def test_coordinate_beyond_float64_is_named(self):
        body = {"sample": {"id": "s", "frames": [[0, 2, 11, 10**400, 0.5, None]]}}
        with pytest.raises(ValidationError, match="outside the float64 range"):
            sample_from_body(body)


@st.composite
def malformed_bodies(draw) -> dict:
    """A valid LANDMARKS body with one row broken, sent through JSON."""
    sample = draw(sign_samples())
    rows = sample.frames.tolist()
    i = draw(st.integers(0, len(rows) - 1))
    row = rows[i]
    fault = draw(st.sampled_from(["int_column", "coordinate", "kind", "capacity",
                                  "length", "infinity", "huge_frame"]))
    if fault == "int_column":
        row[draw(st.integers(0, 2))] = draw(st.one_of(st.booleans(), st.text(),
                                                      st.floats()))
    elif fault == "coordinate":
        row[draw(st.integers(3, 5))] = draw(st.one_of(st.booleans(), st.text()))
    elif fault == "kind":
        row[1] = 4
    elif fault == "capacity":
        row[2] = KIND_CAPACITY[LandmarkKind(row[1])]
    elif fault == "length":
        rows[i] = (row * 2)[:draw(st.integers(0, 12).filter(lambda n: n != 6))]
    elif fault == "infinity":
        row[draw(st.integers(3, 5))] = draw(st.sampled_from([math.inf, -math.inf]))
    else:
        row[0] = draw(st.integers(2**63, 2**80))
    # json.dumps writes inf as the Infinity literal, which json.loads accepts.
    return json.loads(json.dumps({"sample": {"id": sample.sample_id, "frames": rows}}))


class TestSampleBodyProperties:
    def test_golden_landmarks_frame_digest(self):
        frame = encode_frame(landmarks_message(make_sample(with_missing=True, seed=3)))
        assert hashlib.sha256(frame).hexdigest() == (
            "d925b46dc0ddc780a416888ce64814644f3fe74918c0e078b0cee90b82de1eb8")

    @settings(deadline=None)
    @given(sign_samples())
    def test_round_trip(self, s):
        expected = SignSample(s.sample_id, s.frames)
        assert sample_from_body(sample_to_body(s)) == expected
        wire = decode_frame(encode_frame(landmarks_message(s)))
        assert sample_from_body(wire.body) == expected

    @settings(deadline=None)
    @given(malformed_bodies())
    def test_malformed_rows_raise_validation_error_only(self, body):
        with pytest.raises(ValidationError):
            sample_from_body(body)

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_json_constant_coordinate_rejected(self, token):
        payload = ('{"type": "LANDMARKS", "body": {"sample": {"id": "s", "frames": '
                   f'[[0, 2, 11, 0.5, 0.5, null], [1, 2, 11, 0.5, {token}, null]]}}}}}}')
        msg = decode_frame(struct.pack(">I", len(payload)) + payload.encode("ascii"))
        with pytest.raises(ValidationError, match="sample frame 1: coordinate is not a number"):
            sample_from_body(msg.body)

    def test_duplicate_row_rejected(self):
        body = sample_to_body(make_sample(num_frames=2))
        rows = body["sample"]["frames"]
        rows.insert(5, list(rows[3]))
        with pytest.raises(ValidationError, match="row 5: repeats"):
            sample_from_body(body)


class TestSession:
    LEGAL = {
        (SessionState.AWAIT_HELLO, "HELLO"),
        (SessionState.READY, "LANDMARKS"),
        (SessionState.READY, "BYE"),
    }

    def fresh(self, state):
        s = Session()
        if state is SessionState.READY:
            s.on_message(HELLO)
            assert s.state is SessionState.READY
        return s

    def test_every_state_type_cell(self):
        sample_msg = landmarks_message(make_sample())
        for state in (SessionState.AWAIT_HELLO, SessionState.READY):
            for msg_type in WIRE_TYPES:
                session = self.fresh(state)
                msg = {"HELLO": HELLO, "LANDMARKS": sample_msg}.get(
                    msg_type, WireMessage(msg_type, {}))
                effect = session.on_message(msg)
                if (state, msg_type) in self.LEGAL:
                    continue  # behavior covered by the focused tests below
                assert effect.close, f"{state} x {msg_type} must close"
                assert len(effect.replies) == 1
                assert effect.replies[0].type == "ERROR"
                assert effect.replies[0].body["code"] == "PROTOCOL"
                assert session.state is SessionState.CLOSED

    def test_hello_is_echoed_once(self):
        session = Session()
        effect = session.on_message(HELLO)
        assert effect.replies == (HELLO,)
        assert not effect.close and effect.sample_body is None
        assert session.state is SessionState.READY

    def test_landmarks_passes_body_through(self):
        session = self.fresh(SessionState.READY)
        msg = landmarks_message(make_sample())
        effect = session.on_message(msg)
        assert effect.sample_body is msg.body
        assert effect.replies == () and not effect.close
        assert session.state is SessionState.READY

    def test_bye_replies_and_closes(self):
        session = self.fresh(SessionState.READY)
        effect = session.on_message(BYE)
        assert effect.replies == (BYE,)
        assert effect.close
        assert session.state is SessionState.CLOSED

    def test_wrong_protocol_version_rejected(self):
        for body in ({"protocol_version": 2}, {}, {"protocol_version": "1"},
                     {"protocol_version": True}, {"protocol_version": 1.0}):
            session = Session()
            effect = session.on_message(WireMessage("HELLO", body))
            assert effect.close
            assert effect.replies[0].body["code"] == "PROTOCOL"

    def test_closed_session_rejects_everything(self):
        session = self.fresh(SessionState.READY)
        session.on_message(BYE)
        for msg_type in WIRE_TYPES:
            effect = session.on_message(WireMessage(msg_type, {}))
            assert effect.close
            assert effect.replies[0].body["code"] == "PROTOCOL"


_WIRE_TEXT = st.text(st.characters(exclude_categories=("Cs",)), max_size=12)
_PLAIN = st.text(st.characters(exclude_categories=("Cs",), exclude_characters="[]"),
                 max_size=12)


@st.composite
def _markups(draw, tags):
    """Markup that parses against a db holding tags: plain text and spans."""
    parts = draw(st.lists(st.tuples(st.none() | st.sampled_from(tags), _PLAIN),
                          max_size=5))
    return "".join(text if tag is None else f"[{tag}]{text}[/{tag}]"
                   for tag, text in parts)


class TestReplyMessages:
    """The builders in wire.py against the client's reply check."""

    def test_golden_result_and_script_frames_digest(self, fixture_db):
        script = parse_markup(TAGGED_FIXTURE, fixture_db)
        frames = encode_frame(result_message("cloud", 93.5)) + encode_frame(
            script_message(render_markup(script), schedule(script, fixture_db, 150.0),
                           ("degraded to untagged speech",)))
        assert hashlib.sha256(frames).hexdigest() == (
            "1d0cc155cb8066d8dedf3859ee41a69acdd68327601eec858ed350cad39dd26e")

    def test_any_scheduled_script_passes_the_reply_check(self, fixture_db):
        @settings(deadline=None)
        @given(markup=_markups(fixture_db.tags), wpm=st.floats(60, 300),
               warnings=st.lists(_WIRE_TEXT, max_size=3).map(tuple))
        def check(markup, wpm, warnings):
            script = parse_markup(markup, fixture_db)
            timeline = schedule(script, fixture_db, wpm)
            msg = decode_frame(encode_frame(
                script_message(render_markup(script), timeline, warnings)))
            body = reply_body(msg)
            assert msg.type == "SCRIPT"
            assert parse_markup(body["tagged_text"], fixture_db) == script
            assert body["timeline"]["warnings"] == [*warnings, *timeline.warnings]
            assert [(ev["kind"], ev.get("tag", ev.get("text")), ev["start_s"],
                     ev["duration_s"], ev.get("body_parts"))
                    for ev in body["timeline"]["events"]] == [
                ("gesture", ev.tag, ev.start_s, ev.duration_s, sorted(ev.body_parts))
                if isinstance(ev, GestureEvent) else
                ("speech", ev.text, ev.start_s, ev.duration_s, None)
                for ev in timeline.events]

        check()

    @settings(deadline=None)
    @given(gloss=_WIRE_TEXT,
           confidence_pct=st.floats(allow_nan=False, allow_infinity=False))
    def test_any_result_passes_the_reply_check(self, gloss, confidence_pct):
        msg = decode_frame(encode_frame(result_message(gloss, confidence_pct)))
        assert msg.type == "RESULT"
        assert reply_body(msg) == {"gloss": gloss, "confidence_pct": confidence_pct}

    def test_a_client_message_is_not_a_reply(self):
        with pytest.raises(ProtocolViolation, match="LANDMARKS reply"):
            reply_body(landmarks_message(make_sample()))


SERVER_MODEL = ModelConfig(input_dim=176, extractor_dims=(16,), model_dim=16,
                           num_layers=1, num_heads=2, ff_dim=32,
                           num_classes=5, max_seq_len=8)
SERVER_LABELS = LabelMap(("circle", "wave", "push", "pull", "rest"))


def server_config(**overrides):
    base = dict(
        weights=init_weights(SERVER_MODEL, seed=0),
        model_config=SERVER_MODEL,
        selection=SelectionSpec(),
        db=None,
        template=PromptTemplate.default(),
        backend_factory=lambda: MockLlmBackend(seed=0),
        labels=SERVER_LABELS,
        host="127.0.0.1",
        port=0,
    )
    base.update(overrides)
    return ServerConfig(**base)


class SlowBackend(LlmBackend):
    """Sleeps on every call and records when each call started, one
    time.monotonic() line per call in starts_path, so that the test process
    can read what the server's child recorded."""

    def __init__(self, delay_s, starts_path):
        self.delay_s = delay_s
        self.starts_path = starts_path
        starts_path.touch()

    @property
    def starts(self) -> list[float]:
        return [float(line) for line in self.starts_path.read_text().split()]

    def complete(self, prompt):
        with open(self.starts_path, "a") as f:
            f.write(f"{time.monotonic()!r}\n")
        time.sleep(self.delay_s)
        return "too late"


class SwallowingBackend(SlowBackend):
    """A SlowBackend that sleeps inside its own `except Exception`, as a
    backend that catches every fault of its transport might."""

    def complete(self, prompt):
        try:
            return super().complete(prompt)
        except Exception:
            return "swallowed"


@contextlib.contextmanager
def drip_http_stub():
    """A one-request HTTP endpoint on 127.0.0.1 that sends its well-formed
    chat-completions reply one byte per second. Yields its base URL."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(10.0)
    body = json.dumps({"choices": [{"message": {"content": "hi"}}]}).encode()
    reply = b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body)
    stop = threading.Event()

    def run():
        try:
            with listener:
                conn, _ = listener.accept()
            with conn:
                conn.settimeout(10.0)
                conn.recv(65536)
                for i in range(len(reply)):
                    conn.sendall(reply[i:i + 1])
                    if stop.wait(1.0):
                        return
        except OSError:
            pass  # the client hung up, or never came

    thread = threading.Thread(target=run, name="drip-http-stub")
    thread.start()
    try:
        yield "http://%s:%d" % listener.getsockname()
    finally:
        stop.set()
        thread.join(timeout=15.0)


class FailingBackend(LlmBackend):
    def complete(self, prompt):
        raise BackendError("backend exploded")


def talk(address, *messages, timeout=10.0):
    """Send the messages, then read replies until the server closes."""
    replies = []
    with socket.create_connection(address, timeout=timeout) as sock:
        for msg in messages:
            sock.sendall(encode_frame(msg))
        dec = FrameDecoder()
        while True:
            data = sock.recv(65536)
            if not data:
                break
            replies.extend(dec.feed(data))
    return replies


class TestServer:
    def test_config_validation(self, fixture_db):
        cfg = server_config(db=fixture_db)
        del cfg.weights["head.b"]
        with pytest.raises(ValidationError, match="head.b"):
            cfg.validate()
        cfg = server_config(db=fixture_db,
                            selection=SelectionSpec(lips=(0,), pose=()))
        with pytest.raises(ValidationError, match="features"):
            cfg.validate()
        cfg = server_config(db=fixture_db, labels=LabelMap(("a", "b")))
        with pytest.raises(ValidationError, match="label map"):
            cfg.validate()
        cfg = server_config(db=fixture_db, deadline_s=0.0)
        with pytest.raises(ValidationError, match="deadline"):
            cfg.validate()
        for setting, value in [("wpm", 0.0), ("wpm", float("nan")),
                               ("wpm", 1e-307), ("wpm", math.inf),
                               ("max_retries", -1), ("port", 70000),
                               ("port", -1)]:
            cfg = server_config(db=fixture_db, **{setting: value})
            with pytest.raises(ValidationError, match=setting):
                cfg.validate()

    def test_landmarks_replies_leave_in_one_write(self, fixture_db, monkeypatch,
                                                  tmp_path):
        record = tmp_path / "writes.jsonl"  # the server's child appends here
        send = MessageSocket.send

        def recording_send(link, *messages):
            with open(record, "a") as f:
                f.write(json.dumps([m.type for m in messages]) + "\n")
            send(link, *messages)

        monkeypatch.setattr(MessageSocket, "send", recording_send)
        with serve(server_config(db=fixture_db)) as handle:
            talk(handle.address, HELLO, landmarks_message(make_sample()), BYE)
        writes = [json.loads(line) for line in record.read_text().splitlines()]
        assert writes == [["HELLO"], ["RESULT", "SCRIPT"], ["BYE"]]

    def test_full_exchange(self, fixture_db):
        with serve(server_config(db=fixture_db)) as handle:
            sample = make_sample(seed=1)
            replies = talk(handle.address, HELLO, landmarks_message(sample), BYE)
        assert [m.type for m in replies] == ["HELLO", "RESULT", "SCRIPT", "BYE"]
        assert replies[0].body == {"protocol_version": PROTOCOL_VERSION}
        result = replies[1].body
        assert result["gloss"] in SERVER_LABELS.glosses
        assert 0.0 <= result["confidence_pct"] <= 100.0
        script = replies[2].body
        assert isinstance(script["tagged_text"], str)
        timeline = script["timeline"]
        assert isinstance(timeline["events"], list) and timeline["events"]
        kinds = {e["kind"] for e in timeline["events"]}
        assert kinds <= {"speech", "gesture"}

    def test_two_samples_in_one_session(self, fixture_db):
        with serve(server_config(db=fixture_db)) as handle:
            replies = talk(
                handle.address, HELLO,
                landmarks_message(make_sample(sample_id="a", seed=1)),
                landmarks_message(make_sample(sample_id="b", seed=2)),
                BYE)
        assert [m.type for m in replies] == [
            "HELLO", "RESULT", "SCRIPT", "RESULT", "SCRIPT", "BYE"]

    def test_responses_are_deterministic_across_connections(self, fixture_db):
        with serve(server_config(db=fixture_db)) as handle:
            sample = make_sample(seed=1)
            a = talk(handle.address, HELLO, landmarks_message(sample), BYE)
            b = talk(handle.address, HELLO, landmarks_message(sample), BYE)
        assert a == b

    def test_landmarks_before_hello(self, fixture_db):
        with serve(server_config(db=fixture_db)) as handle:
            replies = talk(handle.address, landmarks_message(make_sample()))
        assert len(replies) == 1
        assert replies[0].type == "ERROR"
        assert replies[0].body["code"] == "PROTOCOL"
        assert "HELLO" in replies[0].body["message"]

    def test_undecodable_bytes_get_bad_frame(self, fixture_db):
        with serve(server_config(db=fixture_db)) as handle:
            with socket.create_connection(handle.address, timeout=10.0) as sock:
                sock.sendall(struct.pack(">I", 3) + b"abc")
                dec = FrameDecoder()
                replies = []
                while True:
                    data = sock.recv(65536)
                    if not data:
                        break
                    replies.extend(dec.feed(data))
        assert [m.type for m in replies] == ["ERROR"]
        assert replies[0].body["code"] == "BAD_FRAME"

    def test_oversized_integer_gets_bad_frame(self, fixture_db):
        payload = (b'{"type":"HELLO","body":{"protocol_version":'
                   + b"1" * 5000 + b"}}")
        with serve(server_config(db=fixture_db)) as handle:
            with socket.create_connection(handle.address, timeout=10.0) as sock:
                sock.sendall(struct.pack(">I", len(payload)) + payload)
                dec = FrameDecoder()
                replies = []
                while True:
                    data = sock.recv(65536)
                    if not data:
                        break
                    replies.extend(dec.feed(data))
        assert [m.type for m in replies] == ["ERROR"]
        assert replies[0].body["code"] == "BAD_FRAME"

    def test_malformed_sample_body_is_protocol_error(self, fixture_db):
        with serve(server_config(db=fixture_db)) as handle:
            replies = talk(handle.address, HELLO,
                           WireMessage("LANDMARKS", {"sample": 5}))
        assert [m.type for m in replies] == ["HELLO", "ERROR"]
        assert replies[1].body["code"] == "PROTOCOL"

    def test_degenerate_sample_is_internal_error(self, fixture_db):
        nan = float("nan")
        sample = SignSample("empty", [LandmarkFrame(0, LandmarkKind.POSE, 11,
                                                    nan, nan, nan)])
        with serve(server_config(db=fixture_db)) as handle:
            replies = talk(handle.address, HELLO, landmarks_message(sample))
        assert [m.type for m in replies] == ["HELLO", "ERROR"]
        assert replies[1].body["code"] == "INTERNAL"

    @pytest.mark.parametrize("backend_class", [SlowBackend, SwallowingBackend])
    def test_slow_pipeline_times_out(self, fixture_db, tmp_path, backend_class):
        cfg = server_config(
            db=fixture_db, deadline_s=0.2,
            backend_factory=lambda: backend_class(60.0, tmp_path / "starts"))
        with serve(cfg) as handle:
            sent = time.monotonic()
            replies = talk(handle.address, HELLO, landmarks_message(make_sample()))
            took = time.monotonic() - sent
        assert [m.type for m in replies] == ["HELLO", "ERROR"]
        assert replies[1].body["code"] == "TIMEOUT"
        assert took < cfg.deadline_s + 1.0

    def test_drip_fed_http_backend_times_out(self, fixture_db, monkeypatch):
        monkeypatch.setenv(API_KEY_ENV, "k")
        monkeypatch.setenv("no_proxy", "*")  # the stub is local; no proxy is asked
        before = child_pids()
        with drip_http_stub() as url:
            cfg = server_config(db=fixture_db, deadline_s=0.3,
                                backend_factory=lambda: HttpLlmBackend(url, "m"))
            with serve(cfg) as handle:
                sent = time.monotonic()
                replies = talk(handle.address, HELLO, landmarks_message(make_sample()))
                took = time.monotonic() - sent
            assert child_pids() == before
        assert [m.type for m in replies] == ["HELLO", "ERROR"]
        assert replies[1].body["code"] == "TIMEOUT"
        assert took < cfg.deadline_s + 1.0

    def test_tiny_deadlines_never_tear_a_reply(self, fixture_db):
        """Deadlines from 1 us to 30 ms land the alarm in every stage, and in
        the arming and disarming too: each exchange is whole either way."""
        full = [("HELLO", None), ("RESULT", None), ("SCRIPT", None), ("BYE", None)]
        timeout = [("HELLO", None), ("ERROR", "TIMEOUT")]
        seen = []
        for deadline_s in np.geomspace(1e-6, 3e-2, 12):
            with serve(server_config(db=fixture_db, deadline_s=deadline_s)) as handle:
                for seed in range(6):
                    replies = talk(handle.address, HELLO,
                                   landmarks_message(make_sample(seed=seed)), BYE)
                    seen.append((deadline_s, seed,
                                 [(m.type, m.body.get("code")) for m in replies]))
        torn = [(f"deadline_s={deadline_s:.3g}", f"seed={seed}", exchange)
                for deadline_s, seed, exchange in seen if exchange not in (full, timeout)]
        assert not torn, torn
        exchanges = [exchange for _, _, exchange in seen]
        assert full in exchanges and timeout in exchanges

    def test_the_deadline_timer_lives_only_in_the_children(self, fixture_db):
        """A handler and a timer of the test's own survive a served sample:
        the server neither replaces nor arms nor disarms them here."""
        def own_handler(signum, frame):
            pass

        previous = signal.signal(signal.SIGALRM, own_handler)
        signal.setitimer(signal.ITIMER_REAL, 1000.0)
        try:
            with serve(server_config(db=fixture_db, deadline_s=5.0)) as handle:
                replies = talk(handle.address, HELLO, landmarks_message(make_sample()), BYE)
            handler = signal.getsignal(signal.SIGALRM)
            remaining, interval = signal.getitimer(signal.ITIMER_REAL)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert [m.type for m in replies] == ["HELLO", "RESULT", "SCRIPT", "BYE"]
        assert handler is own_handler
        assert 900.0 < remaining <= 1000.0 and interval == 0.0

    def test_a_stray_alarm_between_samples_ends_nothing(self, fixture_db):
        """The child's SIGALRM raises only while a sample runs: an alarm that
        reaches it between samples, its own late one or another's, is
        ignored, and the session goes on."""
        before = child_pids()
        with serve(server_config(db=fixture_db)) as handle:
            sock, link = _hello(handle.address)
            with sock:
                children = child_pids() - before
                if not children:
                    pytest.skip("child processes are not listed on this platform")
                [child] = children
                for seed in range(2):
                    os.kill(child, signal.SIGALRM)
                    link.send(landmarks_message(make_sample(seed=seed)))
                    replies = [link.recv(), link.recv()]
                    assert [m and m.type for m in replies] == ["RESULT", "SCRIPT"]
                link.send(BYE)
                assert link.recv() == BYE

    def test_no_backend_call_starts_after_the_deadline(self, fixture_db, tmp_path):
        backend = SlowBackend(0.5, tmp_path / "starts")
        cfg = server_config(db=fixture_db, deadline_s=0.2,
                            backend_factory=lambda: backend)
        with serve(cfg) as handle:
            replies = talk(handle.address, HELLO, landmarks_message(make_sample()))
            replied = time.monotonic()
            time.sleep(0.8)  # long past when a second call would have started
        assert [m.type for m in replies] == ["HELLO", "ERROR"]
        assert replies[1].body["code"] == "TIMEOUT"
        assert len(backend.starts) == 1 and backend.starts[0] < replied

    @pytest.mark.parametrize("deadline_s", [1e10, math.inf])
    def test_huge_deadline_serves_normally(self, fixture_db, deadline_s):
        with serve(server_config(db=fixture_db, deadline_s=deadline_s)) as handle:
            replies = talk(handle.address, HELLO, landmarks_message(make_sample()), BYE)
        assert [m.type for m in replies] == ["HELLO", "RESULT", "SCRIPT", "BYE"]

    def test_unencodable_reply_is_internal_error(self, fixture_db, tmp_path):
        # A lone surrogate parses as markup but has no UTF-8 encoding.
        cfg = server_config(db=fixture_db, backend_factory=lambda: ScriptedLlmBackend(
            ["\ud800 hi"] * 2))
        # The server logs in its child, so the records travel through a file.
        log_path = tmp_path / "server.log"
        handler = logging.FileHandler(log_path, encoding="utf-8")
        handler.setFormatter(logging.Formatter("%(name)s\t%(message)s"))
        logger = logging.getLogger("signpipe.netpipe.server")
        logger.addHandler(handler)
        try:
            with serve(cfg) as handle:
                replies = talk(handle.address, HELLO, landmarks_message(make_sample()))
        finally:
            logger.removeHandler(handler)
            handler.close()
        records = [logging.makeLogRecord(dict(zip(("name", "msg"), line.split("\t", 1))))
                   for line in log_path.read_text(encoding="utf-8").splitlines()]
        assert [m.type for m in replies] == ["HELLO", "ERROR"]
        assert replies[1].body["code"] == "INTERNAL"
        [record] = [r for r in records if r.name == "signpipe.netpipe.server"]
        assert record.getMessage().startswith("cannot encode a reply")
        assert "surrogates not allowed" in record.getMessage()

    def test_backend_failure_is_internal_error(self, fixture_db):
        cfg = server_config(db=fixture_db,
                            backend_factory=lambda: FailingBackend())
        with serve(cfg) as handle:
            replies = talk(handle.address, HELLO, landmarks_message(make_sample()))
        assert [m.type for m in replies] == ["HELLO", "ERROR"]
        assert replies[1].body["code"] == "INTERNAL"


# -- the one owner of each signal handler and timer ---------------------------

# Where a module may set a signal handler, the interval timer or the signal
# mask: the serve child, which ignores SIGALRM outside a sample and raises
# _Overdue on it within one, and `serve`'s SIGTERM handler. A backend must
# not set its own.
SIGNAL_SETTERS = {("netpipe/server.py", "_PipelineServer.finish_request"),
                  ("netpipe/server.py", "_PipelineServer._respond"),
                  ("cli.py", "cmd_serve")}
_SIGNAL_SETS = {"signal", "setitimer", "alarm", "pthread_sigmask"}


def signal_sites(source: str, module: str) -> list[str]:
    """`module:line` of each use of signal.signal, signal.setitimer,
    signal.alarm or signal.pthread_sigmask, however signal is imported,
    outside the functions SIGNAL_SETTERS names."""
    nodes = scoped_nodes(source)
    names = module_names(nodes, "signal")
    return [f"{module}:{node.lineno}" for node, scope in nodes
            if (module, scope) not in SIGNAL_SETTERS
            and (isinstance(node, ast.Attribute) and node.attr in _SIGNAL_SETS
                 and isinstance(node.value, ast.Name) and node.value.id in names
                 or isinstance(node, ast.ImportFrom) and node.module == "signal"
                 and _SIGNAL_SETS & {alias.name for alias in node.names})]


def test_the_guard_finds_each_setting_of_a_signal():
    source = """
import signal
import signal as sig
from signal import alarm
from signal import SIGALRM, pthread_sigmask
def f():
    signal.signal(signal.SIGALRM, h); sig.setitimer(sig.ITIMER_REAL, 1)
    signal.getsignal(1); os.kill(0, signal.SIGKILL); self.signal(); signal.SIG_IGN
class _PipelineServer:
    def _respond(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
def cmd_serve(args):
    def inner():
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
"""
    assert signal_sites(source, "m.py") == [
        "m.py:4", "m.py:5", "m.py:7", "m.py:7", "m.py:11", "m.py:14"]
    assert signal_sites(source, "netpipe/server.py") == [
        "netpipe/server.py:4", "netpipe/server.py:5", "netpipe/server.py:7",
        "netpipe/server.py:7", "netpipe/server.py:14"]
    assert signal_sites(source, "cli.py") == [
        "cli.py:4", "cli.py:5", "cli.py:7", "cli.py:7", "cli.py:11"]


def test_only_the_serve_child_and_cmd_serve_set_signals():
    assert package_sites(signal_sites) == []


def _hello(address) -> tuple[socket.socket, MessageSocket]:
    """A connection that has exchanged HELLO and now sits idle."""
    sock = socket.create_connection(address, timeout=10.0)
    link = MessageSocket(sock)
    link.send(HELLO)
    assert link.recv() == HELLO
    return sock, link


class TestServerProcesses:
    """Each connection is served in its own forked child."""

    def test_close_does_not_wait_on_an_idle_client(self, fixture_db):
        before = child_pids()
        with serve(server_config(db=fixture_db)) as handle:
            sock, link = _hello(handle.address)
            with sock:
                assert len(child_pids() - before) == 1
                t0 = time.monotonic()
                handle.close()
                took = time.monotonic() - t0
                assert link.recv() is None
        assert took < 2.0
        assert child_pids() == before

    def test_client_closing_without_bye_frees_its_child(self, fixture_db):
        before = child_pids()
        with serve(server_config(db=fixture_db)) as handle:
            sock, _ = _hello(handle.address)
            with sock:
                [child] = child_pids() - before
            give_up = time.monotonic() + 5.0
            while child in child_pids() and time.monotonic() < give_up:
                time.sleep(0.01)
            assert child not in child_pids()

    def test_concurrent_clients_log_what_they_log_one_at_a_time(self, fixture_db,
                                                                 tmp_path):
        streams = [[make_sample(sample_id=f"c{c}s{i}", seed=10 * c + i) for i in range(4)]
                   for c in range(2)]
        alone = [tmp_path / f"alone{c}.log" for c in range(2)]
        together = [tmp_path / f"together{c}.log" for c in range(2)]
        codes = [None, None]
        with serve(server_config(db=fixture_db)) as handle:
            for samples, log in zip(streams, alone):
                assert robot_sim(handle.address, samples, log) == 0

            def client(c):
                codes[c] = robot_sim(handle.address, streams[c], together[c])

            threads = [threading.Thread(target=client, args=(c,)) for c in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
        assert codes == [0, 0]
        for a, b in zip(alone, together):
            assert a.read_bytes() == b.read_bytes()

    def test_close_does_not_wait_past_forkings_default_cap(self, fixture_db):
        # One idle client more than ForkingMixIn's default cap of live children.
        n = socketserver.ForkingMixIn.max_children + 1
        before = child_pids()
        with serve(server_config(db=fixture_db)) as handle:
            with contextlib.ExitStack() as clients:
                for _ in range(n):
                    sock, _ = _hello(handle.address)
                    clients.enter_context(sock)
                assert len(child_pids() - before) == n
                t0 = time.monotonic()
                handle.close()
                took = time.monotonic() - t0
        assert took < 2.0
        assert child_pids() == before

    def test_children_split_the_parents_blas_threads(self, fixture_db, tmp_path):
        blas = _openblas_threads()
        if blas is None:
            pytest.skip("numpy's BLAS is not OpenBLAS")
        get, set_threads = blas
        default = get()
        record = tmp_path / "threads"  # the server's child appends here

        class ThreadCountingBackend(MockLlmBackend):
            def complete(self, prompt):
                with record.open("a") as f:
                    f.write(f"{get()}\n")
                return super().complete(prompt)

        def threads_per_sample(parent_threads, idle_clients):
            record.write_text("")
            set_threads(parent_threads)  # as OPENBLAS_NUM_THREADS would
            try:
                cfg = server_config(db=fixture_db, backend_factory=ThreadCountingBackend)
                with serve(cfg) as handle, contextlib.ExitStack() as clients:
                    for _ in range(idle_clients):
                        clients.enter_context(_hello(handle.address)[0])
                    replies = talk(handle.address, HELLO,
                                   landmarks_message(make_sample()), BYE)
            finally:
                set_threads(default)
            assert [m.type for m in replies] == ["HELLO", "RESULT", "SCRIPT", "BYE"]
            return set(map(int, record.read_text().split()))

        assert threads_per_sample(default, 0) == {default}
        assert threads_per_sample(default, 1) == {max(1, default // 2)}
        assert threads_per_sample(1, 0) == {1}

    def test_forward_is_bitwise_equal_at_one_blas_thread(self):
        # In a fresh interpreter, so that OpenBLAS starts at its default
        # thread count and this process's count is left alone.
        code = (
            "import numpy as np\n"
            "from signpipe.netpipe.server import _openblas_threads\n"
            "from signpipe.nn import DEFAULT_CONFIG as cfg, forward, init_weights\n"
            "blas = _openblas_threads()\n"
            "if blas is None:\n"
            "    raise SystemExit('no OpenBLAS')\n"
            "get, set_threads = blas\n"
            "w = init_weights(cfg, seed=1)\n"
            "x = np.random.default_rng(2).standard_normal("
            "(cfg.max_seq_len, cfg.input_dim)).astype(np.float32)\n"
            "default = forward(x, w, cfg)\n"
            "set_threads(1)\n"
            "assert get() == 1\n"
            "assert np.array_equal(forward(x, w, cfg), default)\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
        if proc.stderr.strip() == "no OpenBLAS":
            pytest.skip("numpy's BLAS is not OpenBLAS")
        assert proc.returncode == 0, proc.stderr


_LLM_TEXT = st.lists(
    st.sampled_from(["[Yes]", "[/Yes]", "[Excited]", "[/Excited]", " ", "\ud800"])
    | st.text(st.characters(exclude_categories=()), max_size=4),
    max_size=8).map("".join)


class TestServerReplies:
    @pytest.mark.filterwarnings("ignore::signpipe.dialogue.DialogueWarning")
    def test_any_llm_text_gives_a_script_or_one_internal_error(self, fixture_db):
        """Step-1 and step-2 replies of any text, lone surrogates included."""
        replies = []
        cfg = server_config(db=fixture_db,
                            backend_factory=lambda: ScriptedLlmBackend(replies[-1]))

        @settings(deadline=None, max_examples=60)
        @given(st.lists(_LLM_TEXT, min_size=4, max_size=4))
        def exchange(texts):
            replies.append(texts)
            with socket.create_connection(handle.address, timeout=10.0) as sock:
                link = MessageSocket(sock)
                link.send(HELLO, landmarks_message(make_sample()))
                assert link.recv() == HELLO
                first = link.recv()
                if first.type == "ERROR":
                    assert first.body["code"] == "INTERNAL"
                    assert link.recv() is None
                else:
                    assert first.type == "RESULT"
                    assert link.recv().type == "SCRIPT"

        with serve(cfg) as handle:
            exchange()


class TestServerRejectsBadRows:
    def landmarks_reply(self, fixture_db, rows):
        body = {"sample": {"id": "s", "frames": rows}}
        with serve(server_config(db=fixture_db)) as handle:
            replies = talk(handle.address, HELLO, WireMessage("LANDMARKS", body))
        assert [m.type for m in replies] == ["HELLO", "ERROR"]
        return replies[1].body["code"]

    def test_frame_index_beyond_int64_is_protocol_error(self, fixture_db):
        assert self.landmarks_reply(
            fixture_db, [[2**63, 2, 11, 0.5, 0.5, None]]) == "PROTOCOL"

    def test_duplicate_row_is_protocol_error(self, fixture_db):
        row = [0, 2, 11, 0.5, 0.5, None]
        assert self.landmarks_reply(fixture_db, [row, row]) == "PROTOCOL"

    def test_coordinate_beyond_float64_is_protocol_error(self, fixture_db):
        assert self.landmarks_reply(
            fixture_db, [[0, 2, 11, 10**400, 0.5, None]]) == "PROTOCOL"


class TestRobotSim:
    def test_single_sample_session(self, fixture_db, tmp_path):
        log = tmp_path / "robot.log"
        with serve(server_config(db=fixture_db)) as handle:
            status = robot_sim(handle.address, [make_sample(sample_id="s1")],
                               log)
        assert status == 0
        text = log.read_text(encoding="utf-8")
        lines = text.splitlines()
        assert lines[0] == "SAMPLE s1"
        assert lines[1].startswith("RESULT ")
        gloss, conf = lines[1].split()[1:]
        assert gloss in SERVER_LABELS.glosses
        assert "." in conf and len(conf.split(".")[1]) == 2
        assert lines[2].startswith("SCRIPT ")
        event_lines = [l for l in lines[3:] if not l.startswith("  warning:")]
        assert event_lines, "timeline events missing from the log"
        for line in event_lines:
            assert line.startswith("  ")
            stamp, kind = line.split()[:2]
            assert stamp.endswith("s") and kind in ("speech", "gesture")

    def test_multiple_samples_in_order(self, fixture_db, tmp_path):
        log = tmp_path / "robot.log"
        samples = [make_sample(sample_id=f"s{i}", seed=i) for i in range(3)]
        with serve(server_config(db=fixture_db)) as handle:
            assert robot_sim(handle.address, samples, log) == 0
        text = log.read_text(encoding="utf-8")
        ids = [l.split()[1] for l in text.splitlines() if l.startswith("SAMPLE")]
        assert ids == ["s0", "s1", "s2"]

    def test_log_is_byte_identical_across_runs(self, fixture_db, tmp_path):
        a, b = tmp_path / "a.log", tmp_path / "b.log"
        samples = [make_sample(sample_id=f"s{i}", seed=i) for i in range(2)]
        with serve(server_config(db=fixture_db)) as handle:
            assert robot_sim(handle.address, samples, a) == 0
            assert robot_sim(handle.address, samples, b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_zero_samples_clean_handshake(self, fixture_db, tmp_path):
        log = tmp_path / "robot.log"
        with serve(server_config(db=fixture_db)) as handle:
            assert robot_sim(handle.address, [], log) == 0
        assert log.read_text(encoding="utf-8") == ""

    def test_connection_refused(self, tmp_path):
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()
        log = tmp_path / "robot.log"
        status = robot_sim(("127.0.0.1", port), [make_sample()], log,
                           timeout_s=2.0)
        assert status == 1
        assert log.exists()

    def test_server_error_leaves_partial_log(self, fixture_db, tmp_path):
        cfg = server_config(db=fixture_db,
                            backend_factory=lambda: FailingBackend())
        log = tmp_path / "robot.log"
        with serve(cfg) as handle:
            status = robot_sim(handle.address,
                               [make_sample(sample_id="s1")], log)
        assert status == 1
        text = log.read_text(encoding="utf-8")
        assert text == "SAMPLE s1\n"  # flushed before the failure

    def test_default_port_constant(self):
        assert DEFAULT_PORT == 9470


def raw_frame(msg_type, body) -> bytes:
    """A frame as any JSON writer may send it: NaN, Infinity and escaped
    lone surrogates included."""
    payload = json.dumps({"type": msg_type, "body": body}).encode("ascii")
    return struct.pack(">I", len(payload)) + payload


@contextlib.contextmanager
def scripted_server(*frames: bytes, hello: bytes = encode_frame(HELLO),
                    received: list | None = None):
    """A one-connection server: it answers HELLO with hello (by default in
    kind), BYE in kind and every LANDMARKS with frames, sent as they are;
    given none, it hangs up on LANDMARKS. The type of each message it reads
    is appended to received, if given. Yields its address."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(10.0)
    replies = {"HELLO": hello, "LANDMARKS": b"".join(frames),
               "BYE": encode_frame(BYE)}
    received = [] if received is None else received

    def run():
        with listener:
            conn, _ = listener.accept()
        with conn:
            conn.settimeout(10.0)
            link = MessageSocket(conn)
            try:
                while (msg := link.recv()) is not None:
                    received.append(msg.type)
                    if not replies[msg.type]:
                        break
                    conn.sendall(replies[msg.type])
            except OSError:
                pass  # the robot hung up on a reply it rejected

    thread = threading.Thread(target=run, name="scripted-server")
    thread.start()
    try:
        yield listener.getsockname()
    finally:
        thread.join(timeout=10.0)


GOOD_RESULT = {"gloss": "cloud", "confidence_pct": 93.5}
GOOD_SCRIPT = {
    "tagged_text": "[Yes] Great! [/Yes] Look up.",
    "timeline": {
        "events": [
            {"kind": "gesture", "tag": "Yes", "start_s": 0, "duration_s": 1.4,
             "body_parts": ["Neck"]},
            {"kind": "speech", "text": "Great!", "start_s": 0.0, "duration_s": 0.4},
            {"kind": "speech", "text": "Look up.", "start_s": 12.125, "duration_s": 0.8},
        ],
        "warnings": ["degraded to untagged speech"],
    },
}


def _with(body: dict, path: tuple, value) -> dict:
    """A deep copy of body with the field at path set to value."""
    body = json.loads(json.dumps(body))
    *parents, last = path
    target = body
    for key in parents:
        target = target[key]
    target[last] = value
    return body


_TEXT = st.text(max_size=6) | st.just("\ud800 hi")
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _TEXT,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=6)
_JUNK_BODIES = st.dictionaries(st.text(max_size=12), _JSON, max_size=3)


def _or_junk(strategy):
    return strategy | _JSON


_EVENTS = st.fixed_dictionaries({
    "kind": _or_junk(st.sampled_from(["gesture", "speech"])),
    "start_s": _or_junk(st.floats() | st.integers()),
    "duration_s": _or_junk(st.floats() | st.integers()),
    "tag": _or_junk(_TEXT),
    "text": _or_junk(_TEXT),
})
_RESULT_BODIES = _JUNK_BODIES | st.fixed_dictionaries({
    "gloss": _or_junk(_TEXT),
    "confidence_pct": _or_junk(st.floats() | st.integers()),
})
_SCRIPT_BODIES = _JUNK_BODIES | st.fixed_dictionaries({
    "tagged_text": _or_junk(_TEXT),
    "timeline": _or_junk(st.fixed_dictionaries({
        "events": _or_junk(st.lists(_EVENTS, max_size=3)),
        "warnings": _or_junk(st.lists(_TEXT, max_size=2)),
    })),
})


class TestRobotReplies:
    """What robot_sim makes of replies from a server that is not ours."""

    def run(self, log, result=GOOD_RESULT, script=GOOD_SCRIPT):
        with scripted_server(raw_frame("RESULT", result),
                             raw_frame("SCRIPT", script)) as address:
            return robot_sim(address, [make_sample(sample_id="s1")], log, timeout_s=5.0)

    def test_log_of_a_well_formed_reply(self, tmp_path):
        log = tmp_path / "robot.log"
        assert self.run(log) == 0
        assert log.read_text(encoding="utf-8") == (
            "SAMPLE s1\n"
            "RESULT cloud 93.50\n"
            "SCRIPT [Yes] Great! [/Yes] Look up.\n"
            "    0.00s gesture Yes (1.40s)\n"
            "    0.00s speech Great!\n"
            "   12.12s speech Look up.\n"
            "  warning: degraded to untagged speech\n"
        )

    def test_lone_surrogate_is_logged_escaped(self, tmp_path):
        log = tmp_path / "robot.log"
        assert self.run(log, script=_with(GOOD_SCRIPT, ("tagged_text",), "\ud800 hi")) == 0
        assert "SCRIPT \\ud800 hi\n" in log.read_text(encoding="utf-8")

    @pytest.mark.parametrize("reply, path, value", [
        ("result", ("confidence_pct",), "x"),
        ("result", ("confidence_pct",), math.nan),
        pytest.param("result", ("confidence_pct",), 10**400, id="result-400-digit-int"),
        ("result", ("confidence_pct",), True),
        ("result", ("gloss",), None),
        ("script", ("tagged_text",), 5),
        ("script", ("timeline",), []),
        ("script", ("timeline", "events"), {}),
        ("script", ("timeline", "events", 0), "gesture"),
        ("script", ("timeline", "events", 0, "kind"), "dance"),
        ("script", ("timeline", "events", 0, "kind"), ["gesture"]),
        ("script", ("timeline", "events", 0, "tag"), 3),
        ("script", ("timeline", "events", 1, "start_s"), "0"),
        ("script", ("timeline", "events", 1, "duration_s"), -math.inf),
        ("script", ("timeline", "events", 1, "start_s"), -0.5),
        ("script", ("timeline", "events", 0, "duration_s"), -1),
        ("script", ("timeline", "warnings"), [5]),
    ])
    def test_malformed_reply_fails_with_one_logged_error(self, tmp_path, caplog,
                                                         reply, path, value):
        good = {"result": GOOD_RESULT, "script": GOOD_SCRIPT}
        bodies = dict(good, **{reply: _with(good[reply], path, value)})
        log = tmp_path / "robot.log"
        with caplog.at_level(logging.ERROR, logger="signpipe.netpipe.robot"):
            assert self.run(log, **bodies) == 1
        [record] = [r for r in caplog.records if r.name == "signpipe.netpipe.robot"]
        assert record.levelno == logging.ERROR
        assert f"{reply.upper()} reply" in record.getMessage()
        assert log.read_text(encoding="utf-8") == "SAMPLE s1\n"

    @pytest.mark.parametrize("frames, message", [
        ((), "server closed the connection"),
        ((encode_frame(HELLO),), "expected RESULT, server sent HELLO"),
    ], ids=["hang-up", "wrong-type"])
    def test_missing_or_wrong_reply_fails_with_one_logged_error(self, tmp_path, caplog,
                                                                frames, message):
        log = tmp_path / "robot.log"
        with scripted_server(*frames) as address:
            with caplog.at_level(logging.ERROR, logger="signpipe.netpipe.robot"):
                status = robot_sim(address, [make_sample(sample_id="s1")], log,
                                   timeout_s=5.0)
        assert status == 1
        [record] = [r for r in caplog.records if r.name == "signpipe.netpipe.robot"]
        assert record.getMessage() == f"session failed: {message}"
        assert log.read_text(encoding="utf-8") == "SAMPLE s1\n"

    def test_an_id_that_cannot_be_encoded_fails_before_its_landmarks_are_sent(
            self, tmp_path, caplog):
        log, received = tmp_path / "robot.log", []
        with scripted_server(raw_frame("RESULT", GOOD_RESULT), raw_frame("SCRIPT", GOOD_SCRIPT),
                             received=received) as address:
            with caplog.at_level(logging.ERROR, logger="signpipe.netpipe.robot"):
                status = robot_sim(address, [make_sample(sample_id="a\ud800b")], log,
                                   timeout_s=5.0)
        assert status == 1
        assert log.read_text(encoding="utf-8") == "SAMPLE a\\ud800b\n"
        [record] = [r for r in caplog.records if r.name == "signpipe.netpipe.robot"]
        assert record.getMessage() == (
            "session failed: body is not wire-encodable: 'utf-8' codec can't encode "
            "character '\\ud800' in position 45: surrogates not allowed")
        assert received == ["HELLO"]

    @pytest.mark.parametrize("body, version", [
        ({"protocol_version": 2}, "2"), ({}, "None"),
        ({"protocol_version": 1.0}, "1.0"), ({"protocol_version": True}, "True"),
    ], ids=["two", "missing", "float", "bool"])
    def test_hello_of_another_protocol_fails_with_one_logged_error(
            self, tmp_path, caplog, body, version):
        log = tmp_path / "robot.log"
        with scripted_server(hello=raw_frame("HELLO", body)) as address:
            with caplog.at_level(logging.ERROR, logger="signpipe.netpipe.robot"):
                status = robot_sim(address, [make_sample(sample_id="s1")], log,
                                   timeout_s=5.0)
        assert status == 1
        [record] = [r for r in caplog.records if r.name == "signpipe.netpipe.robot"]
        assert record.getMessage() == (
            f"session failed: HELLO reply: unsupported protocol version {version}, expected 1")
        assert log.read_text(encoding="utf-8") == ""

    def test_realtime_script_within_the_timeout_is_waited_out(self, tmp_path):
        script = _with(GOOD_SCRIPT, ("timeline", "events", 2, "start_s"), 0.3)
        with scripted_server(raw_frame("RESULT", GOOD_RESULT),
                             raw_frame("SCRIPT", script)) as address:
            t0 = time.monotonic()
            status = robot_sim(address, [make_sample(sample_id="s1")],
                               tmp_path / "robot.log", realtime=True, timeout_s=5.0)
            elapsed = time.monotonic() - t0
        assert status == 0
        assert elapsed >= 0.3

    @pytest.mark.parametrize("start_s", [1e9, 1e10])
    def test_realtime_script_beyond_the_timeout_fails_without_waiting(
            self, tmp_path, caplog, start_s):
        script = _with(GOOD_SCRIPT, ("timeline", "events", 2, "start_s"), start_s)
        with scripted_server(raw_frame("RESULT", GOOD_RESULT),
                             raw_frame("SCRIPT", script)) as address:
            t0 = time.monotonic()
            with caplog.at_level(logging.ERROR, logger="signpipe.netpipe.robot"):
                status = robot_sim(address, [make_sample(sample_id="s1")],
                                   tmp_path / "robot.log", realtime=True, timeout_s=5.0)
            elapsed = time.monotonic() - t0
        assert status == 1
        assert elapsed < 1.0
        [record] = [r for r in caplog.records if r.name == "signpipe.netpipe.robot"]
        assert record.levelno == logging.ERROR
        assert "timeout" in record.getMessage()

    @settings(deadline=None, max_examples=60)
    @given(result=_RESULT_BODIES, script=_SCRIPT_BODIES)
    def test_arbitrary_replies_give_status_0_or_1(self, result, script):
        assert self.run(os.devnull, result, script) in (0, 1)
