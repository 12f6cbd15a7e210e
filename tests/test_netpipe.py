"""Wire format, protocol state machine, server, and robot client."""

import contextlib
import hashlib
import json
import logging
import math
import os
import socket
import struct
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from signpipe.dialogue import LlmBackend, MockLlmBackend, PromptTemplate, ScriptedLlmBackend
from signpipe.errors import (
    BackendError,
    FrameError,
    ValidationError,
)
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
    robot_sim,
    sample_from_body,
    sample_to_body,
    serve,
)
from signpipe.nn import ModelConfig, init_weights
from signpipe.preprocess import SelectionSpec

from conftest import make_sample, sign_samples

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
        for body in ({"protocol_version": 2}, {}, {"protocol_version": "1"}):
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
    """Sleeps on every call and records when each call started."""

    def __init__(self, delay_s):
        self.delay_s = delay_s
        self.starts = []

    def complete(self, prompt):
        self.starts.append(time.monotonic())
        time.sleep(self.delay_s)
        return "too late"


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
                               ("max_retries", -1), ("port", 70000),
                               ("port", -1)]:
            cfg = server_config(db=fixture_db, **{setting: value})
            with pytest.raises(ValidationError, match=setting):
                cfg.validate()

    def test_landmarks_replies_leave_in_one_write(self, fixture_db, monkeypatch):
        writes = []
        send = MessageSocket.send

        def recording_send(link, *messages):
            writes.append([m.type for m in messages])
            send(link, *messages)

        monkeypatch.setattr(MessageSocket, "send", recording_send)
        with serve(server_config(db=fixture_db)) as handle:
            talk(handle.address, HELLO, landmarks_message(make_sample()), BYE)
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

    def test_slow_pipeline_times_out(self, fixture_db):
        cfg = server_config(db=fixture_db, deadline_s=0.2,
                            backend_factory=lambda: SlowBackend(1.0))
        with serve(cfg) as handle:
            replies = talk(handle.address, HELLO, landmarks_message(make_sample()))
        assert [m.type for m in replies] == ["HELLO", "ERROR"]
        assert replies[1].body["code"] == "TIMEOUT"

    def test_no_backend_call_starts_after_the_deadline(self, fixture_db):
        backend = SlowBackend(0.5)
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

    def test_unencodable_reply_is_internal_error(self, fixture_db, caplog):
        # A lone surrogate parses as markup but has no UTF-8 encoding.
        cfg = server_config(db=fixture_db, backend_factory=lambda: ScriptedLlmBackend(
            ["\ud800 hi"] * 2))
        with caplog.at_level(logging.ERROR, logger="signpipe.netpipe.server"):
            with serve(cfg) as handle:
                replies = talk(handle.address, HELLO, landmarks_message(make_sample()))
        assert [m.type for m in replies] == ["HELLO", "ERROR"]
        assert replies[1].body["code"] == "INTERNAL"
        [record] = [r for r in caplog.records if r.name == "signpipe.netpipe.server"]
        assert record.getMessage().startswith("cannot encode a reply")
        assert "surrogates not allowed" in record.getMessage()

    def test_backend_failure_is_internal_error(self, fixture_db):
        cfg = server_config(db=fixture_db,
                            backend_factory=lambda: FailingBackend())
        with serve(cfg) as handle:
            replies = talk(handle.address, HELLO, landmarks_message(make_sample()))
        assert [m.type for m in replies] == ["HELLO", "ERROR"]
        assert replies[1].body["code"] == "INTERNAL"


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
def scripted_server(*frames: bytes):
    """A one-connection server: it answers HELLO and BYE in kind and every
    LANDMARKS with frames, sent as they are. Yields its address."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(10.0)
    replies = {"HELLO": encode_frame(HELLO), "LANDMARKS": b"".join(frames),
               "BYE": encode_frame(BYE)}

    def run():
        with listener:
            conn, _ = listener.accept()
        with conn:
            conn.settimeout(10.0)
            link = MessageSocket(conn)
            try:
                while (msg := link.recv()) is not None:
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

    @settings(deadline=None, max_examples=60)
    @given(result=_RESULT_BODIES, script=_SCRIPT_BODIES)
    def test_arbitrary_replies_give_status_0_or_1(self, result, script):
        assert self.run(os.devnull, result, script) in (0, 1)
