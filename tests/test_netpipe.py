"""Wire format, protocol state machine, server, and robot client."""

import hashlib
import json
import math
import socket
import struct
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from signpipe.dialogue import LlmBackend, MockLlmBackend, PromptTemplate
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
    def __init__(self, delay_s):
        self.delay_s = delay_s

    def complete(self, prompt):
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

    def test_backend_failure_is_internal_error(self, fixture_db):
        cfg = server_config(db=fixture_db,
                            backend_factory=lambda: FailingBackend())
        with serve(cfg) as handle:
            replies = talk(handle.address, HELLO, landmarks_message(make_sample()))
        assert [m.type for m in replies] == ["HELLO", "ERROR"]
        assert replies[1].body["code"] == "INTERNAL"


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
