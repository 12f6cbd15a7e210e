"""One repetition of a workload, in a fresh process.

    python3 perfbench/rep.py SPEC.json

run.py writes SPEC.json and starts this script once per repetition, so the
heap and the peak-RSS high-water mark start clean every time. The result is
written as JSON to the path in spec["out"]. Modes:

- loopback: serve() on port 0 and one robot_sim thread per client, all in
  this process, then check every reply the robots logged.
- train: read_corpus, preprocess_pipeline and one epoch of train_step at
  batch 32, checking each step's loss.
- replay: the traced run. The same inputs go through signpipe's public stage
  functions in the server's order, once untraced and once with a span around
  every call.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import resource
import sys
import threading
import time
from importlib import resources
from pathlib import Path

import common
from spans import Tracer, no_span
from workloads import WORKLOADS, client_streams

from signpipe import nn
from signpipe.dialogue import MockLlmBackend, PromptTemplate, RecognitionEvent, compose
from signpipe.errors import SignpipeError
from signpipe.gesture import load_descriptors, parse_markup, render_markup, schedule
from signpipe.landmarks import read_corpus
from signpipe.netpipe import (
    FrameDecoder,
    ServerConfig,
    WireMessage,
    encode_frame,
    landmarks_message,
    robot_sim,
    sample_from_body,
    serve,
)
from signpipe.preprocess import (
    SelectionSpec,
    normalize,
    preprocess_pipeline,
    resample,
    select_and_drop_z,
)

DESCRIPTORS = resources.files("signpipe") / "data" / "descriptors.sample.json"
BATCH = 32
LR = 0.05
WPM = 150.0          # the server's default speech rate
MAX_RETRIES = 2      # the server's default compose retry budget
RECV_BYTES = 65536   # the server reads the socket in chunks of this size

SETUP_REPEATS = 3    # set-up is timed this many times; the last instance runs

SELECTION = SelectionSpec()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _expected_reply(sample, w, cfg) -> tuple[str, str]:
    """The RESULT line the robot should log, from in-process predict."""
    x = preprocess_pipeline(sample, SELECTION, cfg.max_seq_len)
    pred = nn.predict(x, w, cfg)
    return pred.gloss, f"{pred.confidence * 100.0:.2f}"


# -- loopback -----------------------------------------------------------------

def _stamped(samples, stamps: list[float]):
    """Yield samples, recording when the robot asks for each one. robot_sim
    asks for the next sample only after it has logged the previous RESULT
    and SCRIPT, so consecutive stamps bound one sample's round trip."""
    for sample in samples:
        stamps.append(time.perf_counter())
        yield sample
    stamps.append(time.perf_counter())


def _parse_log(text: str) -> list[dict]:
    blocks: list[dict] = []
    for line in text.splitlines():
        if line.startswith("SAMPLE "):
            blocks.append({"id": line[len("SAMPLE "):]})
        elif line.startswith("RESULT ") and blocks:
            gloss, _, conf = line[len("RESULT "):].rpartition(" ")
            blocks[-1].update(gloss=gloss, conf=conf)
        elif line.startswith("SCRIPT ") and blocks:
            blocks[-1]["script"] = line[len("SCRIPT "):]
    return blocks


def _check_stream(samples, log_text: str, w, cfg, db, expected: dict) -> int:
    """Failed samples in one robot log: missing, wrong RESULT, or a SCRIPT
    that does not parse against the db."""
    blocks = _parse_log(log_text)
    failed = 0
    for i, sample in enumerate(samples):
        block = blocks[i] if i < len(blocks) else {}
        key = id(sample.frames)
        if key not in expected:
            expected[key] = _expected_reply(sample, w, cfg)
        gloss, conf = expected[key]
        ok = (block.get("id") == sample.sample_id and block.get("gloss") == gloss
              and block.get("conf") == conf and "script" in block)
        if ok:
            try:
                parse_markup(block["script"], db)
            except SignpipeError:
                ok = False
        failed += not ok
    return failed


def _start_server(spec: dict, cfg):
    w = nn.load_weights(spec["weights"])
    db = load_descriptors(str(DESCRIPTORS))
    handle = serve(ServerConfig(
        weights=w,
        model_config=cfg,
        selection=SELECTION,
        db=db,
        template=PromptTemplate.default(),
        backend_factory=functools.partial(MockLlmBackend, spec["seed"]),
        port=0,
    ))
    return handle, w, db


def loopback(spec: dict) -> dict:
    cfg = common.model_config(spec["smoke"])
    workload = WORKLOADS[spec["workload"]]
    streams = client_streams(workload, spec["seed"], spec["smoke"])
    if spec.get("limit"):
        streams = [s[:spec["limit"]] for s in streams]
    work = Path(spec["work"])

    setup_s = []
    for i in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        handle, w, db = _start_server(spec, cfg)
        setup_s.append(time.perf_counter() - t0)
        if i + 1 < SETUP_REPEATS:
            handle.close()

    stamps: list[list[float]] = [[] for _ in streams]
    codes: list[int | None] = [None] * len(streams)
    logs = [work / f"robot{c}.log" for c in range(len(streams))]

    def client(c: int) -> None:
        codes[c] = robot_sim(handle.address, _stamped(streams[c], stamps[c]), logs[c])

    with handle:
        threads = [threading.Thread(target=client, args=(c,)) for c in range(len(streams))]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall_s = time.perf_counter() - t0
    rss = _peak_rss_mb()

    expected: dict = {}
    failed = 0
    digests = []
    for c, samples in enumerate(streams):
        text = logs[c].read_text(encoding="utf-8") if logs[c].is_file() else ""
        digests.append(hashlib.sha256(text.encode("utf-8")).hexdigest())
        failed += _check_stream(samples, text, w, cfg, db, expected)
    # Each client's first sample warms lazy state (handler thread, first BLAS
    # calls); it counts towards throughput but not the latency percentiles.
    latencies = [(b - a) * 1000.0 for st in stamps for a, b in zip(st[1:], st[2:])]
    return {
        "setup_s": setup_s,
        "latency_ms": latencies,
        "wall_s": wall_s,
        "attempted": sum(len(s) for s in streams),
        "failed": failed,
        "error_sessions": sum(code != 0 for code in codes),
        "peak_rss_mb": rss,
        "determinism": digests,
    }


# -- train ----------------------------------------------------------------------

def _batches(items: list, steps: int | None) -> list[list]:
    """Consecutive batches of BATCH; `steps` batches cycling through items,
    or one epoch when steps is None."""
    if steps is None:
        return [items[i:i + BATCH] for i in range(0, len(items), BATCH)]
    return [[items[(s * BATCH + j) % len(items)] for j in range(BATCH)]
            for s in range(steps)]


def _mean_forward_loss(batch, w, cfg) -> float:
    return sum(nn.cross_entropy(nn.forward(x, w, cfg), y) for x, y in batch) / len(batch)


def train(spec: dict) -> dict:
    cfg = common.model_config(spec["smoke"])
    setup_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        w = nn.init_weights(cfg, seed=spec["seed"])
        setup_s.append(time.perf_counter() - t0)

    t0 = time.perf_counter()
    samples = read_corpus(spec["corpus"])
    read_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    data = [(preprocess_pipeline(s, SELECTION, cfg.max_seq_len), s.label)
            for s in samples]
    preprocess_s = time.perf_counter() - t0

    step_ms, losses, failed = [], [], 0
    for batch in _batches(data, None):
        expected = _mean_forward_loss(batch, w, cfg)  # untimed correctness check
        t0 = time.perf_counter()
        w, loss = nn.train_step(batch, w, cfg, LR)
        step_ms.append((time.perf_counter() - t0) * 1000.0)
        if not (math.isfinite(loss) and math.isclose(loss, expected, rel_tol=1e-5)):
            failed += len(batch)
        losses.append(repr(loss))
    total_s = read_s + preprocess_s + sum(step_ms) / 1000.0
    return {
        "setup_s": setup_s,
        "latency_ms": step_ms[1:],  # the first step warms the allocator
        "wall_s": total_s,
        "attempted": len(data),
        "failed": failed,
        "peak_rss_mb": _peak_rss_mb(),
        "determinism": losses,
    }


# -- replay (traced run) --------------------------------------------------------

def _script_body(composed, timeline) -> dict:
    """The SCRIPT body exactly as the server builds it."""
    events = []
    for ev in timeline.events:
        if hasattr(ev, "tag"):
            events.append({"kind": "gesture", "tag": ev.tag, "start_s": ev.start_s,
                           "duration_s": ev.duration_s,
                           "body_parts": sorted(ev.body_parts)})
        else:
            events.append({"kind": "speech", "text": ev.text, "start_s": ev.start_s,
                           "duration_s": ev.duration_s})
    return {
        "tagged_text": render_markup(composed.script),
        "timeline": {"events": events,
                     "warnings": list(composed.warnings) + list(timeline.warnings)},
    }


def _serve_stages(sample, ctx: dict, span, rid: str) -> dict:
    """One clip through the serve path's public functions in the server's
    order, plus the model's sub-stages. Returns what the tracer cannot see."""
    w, cfg, db = ctx["w"], ctx["cfg"], ctx["db"]
    with span("netpipe.encode", rid):
        frame = encode_frame(landmarks_message(sample))
    with span("netpipe.decode", rid):
        decoder = FrameDecoder()
        for i in range(0, len(frame), RECV_BYTES):
            messages = decoder.feed(frame[i:i + RECV_BYTES])
    with span("netpipe.sample_from_body", rid):
        received = sample_from_body(messages[0].body)
    with span("preprocess.select", rid):
        frames = select_and_drop_z(received, SELECTION)
    with span("preprocess.normalize", rid):
        frames = normalize(frames)
    with span("preprocess.resample", rid):
        x = resample(frames, cfg.max_seq_len)
    with span("nn.feature_extract", rid):
        h = nn.feature_extract(x, w, cfg)
    h = h + w["pos_embedding"][:x.shape[0]]
    for i in range(cfg.num_layers):
        with span(f"nn.encoder_layer.{i}", rid):
            h = nn.encoder_layer(h, w, cfg, i)
    with span("nn.forward", rid):
        nn.forward(x, w, cfg)
    with span("nn.predict", rid):
        pred = nn.predict(x, w, cfg)
    confidence_pct = pred.confidence * 100.0
    with span("dialogue.compose", rid):
        composed = compose(RecognitionEvent(pred.gloss, confidence_pct), db,
                           ctx["backend"], ctx["template"], MAX_RETRIES)
    with span("gesture.schedule", rid):
        timeline = schedule(composed.script, db, WPM)
    with span("gesture.render_markup", rid):
        render_markup(composed.script)
    with span("netpipe.reply_encode", rid):
        encode_frame(WireMessage("RESULT", {"gloss": pred.gloss,
                                            "confidence_pct": confidence_pct}))
        encode_frame(WireMessage("SCRIPT", _script_body(composed, timeline)))
    return {"frame_bytes": len(frame), "backend_calls": composed.backend_calls,
            "degraded": bool(composed.warnings)}


def replay(spec: dict) -> dict:
    cfg = common.model_config(spec["smoke"])
    workload = WORKLOADS[spec["workload"]]
    streams = client_streams(workload, spec["seed"], spec["smoke"])
    # Round-robin over clients, as the server sees them arrive.
    order = [s for group in zip(*streams) for s in group][:spec["replay_samples"]]
    ctx = {
        "w": nn.load_weights(spec["weights"]),
        "cfg": cfg,
        "db": load_descriptors(str(DESCRIPTORS)),
        "template": PromptTemplate.default(),
        "backend": MockLlmBackend(spec["seed"]),
    }
    tracer = Tracer()

    with tracer.span("landmarks.read_corpus"):
        corpus = read_corpus(spec["corpus"])
    corpus_rows = sum(len(s.frames) for s in corpus)

    _serve_stages(order[0], ctx, no_span, "warmup")
    # Each sample runs untraced, then traced, so drift cancels in the
    # difference that estimates the tracing overhead.
    untraced_ms, traced_ms, extras = [], [], []
    for sample in order:
        t0 = time.perf_counter()
        _serve_stages(sample, ctx, no_span, sample.sample_id)
        untraced_ms.append((time.perf_counter() - t0) * 1000.0)
        t0 = time.perf_counter()
        with tracer.span("request", sample.sample_id):
            extras.append(_serve_stages(sample, ctx, tracer.span, sample.sample_id))
        traced_ms.append((time.perf_counter() - t0) * 1000.0)

    selected = SELECTION.row_of()
    kept = sum((f.kind, f.landmark_index) in selected for s in order for f in s.frames)
    received = sum(len(s.frames) for s in order)

    data = []
    for s in corpus:
        with tracer.span("preprocess.select", s.sample_id):
            frames = select_and_drop_z(s, SELECTION)
        with tracer.span("preprocess.normalize", s.sample_id):
            frames = normalize(frames)
        with tracer.span("preprocess.resample", s.sample_id):
            data.append((resample(frames, cfg.max_seq_len), s.label))
    w = ctx["w"]
    for batch in _batches(data, spec["train_steps"]):
        with tracer.span("nn.train_step"):
            w, _ = nn.train_step(batch, w, cfg, LR)

    tracer.dump(Path(spec["spans"]))
    return {
        "span_ms": tracer.durations_ms(),
        "corpus_rows": corpus_rows,
        "untraced_ms": untraced_ms,
        "traced_ms": traced_ms,
        "frame_bytes": [e["frame_bytes"] for e in extras],
        "backend_calls": [e["backend_calls"] for e in extras],
        "degraded": [e["degraded"] for e in extras],
        "kept_row_frac": kept / received,
        "attempted": len(order),
        "failed": 0,
    }


MODES = {"loopback": loopback, "train": train, "replay": replay}


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    result = MODES[spec["mode"]](spec)
    Path(spec["out"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
