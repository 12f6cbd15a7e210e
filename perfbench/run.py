"""The signpipe benchmark.

    python3 perfbench/run.py --workload tutor_1c --seed 1 --seconds 35 --trace 0

Builds the workload's inputs from --seed, runs repetitions in fresh
processes (rep.py) until --seconds have passed (at least two), checks every
output, and prints an environment header, one line per metric and, last, a
JSON object with the keys correct, attempted, failed and metrics. --trace 0
reports the end-to-end metrics; --trace 1 makes the traced run and reports
the per-layer metrics. Exits 1 if any output is wrong. README.md describes
the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import common
from workloads import WORKLOADS, client_pools, train_corpus

from signpipe import nn
from signpipe.landmarks import write_corpus

MIN_REPS = 2
MAX_REPS = 50
RUN_LIMIT_S = 170.0        # every run must end within 180 s
REPLAY_SAMPLES = 24        # clips replayed through the traced stages
TRACE_TRAIN_STEPS = 2      # train_step probes on serve workloads
TRACE_CORPUS_CLIPS = {"tutor_1c": 32, "holistic_2c": 8}   # read_corpus probe
TRACE_LOOPBACK_LIMIT = 40  # samples in the train_corpus serve-path probe

# Serve-path stages that block a reply, summed for netpipe.wait_ms. The
# model's sub-stages (feature_extract, encoder layers, forward) run inside
# predict and are not added again.
ON_PATH_STAGES = (
    "netpipe.encode", "netpipe.decode", "netpipe.sample_from_body",
    "preprocess.select", "preprocess.normalize", "preprocess.resample",
    "nn.predict", "dialogue.compose", "gesture.schedule",
    "gesture.render_markup", "netpipe.reply_encode",
)


class RepFailed(Exception):
    pass


def _run_rep(spec: dict, work: Path, index: int, started: float) -> dict:
    rep_dir = work / f"rep{index}"
    rep_dir.mkdir()
    spec = dict(spec, work=str(rep_dir), out=str(rep_dir / "result.json"))
    spec_path = rep_dir / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    timeout = max(5.0, RUN_LIMIT_S - (time.perf_counter() - started))
    try:
        proc = subprocess.run(
            [sys.executable, str(common.BENCH_DIR / "rep.py"), str(spec_path)],
            cwd=common.ROOT, stdout=sys.stderr,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise RepFailed(f"{spec['mode']} repetition {index} timed out") from None
    if proc.returncode != 0 or not Path(spec["out"]).is_file():
        raise RepFailed(f"{spec['mode']} repetition {index} exited {proc.returncode}")
    return json.loads(Path(spec["out"]).read_text(encoding="utf-8"))


def _measure(args, base: dict, work: Path, started: float) -> tuple[dict, list[dict]]:
    """Repetitions until the next one would overrun --seconds."""
    mode = "train" if args.workload == "train_corpus" else "loopback"
    reps: list[dict] = []
    t_start = time.perf_counter()
    while len(reps) < MAX_REPS:
        t0 = time.perf_counter()
        reps.append(_run_rep(dict(base, mode=mode), work, len(reps), started))
        last = time.perf_counter() - t0
        if len(reps) >= MIN_REPS and time.perf_counter() - t_start + last > args.seconds:
            break
    return _end_to_end(reps), reps


def _end_to_end(reps: list[dict]) -> dict:
    latencies = [v for r in reps for v in r["latency_ms"]]
    return {
        "setup_s": (statistics.median([v for r in reps for v in r["setup_s"]]), "s"),
        "latency_p50_ms": (common.percentile(latencies, 50), "ms"),
        "latency_p90_ms": (common.percentile(latencies, 90), "ms"),
        "throughput_sps": (statistics.median([r["attempted"] / r["wall_s"] for r in reps]), "1/s"),
        "peak_rss_mb": (statistics.median([r["peak_rss_mb"] for r in reps]), "MB"),
    }


def _trace(args, base: dict, work: Path, started: float) -> tuple[dict, list[dict]]:
    """One untraced loopback repetition, then the traced replay."""
    workload = WORKLOADS[args.workload]
    loop = _run_rep(dict(base, mode="loopback",
                         limit=None if workload.clients else TRACE_LOOPBACK_LIMIT),
                    work, 0, started)
    rep = _run_rep(dict(
        base, mode="replay", spans=str(_spans_path(args)),
        replay_samples=REPLAY_SAMPLES,
        train_steps=TRACE_TRAIN_STEPS if workload.clients else None,
    ), work, 1, started)

    span = {name: statistics.median(v) for name, v in rep["span_ms"].items()}
    stage_sum = sum(span[name] for name in ON_PATH_STAGES)
    latency_p50 = common.percentile(loop["latency_ms"], 50)
    overhead = [t - u for t, u in zip(rep["traced_ms"], rep["untraced_ms"])]
    # Every span but the per-sample "request" span is one per-layer time.
    metrics = {f"{name}_ms": (ms, "ms") for name, ms in span.items() if name != "request"}
    metrics.update({
        "netpipe.frame_bytes": (statistics.median(rep["frame_bytes"]), "bytes"),
        "netpipe.error_replies": (float(loop["error_sessions"]), "count"),
        "netpipe.wait_ms": (latency_p50 - stage_sum, "ms"),
        "preprocess.kept_row_frac": (rep["kept_row_frac"], "ratio"),
        "landmarks.rows_per_s": (
            rep["corpus_rows"] / (span["landmarks.read_corpus"] / 1000.0), "1/s"),
        "dialogue.backend_calls_per_compose": (float(statistics.mean(rep["backend_calls"])), "count"),
        "dialogue.degraded_frac": (float(statistics.mean(rep["degraded"])), "ratio"),
        "trace.stage_sum_ms": (stage_sum, "ms"),
        "trace.loopback_p50_ms": (latency_p50, "ms"),
        "trace.overhead_ms": (statistics.median(overhead), "ms"),
    })
    return metrics, [loop, rep]


def _spans_path(args) -> Path:
    common.OUT_DIR.mkdir(exist_ok=True)
    return common.OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"


def _write_inputs(args, work: Path) -> dict:
    """The program's inputs: initial weights and, where used, a corpus CSV."""
    cfg = common.model_config(args.smoke)
    weights = work / "model.sgnw"
    nn.save_weights(nn.init_weights(cfg, seed=args.seed), weights)
    corpus = work / "corpus.csv"
    if args.workload == "train_corpus":
        write_corpus(train_corpus(args.seed, args.smoke), corpus)
    elif args.trace:
        workload = WORKLOADS[args.workload]
        clips = [s for pool in client_pools(workload, args.seed, args.smoke)
                 for s in pool][:TRACE_CORPUS_CLIPS[args.workload]]
        write_corpus(clips, corpus)
    return {"workload": args.workload, "seed": args.seed, "smoke": args.smoke,
            "weights": str(weights), "corpus": str(corpus)}


def _check_determinism(reps: list[dict]) -> int:
    """Samples of repetitions whose robot logs (or training losses) differ
    from the first repetition's on the same seed."""
    first = reps[0].get("determinism")
    return sum(r["attempted"] for r in reps[1:] if r.get("determinism") != first)


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny model and a few samples, for the smoke test")
    return p.parse_args(argv)


def main(argv=None) -> int:
    started = time.perf_counter()
    args = _parse_args(argv)
    env = common.environment()
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    common.WORK_DIR.mkdir(exist_ok=True)
    work = common.WORK_DIR / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir()
    try:
        base = _write_inputs(args, work)
        if args.trace:
            metrics, reps = _trace(args, base, work, started)
        else:
            metrics, reps = _measure(args, base, work, started)
        failed = sum(r["failed"] for r in reps)
        if not args.trace:
            failed += _check_determinism(reps)
    except RepFailed as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r["attempted"] for r in reps)
    samples = sum(len(r.get("latency_ms", ())) for r in reps)
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"repetitions={len(reps)} timed_samples={samples} "
          f"failed_frac={failed / attempted:.4f}")
    if args.workload == "train_corpus" and not args.trace:
        print(f"# train_sps={metrics['throughput_sps'][0]:.4f} 1/s "
              "(samples through read_corpus + preprocess + one epoch)")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.4f} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
