"""The `signpipe` command: every pipeline stage behind one binary.

Settings read through _setting resolve as flags > SIGNPIPE_* environment
variables > --config JSON file > built-in defaults; options left unset keep
the library's defaults. Machine-readable output (CSV/TSV) goes to stdout;
progress and errors go to stderr. Exit codes: 0 success, 1 runtime failure,
2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import threading
import warnings
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np

from . import nn
from .dialogue import (
    DialogueWarning,
    HttpLlmBackend,
    MockLlmBackend,
    PromptTemplate,
    RecognitionEvent,
    compose,
)
from .errors import SignpipeError, UsageError, ValidationError
from .gesture import (
    GestureDb,
    descriptors_from_json,
    load_descriptors,
    playtime_stats,
    render_markup,
)
from .landmarks import LabelMap, read_corpus, read_label_map
from .netpipe import DEFAULT_PORT, ServerConfig, robot_sim, serve
from .preprocess import AugmentConfig, SelectionSpec, preprocess_pipeline

__all__ = ["main", "entry"]

ENV_PREFIX = "SIGNPIPE_"

log = logging.getLogger(__name__)


# -- settings resolution ----------------------------------------------------

def _load_config_file(args) -> dict:
    path = getattr(args, "config", None) or os.environ.get(ENV_PREFIX + "CONFIG")
    if not path:
        return {}
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"config file {path!r} does not exist")
    try:
        data = json.loads(p.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as e:
        raise UsageError(f"config file {path}: invalid JSON ({e})") from None
    if not isinstance(data, dict):
        raise UsageError(f"config file {path}: expected a JSON object")
    return data


def _setting(args, file_cfg: dict, key: str, cast, default):
    """One setting under the flags > env > file > default precedence."""
    value = getattr(args, key, None)
    if value is None:
        value = os.environ.get(ENV_PREFIX + key.upper())
    if value is None:
        value = file_cfg.get(key)
    if value is None:
        return default
    try:
        return cast(value)
    except (TypeError, ValueError):
        raise UsageError(f"bad value {value!r} for setting {key!r}") from None


def _given(**options) -> dict:
    """The options the user set; the rest keep the library's defaults."""
    return {k: v for k, v in options.items() if v is not None}


def _existing(path, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"{what} {str(path)!r} does not exist")
    return p


def _resolve_selection(args, file_cfg) -> SelectionSpec:
    path = _setting(args, file_cfg, "spec", str, None)
    if path is None:
        return SelectionSpec()
    return SelectionSpec.load(_existing(path, "selection spec"))


def _resolve_descriptors(args, file_cfg) -> GestureDb:
    path = _setting(args, file_cfg, "descriptors", str, None)
    if path is None:
        text = (resources.files("signpipe") / "data" / "descriptors.sample.json"
                ).read_text(encoding="utf-8")
        return descriptors_from_json(text, origin="bundled descriptor db")
    return load_descriptors(_existing(path, "descriptor db"))


def _resolve_templates(args, file_cfg) -> PromptTemplate:
    directory = _setting(args, file_cfg, "templates", str, None)
    if directory is None:
        return PromptTemplate.default()
    d = Path(directory)
    if not d.is_dir():
        raise UsageError(f"template directory {directory!r} does not exist")
    _existing(d / "step1.txt", "step-1 template")
    _existing(d / "step2.txt", "step-2 template")
    return PromptTemplate.load_dir(d)


def _resolve_labels(args, file_cfg) -> LabelMap | None:
    path = _setting(args, file_cfg, "labels", str, None)
    if path is None:
        return None
    return read_label_map(_existing(path, "label map"))


def _resolve_model_config(args, weights_path: Path | None = None) -> nn.ModelConfig:
    """--model-config, else the <weights>.json sidecar, else the default."""
    if args.model_config is not None:
        return nn.ModelConfig.load(_existing(args.model_config, "model config"))
    if weights_path is not None:
        sidecar = Path(str(weights_path) + ".json")
        if sidecar.is_file():
            return nn.ModelConfig.load(sidecar)
    return nn.DEFAULT_CONFIG


def _check_fit(cfg: nn.ModelConfig, selection: SelectionSpec,
               labels: LabelMap | None = None) -> None:
    try:
        cfg.check_inputs(selection.feature_dim, labels)
    except ValidationError as e:
        raise UsageError(str(e)) from None


def _resolve_model(args, file_cfg) -> tuple[
        dict, nn.ModelConfig, SelectionSpec, LabelMap | None]:
    """Weights, model config, selection and label map, checked to fit."""
    path = _setting(args, file_cfg, "weights", str, None)
    if path is None:
        raise UsageError("no weights file: pass --weights or set SIGNPIPE_WEIGHTS")
    weights_path = _existing(path, "weights file")
    w = nn.load_weights(weights_path)
    cfg = _resolve_model_config(args, weights_path)
    selection = _resolve_selection(args, file_cfg)
    labels = _resolve_labels(args, file_cfg)
    _check_fit(cfg, selection, labels)
    return w, cfg, selection, labels


def _resolve_backend_factory(args, file_cfg):
    kind = _setting(args, file_cfg, "backend", str, "mock")
    seed = _setting(args, file_cfg, "seed", int, 0)
    if kind == "mock":
        return lambda: MockLlmBackend(seed)
    if kind == "http":
        url = args.http_url or os.environ.get(ENV_PREFIX + "HTTP_URL")
        if not url:
            raise UsageError("http backend needs --http-url or SIGNPIPE_HTTP_URL")
        model = args.http_model or "gpt-4"
        return lambda: HttpLlmBackend(url, model)
    raise UsageError(f"unknown backend {kind!r} (choose mock or http)")


# -- shared pipeline helpers ------------------------------------------------

def _read_corpus_arg(path) -> list:
    samples = read_corpus(_existing(path, "corpus"))
    if not samples:
        raise ValidationError(f"corpus {path} has no samples")
    return samples


def _feature_batch(samples, selection, target_len):
    return [preprocess_pipeline(s, selection, target_len) for s in samples]


def _required_labels(samples) -> list[int]:
    labels = []
    for s in samples:
        if s.label is None:
            raise ValidationError(f"sample {s.sample_id!r} has no label")
        labels.append(s.label)
    return labels


def _logits(xs, w, cfg) -> np.ndarray:
    """(N, num_classes) logits, one forward pass per sample."""
    return np.stack([nn.forward(x, w, cfg) for x in xs])


def _evaluate(xs, ys, w, cfg) -> tuple[float, float]:
    """Mean cross-entropy and top-1 accuracy, forward passes only."""
    logits = _logits(xs, w, cfg)
    loss = sum(nn.cross_entropy(row, y) for row, y in zip(logits, ys))
    correct = int((np.argmax(logits, axis=1) == ys).sum())
    n = len(xs)
    return loss / n, correct / n


# -- subcommands ------------------------------------------------------------

def cmd_preprocess(args) -> int:
    file_cfg = _load_config_file(args)
    selection = _resolve_selection(args, file_cfg)
    seed = _setting(args, file_cfg, "seed", int, 0)
    samples = _read_corpus_arg(args.corpus)
    augment = None
    if args.augment:
        augment = AugmentConfig(
            resample_scale_range=tuple(args.resample_range),
            mask_prob=args.mask_prob,
            flip_prob=args.flip_prob,
            scale_range=tuple(args.scale_range),
            shift_range=tuple(args.shift_range),
            rotate_deg_range=tuple(args.rotate_range),
            shear_range=tuple(args.shear_range),
        )
    tensors = {}
    for i, sample in enumerate(samples):
        cfg = replace(augment, rng_seed=seed + i) if augment else None
        tensors[sample.sample_id] = preprocess_pipeline(
            sample, selection, args.target_len, cfg
        )
    nn.save_tensors(tensors, args.out)
    print(f"tensors\t{len(tensors)}")
    print(f"shape\t{args.target_len}x{selection.feature_dim}")
    return 0


def cmd_train(args) -> int:
    file_cfg = _load_config_file(args)
    selection = _resolve_selection(args, file_cfg)
    seed = _setting(args, file_cfg, "seed", int, 0)
    cfg = _resolve_model_config(args)
    _check_fit(cfg, selection)
    train_samples = _read_corpus_arg(args.corpus)
    if args.val_corpus is not None:
        val_samples = _read_corpus_arg(args.val_corpus)
    elif args.val_split > 0.0:
        if not args.val_split < 1.0:
            raise UsageError(f"--val-split must be in (0, 1), got {args.val_split}")
        rng = np.random.default_rng(seed)
        order = rng.permutation(len(train_samples))
        n_val = max(1, round(args.val_split * len(train_samples)))
        if n_val >= len(train_samples):
            raise UsageError("--val-split leaves no training samples")
        val_samples = [train_samples[i] for i in order[:n_val]]
        train_samples = [train_samples[i] for i in order[n_val:]]
    else:
        val_samples = []

    ys = _required_labels(train_samples)
    if max(ys) >= cfg.num_classes:
        raise UsageError(
            f"corpus label {max(ys)} outside the model's {cfg.num_classes} classes"
        )
    xs = _feature_batch(train_samples, selection, cfg.max_seq_len)
    val_xs = _feature_batch(val_samples, selection, cfg.max_seq_len)
    val_ys = _required_labels(val_samples) if val_samples else []

    w = nn.init_weights(cfg, seed)
    shuffle_rng = np.random.default_rng(seed + 1)
    order = np.arange(len(xs))
    print("epoch,train_loss,train_acc,val_loss,val_acc", flush=True)
    for epoch in range(1, args.epochs + 1):
        shuffle_rng.shuffle(order)
        for start in range(0, len(order), args.batch_size):
            batch = [(xs[i], ys[i]) for i in order[start:start + args.batch_size]]
            w, _ = nn.train_step(batch, w, cfg, args.lr)
        train_loss, train_acc = _evaluate(xs, ys, w, cfg)
        if val_xs:
            val_loss, val_acc = _evaluate(val_xs, val_ys, w, cfg)
            row = (f"{epoch},{train_loss:.6f},{train_acc:.4f},"
                   f"{val_loss:.6f},{val_acc:.4f}")
        else:
            val_acc = None
            row = f"{epoch},{train_loss:.6f},{train_acc:.4f},,"
        print(row, flush=True)
        if (args.target_val_acc is not None and val_acc is not None
                and val_acc >= args.target_val_acc):
            log.info("target validation accuracy reached at epoch %d", epoch)
            break
    nn.save_weights(w, args.out)
    cfg.save(str(args.out) + ".json")
    log.info("wrote %s (%d parameters)", args.out, nn.count_parameters(cfg))
    return 0


def cmd_infer(args) -> int:
    file_cfg = _load_config_file(args)
    w, cfg, selection, labels = _resolve_model(args, file_cfg)
    samples = _read_corpus_arg(args.samples)
    for sample in samples:
        x = preprocess_pipeline(sample, selection, cfg.max_seq_len)
        pred = nn.predict(x, w, cfg, labels)
        print(f"{pred.gloss}\t{pred.confidence:.4f}")
    return 0


def cmd_eval(args) -> int:
    file_cfg = _load_config_file(args)
    w, cfg, selection, labels = _resolve_model(args, file_cfg)
    samples = _read_corpus_arg(args.corpus)
    ys = _required_labels(samples)
    logits = _logits(_feature_batch(samples, selection, cfg.max_seq_len), w, cfg)
    k = min(5, cfg.num_classes)
    top1 = 0
    topk = 0
    per_class: dict[int, list[int]] = {}
    for row, y in zip(logits, ys):
        ranked = np.argsort(row)[::-1][:k]
        hit1 = int(ranked[0]) == y
        top1 += hit1
        topk += y in ranked
        stats = per_class.setdefault(y, [0, 0])
        stats[0] += hit1
        stats[1] += 1
    n = len(samples)
    print(f"top1\t{top1 / n:.4f}")
    print(f"top{k}\t{topk / n:.4f}")
    for class_id in sorted(per_class):
        correct, total = per_class[class_id]
        gloss = (labels.gloss_for(class_id) if labels is not None
                 else f"class_{class_id:03d}")
        print(f"class\t{class_id}\t{gloss}\t{correct}\t{total}")
    return 0


def cmd_serve(args) -> int:
    file_cfg = _load_config_file(args)
    w, model_cfg, selection, labels = _resolve_model(args, file_cfg)
    server_cfg = ServerConfig(
        weights=w,
        model_config=model_cfg,
        selection=selection,
        db=_resolve_descriptors(args, file_cfg),
        template=_resolve_templates(args, file_cfg),
        backend_factory=_resolve_backend_factory(args, file_cfg),
        labels=labels,
        **_given(
            host=args.host,
            port=_setting(args, file_cfg, "port", int, None),
            wpm=_setting(args, file_cfg, "wpm", float, None),
            max_retries=args.max_retries,
            deadline_s=args.deadline,
        ),
    )
    handle = serve(server_cfg)
    host, port = handle.address
    print(f"listening on {host}:{port}", file=sys.stderr, flush=True)
    try:
        threading.Event().wait()
    except KeyboardInterrupt:
        pass
    finally:
        handle.close()
    return 0


def cmd_robot_sim(args) -> int:
    file_cfg = _load_config_file(args)
    samples = _read_corpus_arg(args.corpus) if args.corpus else []
    port = _setting(args, file_cfg, "port", int, DEFAULT_PORT)
    return robot_sim(
        (args.host, port),
        samples,
        args.log,
        realtime=args.realtime,
        **_given(timeout_s=args.timeout),
    )


def cmd_compose(args) -> int:
    file_cfg = _load_config_file(args)
    db = _resolve_descriptors(args, file_cfg)
    template = _resolve_templates(args, file_cfg)
    backend = _resolve_backend_factory(args, file_cfg)()
    event = RecognitionEvent(args.gloss, args.confidence)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DialogueWarning)
        result = compose(event, db, backend, template,
                         **_given(max_retries=args.max_retries))
    print(render_markup(result.script))
    for message in result.warnings:
        print(f"warning: {message}", file=sys.stderr)
    return 0


def cmd_stats(args) -> int:
    file_cfg = _load_config_file(args)
    db = _resolve_descriptors(args, file_cfg)
    stats = playtime_stats(db)
    for name, value in stats.as_pairs():
        print(f"{name}\t{value:.6g}")
    return 0


def cmd_bench(args) -> int:
    file_cfg = _load_config_file(args)
    seed = _setting(args, file_cfg, "seed", int, 0)
    cfg = _resolve_model_config(args)
    w = nn.init_weights(cfg, seed)
    stats = nn.benchmark_inference(w, cfg, seed=seed, **_given(n_runs=args.runs))
    print(f"p50_ms\t{stats.p50_ms:.3f}")
    print(f"p99_ms\t{stats.p99_ms:.3f}")
    print(f"mean_ms\t{stats.mean_ms:.3f}")
    print(f"runs\t{stats.n_runs}")
    return 0


# -- parser -----------------------------------------------------------------

def _positive_int(text: str) -> int:
    """argparse type of the count flags: 0, negatives and non-integers exit 2."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _range_pair(parser, name, default, help_text):
    parser.add_argument(name, nargs=2, type=float, metavar=("LO", "HI"),
                        default=default, help=help_text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="signpipe",
        description="Sign-language recognition and co-speech gesture pipeline.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON settings file")
    common.add_argument("--seed", type=int, help="RNG seed (default 0)")
    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--weights", help="weights file (.sgnw)")
    model.add_argument("--model-config",
                       help="model config JSON (default: <weights>.json if present)")
    model.add_argument("--labels", help="label map JSON")
    model.add_argument("--spec", help="selection spec JSON")
    dialogue = argparse.ArgumentParser(add_help=False)
    dialogue.add_argument("--descriptors", help="gesture descriptor db JSON")
    dialogue.add_argument("--templates",
                          help="directory with step1.txt and step2.txt")
    dialogue.add_argument("--backend", choices=("mock", "http"))
    dialogue.add_argument("--http-url")
    dialogue.add_argument("--http-model")
    dialogue.add_argument("--max-retries", type=int)
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("preprocess", parents=[common],
                       help="corpus CSV -> feature tensor container")
    p.add_argument("corpus")
    p.add_argument("out")
    p.add_argument("--spec", help="selection spec JSON")
    p.add_argument("--target-len", type=_positive_int, default=32)
    p.add_argument("--augment", action="store_true",
                   help="apply seeded training-time augmentation")
    _range_pair(p, "--resample-range", (0.5, 1.5), "temporal length scale")
    p.add_argument("--mask-prob", type=float, default=0.05)
    p.add_argument("--flip-prob", type=float, default=0.5)
    _range_pair(p, "--scale-range", (0.9, 1.1), "affine scale")
    _range_pair(p, "--shift-range", (-0.1, 0.1), "affine shift")
    _range_pair(p, "--rotate-range", (-15.0, 15.0), "rotation degrees")
    _range_pair(p, "--shear-range", (-0.1, 0.1), "x shear")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", parents=[common],
                       help="train the classifier on a labeled corpus")
    p.add_argument("corpus")
    p.add_argument("--out", required=True, help="output weights file")
    p.add_argument("--spec", help="selection spec JSON")
    p.add_argument("--model-config", help="model config JSON")
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--batch-size", type=_positive_int, default=32)
    p.add_argument("--val-corpus", help="held-out labeled corpus")
    p.add_argument("--val-split", type=float, default=0.0,
                   help="fraction of the corpus held out when no --val-corpus")
    p.add_argument("--target-val-acc", type=float,
                   help="stop once validation accuracy reaches this")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", parents=[common, model],
                       help="classify each sample in a corpus file")
    p.add_argument("samples", help="corpus CSV (labels optional)")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("eval", parents=[common, model],
                       help="top-1/top-5 accuracy on a labeled corpus")
    p.add_argument("corpus")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("serve", parents=[common, model, dialogue],
                       help="run the recognition server")
    p.add_argument("--host")
    p.add_argument("--port", type=int)
    p.add_argument("--wpm", type=float)
    p.add_argument("--deadline", type=float,
                   help="per-sample processing deadline, seconds")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("robot-sim", parents=[common],
                       help="stream samples to a server and log the scripts")
    p.add_argument("corpus", nargs="?",
                   help="corpus CSV of samples to submit (omit for none)")
    p.add_argument("--log", required=True, help="event log output path")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int)
    p.add_argument("--realtime", action="store_true",
                   help="sleep through the scheduled timeline")
    p.add_argument("--timeout", type=float)
    p.set_defaults(func=cmd_robot_sim)

    p = sub.add_parser("compose", parents=[common, dialogue],
                       help="turn a recognized sign into a tagged script")
    p.add_argument("--gloss", required=True)
    p.add_argument("--confidence", type=float, required=True)
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("stats", parents=[common],
                       help="playtime statistics of a descriptor db")
    p.add_argument("--descriptors")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("bench", parents=[common],
                       help="forward-pass latency (p50/p99)")
    p.add_argument("--model-config")
    p.add_argument("--runs", type=_positive_int)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s: %(message)s",
                        level=logging.INFO)
    try:
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except SignpipeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 130


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
