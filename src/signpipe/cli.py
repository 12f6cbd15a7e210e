"""The `signpipe` command: every pipeline stage behind one binary.

The nine settings in _SETTINGS are resolved and checked once, as the
command starts: flag > SIGNPIPE_* environment variable > --config JSON file
> built-in default. Other options left unset keep the library's defaults.
Machine-readable output (CSV/TSV) goes to stdout; progress and errors go to
stderr. Exit codes: 0 success, 1 runtime failure, 2 usage or configuration
error, or a file or port the OS refuses (OSError).
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
import threading
import warnings
from contextlib import contextmanager
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
    load_descriptors,
    playtime_stats,
    render_markup,
)
from .jsonio import check_fields, load_json, replacing
from .landmarks import LabelMap, read_corpus, read_label_map
from .netpipe import DEFAULT_PORT, ServerConfig, robot_sim, serve
from .preprocess import AugmentConfig, SelectionSpec, preprocess_pipeline

__all__ = ["main", "entry"]

ENV_PREFIX = "SIGNPIPE_"

log = logging.getLogger(__name__)


# -- settings resolution ----------------------------------------------------

_DATA = resources.files("signpipe") / "data"

# The nine settings: each one's JSON type in a --config file, which is also
# the cast applied to its flag or SIGNPIPE_* environment value, and its
# default, which is used as given.
_SETTINGS = {
    "weights": (str, None),
    "labels": (str, None),
    "spec": (str, None),
    "descriptors": (str, _DATA / "descriptors.sample.json"),
    "templates": (str, _DATA / "templates"),
    "backend": (str, "mock"),
    "seed": (int, 0),
    "port": (int, DEFAULT_PORT),
    "wpm": (float, None),
}


def _load_config_file(args) -> dict:
    path = getattr(args, "config", None) or os.environ.get(ENV_PREFIX + "CONFIG")
    if not path:
        return {}
    what = f"config file {path}"
    shape = {key: cast for key, (cast, _) in _SETTINGS.items()}
    return check_fields(load_json(path, what, UsageError, shape), what, UsageError, _SETTINGS)


def _resolve_settings(args) -> None:
    """Set each setting the command has a flag for on args: the flag, else
    SIGNPIPE_<NAME>, else the --config value, else the default, cast and
    checked here once."""
    file_cfg = _load_config_file(args)
    for key, (cast, default) in _SETTINGS.items():
        if not hasattr(args, key):
            continue
        value = getattr(args, key)
        if value is None:
            value = os.environ.get(ENV_PREFIX + key.upper(), file_cfg.get(key))
        if value is None:
            value = default
        else:
            try:
                value = cast(value)
            except (TypeError, ValueError):
                raise UsageError(f"bad value {value!r} for setting {key!r}") from None
        setattr(args, key, value)
    if args.seed < 0:  # numpy's generators take no negative seed
        raise UsageError(f"seed must not be negative, got {args.seed}")


def _given(**options) -> dict:
    """The options the user set; the rest keep the library's defaults."""
    return {k: v for k, v in options.items() if v is not None}


@contextmanager
def _usage_errors(prefix: str = ""):
    """Raise a ValidationError from the block as a UsageError (exit 2)."""
    try:
        yield
    except ValidationError as e:
        raise UsageError(f"{prefix}{e}") from None


def _resolve_selection(args) -> SelectionSpec:
    return SelectionSpec() if args.spec is None else SelectionSpec.load(args.spec)


def _sidecar(weights_path) -> Path:
    return Path(f"{weights_path}.json")


def _resolve_model_config(args, weights_path: str | None = None) -> nn.ModelConfig:
    """--model-config, else the <weights>.json sidecar, else the default."""
    path = args.model_config
    if path is None and weights_path is not None:
        sidecar = _sidecar(weights_path)
        path = sidecar if sidecar.is_file() else None
    return nn.DEFAULT_CONFIG if path is None else nn.ModelConfig.load(path)


def _resolve_model(args) -> tuple[
        dict, nn.ModelConfig, SelectionSpec, LabelMap | None]:
    """Weights, model config, selection and label map, checked to fit."""
    if args.weights is None:
        raise UsageError("no weights file: pass --weights or set SIGNPIPE_WEIGHTS")
    w = nn.load_weights(args.weights)
    cfg = _resolve_model_config(args, args.weights)
    selection = _resolve_selection(args)
    labels = None if args.labels is None else read_label_map(args.labels)
    with _usage_errors():
        cfg.check_inputs(selection.feature_dim, labels)
    return w, cfg, selection, labels


def _resolve_backend_factory(args):
    if args.backend == "mock":
        return lambda: MockLlmBackend(args.seed)
    if args.backend == "http":
        url = args.http_url or os.environ.get(ENV_PREFIX + "HTTP_URL")
        if not url:
            raise UsageError("http backend needs --http-url or SIGNPIPE_HTTP_URL")
        with _usage_errors():
            backend = HttpLlmBackend(url, args.http_model or "gpt-4")
        return lambda: backend
    raise UsageError(f"unknown backend {args.backend!r} (choose mock or http)")


# -- shared pipeline helpers ------------------------------------------------

def _read_corpus_arg(path) -> list:
    samples = read_corpus(path)
    if not samples:
        raise ValidationError(f"corpus {path} has no samples")
    return samples


def _feature_batch(samples, selection, target_len):
    return [preprocess_pipeline(s, selection, target_len) for s in samples]


def _required_labels(samples, cfg: nn.ModelConfig) -> list[int]:
    """Every sample's label; each must be one of the model's classes."""
    labels = []
    for s in samples:
        if s.label is None:
            raise ValidationError(f"sample {s.sample_id!r} has no label")
        if s.label >= cfg.num_classes:
            raise UsageError(
                f"corpus label {s.label} outside the model's {cfg.num_classes} classes"
            )
        labels.append(s.label)
    return labels


def _evaluate(xs, ys, w, cfg) -> tuple[float, float]:
    """Mean cross-entropy and top-1 accuracy, forward passes only."""
    logits = nn.forward_batch(xs, w, cfg)
    loss = sum(nn.cross_entropy(row, y) for row, y in zip(logits, ys))
    correct = int((np.argmax(logits, axis=1) == ys).sum())
    n = len(xs)
    return loss / n, correct / n


# -- subcommands ------------------------------------------------------------

def cmd_preprocess(args) -> int:
    augment = None
    if args.augment:
        with _usage_errors("augmentation flags: "):
            augment = AugmentConfig(
                resample_scale_range=tuple(args.resample_range),
                mask_prob=args.mask_prob,
                flip_prob=args.flip_prob,
                scale_range=tuple(args.scale_range),
                shift_range=tuple(args.shift_range),
                rotate_deg_range=tuple(args.rotate_range),
                shear_range=tuple(args.shear_range),
            )
    selection = _resolve_selection(args)
    samples = _read_corpus_arg(args.corpus)
    # Opened first, so an `out` that cannot be written fails before any work.
    with replacing(args.out) as out:
        tensors = {}
        for i, sample in enumerate(samples):
            cfg = replace(augment, rng_seed=args.seed + i) if augment else None
            tensors[sample.sample_id] = preprocess_pipeline(
                sample, selection, args.target_len, cfg
            )
        nn.write_tensors(tensors, out)
    print(f"tensors\t{len(tensors)}")
    print(f"shape\t{args.target_len}x{selection.feature_dim}")
    return 0


def cmd_train(args) -> int:
    selection = _resolve_selection(args)
    cfg = _resolve_model_config(args)
    with _usage_errors():
        cfg.check_inputs(selection.feature_dim)
    train_samples = _read_corpus_arg(args.corpus)
    if args.val_corpus is not None:
        val_samples = _read_corpus_arg(args.val_corpus)
    elif args.val_split > 0.0:
        rng = np.random.default_rng(args.seed)
        order = rng.permutation(len(train_samples))
        n_val = max(1, round(args.val_split * len(train_samples)))
        if n_val >= len(train_samples):
            raise UsageError("--val-split leaves no training samples")
        val_samples = [train_samples[i] for i in order[:n_val]]
        train_samples = [train_samples[i] for i in order[n_val:]]
    else:
        val_samples = []

    ys = _required_labels(train_samples, cfg)
    xs = _feature_batch(train_samples, selection, cfg.max_seq_len)
    val_xs = _feature_batch(val_samples, selection, cfg.max_seq_len)
    val_ys = _required_labels(val_samples, cfg) if val_samples else []
    del train_samples, val_samples  # every row; training reads only the features

    w = nn.init_weights(cfg, args.seed)
    shuffle_rng = np.random.default_rng(args.seed + 1)
    order = np.arange(len(xs))
    # The weights file and its sidecar are opened before the first epoch, so
    # an --out that cannot be written fails before any training runs.
    with replacing(args.out) as out, replacing(_sidecar(args.out)) as sidecar:
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
        nn.write_tensors(w, out)
        sidecar.write(cfg.to_json().encode("utf-8"))
    log.info("wrote %s (%d parameters)", args.out, nn.count_parameters(cfg))
    return 0


def cmd_infer(args) -> int:
    w, cfg, selection, labels = _resolve_model(args)
    samples = _read_corpus_arg(args.samples)
    for sample in samples:
        x = preprocess_pipeline(sample, selection, cfg.max_seq_len)
        pred = nn.predict(x, w, cfg, labels)
        print(f"{pred.gloss}\t{pred.confidence:.4f}")
    return 0


def cmd_eval(args) -> int:
    w, cfg, selection, labels = _resolve_model(args)
    samples = _read_corpus_arg(args.corpus)
    ys = _required_labels(samples, cfg)
    logits = nn.forward_batch(_feature_batch(samples, selection, cfg.max_seq_len), w, cfg)
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
    w, model_cfg, selection, labels = _resolve_model(args)
    server_cfg = ServerConfig(
        weights=w,
        model_config=model_cfg,
        selection=selection,
        db=load_descriptors(args.descriptors),
        template=PromptTemplate.load_dir(args.templates),
        backend_factory=_resolve_backend_factory(args),
        labels=labels,
        port=args.port,
        **_given(
            host=args.host,
            wpm=args.wpm,
            max_retries=args.max_retries,
            deadline_s=args.deadline,
        ),
    )
    with _usage_errors():
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
    samples = _read_corpus_arg(args.corpus) if args.corpus else []
    return robot_sim(
        (args.host, args.port),
        samples,
        args.log,
        realtime=args.realtime,
        **_given(timeout_s=args.timeout),
    )


def cmd_compose(args) -> int:
    db = load_descriptors(args.descriptors)
    template = PromptTemplate.load_dir(args.templates)
    backend = _resolve_backend_factory(args)()
    event = RecognitionEvent(args.gloss, args.confidence)
    with warnings.catch_warnings(), _usage_errors():
        warnings.simplefilter("ignore", DialogueWarning)
        # compose raises ValidationError only for a bad --max-retries.
        result = compose(event, db, backend, template,
                         **_given(max_retries=args.max_retries))
    print(render_markup(result.script))
    for message in result.warnings:
        print(f"warning: {message}", file=sys.stderr)
    return 0


def cmd_stats(args) -> int:
    stats = playtime_stats(load_descriptors(args.descriptors))
    for name, value in stats.as_pairs():
        print(f"{name}\t{value:.6g}")
    return 0


def cmd_bench(args) -> int:
    cfg = _resolve_model_config(args)
    w = nn.init_weights(cfg, args.seed)
    stats = nn.benchmark_inference(w, cfg, seed=args.seed, **_given(n_runs=args.runs))
    print(f"p50_ms\t{stats.p50_ms:.3f}")
    print(f"p99_ms\t{stats.p99_ms:.3f}")
    print(f"mean_ms\t{stats.mean_ms:.3f}")
    print(f"runs\t{stats.n_runs}")
    return 0


# -- parser -----------------------------------------------------------------

def _number(cast, ok, expected: str, most=None):
    """argparse type of a number flag: cast(text) when ok accepts it and it
    is at most `most` (if given), else exit 2 with "expected {expected}" or
    "expected at most {most}"."""
    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        if most is not None and value > most:
            raise argparse.ArgumentTypeError(f"expected at most {most}, got {text!r}")
        return value
    return parse


_positive_int = _number(int, lambda n: n >= 1, "a positive integer")
# benchmark_inference allocates 8 bytes per run before the first one, and a
# run of the default model takes a few ms.
_run_count = _number(int, lambda n: n >= 1, "a positive integer", most=1_000_000)
# preprocess holds every sample's target_len x features tensor until it
# writes them; 10,000 frames of the default selection is ~7 MB a sample.
_frame_count = _number(int, lambda n: n >= 1, "a positive integer", most=10_000)
_non_negative_int = _number(int, lambda n: n >= 0, "a non-negative integer")
# nan fails every comparison, so both float types reject it.
_fraction = _number(float, lambda x: 0.0 <= x < 1.0, "a number in [0, 1)")
_learning_rate = _number(float, lambda x: 0.0 <= x < math.inf, "a finite number >= 0")


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
    p.add_argument("--target-len", type=_frame_count, default=32)
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
    p.add_argument("--epochs", type=_non_negative_int, default=20)
    p.add_argument("--lr", type=_learning_rate, default=0.1)
    p.add_argument("--batch-size", type=_positive_int, default=32)
    p.add_argument("--val-corpus", help="held-out labeled corpus")
    p.add_argument("--val-split", type=_fraction, default=0.0,
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
    p.add_argument("--runs", type=_run_count)
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
        _resolve_settings(args)
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except SignpipeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:  # a path that cannot be opened, read or written; a busy port
        print(f"error: {e}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 130


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
