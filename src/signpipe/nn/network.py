"""The sign classifier: assembly, initialization, training, prediction.

Architecture: per-frame feature extractor (dense -> LayerNorm -> ReLU per
extractor width), learned positional embeddings, a stack of pre-norm
transformer encoder layers (h1 = h + MHA(LN(h)); out = h1 + FFN(LN(h1)),
full bidirectional attention), mean-pooling over time, and a final dense
head with no activation. Weights live in a flat name -> float32 array dict;
gradients are computed by hand through every op.

A batch runs row-stacked: consecutive clips are packed into chunks of at
most _CHUNK_ROWS frames (at least one clip each), and each chunk's frames
form one (rows, d) array. The extractor, every LayerNorm, ReLU and dense
layer, and the head run once per chunk over all its rows; attention runs per
clip, batched over each run of equal-length clips; pooling sums each clip's
rows. Training runs each chunk forward then backward, in batch order, and
adds every weight gradient (one x.T @ dy per chunk) into one gradient dict,
so the result is deterministic. forward() on one clip is the one-chunk,
one-clip case of the same code.

Only one chunk's activations are alive at a time, and they are kept lean:
LayerNorm outputs are not cached but recomputed in backward from the
LayerNorm cache (bit for bit, so ReLU masks taken from them match the
forward pass), ReLUs run in place, and train_step writes the new weights
into the gradient buffers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ..errors import DivergenceError, ShapeError, ValidationError
from ..landmarks import LabelMap
from .config import ModelConfig
from .ops import (
    _dense_param_grads,
    _layer_norm_out,
    _relu_bwd_inplace,
    _relu_inplace,
    attention_bwd,
    attention_fwd,
    dense_bwd,
    dense_fwd,
    layer_norm_bwd,
    layer_norm_fwd,
    softmax,
)

__all__ = [
    "Prediction",
    "param_specs",
    "init_weights",
    "count_parameters",
    "feature_extract",
    "encoder_layer",
    "forward_batch",
    "forward",
    "cross_entropy",
    "loss_and_grads",
    "train_step",
    "predict",
]

# Initialization kinds: dense weights U[-sqrt(1/fan_in), +sqrt(1/fan_in)],
# biases/LN offsets zero, LN gains one, positional embedding N(0, 0.02).
_DENSE, _ZEROS, _ONES, _POS = "dense", "zeros", "ones", "pos"

# Rows per forward/backward chunk: eight clips of the default 32 frames.
# Fewer rows cost Python overhead per op and smaller, slower GEMMs; the
# activations of one chunk grow with it (~10 MB at 256 rows, default model).
_CHUNK_ROWS = 256


def param_specs(cfg: ModelConfig) -> list[tuple[str, tuple[int, ...], str]]:
    """Canonical (name, shape, init kind) listing of every parameter."""
    specs: list[tuple[str, tuple[int, ...], str]] = []
    fan_in = cfg.input_dim
    for i, width in enumerate(cfg.extractor_dims):
        specs.append((f"extractor.{i}.dense.w", (fan_in, width), _DENSE))
        specs.append((f"extractor.{i}.dense.b", (width,), _ZEROS))
        specs.append((f"extractor.{i}.ln.gain", (width,), _ONES))
        specs.append((f"extractor.{i}.ln.bias", (width,), _ZEROS))
        fan_in = width
    d = cfg.model_dim
    specs.append(("pos_embedding", (cfg.max_seq_len, d), _POS))
    for i in range(cfg.num_layers):
        p = f"layer.{i}"
        specs.append((f"{p}.ln1.gain", (d,), _ONES))
        specs.append((f"{p}.ln1.bias", (d,), _ZEROS))
        for proj in ("wq", "wk", "wv", "wo"):
            specs.append((f"{p}.attn.{proj}", (d, d), _DENSE))
            specs.append((f"{p}.attn.b{proj[1]}", (d,), _ZEROS))
        specs.append((f"{p}.ln2.gain", (d,), _ONES))
        specs.append((f"{p}.ln2.bias", (d,), _ZEROS))
        specs.append((f"{p}.ffn.w1", (d, cfg.ff_dim), _DENSE))
        specs.append((f"{p}.ffn.b1", (cfg.ff_dim,), _ZEROS))
        specs.append((f"{p}.ffn.w2", (cfg.ff_dim, d), _DENSE))
        specs.append((f"{p}.ffn.b2", (d,), _ZEROS))
    specs.append(("head.w", (d, cfg.num_classes), _DENSE))
    specs.append(("head.b", (cfg.num_classes,), _ZEROS))
    return specs


def init_weights(cfg: ModelConfig, seed: int = 0) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    store: dict[str, np.ndarray] = {}
    for name, shape, kind in param_specs(cfg):
        if kind == _DENSE:
            lim = math.sqrt(1.0 / shape[0])
            arr = rng.uniform(-lim, lim, size=shape)
        elif kind == _POS:
            arr = rng.normal(0.0, 0.02, size=shape)
        elif kind == _ONES:
            arr = np.ones(shape)
        else:
            arr = np.zeros(shape)
        store[name] = arr.astype(np.float32)
    return store


def count_parameters(cfg: ModelConfig) -> int:
    """Closed-form parameter count; must equal the init_weights element sum.

    dense(i->o) = i*o + o; LayerNorm(d) = 2d; MHA = 4 dense(d->d);
    FFN = dense(d->ff) + dense(ff->d); plus the (T, d) positional embedding,
    two LayerNorms per layer, and the d->num_classes head.
    """

    def dense(i: int, o: int) -> int:
        return i * o + o

    total = 0
    fan_in = cfg.input_dim
    for width in cfg.extractor_dims:
        total += dense(fan_in, width) + 2 * width
        fan_in = width
    d = cfg.model_dim
    total += cfg.max_seq_len * d
    per_layer = 2 * (2 * d) + 4 * dense(d, d) + dense(d, cfg.ff_dim) + dense(cfg.ff_dim, d)
    total += cfg.num_layers * per_layer
    total += dense(d, cfg.num_classes)
    return total


def _check_weights(w: dict[str, np.ndarray], cfg: ModelConfig) -> None:
    for name, shape, _ in param_specs(cfg):
        if name not in w:
            raise ShapeError(f"missing tensor {name!r}")
        if tuple(w[name].shape) != shape:
            raise ShapeError(
                f"tensor {name!r} has shape {tuple(w[name].shape)}, expected {shape}"
            )


def _check_input(x: np.ndarray, cfg: ModelConfig) -> None:
    if x.ndim != 2 or x.shape[1] != cfg.input_dim:
        raise ShapeError(
            f"input of shape {tuple(x.shape)} does not match extractor.0.dense.w "
            f"(input_dim {cfg.input_dim})"
        )
    if not 1 <= x.shape[0] <= cfg.max_seq_len:
        raise ShapeError(
            f"sequence length {x.shape[0]} outside [1, {cfg.max_seq_len}] "
            f"(pos_embedding rows)"
        )


def _extract_fwd(x, w, cfg):
    h = x
    caches = []
    for i in range(len(cfg.extractor_dims)):
        p = f"extractor.{i}"
        z, c_dense = dense_fwd(h, w[f"{p}.dense.w"], w[f"{p}.dense.b"])
        h, c_ln = layer_norm_fwd(z, w[f"{p}.ln.gain"], w[f"{p}.ln.bias"])
        _relu_inplace(h)  # backward takes its mask from the rebuilt LN output
        caches.append((c_dense, c_ln))
    return h, caches


def _extract_bwd(dy, caches, w, cfg, grads):
    """Add the extractor's gradients into grads; dy is overwritten."""
    for i in reversed(range(len(cfg.extractor_dims))):
        c_dense, c_ln = caches[i]
        p = f"extractor.{i}"
        _relu_bwd_inplace(dy, _layer_norm_out(c_ln, w[f"{p}.ln.bias"]))
        dz = layer_norm_bwd(dy, c_ln, grads[f"{p}.ln.gain"], grads[f"{p}.ln.bias"])
        dw, db = grads[f"{p}.dense.w"], grads[f"{p}.dense.b"]
        if i:
            dy = dense_bwd(dz, c_dense, dw, db)
        else:  # the input's gradient is not needed
            _dense_param_grads(dz, c_dense[0], dw, db)


def _encoder_fwd(h, w, runs, cfg, i):
    """One encoder layer. Its LayerNorm outputs are not cached: backward
    recomputes them from the LayerNorm caches."""
    p = f"layer.{i}"
    ln1, c_ln1 = layer_norm_fwd(h, w[f"{p}.ln1.gain"], w[f"{p}.ln1.bias"])
    q, k, v = (dense_fwd(ln1, w[f"{p}.attn.w{m}"], w[f"{p}.attn.b{m}"])[0] for m in "qkv")
    del ln1
    ctx, c_att = attention_fwd(q, k, v, runs, cfg.num_heads)
    h1, _ = dense_fwd(ctx, w[f"{p}.attn.wo"], w[f"{p}.attn.bo"])
    h1 += h
    ln2, c_ln2 = layer_norm_fwd(h1, w[f"{p}.ln2.gain"], w[f"{p}.ln2.bias"])
    a1, _ = dense_fwd(ln2, w[f"{p}.ffn.w1"], w[f"{p}.ffn.b1"])
    del ln2
    _relu_inplace(a1)
    out, _ = dense_fwd(a1, w[f"{p}.ffn.w2"], w[f"{p}.ffn.b2"])
    out += h1
    return out, (c_ln1, c_att, ctx, c_ln2, a1)


def _encoder_bwd(dy, cache, w, i, grads):
    c_ln1, c_att, ctx, c_ln2, a1 = cache
    p = f"layer.{i}"

    def dense(dm, x, name, bias):
        return dense_bwd(dm, (x, w[f"{p}.{name}"]),
                         grads[f"{p}.{name}"], grads[f"{p}.{bias}"])

    def norm(dm, c_ln, ln):
        return layer_norm_bwd(dm, c_ln, grads[f"{p}.{ln}.gain"], grads[f"{p}.{ln}.bias"])

    # out = h1 + FFN(LN2(h1))
    da1 = dense(dy, a1, "ffn.w2", "ffn.b2")
    _relu_bwd_inplace(da1, a1)
    dln2 = dense(da1, _layer_norm_out(c_ln2, w[f"{p}.ln2.bias"]), "ffn.w1", "ffn.b1")
    dh1 = norm(dln2, c_ln2, "ln2")
    dh1 += dy
    # h1 = h + MHA(LN1(h))
    dq, dk, dv = attention_bwd(dense(dh1, ctx, "attn.wo", "attn.bo"), c_att)
    ln1 = _layer_norm_out(c_ln1, w[f"{p}.ln1.bias"])
    dln1 = dense(dq, ln1, "attn.wq", "attn.bq")
    dln1 += dense(dk, ln1, "attn.wk", "attn.bk")
    dln1 += dense(dv, ln1, "attn.wv", "attn.bv")
    dx = norm(dln1, c_ln1, "ln1")
    dx += dh1
    return dx


def _chunks(lengths):
    """(first, stop) index spans of consecutive clips, each as many clips as
    fit in _CHUNK_ROWS rows, and at least one."""
    first, rows = 0, 0
    for i, t in enumerate(lengths):
        if rows and rows + t > _CHUNK_ROWS:
            yield first, i
            first, rows = i, 0
        rows += t
    if lengths:
        yield first, len(lengths)


def _runs(lengths):
    """(start, stop, n) row spans of each run of n consecutive equal-length clips."""
    runs, row = [], 0
    for t, group in itertools.groupby(lengths):
        n = len(list(group))
        runs.append((row, row + n * t, n))
        row += n * t
    return runs


def _chunk_fwd(xs, w, cfg):
    """Logits of a few clips, run row-stacked, and the cache for _chunk_bwd."""
    lengths = np.array([x.shape[0] for x in xs])
    runs = _runs(lengths.tolist())
    h, c_ext = _extract_fwd(np.concatenate(xs), w, cfg)
    for start, stop, n in runs:  # h is a fresh array that no cache holds
        h[start:stop].reshape(n, -1, cfg.model_dim)[...] += \
            w["pos_embedding"][:(stop - start) // n]
    c_layers = []
    for i in range(cfg.num_layers):
        h, c = _encoder_fwd(h, w, runs, cfg, i)
        c_layers.append(c)
    pooled = np.add.reduceat(h, np.cumsum(lengths) - lengths, axis=0)
    pooled /= lengths[:, None]
    logits = pooled @ w["head.w"] + w["head.b"]
    return logits, (lengths, runs, c_ext, c_layers, pooled)


def _chunk_bwd(dlogits, cache, w, cfg, grads):
    """Add the chunk's parameter gradients into grads."""
    lengths, runs, c_ext, c_layers, pooled = cache
    grads["head.w"] += pooled.T @ dlogits
    grads["head.b"] += dlogits.sum(axis=0)
    dpooled = dlogits @ w["head.w"].T
    dpooled /= lengths[:, None]
    dh = np.repeat(dpooled, lengths, axis=0)
    for i in reversed(range(cfg.num_layers)):
        dh = _encoder_bwd(dh, c_layers[i], w, i, grads)
    for start, stop, n in runs:
        t = (stop - start) // n
        grads["pos_embedding"][:t] += dh[start:stop].reshape(n, t, -1).sum(axis=0)
    _extract_bwd(dh, c_ext, w, cfg, grads)


def _check_batch(xs, w, cfg):
    if not xs:
        raise ValidationError("empty batch")
    for x in xs:
        _check_input(x, cfg)
    _check_weights(w, cfg)


def feature_extract(x: np.ndarray, w: dict[str, np.ndarray],
                    cfg: ModelConfig) -> np.ndarray:
    """Per-row dense -> LayerNorm -> ReLU chain; (T, D) -> (T, model_dim)."""
    _check_input(x, cfg)
    _check_weights(w, cfg)
    out, _ = _extract_fwd(x, w, cfg)
    return out


def encoder_layer(h: np.ndarray, w: dict[str, np.ndarray], cfg: ModelConfig,
                  layer_idx: int) -> np.ndarray:
    """One pre-norm transformer encoder layer; (T, d) -> (T, d)."""
    if h.ndim != 2 or h.shape[1] != cfg.model_dim:
        raise ShapeError(
            f"encoder input of shape {tuple(h.shape)} does not match "
            f"layer.{layer_idx} (model_dim {cfg.model_dim})"
        )
    _check_weights(w, cfg)
    runs = [(0, h.shape[0], 1)]
    out, _ = _encoder_fwd(h, w, runs, cfg, layer_idx)
    return out


def forward_batch(xs: list[np.ndarray], w: dict[str, np.ndarray],
                  cfg: ModelConfig) -> np.ndarray:
    """Logits for a list of clips; (B, num_classes), row b for xs[b]."""
    _check_batch(xs, w, cfg)
    return np.concatenate([_chunk_fwd(xs[a:b], w, cfg)[0]
                           for a, b in _chunks([x.shape[0] for x in xs])])


def forward(x: np.ndarray, w: dict[str, np.ndarray],
            cfg: ModelConfig) -> np.ndarray:
    """Logits for one sample; (T, D) in, (num_classes,) out, no activation."""
    return forward_batch([x], w, cfg)[0]


def cross_entropy(logits: np.ndarray, label: int) -> float:
    """Softmax cross-entropy via log-sum-exp, stable for large logits."""
    m = logits.max()
    return float(m + np.log(np.exp(logits - m).sum()) - logits[label])


def loss_and_grads(batch: list[tuple[np.ndarray, int]], w: dict[str, np.ndarray],
                   cfg: ModelConfig) -> tuple[float, dict[str, np.ndarray]]:
    """Mean cross-entropy over the batch and its full parameter gradient.

    Chunks of clips run forward and backward in batch order, so gradient
    accumulation is deterministic.
    """
    xs = [x for x, _ in batch]
    labels = [label for _, label in batch]
    for label in labels:
        if not 0 <= label < cfg.num_classes:
            raise ValidationError(f"label {label} outside [0, {cfg.num_classes})")
    _check_batch(xs, w, cfg)
    grads: dict[str, np.ndarray] = {}
    total = 0.0
    inv_b = 1.0 / len(batch)
    for a, b in _chunks([x.shape[0] for x in xs]):
        logits, cache = _chunk_fwd(xs[a:b], w, cfg)
        if not grads:
            # Allocated once the first chunk's activations exist, so that
            # they, not the gradients, reuse the memory the previous weights
            # freed. The other way round, every chunk's activations sat at
            # the top of the heap, which glibc's malloc returns to the OS on
            # free and faults back in for the next chunk (~11k page faults
            # per train_step(32), ~9% slower on train_corpus).
            grads = {name: np.zeros_like(w[name]) for name, _, _ in param_specs(cfg)}
        total += sum(map(cross_entropy, logits, labels[a:b]))
        dlogits = softmax(logits)
        dlogits[np.arange(b - a), labels[a:b]] -= 1.0
        dlogits *= inv_b
        _chunk_bwd(dlogits, cache, w, cfg, grads)
        del cache  # so only one chunk's activations are alive at a time
    return total * inv_b, grads


def train_step(batch: list[tuple[np.ndarray, int]], w: dict[str, np.ndarray],
               cfg: ModelConfig, lr: float) -> tuple[dict[str, np.ndarray], float]:
    """One plain-SGD step over a batch; returns (new weights, mean CE loss).

    lr == 0 leaves the weights unchanged.
    """
    loss, grads = loss_and_grads(batch, w, cfg)
    if not math.isfinite(loss):
        raise DivergenceError(f"non-finite training loss {loss}")
    for name, g in grads.items():  # w - lr * g, written into the gradient
        g *= -lr
        g += w[name]
    return {name: grads[name] for name in w}, loss


@dataclass(frozen=True)
class Prediction:
    class_id: int
    gloss: str
    confidence: float  # softmax probability of the argmax class


def predict(x: np.ndarray, w: dict[str, np.ndarray], cfg: ModelConfig,
            labels: LabelMap | None = None) -> Prediction:
    """Classify one sample; ties resolve to the lowest class id."""
    logits = forward(x, w, cfg)
    probs = softmax(logits.astype(np.float64))
    class_id = int(np.argmax(logits))
    gloss = labels.gloss_for(class_id) if labels is not None else f"class_{class_id:03d}"
    return Prediction(class_id, gloss, float(probs[class_id]))
