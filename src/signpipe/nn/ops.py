"""Primitive tensor ops with hand-derived backward passes.

Every op takes row-stacked input: the frames of several clips stacked into
one (R, d) array. Dense layers, LayerNorm and ReLU treat rows independently,
so they run once over all the rows, and a weight gradient is one x.T @ dy
over them. Attention is the only op that mixes rows, and it mixes them only
within a clip: it runs as batched (n, H, t, t) matmuls over each run of n
consecutive clips of equal length t.

Forward functions return (output, cache); the matching *_bwd function takes
the upstream gradient and the cache. Everything follows the input dtype: the
training path runs float32, while gradient checks run the same code in
float64. Accumulation is plain sequential numpy in a fixed row and run
order, so results are deterministic for a fixed input.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "STD_FLOOR",
    "dense_fwd",
    "dense_bwd",
    "relu_fwd",
    "relu_bwd",
    "layer_norm_fwd",
    "layer_norm_bwd",
    "softmax",
    "softmax_bwd",
    "attention_fwd",
    "attention_bwd",
    "mha_fwd",
]

STD_FLOOR = 1e-8


def dense_fwd(x, w, b):
    return x @ w + b, (x, w)


def dense_bwd(dy, cache, dw, db):
    """Add the weight and bias gradients into dw and db; return dx."""
    x, w = cache
    dw += x.T @ dy
    db += dy.sum(axis=0)
    return dy @ w.T


def relu_fwd(x):
    return np.maximum(x, 0.0), x


def relu_bwd(dy, x):
    return dy * (x > 0)  # a masked multiply: np.where is ~10x slower here


def layer_norm_fwd(x, gain, bias):
    """Row-wise layer norm with population std; std below STD_FLOOR -> 1."""
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = np.mean(xc * xc, axis=-1, keepdims=True)
    std = np.sqrt(var)
    floored = std < STD_FLOOR
    std = np.where(floored, 1.0, std)
    xhat = xc / std
    return xhat * gain + bias, (xhat, std, floored, gain)


def layer_norm_bwd(dy, cache, dgain, dbias):
    """Add the gain and bias gradients into dgain and dbias; return dx."""
    xhat, std, floored, gain = cache
    dgain += (dy * xhat).sum(axis=0)
    dbias += dy.sum(axis=0)
    dxhat = dy * gain
    mean_dxhat = dxhat.mean(axis=-1, keepdims=True)
    # On the floored path std is the constant 1, so the variance term vanishes.
    var_term = np.where(floored, 0.0, xhat * np.mean(dxhat * xhat, axis=-1, keepdims=True))
    return (dxhat - mean_dxhat - var_term) / std


def softmax(z, axis=-1):
    s = z - z.max(axis=axis, keepdims=True)
    e = np.exp(s)
    return e / e.sum(axis=axis, keepdims=True)


def softmax_bwd(dy, p, axis=-1):
    return p * (dy - (dy * p).sum(axis=axis, keepdims=True))


def attention_fwd(q, k, v, runs, num_heads):
    """Scaled dot-product attention of each clip over its own frames, no mask.

    q, k, v: (R, d) rows of row-stacked clips. runs: (start, stop, n) row
    spans that tile the rows, each n consecutive clips of one length. Scores
    are scaled by 1/sqrt(d/num_heads). Returns the (R, d) context with the
    heads merged back into rows; the cache keeps each run's (n, H, t, t)
    attention.
    """
    d = q.shape[1]
    dh = d // num_heads
    scale = 1.0 / math.sqrt(dh)
    ctx = np.empty_like(v)
    per_run = []
    for start, stop, n in runs:
        t = (stop - start) // n
        qh, kh, vh = (m[start:stop].reshape(n, t, num_heads, dh).transpose(0, 2, 1, 3)
                      for m in (q, k, v))
        attn = softmax((qh @ kh.transpose(0, 1, 3, 2)) * scale)
        ctx[start:stop].reshape(n, t, num_heads, dh)[...] = (attn @ vh).transpose(0, 2, 1, 3)
        per_run.append((qh, kh, vh, attn))
    return ctx, (runs, scale, per_run)


def attention_bwd(dctx, cache):
    """Gradients of attention_fwd's context w.r.t. q, k and v."""
    runs, scale, per_run = cache
    dq, dk, dv = (np.empty_like(dctx) for _ in range(3))
    for (start, stop, n), (qh, kh, vh, attn) in zip(runs, per_run):
        _, heads, t, dh = qh.shape

        def rows(m):
            return m[start:stop].reshape(n, t, heads, dh)

        dc = rows(dctx).transpose(0, 2, 1, 3)
        dscores = softmax_bwd(dc @ vh.transpose(0, 1, 3, 2), attn) * scale
        rows(dq)[...] = (dscores @ kh).transpose(0, 2, 1, 3)
        rows(dk)[...] = (dscores.transpose(0, 1, 3, 2) @ qh).transpose(0, 2, 1, 3)
        rows(dv)[...] = (attn.transpose(0, 1, 3, 2) @ dc).transpose(0, 2, 1, 3)
    return dq, dk, dv


def mha_fwd(x, wq, bq, wk, bk, wv, bv, wo, bo, num_heads):
    """Multi-head self-attention over one clip: the one-run case of
    attention_fwd with its input and output projections.

    x: (T, d). cache[8] is the (H, T, T) attention.
    """
    q, k, v = x @ wq + bq, x @ wk + bk, x @ wv + bv
    ctx, (_, scale, [(qh, kh, vh, attn)]) = attention_fwd(
        q, k, v, [(0, x.shape[0], 1)], num_heads)
    return ctx @ wo + bo, (x, wq, wk, wv, wo, qh[0], kh[0], vh[0], attn[0], ctx, scale)
