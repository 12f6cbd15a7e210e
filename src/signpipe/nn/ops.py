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
order, so results are deterministic for a fixed input. No public op writes
into its inputs; each works in place only on arrays it allocated itself. The
private _*_inplace kernels that the public ReLU and softmax ops wrap write
into their first argument, for callers that own it.
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
    """x @ w + b; the cache is (x, w)."""
    y = x @ w
    y += b
    return y, (x, w)


def _dense_param_grads(dy, x, dw, db):
    """Add the weight and bias gradients of dense_fwd(x, ...) into dw and db."""
    dw += x.T @ dy
    db += dy.sum(axis=0)


def dense_bwd(dy, cache, dw, db):
    """Add the weight and bias gradients into dw and db; return dx."""
    x, w = cache
    _dense_param_grads(dy, x, dw, db)
    return dy @ w.T


def relu_fwd(x):
    return _relu_inplace(x.copy()), x


def relu_bwd(dy, x):
    return _relu_bwd_inplace(dy.copy(), x)


def _relu_inplace(x):
    """ReLU written into x."""
    return np.maximum(x, 0.0, out=x)


def _relu_bwd_inplace(dy, y):
    """relu_bwd written into dy; y is the ReLU's input or its output, which
    are positive at the same places."""
    dy *= y > 0  # a masked multiply: np.where is ~10x slower here
    return dy


def _row_dot(a, b):
    """Sum of a * b over the last axis, keepdims, without an a * b temporary."""
    return np.einsum("...i,...i->...", a, b)[..., None]


def layer_norm_fwd(x, gain, bias):
    """Row-wise layer norm with population std; std below STD_FLOOR -> 1."""
    d = x.shape[-1]
    xc = x - np.add.reduce(x, axis=-1, keepdims=True) / d
    std = _row_dot(xc, xc)
    std /= d
    np.sqrt(std, out=std)
    floored = std < STD_FLOOR
    std[floored] = 1.0
    xc /= std  # now xhat
    cache = (xc, std, floored, gain)
    return _layer_norm_out(cache, bias), cache


def _layer_norm_out(cache, bias):
    """layer_norm_fwd's output rebuilt bit for bit from its cache, so a
    caller can drop the output and recompute it in backward."""
    xhat, _, _, gain = cache
    out = xhat * gain
    out += bias
    return out


def layer_norm_bwd(dy, cache, dgain, dbias):
    """Add the gain and bias gradients into dgain and dbias; return dx."""
    xhat, std, floored, gain = cache
    d = dy.shape[-1]
    dgain += np.einsum("ij,ij->j", dy, xhat)
    dbias += dy.sum(axis=0)
    dx = dy * gain  # dxhat, then dx in place
    mean_dxhat = np.add.reduce(dx, axis=-1, keepdims=True) / d
    proj = _row_dot(dx, xhat)
    proj /= d
    # On the floored path std is the constant 1, so the variance term vanishes.
    proj[floored] = 0.0
    dx -= mean_dxhat
    dx -= xhat * proj
    dx /= std
    return dx


def softmax(z, axis=-1):
    p = z.copy()
    _softmax_inplace(np.moveaxis(p, axis, -1))
    return p


def softmax_bwd(dy, p, axis=-1):
    dz = dy.copy()
    _softmax_bwd_inplace(np.moveaxis(dz, axis, -1), np.moveaxis(p, axis, -1))
    return dz


def _softmax_inplace(z):
    """softmax over the last axis, written into z."""
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis=-1, keepdims=True)
    return z


def _softmax_bwd_inplace(dy, p):
    """softmax_bwd over the last axis, written into dy."""
    dy -= _row_dot(dy, p)
    dy *= p
    return dy


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
        scores = qh @ kh.transpose(0, 1, 3, 2)
        scores *= scale
        attn = _softmax_inplace(scores)
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
        dscores = _softmax_bwd_inplace(dc @ vh.transpose(0, 1, 3, 2), attn)
        dscores *= scale
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
