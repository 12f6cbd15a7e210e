"""Classifier: ops, assembly, training dynamics, serialization, latency."""

import dataclasses
import math
import os
import re
import stat
import struct
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from signpipe.errors import (
    DivergenceError,
    ShapeError,
    ValidationError,
    WeightFormatError,
)
from signpipe.nn import (
    DEFAULT_CONFIG,
    LatencyStats,
    ModelConfig,
    benchmark_inference,
    count_parameters,
    cross_entropy,
    encoder_layer,
    feature_extract,
    forward,
    forward_batch,
    init_weights,
    load_tensors,
    load_weights,
    loss_and_grads,
    param_specs,
    predict,
    save_tensors,
    save_weights,
    train_step,
)
from signpipe.nn.network import _CHUNK_ROWS
from signpipe.nn.ops import (
    dense_bwd,
    dense_fwd,
    layer_norm_bwd,
    layer_norm_fwd,
    mha_fwd,
    relu_bwd,
    relu_fwd,
    softmax,
    softmax_bwd,
)
from signpipe.jsonio import decode_text
from signpipe.landmarks import LabelMap

# Frozen reference logits: tiny_cfg weights (seed 123) applied to
# default_rng(99).standard_normal((4, 6)) as float32.
GOLDEN_LOGITS = [
    0.253460556268692,
    -0.6730189323425293,
    -0.3289676010608673,
    -0.00456314766779542,
    -0.37147629261016846,
]


def golden_input():
    return np.random.default_rng(99).standard_normal((4, 6)).astype(np.float32)


def tiny2_cfg():
    # 2-wide everything so layer arithmetic can be checked by hand
    return ModelConfig(input_dim=2, extractor_dims=(2,), model_dim=2,
                       num_layers=1, num_heads=1, ff_dim=4, num_classes=2,
                       max_seq_len=4)


def with_identity_extractor(w):
    w = dict(w)
    w["extractor.0.dense.w"] = np.eye(2, dtype=np.float32)
    w["extractor.0.dense.b"] = np.zeros(2, dtype=np.float32)
    w["extractor.0.ln.gain"] = np.ones(2, dtype=np.float32)
    w["extractor.0.ln.bias"] = np.zeros(2, dtype=np.float32)
    return w


class TestConfig:
    def test_defaults(self):
        assert DEFAULT_CONFIG.input_dim == 176
        assert DEFAULT_CONFIG.model_dim == 300
        assert DEFAULT_CONFIG.num_layers == 4
        assert DEFAULT_CONFIG.num_heads == 4
        assert DEFAULT_CONFIG.ff_dim == 405
        assert DEFAULT_CONFIG.num_classes == 250
        assert DEFAULT_CONFIG.max_seq_len == 32

    def test_validation(self):
        with pytest.raises(ValidationError):
            ModelConfig(model_dim=10, num_heads=3, extractor_dims=(10,))
        with pytest.raises(ValidationError):
            ModelConfig(extractor_dims=(128,))  # last width != model_dim
        with pytest.raises(ValidationError):
            ModelConfig(num_layers=0)
        with pytest.raises(ValidationError):
            ModelConfig(ff_dim=0)
        with pytest.raises(ValidationError, match="extractor_dims"):
            ModelConfig(extractor_dims=())

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValidationError):
            ModelConfig.from_dict({"hidden_size": 64})

    def test_save_load_round_trip(self, tmp_path, tiny_cfg):
        p = tmp_path / "cfg.json"
        tiny_cfg.save(p)
        assert ModelConfig.load(p) == tiny_cfg


class TestParameterCount:
    def test_default_is_the_published_budget(self):
        assert count_parameters(DEFAULT_CONFIG) == 2_562_970

    def test_matches_materialized_weights(self, tiny_cfg):
        w = init_weights(tiny_cfg)
        assert sum(a.size for a in w.values()) == count_parameters(tiny_cfg)

    def test_closed_form_matches_specs_for_random_configs(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            heads = int(rng.integers(1, 5))
            d = heads * int(rng.integers(1, 9))
            depth = int(rng.integers(1, 4))
            dims = tuple(int(rng.integers(1, 17)) for _ in range(depth - 1)) + (d,)
            cfg = ModelConfig(
                input_dim=int(rng.integers(1, 33)),
                extractor_dims=dims,
                model_dim=d,
                num_layers=int(rng.integers(1, 5)),
                num_heads=heads,
                ff_dim=int(rng.integers(1, 33)),
                num_classes=int(rng.integers(2, 33)),
                max_seq_len=int(rng.integers(1, 17)),
            )
            by_spec = sum(int(np.prod(s)) for _, s, _ in param_specs(cfg))
            assert count_parameters(cfg) == by_spec


class TestInit:
    def test_deterministic_in_seed(self, tiny_cfg):
        a = init_weights(tiny_cfg, seed=5)
        b = init_weights(tiny_cfg, seed=5)
        c = init_weights(tiny_cfg, seed=6)
        assert all(np.array_equal(a[k], b[k]) for k in a)
        assert any(not np.array_equal(a[k], c[k]) for k in a)

    def test_kinds_and_dtype(self, tiny_cfg, tiny_weights):
        for name, shape, _ in param_specs(tiny_cfg):
            arr = tiny_weights[name]
            assert arr.dtype == np.float32
            assert tuple(arr.shape) == shape
        assert np.array_equal(tiny_weights["layer.0.ln1.gain"], np.ones(8))
        assert np.array_equal(tiny_weights["layer.0.ln1.bias"], np.zeros(8))
        assert np.array_equal(tiny_weights["head.b"], np.zeros(5))
        lim = math.sqrt(1.0 / 6.0)
        dense0 = tiny_weights["extractor.0.dense.w"]
        assert np.abs(dense0).max() <= lim

    def test_canonical_name_order(self, tiny_cfg, tiny_weights):
        assert list(tiny_weights) == [n for n, _, _ in param_specs(tiny_cfg)]


class TestOps:
    def test_softmax_uniform_on_equal_scores(self):
        np.testing.assert_allclose(softmax(np.zeros(4)), np.full(4, 0.25))

    def test_softmax_stable_for_large_inputs(self):
        p = softmax(np.array([1000.0, 1000.0]))
        np.testing.assert_allclose(p, [0.5, 0.5])

    def test_layer_norm_two_point_row(self):
        out, _ = layer_norm_fwd(np.array([[3.0, -1.0]]), np.ones(2), np.zeros(2))
        np.testing.assert_allclose(out, [[1.0, -1.0]])

    def test_layer_norm_constant_row_floors_to_zero(self):
        out, _ = layer_norm_fwd(np.full((1, 4), 7.0), np.ones(4), np.zeros(4))
        np.testing.assert_array_equal(out, np.zeros((1, 4)))

    def test_layer_norm_gain_bias(self):
        out, _ = layer_norm_fwd(np.array([[3.0, -1.0]]),
                                np.array([2.0, 2.0]), np.array([10.0, 10.0]))
        np.testing.assert_allclose(out, [[12.0, 8.0]])

    def test_relu(self):
        out, cache = relu_fwd(np.array([-2.0, 0.0, 3.0]))
        np.testing.assert_array_equal(out, [0.0, 0.0, 3.0])
        np.testing.assert_array_equal(relu_bwd(np.array([5.0, 6.0, 7.0]), cache),
                                      [0.0, 0.0, 7.0])

    def test_softmax_and_its_backward_along_axis_0(self):
        z, dy = np.random.default_rng(5).standard_normal((2, 3, 4))
        p = softmax(z, axis=0)
        np.testing.assert_allclose(p, softmax(z.T).T, rtol=1e-12)
        np.testing.assert_allclose(p.sum(axis=0), np.ones(4), rtol=1e-12)
        expected = p * (dy - (dy * p).sum(axis=0, keepdims=True))
        np.testing.assert_allclose(softmax_bwd(dy, p, axis=0), expected, rtol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_ops_leave_their_inputs_unchanged(self, dtype):
        rng = np.random.default_rng(12)
        x, dy = (rng.standard_normal((6, 4)).astype(dtype) for _ in range(2))
        w = rng.standard_normal((4, 4)).astype(dtype)
        b, gain, bias = (rng.standard_normal(4).astype(dtype) for _ in range(3))
        inputs = (x, dy, w, b, gain, bias)
        before = [a.copy() for a in inputs]
        _, c_dense = dense_fwd(x, w, b)
        relu_fwd(x)
        _, c_ln = layer_norm_fwd(x, gain, bias)
        p = softmax(x)
        relu_bwd(dy, x)
        softmax_bwd(dy, p)
        dense_bwd(dy, c_dense, np.zeros_like(w), np.zeros_like(b))
        layer_norm_bwd(dy, c_ln, np.zeros_like(gain), np.zeros_like(bias))
        for a, copy in zip(inputs, before):
            np.testing.assert_array_equal(a, copy)

    def test_layer_norm_floored_row_matches_finite_difference(self):
        # A near-constant row takes the std floor: its output is
        # (x - mean(x)) * gain + bias, and its gradient is that map's.
        rng = np.random.default_rng(21)
        row = np.full(5, 0.5)
        row[2] += 2.0 ** -32
        x = np.vstack([row, rng.standard_normal(5)])
        gain, bias, r = rng.standard_normal(5), rng.standard_normal(5), rng.standard_normal((2, 5))
        out, cache = layer_norm_fwd(x, gain, bias)
        np.testing.assert_allclose(out[0], (row - row.mean()) * gain + bias, rtol=1e-12)
        dgain, dbias = np.zeros(5), np.zeros(5)
        dx = layer_norm_bwd(r, cache, dgain, dbias)

        def loss(x, gain, bias):
            out, (_, _, floored, _) = layer_norm_fwd(x, gain, bias)
            assert floored.ravel().tolist() == [True, False]
            return float((out * r).sum())

        def central(params, k, idx, eps):
            up, down = ([p.copy() for p in params] for _ in range(2))
            up[k][idx] += eps
            down[k][idx] -= eps
            return (loss(*up) - loss(*down)) / (2 * eps)

        params = [x, gain, bias]
        for j in range(5):
            # 2**-30 is exact at 0.5 and keeps the row's std under STD_FLOOR.
            assert central(params, 0, (0, j), 2.0 ** -30) == pytest.approx(
                dx[0, j], rel=1e-5, abs=1e-5)
            assert central(params, 1, j, 1e-6) == pytest.approx(dgain[j], rel=1e-6, abs=1e-8)
            assert central(params, 2, j, 1e-6) == pytest.approx(dbias[j], rel=1e-6, abs=1e-8)

    def test_attention_rows_are_distributions(self):
        rng = np.random.default_rng(3)
        d, t, heads = 8, 5, 2
        x = rng.standard_normal((t, d))
        mats = [rng.standard_normal((d, d)) * 0.3 for _ in range(4)]
        biases = [rng.standard_normal(d) * 0.1 for _ in range(4)]
        args = [v for pair in zip(mats, biases) for v in pair]
        out, cache = mha_fwd(x, *args, heads)
        attn = cache[8]
        assert attn.shape == (heads, t, t)
        np.testing.assert_allclose(attn.sum(axis=-1), np.ones((heads, t)),
                                   atol=1e-12)
        assert (attn >= 0).all()
        assert out.shape == (t, d)


class TestFeatureExtract:
    def test_hand_traced_row(self):
        cfg = tiny2_cfg()
        w = with_identity_extractor(init_weights(cfg, seed=0))
        out = feature_extract(np.array([[3.0, -1.0]], dtype=np.float32), w, cfg)
        # dense identity -> (3,-1); LN -> (1,-1); ReLU -> (1, 0)
        np.testing.assert_allclose(out, [[1.0, 0.0]], atol=1e-6)

    def test_zero_row_stays_zero(self):
        cfg = tiny2_cfg()
        w = with_identity_extractor(init_weights(cfg, seed=0))
        out = feature_extract(np.zeros((1, 2), dtype=np.float32), w, cfg)
        np.testing.assert_array_equal(out, np.zeros((1, 2)))

    def test_output_shape(self, tiny_cfg, tiny_weights):
        out = feature_extract(np.ones((3, 6), dtype=np.float32),
                              tiny_weights, tiny_cfg)
        assert out.shape == (3, 8)
        assert (out >= 0).all()  # ends in ReLU

    def test_rejects_wrong_width(self, tiny_cfg, tiny_weights):
        with pytest.raises(ShapeError):
            feature_extract(np.ones((3, 7), dtype=np.float32),
                            tiny_weights, tiny_cfg)


class TestEncoderLayer:
    def test_zeroed_attention_leaves_residual_plus_ffn(self):
        cfg = tiny2_cfg()
        w = init_weights(cfg, seed=1)
        for name in ("attn.wv", "attn.bv", "attn.wo", "attn.bo"):
            w[f"layer.0.{name}"] = np.zeros_like(w[f"layer.0.{name}"])
        h = np.random.default_rng(2).standard_normal((3, 2)).astype(np.float32)
        out = encoder_layer(h, w, cfg, 0)
        ln2, _ = layer_norm_fwd(h, w["layer.0.ln2.gain"], w["layer.0.ln2.bias"])
        hidden = np.maximum(ln2 @ w["layer.0.ffn.w1"] + w["layer.0.ffn.b1"], 0.0)
        expect = h + hidden @ w["layer.0.ffn.w2"] + w["layer.0.ffn.b2"]
        np.testing.assert_allclose(out, expect, atol=1e-6)

    def test_zeroed_everything_is_identity(self):
        cfg = tiny2_cfg()
        w = init_weights(cfg, seed=1)
        for name in ("attn.wv", "attn.bv", "attn.wo", "attn.bo",
                     "ffn.w2", "ffn.b2"):
            w[f"layer.0.{name}"] = np.zeros_like(w[f"layer.0.{name}"])
        h = np.random.default_rng(2).standard_normal((3, 2)).astype(np.float32)
        np.testing.assert_allclose(encoder_layer(h, w, cfg, 0), h, atol=1e-7)

    def test_rejects_wrong_model_dim(self, tiny_cfg, tiny_weights):
        with pytest.raises(ShapeError):
            encoder_layer(np.ones((3, 7), dtype=np.float32),
                          tiny_weights, tiny_cfg, 0)


class TestForward:
    def test_golden_logits(self, tiny_cfg, tiny_weights):
        logits = forward(golden_input(), tiny_weights, tiny_cfg)
        assert logits.shape == (5,)
        np.testing.assert_allclose(logits, GOLDEN_LOGITS, rtol=1e-5, atol=1e-6)

    def test_deterministic(self, tiny_cfg, tiny_weights):
        a = forward(golden_input(), tiny_weights, tiny_cfg)
        b = forward(golden_input(), tiny_weights, tiny_cfg)
        np.testing.assert_array_equal(a, b)

    def test_zero_head_returns_bias(self, tiny_cfg, tiny_weights):
        w = dict(tiny_weights)
        w["head.w"] = np.zeros_like(w["head.w"])
        w["head.b"] = np.arange(5, dtype=np.float32)
        logits = forward(golden_input(), w, tiny_cfg)
        np.testing.assert_array_equal(logits, np.arange(5, dtype=np.float32))

    def test_repeated_frame_equals_single_frame_without_positions(self, tiny_cfg, tiny_weights):
        # mean pooling and full attention treat identical rows identically
        w = dict(tiny_weights)
        w["pos_embedding"] = np.zeros_like(w["pos_embedding"])
        row = golden_input()[:1]
        one = forward(row, w, tiny_cfg)
        four = forward(np.repeat(row, 4, axis=0), w, tiny_cfg)
        np.testing.assert_allclose(four, one, atol=1e-5)

    def test_permutation_invariant_without_positions(self, tiny_cfg, tiny_weights):
        w = dict(tiny_weights)
        w["pos_embedding"] = np.zeros_like(w["pos_embedding"])
        x = golden_input()
        base = forward(x, w, tiny_cfg)
        for perm_seed in range(3):
            perm = np.random.default_rng(perm_seed).permutation(4)
            np.testing.assert_allclose(forward(x[perm], w, tiny_cfg), base,
                                       atol=1e-5)

    def test_positions_break_permutation_invariance(self, tiny_cfg, tiny_weights):
        x = golden_input()
        base = forward(x, tiny_weights, tiny_cfg)
        swapped = forward(x[[1, 0, 2, 3]], tiny_weights, tiny_cfg)
        assert not np.allclose(swapped, base, atol=1e-5)

    def test_shape_errors(self, tiny_cfg, tiny_weights):
        with pytest.raises(ShapeError):
            forward(np.ones((3, 5), dtype=np.float32), tiny_weights, tiny_cfg)
        with pytest.raises(ShapeError):
            forward(np.ones((5, 6), dtype=np.float32), tiny_weights, tiny_cfg)
        with pytest.raises(ShapeError):
            forward(np.ones((0, 6), dtype=np.float32), tiny_weights, tiny_cfg)

    def test_missing_and_misshapen_tensors(self, tiny_cfg, tiny_weights):
        w = dict(tiny_weights)
        del w["head.b"]
        with pytest.raises(ShapeError, match="head.b"):
            forward(golden_input(), w, tiny_cfg)
        w = dict(tiny_weights)
        w["head.w"] = np.zeros((8, 6), dtype=np.float32)
        with pytest.raises(ShapeError, match="head.w"):
            forward(golden_input(), w, tiny_cfg)


def assert_gradient_matches(batch, w, cfg, grads, name, j, eps=1e-4):
    """grads[name] at flat index j agrees with a central difference of the
    loss to a relative 1e-3; w is float64 and left as it was."""
    flat = w[name].ravel()
    orig = flat[j]
    flat[j] = orig + eps
    up, _ = loss_and_grads(batch, w, cfg)
    flat[j] = orig - eps
    down, _ = loss_and_grads(batch, w, cfg)
    flat[j] = orig
    numeric = (up - down) / (2 * eps)
    analytic = grads[name].ravel()[j]
    denom = max(abs(numeric), abs(analytic), 1e-8)
    assert abs(numeric - analytic) / denom < 1e-3, (
        f"{name}[{j}]: numeric {numeric} vs analytic {analytic}")


class TestLossAndGradients:
    def test_cross_entropy_uniform(self):
        assert cross_entropy(np.zeros(4), 2) == pytest.approx(math.log(4))

    def test_cross_entropy_stable_for_huge_logits(self):
        val = cross_entropy(np.array([10000.0, 0.0]), 0)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_gradcheck_float64(self, tiny_cfg, tiny_weights):
        w = {k: v.astype(np.float64) for k, v in tiny_weights.items()}
        rng = np.random.default_rng(17)
        batch = [
            (rng.standard_normal((4, 6)), 1),
            (rng.standard_normal((3, 6)), 4),
        ]
        loss, grads = loss_and_grads(batch, w, tiny_cfg)
        assert math.isfinite(loss)

        coord_rng = np.random.default_rng(5)
        names = [n for n, _, _ in param_specs(tiny_cfg)]
        checked = 0
        for _ in range(50):
            name = names[coord_rng.integers(len(names))]
            j = int(coord_rng.integers(w[name].size))
            assert_gradient_matches(batch, w, tiny_cfg, grads, name, j)
            checked += 1
        assert checked == 50

    def test_gradcheck_float64_two_extractor_layers(self):
        """Every extractor weight of a 6 -> 5 -> 8 extractor, so the gradient
        that the second layer hands back to the first is checked too."""
        cfg = ModelConfig(input_dim=6, extractor_dims=(5, 8), model_dim=8, num_layers=1,
                          num_heads=2, ff_dim=16, num_classes=5, max_seq_len=4)
        w = {k: v.astype(np.float64) for k, v in init_weights(cfg, seed=123).items()}
        rng = np.random.default_rng(17)
        batch = [(rng.standard_normal((4, 6)), 1), (rng.standard_normal((3, 6)), 4)]
        _, grads = loss_and_grads(batch, w, cfg)
        for name in w:
            if name.startswith("extractor."):
                for j in range(w[name].size):
                    assert_gradient_matches(batch, w, cfg, grads, name, j)

    def test_gradients_cover_every_parameter(self, tiny_cfg, tiny_weights):
        x = golden_input()
        _, grads = loss_and_grads([(x, 0)], tiny_weights, tiny_cfg)
        assert set(grads) == set(tiny_weights)
        # every tensor reachable from this input receives signal
        silent = [n for n, g in grads.items() if not np.abs(g).sum() > 0]
        assert silent == []

    def test_batch_mean_semantics(self, tiny_cfg, tiny_weights):
        x = golden_input()
        l1, g1 = loss_and_grads([(x, 0)], tiny_weights, tiny_cfg)
        l2, g2 = loss_and_grads([(x, 0), (x, 0)], tiny_weights, tiny_cfg)
        assert l2 == pytest.approx(l1, rel=1e-6)
        for name in g1:
            np.testing.assert_allclose(g2[name], g1[name], rtol=1e-4, atol=1e-7)

    def test_rejects_empty_batch_and_bad_label(self, tiny_cfg, tiny_weights):
        with pytest.raises(ValidationError):
            loss_and_grads([], tiny_weights, tiny_cfg)
        with pytest.raises(ValidationError):
            loss_and_grads([(golden_input(), 5)], tiny_weights, tiny_cfg)


class TestRowStackedBatch:
    """A batch runs in chunks of clips stacked row-wise; every clip must come
    out as if it ran alone."""

    # Mixed lengths: runs of equal-length clips of size 1, 2 and 4, and more
    # rows than one chunk holds, with a chunk boundary inside a run.
    LENGTHS = (32, 32, 1, 17, 17, 32, 5, 32, 9, 32, 32, 32, 32, 3)

    @pytest.fixture
    def long_cfg(self, tiny_cfg):
        return dataclasses.replace(tiny_cfg, max_seq_len=32)

    def batch(self, cfg, dtype):
        rng = np.random.default_rng(31)
        assert sum(self.LENGTHS) > _CHUNK_ROWS
        return [(rng.standard_normal((t, cfg.input_dim)).astype(dtype), i % cfg.num_classes)
                for i, t in enumerate(self.LENGTHS)]

    def test_gradients_are_the_mean_of_single_clips(self, long_cfg):
        w = {k: v.astype(np.float64) for k, v in init_weights(long_cfg, seed=4).items()}
        batch = self.batch(long_cfg, np.float64)
        loss, grads = loss_and_grads(batch, w, long_cfg)
        singles = [loss_and_grads([clip], w, long_cfg) for clip in batch]
        assert loss == pytest.approx(np.mean([l for l, _ in singles]), rel=1e-10)
        for name in grads:
            mean = sum(g[name] for _, g in singles) / len(batch)
            np.testing.assert_allclose(grads[name], mean, rtol=1e-10, atol=1e-15,
                                       err_msg=name)

    def test_gradients_are_byte_identical_across_calls(self, long_cfg):
        w = init_weights(long_cfg, seed=4)
        batch = self.batch(long_cfg, np.float32)
        _, first = loss_and_grads(batch, w, long_cfg)
        _, second = loss_and_grads(batch, w, long_cfg)
        for name in first:
            assert first[name].tobytes() == second[name].tobytes(), name

    def test_forward_is_the_one_clip_case(self, long_cfg):
        w = init_weights(long_cfg, seed=4)
        xs = [x for x, _ in self.batch(long_cfg, np.float32)]
        logits = forward_batch(xs, w, long_cfg)
        assert logits.shape == (len(xs), long_cfg.num_classes)
        for x, row in zip(xs, logits):
            np.testing.assert_allclose(forward(x, w, long_cfg), row, rtol=1e-6, atol=1e-7)

    def test_rejects_an_empty_batch(self, tiny_cfg, tiny_weights):
        with pytest.raises(ValidationError):
            forward_batch([], tiny_weights, tiny_cfg)


class TestTraining:
    def test_loss_decreases_on_fixed_batch(self, tiny_cfg, tiny_weights):
        rng = np.random.default_rng(8)
        batch = [(rng.standard_normal((4, 6)).astype(np.float32), i % 5)
                 for i in range(6)]
        w = tiny_weights
        losses = []
        for _ in range(10):
            w, loss = train_step(batch, w, tiny_cfg, lr=0.05)
            losses.append(loss)
        assert losses[-1] < losses[0]

    def test_leaves_the_callers_weights_alone(self, tiny_cfg, tiny_weights):
        before = {name: arr.copy() for name, arr in tiny_weights.items()}
        new_w, _ = train_step([(golden_input(), 2)], tiny_weights, tiny_cfg, lr=0.1)
        assert list(new_w) == list(tiny_weights)
        for name, arr in tiny_weights.items():
            np.testing.assert_array_equal(arr, before[name])
            assert not any(np.shares_memory(new_w[name], old)
                           for old in tiny_weights.values()), name
        assert any(not np.array_equal(new_w[name], arr)
                   for name, arr in tiny_weights.items())

    def test_zero_lr_keeps_weights(self, tiny_cfg, tiny_weights):
        batch = [(golden_input(), 2)]
        w2, _ = train_step(batch, tiny_weights, tiny_cfg, lr=0.0)
        for name in tiny_weights:
            np.testing.assert_array_equal(w2[name], tiny_weights[name])

    def test_nan_weights_raise_divergence(self, tiny_cfg, tiny_weights):
        w = dict(tiny_weights)
        w["head.b"] = np.full(5, np.nan, dtype=np.float32)
        with pytest.raises(DivergenceError):
            train_step([(golden_input(), 0)], w, tiny_cfg, lr=0.1)

    def test_step_is_deterministic(self, tiny_cfg, tiny_weights):
        batch = [(golden_input(), 2)]
        a, la = train_step(batch, tiny_weights, tiny_cfg, lr=0.1)
        b, lb = train_step(batch, tiny_weights, tiny_cfg, lr=0.1)
        assert la == lb
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])


class TestPredict:
    def _biased_weights(self, tiny_weights, bias):
        w = dict(tiny_weights)
        w["head.w"] = np.zeros_like(w["head.w"])
        w["head.b"] = np.array(bias, dtype=np.float32)
        return w

    def test_tie_resolves_to_lowest_id_at_half_confidence(self, tiny_cfg, tiny_weights):
        w = self._biased_weights(tiny_weights, [1.0, 1.0, -50.0, -50.0, -50.0])
        p = predict(golden_input(), w, tiny_cfg)
        assert p.class_id == 0
        assert p.confidence == pytest.approx(0.5, abs=1e-9)
        assert p.gloss == "class_000"

    def test_three_to_one_odds(self, tiny_cfg, tiny_weights):
        w = self._biased_weights(
            tiny_weights, [0.0, math.log(3.0), -50.0, -50.0, -50.0])
        p = predict(golden_input(), w, tiny_cfg)
        assert p.class_id == 1
        assert p.confidence == pytest.approx(0.75, abs=1e-6)

    def test_label_map_supplies_gloss(self, tiny_cfg, tiny_weights):
        labels = LabelMap(("a", "b", "c", "d", "e"))
        w = self._biased_weights(tiny_weights, [0.0, 0.0, 9.0, 0.0, 0.0])
        p = predict(golden_input(), w, tiny_cfg, labels)
        assert (p.class_id, p.gloss) == (2, "c")


class TestWeightFile:
    def test_round_trip_bit_exact_and_ordered(self, tiny_cfg, tiny_weights, tmp_path):
        p = tmp_path / "w.sgnw"
        save_weights(tiny_weights, p)
        back = load_weights(p)
        assert list(back) == list(tiny_weights)
        for name in tiny_weights:
            assert back[name].dtype == np.float32
            np.testing.assert_array_equal(back[name], tiny_weights[name])

    def test_singleton_and_high_rank_tensors(self, tmp_path):
        tensors = {
            "one": np.array([3.5], dtype=np.float32),
            "cube": np.arange(24, dtype=np.float32).reshape(2, 3, 4),
        }
        p = tmp_path / "t.sgnw"
        save_weights(tensors, p)
        back = load_weights(p)
        assert back["one"].shape == (1,)
        np.testing.assert_array_equal(back["cube"], tensors["cube"])

    def test_numpy_refuses_a_rank_over_one_header_byte(self):
        # write_tensors stores a rank in one byte and so relies on this cap
        with pytest.raises(ValueError):
            np.empty((1,) * 65)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "w.sgnw"
        p.write_bytes(b"NOPE" + b"\x00" * 8)
        with pytest.raises(WeightFormatError, match="magic"):
            load_weights(p)

    def test_unsupported_version(self, tmp_path):
        p = tmp_path / "w.sgnw"
        p.write_bytes(b"SGNW" + struct.pack("<II", 2, 0))
        with pytest.raises(WeightFormatError, match="version"):
            load_weights(p)

    def test_truncation(self, tmp_path, tiny_weights):
        p = tmp_path / "w.sgnw"
        save_weights(tiny_weights, p)
        data = p.read_bytes()
        p.write_bytes(data[:-3])
        with pytest.raises(WeightFormatError, match="truncated"):
            load_weights(p)

    def test_trailing_garbage(self, tmp_path, tiny_weights):
        p = tmp_path / "w.sgnw"
        save_weights(tiny_weights, p)
        p.write_bytes(p.read_bytes() + b"\x00")
        with pytest.raises(WeightFormatError, match="trailing"):
            load_weights(p)

    def test_duplicate_tensor_name(self, tmp_path):
        entry = (struct.pack("<H", 1) + b"a" + struct.pack("<B", 1)
                 + struct.pack("<I", 1) + struct.pack("<f", 2.0))
        p = tmp_path / "w.sgnw"
        p.write_bytes(b"SGNW" + struct.pack("<II", 1, 2) + entry + entry)
        with pytest.raises(WeightFormatError, match="duplicate"):
            load_weights(p)

    def test_empty_store_round_trips(self, tmp_path):
        p = tmp_path / "w.sgnw"
        save_weights({}, p)
        assert load_weights(p) == {}


HEADER = b"SGNW" + struct.pack("<II", 1, 1)

# One tensor named "a" whose header claims 2**32-1 x 2**32-1 floats.
HUGE_CLAIM = (HEADER + struct.pack("<H", 1) + b"a" + struct.pack("<B", 2)
              + struct.pack("<2I", 2**32 - 1, 2**32 - 1) + b"\x00" * 16)
# An empty tensor whose other dims overflow numpy's size.
ZERO_DIM_OVERFLOW = (HEADER + struct.pack("<H", 1) + b"a" + struct.pack("<B", 3)
                     + struct.pack("<3I", 0, 2**32 - 1, 2**32 - 1))


def reference_load_tensors(path):
    """The in-memory loader that `load_tensors` replaced, kept as its
    reference: the whole file read into one buffer, each tensor copied out
    of it by `astype`."""
    data = memoryview(Path(path).read_bytes())
    off = 0

    def take(n, what):
        nonlocal off
        if off + n > len(data):
            raise WeightFormatError(f"truncated file: expected {what} at byte {off}")
        chunk = data[off:off + n]
        off += n
        return chunk

    if take(4, "magic") != b"SGNW":
        raise WeightFormatError("bad magic, not a SGNW file")
    version, count = struct.unpack("<II", take(8, "version/count"))
    if version != 1:
        raise WeightFormatError(f"unsupported version {version}")
    out = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2, "name length"))
        name = decode_text(bytes(take(name_len, "name")), "tensor name", WeightFormatError)
        (rank,) = struct.unpack("<B", take(1, "rank"))
        dims = struct.unpack(f"<{rank}I", take(4 * rank, "dims"))
        n_elems = math.prod(dims)
        payload = take(4 * n_elems, f"payload of {name!r}")
        if name in out:
            raise WeightFormatError(f"duplicate tensor name {name!r}")
        arr = np.frombuffer(payload, dtype="<f4", count=n_elems)
        try:
            out[name] = arr.reshape(dims).astype(np.float32)
        except ValueError:
            raise WeightFormatError(f"tensor {name!r} has unusable dims {dims}") from None
    if off != len(data):
        raise WeightFormatError(f"{len(data) - off} trailing bytes after last tensor")
    return out


def load_or_format_error(path, data: bytes) -> None:
    path.write_bytes(data)
    try:
        assert isinstance(load_tensors(path), dict)
    except WeightFormatError:
        pass


def load_outcome(load, path):
    """What a loader makes of a file: each tensor's name, dtype, shape and
    bytes in order, or the WeightFormatError message."""
    try:
        return [(k, v.dtype.str, v.shape, v.tobytes()) for k, v in load(path).items()]
    except WeightFormatError as e:
        return str(e)


@st.composite
def valid_stores(draw, unique=True) -> bytes:
    """A well-formed store built byte by byte, so rank 0 occurs too (a save
    writes a 0-d array as rank 1). With unique=False, names repeat often."""
    names = draw(st.lists(st.text(min_size=1, max_size=6), max_size=4, unique=True)
                 if unique else st.lists(st.sampled_from(["a", "bé"]), max_size=4))
    parts = [b"SGNW", struct.pack("<II", 1, len(names))]
    for name in names:
        shape = draw(st.lists(st.integers(0, 4), max_size=4))
        nb = name.encode("utf-8")
        n_bytes = 4 * math.prod(shape)
        parts += [struct.pack(f"<H{len(nb)}sB{len(shape)}I", len(nb), nb, len(shape), *shape),
                  draw(st.binary(min_size=n_bytes, max_size=n_bytes))]
    return b"".join(parts)


def overwrite_byte(data: bytes, position: int, value: int) -> bytes:
    if not data:
        return data
    out = bytearray(data)
    out[position % len(out)] = value
    return bytes(out)


store_bytes = st.one_of(
    st.binary(max_size=120),
    st.binary(max_size=120).map(HEADER.__add__),
    valid_stores(),
    st.builds(overwrite_byte, valid_stores(), st.integers(min_value=0), st.integers(0, 255)),
    st.builds(lambda data, cut: data[:cut % (len(data) + 1)],
              st.one_of(valid_stores(), valid_stores(unique=False)),
              st.integers(min_value=0)),
)


class TestWeightFileFuzz:
    """load_tensors returns a dict or raises WeightFormatError, nothing else."""

    @settings(deadline=None, max_examples=300)
    @given(data=st.one_of(st.binary(max_size=120),
                          st.binary(max_size=120).map(HEADER.__add__)))
    @example(data=HEADER + struct.pack("<H", 1) + b"\xff" + struct.pack("<B", 1)
             + struct.pack("<If", 1, 2.0))
    @example(data=ZERO_DIM_OVERFLOW)
    @example(data=HUGE_CLAIM)
    def test_arbitrary_bytes(self, tmp_path_factory, data):
        load_or_format_error(tmp_path_factory.getbasetemp() / "fuzz.sgnw", data)

    @settings(deadline=None, max_examples=300)
    @given(position=st.integers(min_value=0), value=st.integers(0, 255))
    @example(position=len(HEADER) + 2, value=0xFF)  # first byte of the first name
    def test_one_byte_corruption(self, tmp_path_factory, position, value):
        path = tmp_path_factory.getbasetemp() / "fuzz.sgnw"
        save_tensors({"w": np.arange(6, dtype=np.float32).reshape(2, 3),
                      "bé": np.array(1.5, dtype=np.float32)}, path)
        data = bytearray(path.read_bytes())
        data[position % len(data)] = value
        load_or_format_error(path, bytes(data))

    @settings(deadline=None, max_examples=400)
    @given(data=store_bytes)
    @example(data=HUGE_CLAIM)
    @example(data=ZERO_DIM_OVERFLOW)
    @example(data=HEADER + struct.pack("<H", 1) + b"\xff" + struct.pack("<B", 1)
             + struct.pack("<If", 1, 2.0))
    @example(data=HEADER[:8] + struct.pack("<I", 2) + (struct.pack("<H", 1) + b"a"
             + struct.pack("<BI", 1, 2) + b"\x00" * 8) * 2)  # a duplicate, cut short
    def test_matches_the_in_memory_reference(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "diff.sgnw"
        path.write_bytes(data)
        assert load_outcome(load_tensors, path) == load_outcome(reference_load_tensors, path)

    def test_huge_claim_is_truncated_without_allocating(self, tmp_path):
        path = tmp_path / "huge.sgnw"
        path.write_bytes(HUGE_CLAIM)
        assert len(HUGE_CLAIM) < 48
        tracemalloc.start()
        try:
            with pytest.raises(WeightFormatError, match="truncated file: expected payload of 'a'"):
                load_tensors(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_zero_dim_overflow_is_unusable_dims(self, tmp_path):
        path = tmp_path / "zero.sgnw"
        path.write_bytes(ZERO_DIM_OVERFLOW)
        with pytest.raises(WeightFormatError, match="unusable dims"):
            load_tensors(path)


class TestWeightFileLoadAndSave:
    """A load allocates only its tensors; a save replaces its target whole."""

    @pytest.fixture
    def store(self):
        rng = np.random.default_rng(7)
        return {"big": rng.standard_normal((1000, 1000), dtype=np.float32),
                "odd": rng.standard_normal((3, 5, 7), dtype=np.float32),
                "vec": rng.standard_normal(401, dtype=np.float32),
                "empty": np.zeros((0, 3), dtype=np.float32),
                "one": np.array([2.5], dtype=np.float32)}

    def test_load_peaks_near_the_payload_size(self, store, tmp_path):
        path = tmp_path / "w.sgnw"
        save_tensors(store, path)
        payload = sum(a.nbytes for a in store.values())
        assert payload > 4_000_000
        tracemalloc.start()
        try:
            back = load_tensors(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * payload
        assert list(back) == list(store)

    def test_each_tensor_is_its_own_native_aligned_array(self, store, tmp_path):
        path = tmp_path / "w.sgnw"
        save_tensors(store, path)
        back = list(load_tensors(path).values())
        for arr in back:
            assert arr.dtype == np.dtype(np.float32) and arr.dtype.isnative
            assert arr.flags.c_contiguous and arr.flags.aligned and arr.flags.writeable
            assert arr.base is None
        for i, a in enumerate(back):
            for b in back[i + 1:]:
                assert not np.shares_memory(a, b)

    def test_loads_from_a_pipe(self, store, tmp_path):
        """A FIFO has no size to check against: it is read whole, then
        parsed like a file."""
        store = {"odd": store["odd"], "one": store["one"]}
        path = tmp_path / "w.sgnw"
        save_tensors(store, path)
        fifo = tmp_path / "pipe.sgnw"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(path.read_bytes(),))
        writer.start()
        try:
            back = load_tensors(fifo)
        finally:
            writer.join()
        assert list(back) == list(store)
        for name in store:
            np.testing.assert_array_equal(back[name], store[name])

    def test_a_failed_save_leaves_the_target_and_no_temporary_file(self, tmp_path):
        path = tmp_path / "w.sgnw"
        save_tensors({"a": np.ones(3, dtype=np.float32)}, path)
        before = path.read_bytes()
        with pytest.raises(WeightFormatError, match="unusable length"):
            save_tensors({"b": np.zeros(2, dtype=np.float32), "": np.ones(1)}, path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["w.sgnw"]

    def test_save_gives_the_mode_of_a_plain_open(self, tmp_path):
        old = os.umask(0o027)
        try:
            save_tensors({}, tmp_path / "w.sgnw")
            (tmp_path / "plain").write_bytes(b"")
        finally:
            os.umask(old)
        mode = stat.S_IMODE(os.stat(tmp_path / "w.sgnw").st_mode)
        assert mode == stat.S_IMODE(os.stat(tmp_path / "plain").st_mode) == 0o640

    def test_save_into_a_missing_directory_names_the_target(self, tmp_path):
        path = tmp_path / "missing" / "w.sgnw"
        with pytest.raises(FileNotFoundError, match=re.escape(str(path))):
            save_tensors({}, path)

    def test_save_to_a_pipe_writes_in_place(self, tmp_path):
        fifo = tmp_path / "pipe.sgnw"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            save_tensors({"a": np.ones(2, dtype=np.float32)}, fifo)
            data = os.read(reader, 1 << 16)
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert data[:4] == b"SGNW" and len(data) == 12 + 2 + 1 + 1 + 4 + 8


class TestBenchmark:
    def test_single_run_collapses_percentiles(self, tiny_cfg, tiny_weights):
        stats = benchmark_inference(tiny_weights, tiny_cfg, n_runs=1)
        assert isinstance(stats, LatencyStats)
        assert stats.n_runs == 1
        assert stats.p50_ms == stats.p99_ms == stats.mean_ms
        assert stats.p50_ms > 0

    def test_percentiles_ordered(self, tiny_cfg, tiny_weights):
        stats = benchmark_inference(tiny_weights, tiny_cfg, n_runs=10)
        assert stats.p50_ms <= stats.p99_ms

    def test_rejects_nonpositive_runs(self, tiny_cfg, tiny_weights):
        with pytest.raises(ValueError):
            benchmark_inference(tiny_weights, tiny_cfg, n_runs=0)
