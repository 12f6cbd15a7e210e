"""Feature pipeline: selection, normalization, resampling, augmentation."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from signpipe.errors import DegenerateInputError, ValidationError
from signpipe import preprocess
from signpipe.landmarks import KIND_CAPACITY, LandmarkFrame, LandmarkKind, SignSample
from signpipe.preprocess import (
    DEFAULT_LIPS,
    DEFAULT_POSE,
    MAX_RESAMPLE_SCALE,
    POSE_FLIP_PAIRS,
    AugmentConfig,
    SelectionSpec,
    augment,
    flip_horizontal,
    normalize,
    preprocess_pipeline,
    resample,
    select_and_drop_z,
)
from signpipe.synth import make_synthetic_samples

from conftest import make_sample

SPEC = SelectionSpec()


def frames_equal(a, b, *, atol=0.0):
    assert len(a) == len(b)
    for fa, fb in zip(a, b):
        if atol:
            np.testing.assert_allclose(fa, fb, atol=atol, rtol=0.0)
        else:
            np.testing.assert_array_equal(fa, fb)


class TestSelectionSpec:
    def test_default_dimensions(self):
        assert SPEC.num_landmarks == 88
        assert SPEC.feature_dim == 176
        assert len(DEFAULT_LIPS) == 40
        assert DEFAULT_POSE == (11, 12, 13, 14, 15, 16)

    def test_row_layout_lips_hands_pose(self):
        rows = SPEC.row_of()
        assert rows[(LandmarkKind.FACE, DEFAULT_LIPS[0])] == 0
        assert rows[(LandmarkKind.LEFT_HAND, 0)] == 40
        assert rows[(LandmarkKind.RIGHT_HAND, 0)] == 61
        assert rows[(LandmarkKind.POSE, 11)] == 82
        assert rows[(LandmarkKind.POSE, 16)] == 87
        assert len(rows) == 88

    def test_rejects_unsorted_duplicate_or_out_of_range(self):
        with pytest.raises(ValidationError):
            SelectionSpec(lips=(2, 1))
        with pytest.raises(ValidationError):
            SelectionSpec(pose=(11, 11))
        with pytest.raises(ValidationError):
            SelectionSpec(pose=(11, 33))

    def test_from_json_partial_keeps_defaults(self):
        spec = SelectionSpec.from_json('{"pose": [11, 12]}')
        assert spec.lips == DEFAULT_LIPS
        assert spec.pose == (11, 12)

    def test_from_json_rejects_junk(self):
        with pytest.raises(ValidationError):
            SelectionSpec.from_json("[1, 2]")
        with pytest.raises(ValidationError):
            SelectionSpec.from_json('{"lips": ["a"]}')
        with pytest.raises(ValidationError):
            SelectionSpec.from_json("{nope")

    def test_from_json_rejects_an_unknown_key(self):
        with pytest.raises(ValidationError,
                           match=r"^selection spec: unknown fields \['lip'\]$"):
            SelectionSpec.from_json('{"lip": [0, 13]}')

    def test_save_load_round_trip(self, tmp_path):
        spec = SelectionSpec(lips=(0, 13), pose=(15, 16))
        p = tmp_path / "sel.json"
        spec.save(p)
        assert SelectionSpec.load(p) == spec


class TestSelect:
    def test_unselected_positions_are_nan(self):
        f = LandmarkFrame(0, LandmarkKind.RIGHT_HAND, 2, 0.25, 0.75, 0.0)
        mats = select_and_drop_z(SignSample("s", [f], 0), SPEC)
        assert len(mats) == 1
        m = mats[0]
        assert m.shape == (88, 2)
        assert m[63, 0] == 0.25 and m[63, 1] == 0.75
        observed = np.isfinite(m).sum()
        assert observed == 2

    def test_z_value_never_enters_features(self):
        a = make_sample(seed=3)
        b = SignSample(a.sample_id,
                       [LandmarkFrame(f.frame_index, f.kind, f.landmark_index,
                                      f.x, f.y, 0.0)
                        for f in a.frames],
                       a.label)
        frames_equal(select_and_drop_z(a, SPEC), select_and_drop_z(b, SPEC))

    def test_one_matrix_per_distinct_frame(self):
        s = make_sample(num_frames=7)
        assert len(select_and_drop_z(s, SPEC)) == 7


class TestNormalize:
    def test_two_point_case(self):
        out = normalize([np.array([[0.0, 2.0]])])
        np.testing.assert_allclose(out[0], [[-1.0, 1.0]])

    def test_four_point_case(self):
        # mean 2.5, population std sqrt(5)/2
        out = normalize([np.array([[1.0, 2.0], [3.0, 4.0]])])
        std = math.sqrt(5.0) / 2.0
        expect = (np.array([[1.0, 2.0], [3.0, 4.0]]) - 2.5) / std
        np.testing.assert_allclose(out[0], expect, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(
            out[0].ravel(),
            [-1.3416407864998738, -0.4472135954999579,
             0.4472135954999579, 1.3416407864998738],
        )

    def test_statistics_pool_across_frames_and_axes(self):
        frames = [np.array([[1.0, 2.0]]), np.array([[3.0, 4.0]])]
        out = normalize(frames)
        flat = np.concatenate([f.ravel() for f in out])
        assert abs(flat.mean()) < 1e-12
        assert abs(flat.std() - 1.0) < 1e-12

    def test_constant_input_maps_to_zero(self):
        out = normalize([np.full((3, 2), 5.0)])
        np.testing.assert_array_equal(out[0], np.zeros((3, 2)))

    def test_missing_becomes_zero_and_is_excluded_from_stats(self):
        frames = [np.array([[0.0, 2.0], [np.nan, np.nan]])]
        out = normalize(frames)
        np.testing.assert_allclose(out[0], [[-1.0, 1.0], [0.0, 0.0]])

    def test_all_missing_raises(self):
        with pytest.raises(DegenerateInputError):
            normalize([np.full((4, 2), np.nan)])


class TestResample:
    def test_two_to_three_midpoint(self):
        frames = [np.array([[0.0, 0.0]]), np.array([[1.0, 2.0]])]
        out = resample(frames, 3)
        assert out.dtype == np.float32
        np.testing.assert_allclose(out, [[0.0, 0.0], [0.5, 1.0], [1.0, 2.0]])

    def test_three_to_five_quarters(self):
        frames = [np.array([[v]]) for v in (0.0, 0.5, 1.0)]
        out = resample(frames, 5)
        np.testing.assert_allclose(out.ravel(), [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_matching_length_is_exact_copy(self):
        rng = np.random.default_rng(5)
        frames = [rng.standard_normal((88, 2)) for _ in range(4)]
        out = resample(frames, 4)
        expect = np.stack(frames).reshape(4, -1).astype(np.float32)
        np.testing.assert_array_equal(out, expect)

    def test_single_frame_extends(self):
        frames = [np.array([[0.3, 0.7]])]
        out = resample(frames, 4)
        np.testing.assert_array_equal(out, np.tile([0.3, 0.7], (4, 1)).astype(np.float32))

    def test_downsampling_endpoints_preserved(self):
        frames = [np.array([[float(v)]]) for v in range(10)]
        out = resample(frames, 4)
        np.testing.assert_allclose(out.ravel(), [0.0, 3.0, 6.0, 9.0])

    def test_interleaved_feature_order(self):
        frames = [np.array([[1.0, 2.0], [3.0, 4.0]])]
        out = resample(frames, 1)
        np.testing.assert_array_equal(out, [[1.0, 2.0, 3.0, 4.0]])

    def test_bad_target_rejected(self):
        with pytest.raises(ValueError):
            resample([np.zeros((1, 2))], 0)
        with pytest.raises(ValidationError):
            resample([], 3)


class TestFlip:
    def test_x_mirrored_y_kept(self):
        f = np.full((88, 2), 0.5)
        f[:, 0] = 0.3
        out = flip_horizontal([f], SPEC)[0]
        np.testing.assert_allclose(out[:, 0], 0.7)
        np.testing.assert_array_equal(out[:, 1], f[:, 1])

    def test_hand_blocks_swap(self):
        f = np.zeros((88, 2))
        f[40:61, 1] = 1.0  # left hand
        f[61:82, 1] = 2.0  # right hand
        out = flip_horizontal([f], SPEC)[0]
        np.testing.assert_array_equal(out[40:61, 1], 2.0)
        np.testing.assert_array_equal(out[61:82, 1], 1.0)

    def test_pose_pairs_swap(self):
        f = np.zeros((88, 2))
        f[82:88, 1] = np.arange(6)  # pose order 11..16
        out = flip_horizontal([f], SPEC)[0]
        np.testing.assert_array_equal(out[82:88, 1], [1, 0, 3, 2, 5, 4])

    def test_lips_rows_stay_in_place(self):
        f = np.zeros((88, 2))
        f[:40, 1] = np.arange(40)
        out = flip_horizontal([f], SPEC)[0]
        np.testing.assert_array_equal(out[:40, 1], np.arange(40))

    def test_involution(self):
        rng = np.random.default_rng(11)
        frames = [rng.uniform(size=(88, 2)) for _ in range(3)]
        back = flip_horizontal(flip_horizontal(frames, SPEC), SPEC)
        frames_equal(back, frames, atol=1e-12)

    def test_partial_pose_selection_skips_unpaired(self):
        spec = SelectionSpec(pose=(11, 13, 14))  # 11 has no partner selected
        f = np.zeros((85, 2))
        f[82:85, 1] = [10.0, 20.0, 30.0]
        out = flip_horizontal([f], spec)[0]
        np.testing.assert_array_equal(out[82:85, 1], [10.0, 30.0, 20.0])


def reference_flip_permutation(spec):
    """The flip that `_flip_permutation` replaced, kept as its reference: it
    works out the hand and pose row offsets of the lips, hands, pose layout."""
    hands = KIND_CAPACITY[LandmarkKind.LEFT_HAND]
    perm = np.arange(spec.num_landmarks)
    nl = len(spec.lips)
    left = np.arange(nl, nl + hands)
    right = left + hands
    perm[left] = right
    perm[right] = left
    pose_base = nl + 2 * hands
    pose_pos = {idx: pose_base + i for i, idx in enumerate(spec.pose)}
    for a, b in POSE_FLIP_PAIRS:
        if a in pose_pos and b in pose_pos:
            perm[pose_pos[a]] = pose_pos[b]
            perm[pose_pos[b]] = pose_pos[a]
    return perm


def _indices(capacity, max_size):
    return st.sets(st.integers(0, capacity - 1), max_size=max_size).map(sorted).map(tuple)


@given(lips=_indices(KIND_CAPACITY[LandmarkKind.FACE], 40),
       pose=_indices(KIND_CAPACITY[LandmarkKind.POSE], 33))
def test_flip_permutation_matches_the_reference(lips, pose):
    spec = SelectionSpec(lips, pose)
    perm = preprocess._flip_permutation(spec)
    expected = reference_flip_permutation(spec)
    assert perm.dtype == expected.dtype
    np.testing.assert_array_equal(perm, expected)


class TestAugment:
    def test_default_config_is_bitwise_identity(self):
        s = make_sample(seed=2, with_missing=True)
        frames = select_and_drop_z(s, SPEC)
        out = augment(frames, AugmentConfig(), SPEC)
        for a, b in zip(out, frames):
            np.testing.assert_array_equal(a, b)

    def test_seeded_determinism(self):
        cfg = AugmentConfig(
            resample_scale_range=(0.5, 1.5), mask_prob=0.1, flip_prob=0.5,
            scale_range=(0.9, 1.1), shift_range=(-0.1, 0.1),
            rotate_deg_range=(-15.0, 15.0), shear_range=(-0.1, 0.1),
            rng_seed=77,
        )
        frames = select_and_drop_z(make_sample(seed=4), SPEC)
        a = augment(frames, cfg, SPEC)
        b = augment(frames, cfg, SPEC)
        frames_equal(a, b)

    def test_different_seeds_differ(self):
        base = dict(rotate_deg_range=(-15.0, 15.0), shift_range=(-0.1, 0.1))
        frames = select_and_drop_z(make_sample(seed=4), SPEC)
        a = augment(frames, AugmentConfig(rng_seed=1, **base), SPEC)
        b = augment(frames, AugmentConfig(rng_seed=2, **base), SPEC)
        assert any(not np.array_equal(x, y) for x, y in zip(a, b))

    def test_pure_rotation_quarter_turn(self):
        f = np.array([[1.0, 0.0]])
        out = augment([f], AugmentConfig(rotate_deg_range=(90.0, 90.0)), SPEC)
        np.testing.assert_allclose(out[0], [[0.0, 1.0]], atol=1e-6)

    def test_pure_shift(self):
        f = np.array([[0.25, 0.5]])
        out = augment([f], AugmentConfig(shift_range=(0.1, 0.1)), SPEC)
        np.testing.assert_allclose(out[0], [[0.35, 0.6]], atol=1e-12)

    def test_pure_scale(self):
        f = np.array([[0.25, 0.5]])
        out = augment([f], AugmentConfig(scale_range=(2.0, 2.0)), SPEC)
        np.testing.assert_allclose(out[0], [[0.5, 1.0]], atol=1e-12)

    def test_temporal_rescale_halves_length(self):
        frames = [np.full((2, 2), float(v)) for v in range(4)]
        out = augment(frames, AugmentConfig(resample_scale_range=(0.5, 0.5)), SPEC)
        assert len(out) == 2

    def test_full_masking_blanks_every_frame(self):
        frames = [np.ones((2, 2)) for _ in range(3)]
        out = augment(frames, AugmentConfig(mask_prob=1.0), SPEC)
        assert all(np.isnan(f).all() for f in out)

    def test_certain_flip_matches_flip_horizontal(self):
        frames = select_and_drop_z(make_sample(seed=6), SPEC)
        out = augment(frames, AugmentConfig(flip_prob=1.0), SPEC)
        frames_equal(out, flip_horizontal(frames, SPEC))

    def test_input_not_mutated(self):
        frames = [np.ones((2, 2))]
        snapshot = frames[0].copy()
        augment(frames, AugmentConfig(shift_range=(0.2, 0.2)), SPEC)
        np.testing.assert_array_equal(frames[0], snapshot)

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            AugmentConfig(scale_range=(1.2, 0.8))
        with pytest.raises(ValidationError):
            AugmentConfig(mask_prob=1.5)
        with pytest.raises(ValidationError):
            AugmentConfig(flip_prob=-0.1)

    @pytest.mark.parametrize("name", ["resample_scale_range", "scale_range",
                                      "shift_range", "rotate_deg_range", "shear_range"])
    @pytest.mark.parametrize("bounds", [(math.inf, math.inf), (math.nan, math.nan),
                                        (0.0, math.nan), (-math.inf, 0.0)])
    def test_range_bounds_must_be_finite(self, name, bounds):
        with pytest.raises(ValidationError, match=f"^{name}: bounds .* must be finite$"):
            AugmentConfig(**{name: bounds})

    @pytest.mark.parametrize("hi", [MAX_RESAMPLE_SCALE * 1.5, 1e9, 1e308])
    def test_resample_scale_is_bounded(self, hi):
        with pytest.raises(ValidationError,
                           match=f"^resample_scale_range: hi .* above {MAX_RESAMPLE_SCALE}$"):
            AugmentConfig(resample_scale_range=(1.0, hi))
        frames = [np.zeros((2, 2)) for _ in range(3)]
        cfg = AugmentConfig(resample_scale_range=(MAX_RESAMPLE_SCALE, MAX_RESAMPLE_SCALE))
        assert len(augment(frames, cfg, SPEC)) == 30


class TestPipeline:
    def test_shape_dtype_and_finiteness(self):
        for seed in range(5):
            s = make_sample(seed=seed, num_frames=3 + seed, with_missing=True)
            x = preprocess_pipeline(s, SPEC, 32)
            assert x.shape == (32, 176)
            assert x.dtype == np.float32
            assert np.isfinite(x).all()

    def test_augmented_run_is_seeded(self):
        cfg = AugmentConfig(resample_scale_range=(0.5, 1.5), mask_prob=0.05,
                            flip_prob=0.5, rotate_deg_range=(-15.0, 15.0),
                            rng_seed=9)
        s = make_sample(seed=1, num_frames=8)
        a = preprocess_pipeline(s, SPEC, 16, cfg)
        b = preprocess_pipeline(s, SPEC, 16, cfg)
        np.testing.assert_array_equal(a, b)

    def test_missing_z_equals_zero_z(self):
        s = make_sample(seed=3)
        alt = SignSample(
            s.sample_id,
            [LandmarkFrame(f.frame_index, f.kind, f.landmark_index,
                           f.x, f.y, float("nan"))
             for f in s.frames],
            s.label,
        )
        np.testing.assert_array_equal(
            preprocess_pipeline(s, SPEC, 8), preprocess_pipeline(alt, SPEC, 8))

    def test_fully_missing_sample_raises(self):
        frames = [LandmarkFrame(0, LandmarkKind.POSE, 11,
                                float("nan"), float("nan"))]
        with pytest.raises(DegenerateInputError):
            preprocess_pipeline(SignSample("s", frames, 0), SPEC, 8)

    def test_normalized_statistics_survive_to_tensor(self):
        # matching length, stats over the observed block (right hand + pose):
        # unobserved landmarks are imputed to 0 and excluded from the stats
        s = make_sample(seed=8, num_frames=4)
        x = preprocess_pipeline(s, SPEC, 4).astype(np.float64)
        observed = x[:, 2 * 61:]
        assert abs(observed.mean()) < 1e-6
        assert abs(observed.std() - 1.0) < 1e-6
        np.testing.assert_array_equal(x[:, : 2 * 40], 0.0)


class TestGoldenTensor:
    def test_pipeline_bytes_digest(self):
        samples = make_synthetic_samples(3, 2, seed=4) + [
            make_sample(with_missing=True, seed=3)]
        data = b"".join(preprocess_pipeline(s, SelectionSpec(), 32).tobytes()
                        for s in samples)
        assert hashlib.sha256(data).hexdigest() == (
            "47eef08a0bf90db7da2e6957efaf790a8d0deca7fd00161161cfbfc07c179773")
