"""Turn raw landmark samples into fixed-shape feature tensors.

Stages: select the informative landmarks and drop z, optionally augment
(training only), normalize per sample, then resample to a fixed number of
time steps. Between stages a sample is one (L, K, 2) float64 array (L
distinct frames, K selected landmarks, NaN = missing); a list of L (K, 2)
matrices is also accepted and stacked into it. The final tensor is float32
with shape (target_len, 2K), rows flattened landmark-major (x0, y0, x1, ...).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DegenerateInputError, ValidationError
from .landmarks import KIND_CAPACITY, LandmarkKind, SignSample, frame_ordinal
from .nn.ops import STD_FLOOR

__all__ = [
    "DEFAULT_LIPS",
    "DEFAULT_POSE",
    "POSE_FLIP_PAIRS",
    "SelectionSpec",
    "AugmentConfig",
    "select_and_drop_z",
    "normalize",
    "resample",
    "flip_horizontal",
    "augment",
    "preprocess_pipeline",
]

# The 40-landmark lip contour of the holistic face mesh, sorted ascending.
DEFAULT_LIPS = (
    0, 13, 14, 17, 37, 39, 40, 61, 78, 80,
    81, 82, 84, 87, 88, 91, 95, 146, 178, 181,
    185, 191, 267, 269, 270, 291, 308, 310, 311, 312,
    314, 317, 318, 321, 324, 375, 402, 405, 409, 415,
)

# Shoulders, elbows, wrists.
DEFAULT_POSE = (11, 12, 13, 14, 15, 16)

# Left/right partner pose indices exchanged by a horizontal flip.
POSE_FLIP_PAIRS = ((11, 12), (13, 14), (15, 16))

_HAND_COUNT = KIND_CAPACITY[LandmarkKind.LEFT_HAND]


def _check_indices(name: str, indices: tuple[int, ...], capacity: int) -> None:
    if list(indices) != sorted(set(indices)):
        raise ValidationError(f"{name} indices must be sorted and unique")
    if indices and not (0 <= indices[0] and indices[-1] < capacity):
        raise ValidationError(f"{name} indices out of range [0, {capacity})")


@dataclass(frozen=True)
class SelectionSpec:
    """Which landmarks enter the feature tensor. Hands are always all 21."""

    lips: tuple[int, ...] = DEFAULT_LIPS
    pose: tuple[int, ...] = DEFAULT_POSE

    def __post_init__(self):
        _check_indices("lips", self.lips, KIND_CAPACITY[LandmarkKind.FACE])
        _check_indices("pose", self.pose, KIND_CAPACITY[LandmarkKind.POSE])

    @property
    def num_landmarks(self) -> int:
        return len(self.lips) + 2 * _HAND_COUNT + len(self.pose)

    @property
    def feature_dim(self) -> int:
        return 2 * self.num_landmarks

    def landmarks(self) -> tuple[np.ndarray, np.ndarray]:
        """(kind code, landmark_index) of each selected landmark, in row
        order: lips, left hand, right hand, pose."""
        blocks = ((LandmarkKind.FACE, self.lips),
                  (LandmarkKind.LEFT_HAND, range(_HAND_COUNT)),
                  (LandmarkKind.RIGHT_HAND, range(_HAND_COUNT)),
                  (LandmarkKind.POSE, self.pose))
        kind = np.repeat([k.value for k, _ in blocks], [len(ix) for _, ix in blocks])
        index = np.array([i for _, ix in blocks for i in ix], dtype=np.int64)
        return kind, index

    def row_of(self) -> dict[tuple[LandmarkKind, int], int]:
        """Map (kind, landmark_index) -> row in the selected matrix."""
        kind, index = self.landmarks()
        return {(LandmarkKind(k), i): r
                for r, (k, i) in enumerate(zip(kind.tolist(), index.tolist()))}

    @classmethod
    def from_json(cls, text: str) -> "SelectionSpec":
        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as e:
            raise ValidationError(f"selection spec: invalid JSON ({e})") from None
        if not isinstance(data, dict):
            raise ValidationError("selection spec: expected a JSON object")
        lips = data.get("lips", list(DEFAULT_LIPS))
        pose = data.get("pose", list(DEFAULT_POSE))
        for name, val in (("lips", lips), ("pose", pose)):
            if not isinstance(val, list) or not all(isinstance(i, int) for i in val):
                raise ValidationError(f"selection spec: {name} must be an int array")
        return cls(tuple(lips), tuple(pose))

    @classmethod
    def load(cls, path: str | Path) -> "SelectionSpec":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError as e:
            raise ValidationError(f"selection spec {path}: not UTF-8 text ({e})") from None
        return cls.from_json(text)

    def save(self, path: str | Path) -> None:
        payload = {"lips": list(self.lips), "pose": list(self.pose)}
        Path(path).write_text(json.dumps(payload) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class AugmentConfig:
    """Seeded training-time augmentation. Default ranges are the identity."""

    resample_scale_range: tuple[float, float] = (1.0, 1.0)
    mask_prob: float = 0.0
    flip_prob: float = 0.0
    scale_range: tuple[float, float] = (1.0, 1.0)
    shift_range: tuple[float, float] = (0.0, 0.0)
    rotate_deg_range: tuple[float, float] = (0.0, 0.0)
    shear_range: tuple[float, float] = (0.0, 0.0)
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("resample_scale_range", "scale_range", "shift_range",
                     "rotate_deg_range", "shear_range"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise ValidationError(f"{name}: lo {lo} > hi {hi}")
        for name in ("mask_prob", "flip_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValidationError(f"{name} {p} outside [0, 1]")


def select_and_drop_z(sample: SignSample, spec: SelectionSpec) -> np.ndarray:
    """(L, K, 2) selected (x, y), one matrix per distinct frame; NaN = absent."""
    rows = sample.frames
    kind, index = spec.landmarks()
    row_of = np.full((len(KIND_CAPACITY), max(KIND_CAPACITY.values())), -1)
    row_of[kind, index] = np.arange(len(kind))
    target = row_of[rows.kind, rows.landmark_index]
    keep = target >= 0
    frame = frame_ordinal(rows.frame_index)
    out = np.full((frame[-1] + 1, len(kind), 2), np.nan)
    out[frame[keep], target[keep]] = rows.xyz[keep, :2]
    return out


def normalize(frames) -> np.ndarray:
    """Center/scale by the per-sample mean and population std of all
    non-missing coordinates (x and y pooled); missing entries become 0."""
    frames = np.asarray(frames)
    finite = frames[np.isfinite(frames)]
    if finite.size == 0:
        raise DegenerateInputError("sample has no observed coordinates")
    mean = finite.mean()
    std = finite.std()
    if std < STD_FLOOR:
        std = 1.0
    return np.where(np.isnan(frames), 0.0, (frames - mean) / std)


def resample(frames, target_len: int) -> np.ndarray:
    """Linearly interpolate onto target_len uniform positions over [0, L-1].

    Returns the float32 feature tensor of shape (target_len, 2K). When the
    input already has target_len frames the result is a bit-identical copy.
    """
    if target_len <= 0:
        raise ValueError(f"target_len must be positive, got {target_len}")
    frames = np.asarray(frames)
    if len(frames) == 0:
        raise ValidationError("cannot resample an empty sequence")
    flat = frames.reshape(len(frames), -1)
    return _resample_matrix(flat, target_len).astype(np.float32)


def _resample_matrix(flat: np.ndarray, target_len: int) -> np.ndarray:
    length = flat.shape[0]
    if length == target_len:
        return flat.copy()
    if length == 1:
        return np.repeat(flat, target_len, axis=0)
    pos = np.linspace(0.0, length - 1.0, target_len)
    lo = np.floor(pos).astype(int)
    hi = np.minimum(lo + 1, length - 1)
    frac = (pos - lo)[:, None]
    return flat[lo] * (1.0 - frac) + flat[hi] * frac


def _flip_permutation(spec: SelectionSpec) -> np.ndarray:
    perm = np.arange(spec.num_landmarks)
    nl = len(spec.lips)
    left = np.arange(nl, nl + _HAND_COUNT)
    right = left + _HAND_COUNT
    perm[left] = right
    perm[right] = left
    pose_base = nl + 2 * _HAND_COUNT
    pose_pos = {idx: pose_base + i for i, idx in enumerate(spec.pose)}
    for a, b in POSE_FLIP_PAIRS:
        if a in pose_pos and b in pose_pos:
            perm[pose_pos[a]] = pose_pos[b]
            perm[pose_pos[b]] = pose_pos[a]
    return perm


def flip_horizontal(frames, spec: SelectionSpec) -> np.ndarray:
    """Mirror x -> 1-x and exchange the left/right hand blocks and the
    paired pose rows. An involution: applying it twice restores the input."""
    out = np.asarray(frames)[:, _flip_permutation(spec)]
    out[..., 0] = 1.0 - out[..., 0]
    return out


def _affine_matrix(scale: float, rotate_deg: float, shear: float) -> np.ndarray:
    # Composition order: scale, then x-shear, then rotation, all about origin.
    theta = math.radians(rotate_deg)
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    sh = np.array([[1.0, shear], [0.0, 1.0]])
    sc = np.array([[scale, 0.0], [0.0, scale]])
    return rot @ sh @ sc


def augment(frames, cfg: AugmentConfig, spec: SelectionSpec) -> np.ndarray:
    """Seeded augmentation: temporal re-length + frame masking, then
    horizontal flip and a random affine map of (x, y). Pure in rng_seed."""
    rng = np.random.default_rng(cfg.rng_seed)
    frames = np.asarray(frames)
    length = len(frames)

    # Temporal: new length round(L*u), half away from zero, floor 1. The
    # resampled array is a copy even when the length stays.
    u = rng.uniform(*cfg.resample_scale_range)
    new_len = max(1, int(math.floor(length * u + 0.5)))
    flat = _resample_matrix(frames.reshape(length, -1), new_len)
    frames = flat.reshape(new_len, *frames.shape[1:])

    frames[rng.uniform(size=len(frames)) < cfg.mask_prob] = np.nan

    if rng.uniform() < cfg.flip_prob:
        frames = flip_horizontal(frames, spec)

    scale = rng.uniform(*cfg.scale_range)
    rotate = rng.uniform(*cfg.rotate_deg_range)
    shear = rng.uniform(*cfg.shear_range)
    shift = rng.uniform(cfg.shift_range[0], cfg.shift_range[1], size=2)
    identity = scale == 1.0 and rotate == 0.0 and shear == 0.0 and not shift.any()
    if not identity:
        m = _affine_matrix(scale, rotate, shear)
        frames = frames @ m.T + shift
    return frames


def preprocess_pipeline(sample: SignSample, spec: SelectionSpec,
                        target_len: int,
                        cfg: AugmentConfig | None = None) -> np.ndarray:
    """select_and_drop_z -> (augment) -> normalize -> resample."""
    frames = select_and_drop_z(sample, spec)
    if cfg is not None:
        frames = augment(frames, cfg, spec)
    frames = normalize(frames)
    return resample(frames, target_len)
