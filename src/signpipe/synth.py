"""Synthetic labeled corpora for tests, demos, and training smoke runs.

Each class gets a fixed motion template: a handful of anchor poses for every
selected landmark, interpolated over the sample's length. Templates depend
only on the class id, so independently generated train and validation sets
share them; per-sample variation comes from Gaussian jitter and a random
length. Classes are well separated, which is the point: this data checks the
training loop, not the ceiling of the model.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .landmarks import LabelMap, LandmarkRows, SignSample
from .preprocess import SelectionSpec, _resample_matrix

__all__ = [
    "synthetic_label_map",
    "make_synthetic_samples",
]

# Offset separating template seeds from sample-noise seeds.
_TEMPLATE_SEED_BASE = 10_000
_NUM_ANCHORS = 4
_NOISE = 0.02  # std of the Gaussian jitter on each coordinate


def synthetic_label_map(num_classes: int) -> LabelMap:
    if num_classes < 1:
        raise ValidationError(f"num_classes must be >= 1, got {num_classes}")
    return LabelMap(tuple(f"sign_{c:02d}" for c in range(num_classes)))


def _class_template(class_id: int, num_landmarks: int) -> np.ndarray:
    rng = np.random.default_rng(_TEMPLATE_SEED_BASE + class_id)
    return rng.uniform(0.2, 0.8, size=(_NUM_ANCHORS, num_landmarks, 2))


def make_synthetic_samples(num_classes: int, per_class: int, seed: int = 0,
                           length_range: tuple[int, int] = (24, 40),
                           id_prefix: str = "syn") -> list[SignSample]:
    """per_class samples for each of num_classes classes, class-major order."""
    synthetic_label_map(num_classes)  # range-checks num_classes
    if per_class < 1:
        raise ValidationError(f"per_class must be >= 1, got {per_class}")
    lo, hi = length_range
    if not 1 <= lo <= hi:
        raise ValidationError(f"bad length_range {length_range}")
    spec = SelectionSpec()
    kind, index = spec.landmarks()
    rng = np.random.default_rng(seed)
    samples: list[SignSample] = []
    for c in range(num_classes):
        flat_anchors = _class_template(c, spec.num_landmarks).reshape(_NUM_ANCHORS, -1)
        for i in range(per_class):
            length = int(rng.integers(lo, hi + 1))
            coords = _resample_matrix(flat_anchors, length).reshape(length, -1, 2)
            xyz = np.zeros((length, len(kind), 3))
            xyz[..., :2] = coords + rng.normal(0.0, _NOISE, size=coords.shape)
            rows = LandmarkRows(np.repeat(np.arange(length), len(kind)),
                                np.tile(kind, length), np.tile(index, length), xyz)
            samples.append(SignSample(f"{id_prefix}-{c:02d}-{i:03d}", rows, c))
    return samples
