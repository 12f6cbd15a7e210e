"""Synthetic corpora: argument checks and the pinned samples."""

import hashlib

import pytest

from signpipe.errors import ValidationError
from signpipe.synth import make_synthetic_samples


def test_samples_are_pinned():
    # perfbench builds its tutor clips and its training corpus from these.
    h = hashlib.sha256()
    for s in make_synthetic_samples(10, 16, seed=5):
        h.update(f"{s.sample_id}\t{s.label}\n".encode())
        for column in (s.frames.frame_index, s.frames.kind, s.frames.landmark_index,
                       s.frames.xyz):
            h.update(column.tobytes())
    assert h.hexdigest() == (
        "cd2aae1e156e1a542a90ec1c552bc62d96621cc37229d8817f854d602e7e5ba0")


@pytest.mark.parametrize("kwargs, message", [
    ({"num_classes": 0}, "num_classes must be >= 1, got 0"),
    ({"per_class": 0}, "per_class must be >= 1, got 0"),
    ({"length_range": (5, 4)}, r"bad length_range \(5, 4\)"),
    ({"length_range": (0, 3)}, r"bad length_range \(0, 3\)"),
], ids=["no-classes", "no-samples", "empty-range", "zero-length"])
def test_bad_arguments_rejected(kwargs, message):
    args = {"num_classes": 2, "per_class": 1} | kwargs
    with pytest.raises(ValidationError, match=f"^{message}$"):
        make_synthetic_samples(**args)
