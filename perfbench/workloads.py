"""Seeded inputs for each workload. The same seed gives the same inputs.

The program under test receives only what these functions build: landmark
clips for the robot clients to stream, a corpus CSV for training, and the
initial weights file.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from signpipe.landmarks import KIND_CAPACITY, LandmarkFrame, LandmarkKind, SignSample
from signpipe.synth import make_synthetic_samples

NUM_CLASSES = 10
LENGTH_RANGE = (24, 40)

# Share of each holistic clip's frames that lose one hand; its rows
# travel as nulls.
HAND_MISSING_SHARE = 0.2


@dataclass(frozen=True)
class Workload:
    name: str
    clients: int           # robot clients streaming at once; 0 = no network
    per_client: int        # samples each client streams in one repetition
    pool: int              # distinct clips per client
    smoke_per_client: int
    smoke_pool: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("tutor_1c", clients=1, per_client=60, pool=60,
                 smoke_per_client=4, smoke_pool=4),
        Workload("holistic_2c", clients=2, per_client=30, pool=6,
                 smoke_per_client=3, smoke_pool=2),
        # One epoch over 10 classes x 16 samples (~450k corpus rows).
        Workload("train_corpus", clients=0, per_client=160, pool=160,
                 smoke_per_client=40, smoke_pool=40),
    )
}


def _seeded_order(n: int, seed: int) -> np.ndarray:
    return np.random.default_rng([seed, 1]).permutation(n)


def tutor_clips(n: int, seed: int, id_prefix: str = "tutor") -> list[SignSample]:
    """n clips holding only the 88 selected landmarks, in a seeded order."""
    per_class = -(-n // NUM_CLASSES)
    samples = make_synthetic_samples(
        NUM_CLASSES, per_class, seed=seed, length_range=LENGTH_RANGE,
        id_prefix=id_prefix,
    )
    return [samples[i] for i in _seeded_order(len(samples), seed)[:n]]


_HOLISTIC_KINDS = (
    LandmarkKind.FACE, LandmarkKind.LEFT_HAND, LandmarkKind.POSE,
    LandmarkKind.RIGHT_HAND,
)
_HOLISTIC_ROWS = sum(KIND_CAPACITY[k] for k in _HOLISTIC_KINDS)  # 543
_KEYS = [(k, i) for k in _HOLISTIC_KINDS for i in range(KIND_CAPACITY[k])]
_LEFT = slice(468, 489)
_RIGHT = slice(522, 543)


def _holistic_clip(rng: np.random.Generator, length: int, class_id: int,
                   sample_id: str) -> SignSample:
    anchors = np.random.default_rng(10_000 + class_id).uniform(
        0.2, 0.8, size=(4, _HOLISTIC_ROWS, 3))
    pos = np.linspace(0.0, 3.0, length)
    lo = np.floor(pos).astype(int)
    hi = np.minimum(lo + 1, 3)
    frac = (pos - lo)[:, None, None]
    coords = anchors[lo] * (1.0 - frac) + anchors[hi] * frac
    coords += rng.normal(0.0, 0.01, size=coords.shape)
    n_missing = round(HAND_MISSING_SHARE * length)
    for t in rng.choice(length, size=n_missing, replace=False):
        coords[t, _LEFT if rng.uniform() < 0.5 else _RIGHT] = np.nan
    frames = [
        LandmarkFrame(t, kind, index, x, y, z)
        for t, rows in enumerate(coords.tolist())
        for (kind, index), (x, y, z) in zip(_KEYS, rows)
    ]
    return SignSample(sample_id, frames, class_id)


def holistic_clips(n: int, seed: int, stream: int = 0) -> list[SignSample]:
    """n full 543-landmark MediaPipe Holistic clips (face 468, left hand 21,
    pose 33, right hand 21 per frame).

    Clip lengths spread evenly over LENGTH_RANGE and the seed only shuffles
    them, so every seed and every stream asks for the same total work: with
    a pool this small, drawn lengths would move the per-clip cost by several
    percent from seed to seed, and one client would finish early.
    """
    rng = np.random.default_rng([seed, 2, stream])
    lengths = np.rint(np.linspace(*LENGTH_RANGE, n)).astype(int)
    return [_holistic_clip(rng, int(length), i % NUM_CLASSES, f"holo{stream}-{i:03d}")
            for i, length in enumerate(rng.permutation(lengths))]


def client_pools(workload: Workload, seed: int, smoke: bool) -> list[list[SignSample]]:
    """The distinct clips each robot client streams."""
    size = workload.smoke_pool if smoke else workload.pool
    if workload.name == "holistic_2c":
        return [holistic_clips(size, seed, c) for c in range(workload.clients)]
    return [tutor_clips(size, seed)]


def client_streams(workload: Workload, seed: int, smoke: bool) -> list[list[SignSample]]:
    """What each robot client streams in one repetition.

    Holistic clips cost ~5 MB of Python objects each, so each client cycles
    through a small pool of distinct clips; every streamed sample gets its
    own id. The server keeps no state between samples, so a repeated clip
    costs as much as a new one.
    """
    per_client = workload.smoke_per_client if smoke else workload.per_client
    return [
        [SignSample(f"c{c}-{j:03d}-{pool[j % len(pool)].sample_id}",
                    pool[j % len(pool)].frames, pool[j % len(pool)].label)
         for j in range(per_client)]
        for c, pool in enumerate(client_pools(workload, seed, smoke))
    ]


def train_corpus(seed: int, smoke: bool) -> list[SignSample]:
    w = WORKLOADS["train_corpus"]
    return tutor_clips(w.smoke_pool if smoke else w.pool, seed, id_prefix="train")
