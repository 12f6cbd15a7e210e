"""Shared set-up for the benchmark's scripts: locate the checkout's sources,
describe the environment, and name the files a run reads and writes.

Importing this module puts ``<checkout>/src`` first on ``sys.path`` so the
benchmark always measures the sources next to it, never an installed copy.
It exits with status 2 when those sources are missing.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = BENCH_DIR / "_work"
OUT_DIR = BENCH_DIR / "_out"

if not (SRC / "signpipe" / "__init__.py").is_file():
    sys.stderr.write(f"perfbench: no signpipe sources under {SRC}\n")
    raise SystemExit(2)
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import signpipe  # noqa: E402

if Path(signpipe.__file__).resolve().parent != SRC / "signpipe":
    sys.stderr.write(f"perfbench: imported signpipe from {signpipe.__file__}, not {SRC}\n")
    raise SystemExit(2)

from signpipe.nn import DEFAULT_CONFIG, ModelConfig  # noqa: E402

# A model with the default's interface (176 inputs, 4 encoder layers, 32
# steps, 250 classes) but tiny widths, for the benchmark's own smoke test.
SMOKE_CONFIG = ModelConfig(
    input_dim=176, extractor_dims=(16,), model_dim=16, num_layers=4,
    num_heads=2, ff_dim=32, num_classes=250, max_seq_len=32,
)


def model_config(smoke: bool) -> ModelConfig:
    return SMOKE_CONFIG if smoke else DEFAULT_CONFIG


def _blas_description() -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def environment() -> dict[str, str]:
    """What the numbers depend on, as found. Nothing here is changed."""
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 0
    env = {
        "nproc": str(nproc),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_description(),
    }
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = os.environ.get(var, "unset")
    return env


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]."""
    return float(np.percentile(np.asarray(values, dtype=float), q))
