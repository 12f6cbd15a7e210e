"""From-scratch classifier: forward pass, manual backprop, weight I/O."""

from .bench import LatencyStats, benchmark_inference
from .config import DEFAULT_CONFIG, ModelConfig
from .network import (
    Prediction,
    count_parameters,
    cross_entropy,
    encoder_layer,
    feature_extract,
    forward,
    forward_batch,
    init_weights,
    loss_and_grads,
    param_specs,
    predict,
    train_step,
)
from .weights import (
    load_tensors,
    load_weights,
    save_tensors,
    save_weights,
    write_tensors,
)

__all__ = [
    "DEFAULT_CONFIG",
    "LatencyStats",
    "ModelConfig",
    "Prediction",
    "benchmark_inference",
    "count_parameters",
    "cross_entropy",
    "encoder_layer",
    "feature_extract",
    "forward",
    "forward_batch",
    "init_weights",
    "load_tensors",
    "loss_and_grads",
    "load_weights",
    "param_specs",
    "predict",
    "save_tensors",
    "save_weights",
    "train_step",
    "write_tensors",
]
