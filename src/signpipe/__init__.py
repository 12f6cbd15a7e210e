"""signpipe: isolated sign recognition plus co-speech gesture composition.

The pipeline: landmark corpus -> preprocessing -> transformer classifier
(from-scratch numpy, manual backprop) -> two-step LLM dialogue with gesture
markup -> speech/gesture timeline, with a TCP server/robot-client pair and
a CLI tying the stages together.
"""

from . import dialogue, gesture, landmarks, netpipe, nn, preprocess, synth

__version__ = "0.1.0"

__all__ = [
    "dialogue",
    "gesture",
    "landmarks",
    "netpipe",
    "nn",
    "preprocess",
    "synth",
    "__version__",
]
