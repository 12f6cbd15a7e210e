"""Classifier architecture hyperparameters."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

from ..errors import ValidationError
from ..jsonio import check_fields, check_json, load_json, write_text
from ..landmarks import LabelMap

__all__ = ["ModelConfig", "DEFAULT_CONFIG"]


@dataclass(frozen=True)
class ModelConfig:
    """Shape of the sign classifier.

    The default is sized for the default landmark selection (88 landmarks,
    input_dim 176) and was chosen so the total parameter count is exactly
    2,562,970; see count_parameters for the breakdown.
    """

    input_dim: int = 176
    extractor_dims: tuple[int, ...] = (300,)
    model_dim: int = 300
    num_layers: int = 4
    num_heads: int = 4
    ff_dim: int = 405
    num_classes: int = 250
    max_seq_len: int = 32

    def __post_init__(self):
        dims = (self.input_dim, self.model_dim, self.num_heads, self.ff_dim,
                self.num_classes, self.max_seq_len, *self.extractor_dims)
        if any(d <= 0 for d in dims):
            raise ValidationError("all model dimensions must be positive")
        if self.num_layers < 1:
            raise ValidationError("num_layers must be >= 1")
        if self.model_dim % self.num_heads != 0:
            raise ValidationError(
                f"model_dim {self.model_dim} not divisible by "
                f"num_heads {self.num_heads}"
            )
        if not self.extractor_dims:
            raise ValidationError("extractor_dims must be non-empty")
        if self.extractor_dims[-1] != self.model_dim:
            raise ValidationError(
                f"last extractor width {self.extractor_dims[-1]} must equal "
                f"model_dim {self.model_dim}"
            )

    def check_inputs(self, feature_dim: int, labels: LabelMap | None = None) -> None:
        """Raise ValidationError unless a selection of feature_dim features
        and the label map (None: class ids) fit this model."""
        if feature_dim != self.input_dim:
            raise ValidationError(
                f"selection produces {feature_dim} features but "
                f"the model expects {self.input_dim}"
            )
        if labels is not None and len(labels) < self.num_classes:
            raise ValidationError(
                f"label map covers {len(labels)} classes, model has "
                f"{self.num_classes}"
            )

    def to_json(self) -> str:
        d = asdict(self)
        d["extractor_dims"] = list(self.extractor_dims)
        return json.dumps(d, indent=2) + "\n"

    @classmethod
    def from_dict(cls, data: dict, origin: str = "model config") -> "ModelConfig":
        fields = dict.fromkeys(cls.__dataclass_fields__, int)
        check_json(data, origin, ValidationError, fields | {"extractor_dims": [int]})
        check_fields(data, origin, ValidationError, fields)
        if "extractor_dims" in data:
            data = dict(data, extractor_dims=tuple(data["extractor_dims"]))
        return cls(**data)

    @classmethod
    def load(cls, path: str | Path) -> "ModelConfig":
        origin = f"model config {path}"
        return cls.from_dict(load_json(path, origin, ValidationError), origin)

    def save(self, path: str | Path) -> None:
        write_text(path, self.to_json())


DEFAULT_CONFIG = ModelConfig()
