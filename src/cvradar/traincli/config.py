"""Training configuration: typed dataclass plus the JSON document the CLI reads."""

import json
import math
import os
from dataclasses import asdict, dataclass, field

from ..cnn import BranchConfig, ConvSpec, default_branch_config
from ..dsp import json_float, json_int, read_json

__all__ = [
    "ConfigError",
    "TrainConfig",
    "config_from_dict",
    "load_train_config",
    "write_train_config",
]


class ConfigError(ValueError):
    """Raised when a training configuration document is invalid."""


@dataclass(frozen=True)
class TrainConfig:
    manifest: str
    learning_rate: float = 0.001
    batch_size: int = 16
    epochs: int = 15
    seed: int = 0
    branch: BranchConfig = field(default_factory=default_branch_config)
    embed_dim: int = 256
    heads: int = 16

    def __post_init__(self):
        if not self.manifest:
            raise ConfigError("manifest path must be non-empty")
        lr = self.learning_rate
        if not (math.isfinite(lr) and lr > 0):
            raise ConfigError(f"learning_rate must be finite and positive, got {lr}")
        # train-mode batch norm needs at least 2 samples to form a variance
        if self.batch_size < 2:
            raise ConfigError(f"batch_size must be >= 2, got {self.batch_size}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.embed_dim < 1 or self.heads < 1:
            raise ConfigError(
                f"embed_dim and heads must be positive, got {self.embed_dim}, {self.heads}"
            )
        if self.embed_dim % self.heads != 0:
            raise ConfigError(f"embed_dim {self.embed_dim} not divisible by heads {self.heads}")


def branch_from_dict(doc):
    try:
        convs = tuple(
            ConvSpec(
                out_channels=json_int(c["out_channels"], "out_channels"),
                kernel=tuple(json_int(v, "kernel") for v in c["kernel"]),
                stride=tuple(json_int(v, "stride") for v in c["stride"]),
            )
            for c in doc["convs"]
        )
        return BranchConfig(
            input_hw=tuple(json_int(v, "input_hw") for v in doc["input_hw"]),
            convs=convs,
            pool_window=json_int(doc["pool_window"], "pool_window"),
        )
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"bad branch config: {e}") from e


# the numeric TrainConfig fields a config document may set, and how each parses
_NUMBER_FIELDS = {
    "learning_rate": json_float, "batch_size": json_int, "epochs": json_int,
    "seed": json_int, "embed_dim": json_int, "heads": json_int,
}


def config_from_dict(doc, base_dir=None):
    if not isinstance(doc, dict):
        raise ConfigError("training config must be a JSON object")
    manifest = doc.get("manifest")
    if not isinstance(manifest, str) or not manifest:
        raise ConfigError("config field 'manifest' must be a non-empty path string")
    if base_dir and not os.path.isabs(manifest):
        manifest = os.path.join(base_dir, manifest)
    branch = branch_from_dict(doc["branch"]) if "branch" in doc else default_branch_config()
    unknown = sorted(set(doc) - {"manifest", "branch"} - set(_NUMBER_FIELDS))
    if unknown:
        raise ConfigError(f"unknown config fields: {', '.join(unknown)}")
    try:
        fields = {
            name: parse(doc[name], f"config field {name!r}")
            for name, parse in _NUMBER_FIELDS.items() if name in doc
        }
    except TypeError as e:
        raise ConfigError(str(e)) from e
    return TrainConfig(manifest=manifest, branch=branch, **fields)


def load_train_config(path):
    """Parse a JSON training config; relative manifest paths resolve against it."""
    doc = read_json(path, ConfigError)
    try:
        return config_from_dict(doc, base_dir=os.path.dirname(os.path.abspath(path)))
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from e


def write_train_config(path, config):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(asdict(config), fh, indent=2, sort_keys=True)
        fh.write("\n")
