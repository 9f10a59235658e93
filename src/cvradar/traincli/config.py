"""Training configuration: typed dataclass plus the JSON document the CLI reads."""

import json
import math
import os
from dataclasses import dataclass, field

from ..cnn import BranchConfig, ConvSpec, default_branch_config

__all__ = [
    "ConfigError",
    "TrainConfig",
    "branch_to_dict",
    "branch_from_dict",
    "config_to_dict",
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
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    branch: BranchConfig = field(default_factory=default_branch_config)
    embed_dim: int = 256
    heads: int = 16

    def __post_init__(self):
        if not self.manifest:
            raise ConfigError("manifest path must be non-empty")
        for name in ("learning_rate", "beta1", "beta2", "eps"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        # train-mode batch norm needs at least 2 samples to form a variance
        if self.batch_size < 2:
            raise ConfigError(f"batch_size must be >= 2, got {self.batch_size}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for name in ("beta1", "beta2"):
            b = getattr(self, name)
            if not 0.0 < b < 1.0:
                raise ConfigError(f"{name} must be in (0, 1), got {b}")
        if self.eps <= 0:
            raise ConfigError(f"eps must be positive, got {self.eps}")
        if self.embed_dim < 1 or self.heads < 1:
            raise ConfigError(
                f"embed_dim and heads must be positive, got {self.embed_dim}, {self.heads}"
            )
        if self.embed_dim % self.heads != 0:
            raise ConfigError(f"embed_dim {self.embed_dim} not divisible by heads {self.heads}")


def branch_to_dict(branch):
    return {
        "input_hw": list(branch.input_hw),
        "convs": [
            {"out_channels": c.out_channels, "kernel": list(c.kernel), "stride": list(c.stride)}
            for c in branch.convs
        ],
        "pool_window": branch.pool_window,
    }


def _json_int(value, name):
    # JSON integers only: a bool, float or numeric string is an error, not a cast
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


def _json_float(value, name):
    # an integer beyond float range reads as infinite, which TrainConfig refuses
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def branch_from_dict(doc):
    try:
        convs = tuple(
            ConvSpec(
                out_channels=_json_int(c["out_channels"], "out_channels"),
                kernel=tuple(_json_int(v, "kernel") for v in c["kernel"]),
                stride=tuple(_json_int(v, "stride") for v in c["stride"]),
            )
            for c in doc["convs"]
        )
        return BranchConfig(
            input_hw=tuple(_json_int(v, "input_hw") for v in doc["input_hw"]),
            convs=convs,
            pool_window=_json_int(doc["pool_window"], "pool_window"),
        )
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"bad branch config: {e}") from e


# the numeric TrainConfig fields a config document may set, and how each parses
_NUMBER_FIELDS = {
    "learning_rate": _json_float, "batch_size": _json_int, "epochs": _json_int,
    "seed": _json_int, "beta1": _json_float, "beta2": _json_float, "eps": _json_float,
    "embed_dim": _json_int, "heads": _json_int,
}


def config_to_dict(config):
    doc = {name: getattr(config, name) for name in _NUMBER_FIELDS}
    return {"manifest": config.manifest, "branch": branch_to_dict(config.branch), **doc}


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
    fields = {
        name: parse(doc[name], f"config field {name!r}")
        for name, parse in _NUMBER_FIELDS.items() if name in doc
    }
    return TrainConfig(manifest=manifest, branch=branch, **fields)


def load_train_config(path):
    """Parse a JSON training config; relative manifest paths resolve against it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as e:
            raise ConfigError(f"{path}: not valid JSON: {e}") from e
    try:
        return config_from_dict(doc, base_dir=os.path.dirname(os.path.abspath(path)))
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from e


def write_train_config(path, config):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_to_dict(config), fh, indent=2, sort_keys=True)
        fh.write("\n")
