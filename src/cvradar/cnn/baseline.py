"""Single-branch baseline classifier: FFT-representation branch + one FC head."""

from dataclasses import dataclass

import numpy as np

from ..ctensor import ComplexTensor, ShapeError, ops
from .branch import (
    BranchConfig,
    BranchWeights,
    branch_forward,
    branch_parameters,
    branch_state,
    init_branch,
    rebuild_branch,
)
from .layers import real_uniform

__all__ = [
    "BaselineModel",
    "init_baseline",
    "baseline_logits",
    "baseline_forward",
]


@dataclass(frozen=True)
class BaselineModel:
    config: BranchConfig
    branch: BranchWeights
    head_w: ComplexTensor  # (2 * C_f * L, n_classes)
    head_b: ComplexTensor  # (n_classes,)

    def __post_init__(self):
        c_f, length = self.config.feature_shape()
        want = 2 * c_f * length
        if self.head_w.ndim != 2 or self.head_w.shape[0] != want:
            raise ShapeError(
                f"head weights {self.head_w.shape} do not accept {want} flattened features"
            )
        if self.head_b.shape != (self.head_w.shape[1],):
            raise ShapeError(
                f"head bias {self.head_b.shape} does not match {self.head_w.shape[1]} classes"
            )

    @property
    def n_classes(self):
        return self.head_w.shape[1]

    def parameters(self):
        return branch_parameters("branch", self.branch) + [
            ("head.w", self.head_w),
            ("head.b", self.head_b),
        ]

    def state(self):
        return branch_state("branch", self.branch)

    def with_tensors(self, mapping):
        return BaselineModel(
            config=self.config,
            branch=rebuild_branch("branch", self.branch, mapping),
            head_w=mapping.get("head.w", self.head_w),
            head_b=mapping.get("head.b", self.head_b),
        )


def init_baseline(config, n_classes, rng):
    c_f, length = config.feature_shape()
    fan_in = 2 * c_f * length
    return BaselineModel(
        config=config,
        branch=init_branch(config, rng),
        head_w=real_uniform(rng, (fan_in, n_classes), fan_in),
        head_b=ComplexTensor(np.zeros(n_classes), np.zeros(n_classes)),
    )


def baseline_logits(x, model, mode):
    """Batched logits: (B, 1, H, W) -> (B, C) with zero imaginary plane."""
    features = branch_forward(x, model.config, model.branch, mode)
    flat = ops.flatten_parts(features)
    return ops.add_row(ops.matmul(flat, model.head_w), model.head_b)


def baseline_forward(signal, model):
    """Single sample (H, W) -> (C,) real logits.

    This is the batched forward at B = 1 with eval-mode normalization.
    """
    batched = ops.reshape(signal, (1, 1) + signal.shape)
    return ops.index0(baseline_logits(batched, model, "eval"), 0)
