"""Single-branch baseline classifier: FFT-representation branch + one FC head."""

from dataclasses import dataclass, replace

from ..ctensor import ComplexTensor, ops
from .branch import (
    BranchConfig,
    BranchWeights,
    branch_forward,
    branch_parameters,
    branch_state,
    init_branch,
    rebuild_branch,
)
from .layers import check_head, init_head

__all__ = [
    "init_baseline",
    "baseline_logits",
]


@dataclass(frozen=True)
class BaselineModel:
    config: BranchConfig
    branch: BranchWeights
    head_w: ComplexTensor  # (2 * C_f * L, n_classes)
    head_b: ComplexTensor  # (n_classes,)

    def __post_init__(self):
        c_f, length = self.config.feature_shape()
        check_head(self.head_w, self.head_b, 2 * c_f * length, "flattened features")

    @property
    def n_classes(self):
        return self.head_w.shape[1]

    def parameters(self):
        head = [("head.w", self.head_w), ("head.b", self.head_b)]
        return branch_parameters("branch", self.branch) + head

    def state(self):
        return branch_state("branch", self.branch)

    def with_tensors(self, mapping):
        return replace(self, branch=rebuild_branch("branch", self.branch, mapping),
                       head_w=mapping.get("head.w", self.head_w),
                       head_b=mapping.get("head.b", self.head_b))


def init_baseline(config, n_classes, rng):
    c_f, length = config.feature_shape()
    branch = init_branch(config, rng)  # draws before the head
    return BaselineModel(config, branch, *init_head(rng, 2 * c_f * length, n_classes))


def baseline_logits(x, model, mode):
    """Batched logits: (B, 1, H, W) -> (B, C) with zero imaginary plane."""
    features = branch_forward(x, model.config, model.branch, mode)
    flat = ops.flatten_parts(features)
    return ops.add_row(ops.matmul(flat, model.head_w), model.head_b)

