"""Complex-valued convolutional layers and the single-branch models."""

from .layers import (
    ComplexBatchNormLayer,
    ComplexConvLayer,
    init_batchnorm,
    init_conv,
    real_uniform,
)
from .branch import (
    BranchConfig,
    BranchWeights,
    ConvSpec,
    branch_forward,
    branch_parameters,
    branch_state,
    default_branch_config,
    init_branch,
    rebuild_branch,
)
from .baseline import BaselineModel, baseline_logits, init_baseline

__all__ = [
    "ComplexBatchNormLayer",
    "ComplexConvLayer",
    "init_batchnorm",
    "init_conv",
    "real_uniform",
    "BranchConfig",
    "BranchWeights",
    "ConvSpec",
    "branch_forward",
    "branch_parameters",
    "branch_state",
    "default_branch_config",
    "init_branch",
    "rebuild_branch",
    "BaselineModel",
    "baseline_logits",
    "init_baseline",
]
