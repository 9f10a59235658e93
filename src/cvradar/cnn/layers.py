"""Parameterized complex layers: convolution, batch norm, and initializers.

The activation (crelu) runs inside batch norm (``apply(..., gate=True)``),
and pooling (cavgpool_last) needs no parameters and is used directly from
ctensor.ops.
"""

from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from ..ctensor import ComplexTensor, ShapeError, ops

__all__ = [
    "init_conv",
    "init_batchnorm",
]


def complex_uniform(rng, shape, fan_in):
    """Both planes uniform in +-1/sqrt(2*fan_in); complex-magnitude Glorot-like."""
    limit = 1.0 / np.sqrt(2.0 * fan_in)
    return ComplexTensor(
        rng.uniform(-limit, limit, shape), rng.uniform(-limit, limit, shape)
    )


def real_uniform(rng, shape, fan_in):
    """Real plane uniform in +-1/sqrt(fan_in), imaginary plane zero.

    Used for the weights of the real-valued pipeline (attention projections
    and classifier heads), which provably stays real end to end.
    """
    limit = 1.0 / np.sqrt(fan_in)
    return ComplexTensor(rng.uniform(-limit, limit, shape), np.zeros(shape))


def init_head(rng, fan_in, n_classes):
    """A classifier head: real (fan_in, n_classes) weights from rng, then a zero bias."""
    return (real_uniform(rng, (fan_in, n_classes), fan_in),
            ComplexTensor(np.zeros(n_classes), np.zeros(n_classes)))


def check_head(head_w, head_b, fan_in, what):
    """ShapeError unless head_w is (fan_in, C) and head_b is (C,); what names fan_in."""
    if head_w.ndim != 2 or head_w.shape[0] != fan_in:
        raise ShapeError(f"head weights {head_w.shape} do not accept {fan_in} {what}")
    if head_b.shape != (head_w.shape[1],):
        raise ShapeError(f"head bias {head_b.shape} does not match {head_w.shape[1]} classes")


@dataclass(frozen=True)
class ComplexConvLayer:
    """Valid-padding complex cross-correlation weights."""

    kernels: ComplexTensor  # (out_channels, in_channels, kh, kw)
    bias: ComplexTensor | None  # (out_channels,), or None for no bias
    stride: tuple

    def __post_init__(self):
        if self.kernels.ndim != 4:
            raise ShapeError(f"kernels must be rank 4, got {self.kernels.shape}")
        if self.bias is not None and self.bias.shape != (self.kernels.shape[0],):
            raise ShapeError(
                f"bias shape {self.bias.shape} does not match {self.kernels.shape[0]} output channels"
            )
        if len(self.stride) != 2 or min(self.stride) < 1:
            raise ValueError(f"stride must be two positive ints, got {self.stride}")

    def apply(self, x):
        """x: (B, C_in, H, W) -> (B, C_out, H', W')."""
        return ops.cconv2d(x, self.kernels, self.bias, stride=tuple(self.stride))


def init_conv(rng, out_channels, in_channels, kernel_hw, stride):
    """A conv layer without bias: every conv here feeds a train-mode batch
    norm, whose mean subtraction cancels a bias exactly."""
    kh, kw = kernel_hw
    fan_in = in_channels * kh * kw
    return ComplexConvLayer(
        kernels=complex_uniform(rng, (out_channels, in_channels, kh, kw), fan_in),
        bias=None,
        stride=tuple(stride),
    )


@dataclass(eq=False)
class ComplexBatchNormLayer:
    """Real batch norm applied to each plane independently, per channel.

    Running statistics are the only mutable training state in the model;
    exactly one writer updates them per step. eps and momentum are the
    standard constants; equality is identity.
    """

    gamma: ComplexTensor  # (C,)
    beta: ComplexTensor  # (C,)
    running_mean: ComplexTensor  # (C,)
    running_var: ComplexTensor  # (C,)
    eps: ClassVar[float] = ops.BN_EPS
    momentum: ClassVar[float] = 0.1

    def __post_init__(self):
        c = self.gamma.shape[0] if self.gamma.ndim == 1 else -1
        for f in fields(self):
            t = getattr(self, f.name)
            if t.ndim != 1 or t.shape[0] != c:
                raise ShapeError(f"{f.name} must be shape ({c},), got {t.shape}")
        if np.any(self.running_var.re < 0) or np.any(self.running_var.im < 0):
            raise ValueError("running variances must be >= 0")

    def apply(self, x, mode, gate=False):
        """x: (B, C, ...) -> same shape; mode 'train' updates running stats.

        gate=True applies crelu to the output inside the batch-norm op.
        """
        if mode == "train":
            out, stats = ops.cbatchnorm_train(x, self.gamma, self.beta, gate=gate)
            m = self.momentum
            self.running_mean = ComplexTensor(
                (1.0 - m) * self.running_mean.re + m * stats.mean_re,
                (1.0 - m) * self.running_mean.im + m * stats.mean_im,
            )
            self.running_var = ComplexTensor(
                (1.0 - m) * self.running_var.re + m * stats.var_re,
                (1.0 - m) * self.running_var.im + m * stats.var_im,
            )
            return out
        if mode == "eval":
            return ops.cbatchnorm_eval(
                x, self.gamma, self.beta, self.running_mean, self.running_var, gate=gate
            )
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")


def init_batchnorm(channels):
    ones = np.ones(channels)
    zeros = np.zeros(channels)
    return ComplexBatchNormLayer(
        gamma=ComplexTensor(ones, ones.copy()),
        beta=ComplexTensor(zeros, zeros.copy()),
        running_mean=ComplexTensor(zeros.copy(), zeros.copy()),
        running_var=ComplexTensor(ones.copy(), ones.copy()),
    )
