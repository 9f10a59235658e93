"""Single-branch feature extractor: three conv/BN/crelu stages + pooling.

Each stage is two tape ops: a bias-free conv, since train-mode batch norm
subtracts the batch mean and would cancel a bias, and a batch norm that
applies crelu to its own output.

The (H, W) input matrix enters as one channel of a 2D image. Kernels are
1 x k by default so the W axis (fast time or range bins) is the learned
axis; after the conv stack the H axis (the X*Y flattened channels) is
collapsed by a mean, and average pooling along W yields the (C_f, L)
feature map whose L positions become attention tokens downstream.
"""

from dataclasses import dataclass, replace

from ..ctensor import ShapeError, ops, tape
from .layers import init_batchnorm, init_conv

__all__ = [
    "ConvSpec",
    "BranchConfig",
    "default_branch_config",
    "init_branch",
    "branch_forward",
    "chunk_size",
]

# each stage's tensor names, in checkpoint order: "<prefix>.conv<i>.<name>"
# and "<prefix>.bn<i>.<name>"
_CONV_PARAMETERS = ("kernels",)
_BN_PARAMETERS = ("gamma", "beta")
_BN_STATE = ("running_mean", "running_var")


@dataclass(frozen=True)
class ConvSpec:
    out_channels: int
    kernel: tuple  # (kh, kw)
    stride: tuple  # (sh, sw)


@dataclass(frozen=True)
class BranchConfig:
    input_hw: tuple
    convs: tuple  # exactly three ConvSpec
    pool_window: int

    def __post_init__(self):
        if len(self.convs) != 3:
            raise ValueError(f"branch must have exactly 3 conv layers, got {len(self.convs)}")
        if self.pool_window < 1:
            raise ValueError(f"pool_window must be >= 1, got {self.pool_window}")
        self.stage_shapes()  # raises if any stage collapses

    def stage_shapes(self):
        """(C, H, W) after each conv stage, then the final (C_f, L)."""
        h, w = self.input_hw
        if h < 1 or w < 1:
            raise ShapeError(f"input extents must be positive, got {self.input_hw}")
        c = 1
        shapes = []
        for i, spec in enumerate(self.convs, start=1):
            kh, kw = spec.kernel
            sh, sw = spec.stride
            if min(spec.out_channels, kh, kw, sh, sw) < 1:
                raise ShapeError(
                    f"conv{i}: out_channels {spec.out_channels}, kernel {spec.kernel} "
                    f"and stride {spec.stride} must be positive"
                )
            h2 = (h - kh) // sh + 1
            w2 = (w - kw) // sw + 1
            if kh > h or kw > w or h2 < 1 or w2 < 1:
                raise ShapeError(
                    f"conv{i}: kernel {spec.kernel} / stride {spec.stride} "
                    f"does not fit input ({c}, {h}, {w})"
                )
            c, h, w = spec.out_channels, h2, w2
            shapes.append((c, h, w))
        length = w // self.pool_window
        if length < 1:
            raise ShapeError(f"pool window {self.pool_window} exceeds feature length {w}")
        shapes.append((c, length))
        return shapes

    def feature_shape(self):
        """(C_f, L) of the extracted feature map."""
        return self.stage_shapes()[-1]


def default_branch_config(input_hw=(400, 100)):
    return BranchConfig(
        input_hw=tuple(input_hw),
        convs=(
            ConvSpec(16, (1, 7), (1, 2)),
            ConvSpec(32, (1, 5), (1, 2)),
            ConvSpec(64, (1, 3), (1, 1)),
        ),
        pool_window=2,
    )


def chunk_size(config):
    """Samples per batch chunk, at least 1: tape.CHUNK_BYTES over the largest stage's
    ops.conv_sample_bytes, so such a batch is one cconv2d span at every stage."""
    c_in, largest = 1, 0
    for spec, (c, h, w) in zip(config.convs, config.stage_shapes()):
        largest = max(largest, ops.conv_sample_bytes(c_in, c, *spec.kernel, h, w))
        c_in = c
    return max(1, tape.CHUNK_BYTES // largest)


@dataclass(frozen=True)
class BranchWeights:
    convs: tuple  # ComplexConvLayer x3
    bns: tuple  # ComplexBatchNormLayer x3


def init_branch(config, rng):
    convs = []
    bns = []
    in_c = 1
    for spec in config.convs:
        convs.append(init_conv(rng, spec.out_channels, in_c, spec.kernel, spec.stride))
        bns.append(init_batchnorm(spec.out_channels))
        in_c = spec.out_channels
    return BranchWeights(convs=tuple(convs), bns=tuple(bns))


def branch_forward(x, config, weights, mode):
    """Batched branch: (B, 1, H, W) -> (B, C_f, L)."""
    if x.ndim != 4 or x.shape[1] != 1 or x.shape[2:] != tuple(config.input_hw):
        raise ShapeError(
            f"input: expected (B, 1, {config.input_hw[0]}, {config.input_hw[1]}), got {x.shape}"
        )
    h = x
    for i, (conv, bn) in enumerate(zip(weights.convs, weights.bns), start=1):
        try:
            h = conv.apply(h)
        except ShapeError as e:
            raise ShapeError(f"conv{i}: {e}") from e
        try:
            h = bn.apply(h, mode, gate=True)
        except ShapeError as e:
            raise ShapeError(f"bn{i}: {e}") from e
    h = ops.mean_axis(h, 2)  # collapse the spatial H axis
    return ops.cavgpool_last(h, config.pool_window)


def _named(key, layer, names):
    return [(f"{key}.{name}", getattr(layer, name)) for name in names]


def _rebuilt(key, layer, names, mapping):
    # always a fresh layer: a train-mode forward mutates batch-norm state
    return replace(layer, **{name: mapping.get(f"{key}.{name}", getattr(layer, name))
                             for name in names})


def branch_parameters(prefix, weights):
    """Ordered (name, tensor) pairs of the trainable branch parameters."""
    pairs = []
    for i, (conv, bn) in enumerate(zip(weights.convs, weights.bns)):
        pairs += _named(f"{prefix}.conv{i}", conv, _CONV_PARAMETERS)
        pairs += _named(f"{prefix}.bn{i}", bn, _BN_PARAMETERS)
    return pairs


def branch_state(prefix, weights):
    """Ordered (name, tensor) pairs of the non-trainable running statistics."""
    return [pair for i, bn in enumerate(weights.bns)
            for pair in _named(f"{prefix}.bn{i}", bn, _BN_STATE)]


def rebuild_branch(prefix, weights, mapping):
    """New BranchWeights with parameters (and any state) taken from mapping."""
    return BranchWeights(
        convs=tuple(_rebuilt(f"{prefix}.conv{i}", conv, _CONV_PARAMETERS, mapping)
                    for i, conv in enumerate(weights.convs)),
        bns=tuple(_rebuilt(f"{prefix}.bn{i}", bn, _BN_PARAMETERS + _BN_STATE, mapping)
                  for i, bn in enumerate(weights.bns)),
    )
