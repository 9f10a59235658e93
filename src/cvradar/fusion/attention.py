"""Scaled dot-product cross-attention and the bidirectional multi-head block.

Attention runs on realified features: tensors whose imaginary plane is
identically zero. The softmax keeps it that way, so the whole fusion path
stays real even though it rides the complex tensor type.
"""

from dataclasses import dataclass, replace

import numpy as np

from ..ctensor import ComplexTensor, ShapeError, ops
from ..cnn.layers import real_uniform

__all__ = [
    "attention_weights",
    "scaled_dot_attention",
    "bidirectional_fuse",
    "init_attention",
]

# the projection fields, in checkpoint order
_PROJECTIONS = ("wq1", "wk1", "wv1", "wq2", "wk2", "wv2")


def attention_weights(q, k):
    """Row-stochastic attention weights softmax(QK^T/sqrt(d_k)) over (..., L, d_k)."""
    if q.ndim < 2 or k.ndim != q.ndim:
        raise ShapeError(f"attention operands must share a rank >= 2, got {q.shape} and {k.shape}")
    if q.shape[-1] != k.shape[-1]:
        raise ShapeError(f"d_k mismatch: queries {q.shape} vs keys {k.shape}")
    k_t = ops.permute(k, tuple(range(k.ndim - 2)) + (k.ndim - 1, k.ndim - 2))
    scores = ops.scale(ops.bmm(q, k_t), 1.0 / np.sqrt(q.shape[-1]))
    return ops.softmax_last(scores)


def scaled_dot_attention(q, k, v):
    """softmax(QK^T/sqrt(d_k)) V for token matrices (..., L, d) with equal leading extents."""
    if v.ndim != k.ndim or k.shape[:-1] != v.shape[:-1]:
        raise ShapeError(f"keys {k.shape} and values {v.shape} must share token count")
    return ops.bmm(attention_weights(q, k), v)


@dataclass(frozen=True)
class AttentionBlock:
    """Per-direction projections; direction 1 queries the IQ-side feature."""

    wq1: ComplexTensor
    wk1: ComplexTensor
    wv1: ComplexTensor
    wq2: ComplexTensor
    wk2: ComplexTensor
    wv2: ComplexTensor
    embed_dim: int
    heads: int

    def __post_init__(self):
        if self.heads < 1 or self.embed_dim % self.heads != 0:
            raise ValueError(f"embed_dim {self.embed_dim} not divisible by heads {self.heads}")
        d_in = self.wq1.shape[0]
        for name in _PROJECTIONS:
            w = getattr(self, name)
            if w.ndim != 2 or w.shape != (d_in, self.embed_dim):
                raise ShapeError(f"{name} must be ({d_in}, {self.embed_dim}), got {w.shape}")

    @property
    def head_dim(self):
        return self.embed_dim // self.heads

    @property
    def fused_dim(self):
        return 2 * self.embed_dim

    def parameters(self):
        return [(name, getattr(self, name)) for name in _PROJECTIONS]

    def with_tensors(self, mapping, prefix=""):
        return replace(self, **{name: mapping.get(prefix + name, getattr(self, name))
                                for name in _PROJECTIONS})


def init_attention(d_in, embed_dim, heads, rng):
    """Random real-plane projections, three per direction."""
    w = {name: real_uniform(rng, (d_in, embed_dim), d_in) for name in _PROJECTIONS}
    return AttentionBlock(**w, embed_dim=embed_dim, heads=heads)


def bidirectional_fuse(f_iq, f_fft, block):
    """Both cross-attention directions over (B, heads), concatenated per token.

    f_iq, f_fft: (B, L, D_in) realified token batches. Output (B, L, 2E):
    direction 1 (IQ queries, FFT keys and values) fills the first E
    columns, direction 2 the last E; within each, head h owns columns
    h*d_k to (h+1)*d_k.
    """
    if f_iq.ndim != 3 or f_iq.shape != f_fft.shape:
        raise ShapeError(f"token batches must match as (B, L, D), got {f_iq.shape} vs {f_fft.shape}")
    b, length, d_in = f_iq.shape
    if d_in != block.wq1.shape[0]:
        raise ShapeError(f"token dim {d_in} does not match projections {block.wq1.shape}")
    h, dk = block.heads, block.head_dim
    rows_iq = ops.reshape(f_iq, (b * length, d_in))
    rows_fft = ops.reshape(f_fft, (b * length, d_in))

    def heads_of(rows, w):
        # (B*L, D_in) @ (D_in, E) -> (B, H, L, d_k)
        return ops.permute(ops.reshape(ops.matmul(rows, w), (b, length, h, dk)), (0, 2, 1, 3))

    a1 = scaled_dot_attention(
        heads_of(rows_iq, block.wq1), heads_of(rows_fft, block.wk1), heads_of(rows_fft, block.wv1)
    )
    a2 = scaled_dot_attention(
        heads_of(rows_fft, block.wq2), heads_of(rows_iq, block.wk2), heads_of(rows_iq, block.wv2)
    )
    # (B, 2H, L, d_k) -> (B, L, 2H*d_k): direction-major, then head-major columns
    both = ops.permute(ops.concat([a1, a2], 1), (0, 2, 1, 3))
    return ops.reshape(both, (b, length, 2 * h * dk))
