"""The dual-branch fusion classifier: two complex CNN branches, bidirectional
cross-attention over their realified features, and one fully connected head."""

from dataclasses import dataclass, replace

import numpy as np

from ..ctensor import ComplexTensor, ShapeError, ops, parallel
from ..cnn.branch import (
    branch_forward,
    branch_parameters,
    branch_state,
    chunk_size,
    init_branch,
    rebuild_branch,
)
from ..cnn.layers import real_uniform
from .attention import AttentionBlock, bidirectional_fuse, init_attention

__all__ = ["FuseNetModel", "init_fusenet", "classify", "fusenet_forward", "fusenet_logits_batch"]


@dataclass(frozen=True)
class FuseNetModel:
    config: object  # BranchConfig shared by both branches
    branch_iq: object  # BranchWeights
    branch_fft: object  # BranchWeights
    attn: AttentionBlock
    head_w: ComplexTensor  # (fused_dim, n_classes)
    head_b: ComplexTensor  # (n_classes,)

    def __post_init__(self):
        want = self.attn.fused_dim
        if self.head_w.ndim != 2 or self.head_w.shape[0] != want:
            raise ShapeError(f"head weights {self.head_w.shape} do not accept {want} fused dims")
        if self.head_b.shape != (self.head_w.shape[1],):
            raise ShapeError(
                f"head bias {self.head_b.shape} does not match {self.head_w.shape[1]} classes"
            )

    @property
    def n_classes(self):
        return self.head_w.shape[1]

    def parameters(self):
        pairs = branch_parameters("iq", self.branch_iq)
        pairs += branch_parameters("fft", self.branch_fft)
        pairs += [(f"attn.{n}", t) for n, t in self.attn.parameters()]
        pairs += [("head.w", self.head_w), ("head.b", self.head_b)]
        return pairs

    def state(self):
        return branch_state("iq", self.branch_iq) + branch_state("fft", self.branch_fft)

    def with_tensors(self, mapping):
        return replace(self, branch_iq=rebuild_branch("iq", self.branch_iq, mapping),
                       branch_fft=rebuild_branch("fft", self.branch_fft, mapping),
                       attn=self.attn.with_tensors(mapping, prefix="attn."),
                       head_w=mapping.get("head.w", self.head_w),
                       head_b=mapping.get("head.b", self.head_b))


def init_fusenet(config, n_classes, rng, embed_dim=256, heads=16):
    c_f, _ = config.feature_shape()
    attn = init_attention(2 * c_f, embed_dim, heads, rng)
    return FuseNetModel(
        config=config,
        branch_iq=init_branch(config, rng),
        branch_fft=init_branch(config, rng),
        attn=attn,
        head_w=real_uniform(rng, (attn.fused_dim, n_classes), attn.fused_dim),
        head_b=ComplexTensor(np.zeros(n_classes), np.zeros(n_classes)),
    )


def classify(fused, head_w, head_b):
    """Mean-pool fused tokens (B, L, F) over L, then one affine map to (B, C) logits."""
    if fused.ndim != 3 or fused.shape[2] != head_w.shape[0]:
        raise ShapeError(f"fused tokens {fused.shape} do not match head {head_w.shape}")
    return ops.add_row(ops.matmul(ops.mean_axis(fused, 1), head_w), head_b)


def fusenet_logits_batch(x_iq, x_fft, model, mode):
    """Batched forward: (B, 1, H, W) representation pairs -> (B, C) real logits.

    More than cnn.chunk_size samples run the branches on two tape lanes at once;
    fewer (every eval chunk), or one tensor fed to both (lanes share none), in order.
    """
    if x_iq.shape != x_fft.shape:
        raise ShapeError(f"representation batches differ: {x_iq.shape} vs {x_fft.shape}")
    # branch_forward is looked up at call time: the benchmark's tracer patches it
    thunks = (lambda: branch_forward(x_iq, model.config, model.branch_iq, mode),
              lambda: branch_forward(x_fft, model.config, model.branch_fft, mode))
    if x_iq.ndim == 4 and x_iq.shape[0] > chunk_size(model.config) and x_iq is not x_fft:
        feats_iq, feats_fft = parallel(*thunks)
    else:
        feats_iq, feats_fft = (thunk() for thunk in thunks)
    b, c_f, length = feats_iq.shape
    tokens_iq = ops.reshape(ops.tokens_from_complex(feats_iq), (b, length, 2 * c_f))
    tokens_fft = ops.reshape(ops.tokens_from_complex(feats_fft), (b, length, 2 * c_f))
    fused = bidirectional_fuse(tokens_iq, tokens_fft, model.attn)
    return classify(fused, model.head_w, model.head_b)


def fusenet_forward(x_iq, x_fft, model):
    """fusenet_logits_batch in eval mode, under the name that evaluate_pairs
    calls once per chunk and the benchmark's probe times."""
    return fusenet_logits_batch(x_iq, x_fft, model, "eval")
