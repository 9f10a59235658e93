"""Cross-attention fusion, classification head, and loss."""

from .attention import (
    AttentionBlock,
    attention_weights,
    bidirectional_fuse,
    init_attention,
    scaled_dot_attention,
)
from .loss import cross_entropy, cross_entropy_from_logits, one_hot, softmax_np
from .model import (
    FuseNetModel,
    classify,
    fusenet_forward,
    fusenet_logits_batch,
    init_fusenet,
)

__all__ = [
    "AttentionBlock",
    "attention_weights",
    "bidirectional_fuse",
    "init_attention",
    "scaled_dot_attention",
    "cross_entropy",
    "cross_entropy_from_logits",
    "one_hot",
    "softmax_np",
    "FuseNetModel",
    "classify",
    "fusenet_forward",
    "fusenet_logits_batch",
    "init_fusenet",
]
