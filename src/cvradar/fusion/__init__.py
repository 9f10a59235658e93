"""Cross-attention fusion and the classification head; the loss op is in ctensor.ops."""

from .attention import (
    AttentionBlock,
    attention_weights,
    bidirectional_fuse,
    init_attention,
    scaled_dot_attention,
)
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
    "FuseNetModel",
    "classify",
    "fusenet_forward",
    "fusenet_logits_batch",
    "init_fusenet",
]
