"""Cross-entropy between class distributions, and the differentiable logit form."""

import numpy as np

from ..ctensor import ops

__all__ = ["cross_entropy", "cross_entropy_from_logits", "softmax_np", "one_hot"]

_CLAMP = 1e-12


def softmax_np(logits):
    """Stable softmax of a 1-D real array (plain numpy, not differentiable)."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max()
    e = np.exp(shifted)
    return e / e.sum()


def one_hot(index, n_classes):
    target = np.zeros(n_classes)
    target[index] = 1.0
    return target


def cross_entropy(predicted, target):
    """H(predicted, target) = -sum_j target_j * log(predicted_j).

    Both arguments are distributions of equal length; predicted entries are
    clamped at 1e-12 before the log so zeros never crash.
    """
    p = np.asarray(predicted, dtype=np.float64)
    t = np.asarray(target, dtype=np.float64)
    if p.shape != t.shape or p.ndim != 1:
        raise ValueError(f"distribution shapes differ: {p.shape} vs {t.shape}")
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(t))):
        raise ValueError("cross_entropy: non-finite distribution")
    for name, d in (("predicted", p), ("target", t)):
        if np.any(d < -1e-9) or abs(d.sum() - 1.0) > 1e-6:
            raise ValueError(f"cross_entropy: {name} is not a distribution (sum {d.sum()})")
    return float(-(t * np.log(np.maximum(p, _CLAMP))).sum())


def cross_entropy_from_logits(logits, target):
    """Differentiable batch-mean loss from (B, C) logits and (B, C) targets.

    A (C,) logits tensor with a (C,) target is the B = 1 case.
    """
    return ops.cross_entropy_logits(logits, target)
