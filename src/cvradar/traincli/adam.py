"""Bias-corrected Adam over named complex parameters.

Each parameter is two independent real planes, so the optimizer runs the
standard real recurrence twice per parameter. A plane whose gradient is
exactly zero (or absent) is skipped outright: its values and moments stay
untouched. The tape returns dense planes, so a provably-real plane
(attention weights, classifier heads) arrives as all zeros and stays
exactly real forever instead of letting stale momentum drift it.
"""

from dataclasses import dataclass

import numpy as np

from ..ctensor import ComplexTensor

__all__ = ["OptimizerError", "AdamState", "init_adam_state", "adam_step"]

# Kingma & Ba's defaults (ICLR 2015), which the paper trains with
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class OptimizerError(ValueError):
    """Raised on non-finite gradients; the message names the parameter."""


@dataclass(frozen=True)
class AdamState:
    step: int
    moments: dict  # (name, plane) -> (m, v) float arrays

    def __post_init__(self):
        if self.step < 0:
            raise ValueError(f"step counter must be >= 0, got {self.step}")


def init_adam_state():
    return AdamState(step=0, moments={})


def _plane_update(value, grad, key, moments, lr, t):
    m, v = moments.get(key, (None, None))
    if m is None:
        m = np.zeros_like(value)
        v = np.zeros_like(value)
    m = BETA1 * m + (1.0 - BETA1) * grad
    v = BETA2 * v + (1.0 - BETA2) * grad * grad
    moments[key] = (m, v)
    m_hat = m / (1.0 - BETA1 ** t)
    v_hat = v / (1.0 - BETA2 ** t)
    return value - lr * m_hat / (np.sqrt(v_hat) + EPS)


def adam_step(params, grads, state, config):
    """One optimizer step.

    params: ordered (name, ComplexTensor) pairs. grads: name -> object with
    .re/.im real arrays (the tape's ComplexTensor gradient), or None for a
    parameter that got no gradient at all. Returns (updated pairs in the
    same order, new state).
    """
    t = state.step + 1
    moments = dict(state.moments)
    updated = []
    for name, p in params:
        g = grads.get(name)
        new_re, new_im = p.re, p.im
        changed = False
        for plane in ("re", "im"):
            grad = None if g is None else getattr(g, plane)
            if grad is None or not np.any(grad):
                continue
            if not np.all(np.isfinite(grad)):
                raise OptimizerError(f"non-finite gradient for parameter {name!r} ({plane} plane)")
            value = getattr(p, plane)
            out = _plane_update(value, grad, (name, plane), moments, config.learning_rate, t)
            if plane == "re":
                new_re = out
            else:
                new_im = out
            changed = True
        updated.append((name, ComplexTensor(new_re, new_im) if changed else p))
    return updated, AdamState(step=t, moments=moments)
