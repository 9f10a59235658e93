"""Finite-difference verification of tape gradients.

The checker perturbs every real coordinate (both planes) of the inputs,
evaluates the function twice per coordinate, and compares the central
difference against the analytic gradient from one backward pass.
"""

import numpy as np

from .tensor import ComplexTensor
from .tape import GradTape

__all__ = ["grad_check", "grad_check_multi", "GradCheckError"]

_REL_FLOOR = 1e-8
_STEP = 1e-5  # central-difference probe step, per real coordinate


class GradCheckError(RuntimeError):
    """Raised when a check encounters non-finite values."""


def _loss_value(t):
    if t.shape != ():
        raise GradCheckError(f"checked function must return a scalar, got shape {t.shape}")
    v = float(t.re)
    if not np.isfinite(v):
        raise GradCheckError("checked function returned a non-finite loss")
    return v


def grad_check_multi(fn, points):
    """Max relative error of analytic vs central differences over all inputs.

    fn takes one ComplexTensor argument per entry of points, returns a real
    scalar tensor, and must be pure and deterministic. Relative error per
    coordinate is |analytic - numeric| / max(|analytic|, |numeric|, 1e-8).
    """
    points = list(points)

    with GradTape() as tape:
        for p in points:
            tape.watch(p)
        loss = fn(*points)
    grads = tape.backward(loss)
    _loss_value(loss)

    worst = 0.0
    for pi, point in enumerate(points):
        analytic = grads[point]
        for plane_name, base, g in (("re", point.re, analytic.re), ("im", point.im, analytic.im)):
            flat_base = base.reshape(-1)
            flat_g = g.reshape(-1)
            for idx in range(flat_base.size):
                bumped = flat_base.copy()
                bumped[idx] = flat_base[idx] + _STEP
                plus = _eval_at(fn, points, pi, plane_name, bumped.reshape(base.shape))
                bumped[idx] = flat_base[idx] - _STEP
                minus = _eval_at(fn, points, pi, plane_name, bumped.reshape(base.shape))
                numeric = (plus - minus) / (2.0 * _STEP)
                a = flat_g[idx]
                if not (np.isfinite(a) and np.isfinite(numeric)):
                    raise GradCheckError(
                        f"non-finite value at input {pi}, plane {plane_name}, coordinate {idx}"
                    )
                err = abs(a - numeric) / max(abs(a), abs(numeric), _REL_FLOOR)
                if err > worst:
                    worst = err
    return worst


def _eval_at(fn, points, pi, plane_name, plane):
    point = points[pi]
    if plane_name == "re":
        moved = ComplexTensor(plane, point.im)
    else:
        moved = ComplexTensor(point.re, plane)
    trial = list(points)
    trial[pi] = moved
    return _loss_value(fn(*trial))


def grad_check(fn, point):
    """Single-input convenience wrapper around grad_check_multi."""
    return grad_check_multi(fn, [point])
