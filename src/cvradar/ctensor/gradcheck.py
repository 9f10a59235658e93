"""Vector-Jacobian finite-difference verification of tape gradients.

The checked function may return a tensor of any shape. The checker pairs it
with one cotangent c drawn from a fixed seed, <c, y> = sum(c.re * y.re +
c.im * y.im), and compares, per real coordinate (both planes) of the inputs,
the seeded backward pass GradTape.backward(out, c) against the central
difference (<c, f(x+h)> - <c, f(x-h)>) / 2h, paired in numpy. A random c
weighs every output component, so no input's gradient cancels out of the
check (batch norm's output energy, say, does not depend on its input). This
is the usual vector-Jacobian check, as in torch.autograd.gradcheck.
"""

import numpy as np

from .tensor import ComplexTensor
from .tape import GradTape

__all__ = ["grad_check", "grad_check_multi", "GradCheckError"]

_REL_FLOOR = 1e-8
_STEP = 1e-5  # central-difference probe step, per real coordinate
_COTANGENT_SEED = 0  # every check pairs its output with a cotangent drawn from this seed


class GradCheckError(RuntimeError):
    """Raised when a check encounters non-finite values."""


def _pairing(c, y):
    """<c, y> = sum(c.re * y.re + c.im * y.im): the scalar the seeded backward differentiates."""
    v = float(np.sum(c.re * y.re) + np.sum(c.im * y.im))
    if not np.isfinite(v):
        raise GradCheckError("checked function returned a non-finite value")
    return v


def grad_check_multi(fn, points):
    """Max relative error of analytic vs central differences over all inputs.

    fn takes one ComplexTensor argument per entry of points, returns a
    ComplexTensor of any shape, and must be pure and deterministic. Relative
    error per coordinate is |analytic - numeric| / max(|analytic|, |numeric|, 1e-8).
    """
    points = list(points)

    with GradTape() as tape:
        for p in points:
            tape.watch(p)
        out = fn(*points)
    rng = np.random.default_rng(_COTANGENT_SEED)
    c = ComplexTensor(rng.standard_normal(out.shape), rng.standard_normal(out.shape))
    grads = tape.backward(out, c)
    _pairing(c, out)

    worst = 0.0
    for pi, point in enumerate(points):
        analytic = grads[point]
        for plane_name, base, g in (("re", point.re, analytic.re), ("im", point.im, analytic.im)):
            flat_base = base.reshape(-1)
            flat_g = g.reshape(-1)
            for idx in range(flat_base.size):
                bumped = flat_base.copy()
                bumped[idx] = flat_base[idx] + _STEP
                plus = _eval_at(fn, c, points, pi, plane_name, bumped.reshape(base.shape))
                bumped[idx] = flat_base[idx] - _STEP
                minus = _eval_at(fn, c, points, pi, plane_name, bumped.reshape(base.shape))
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


def _eval_at(fn, c, points, pi, plane_name, plane):
    point = points[pi]
    if plane_name == "re":
        moved = ComplexTensor(plane, point.im)
    else:
        moved = ComplexTensor(point.re, plane)
    trial = list(points)
    trial[pi] = moved
    return _pairing(c, fn(*trial))


def grad_check(fn, point):
    """Single-input convenience wrapper around grad_check_multi."""
    return grad_check_multi(fn, [point])
