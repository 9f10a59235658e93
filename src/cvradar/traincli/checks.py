"""Self-contained numeric verification suites behind the CLI check commands.

Every entry compares an analytic result against an independent reference:
tape gradients against central finite differences, and the fast transform
against the direct triple-sum evaluation. Finite-difference points are
sampled away from the activation's gate boundary, which is a discontinuity
surface: values are kept a margin above the 1e-5 probe step, and additive
parameters (biases, betas) are drawn from a band bounded away from zero so
no gate input sits at exactly 0 where perturbation flips the gate.
"""

from dataclasses import dataclass

import numpy as np

from ..ctensor import ComplexTensor, ops
from ..ctensor.gradcheck import grad_check, grad_check_multi
from ..cnn import BranchConfig, ConvSpec, init_batchnorm, init_conv
from ..dsp import dft3d_direct, fft3d_array
from ..fusion import bidirectional_fuse, fusenet_logits_batch, init_attention, init_fusenet

__all__ = [
    "CheckResult",
    "toy_branch_config",
    "toy_fusenet_instance",
    "check_primitives",
    "check_layers",
    "check_attention",
    "check_fusenet",
    "run_grad_suites",
    "fft_check",
    "GRAD_SUITES",
]


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    error: float
    tolerance: float

    @property
    def ok(self):
        return self.error <= self.tolerance


def _rand(rng, shape):
    return ComplexTensor(rng.standard_normal(shape), rng.standard_normal(shape))


def _rand_off_axis(rng, shape, margin=0.2):
    """Both planes at least `margin` from zero, so crelu gates cannot flip."""

    def plane():
        return rng.uniform(margin, 1.0, shape) * np.sign(rng.standard_normal(shape))

    return ComplexTensor(plane(), plane())


def _energy(t):
    return ops.sum_all(ops.mul(t, ops.conj(t)))


def _probe(t, c):
    """Energy plus a linear term Re sum(c * t).

    The linear term keeps the loss sensitive to inputs that a standardizing
    op would otherwise cancel out of the pure energy (batch norm's output
    energy is a function of gamma and beta alone, up to its eps damping).
    """
    return ops.add(_energy(t), ops.real(ops.sum_all(ops.mul(c, t))))


def toy_branch_config():
    """Small branch used by the end-to-end checks: (4, 8) inputs, 2 tokens."""
    return BranchConfig(
        input_hw=(4, 8),
        convs=(ConvSpec(2, (1, 3), (1, 1)), ConvSpec(3, (1, 3), (1, 1)), ConvSpec(2, (1, 2), (1, 1))),
        pool_window=1,
    )


def toy_fusenet_instance(model_seed=2, data_seed=46):
    """A full-model check point off every gate boundary.

    Freshly initialized models have zero betas, which parks many gate
    inputs exactly at 0 (gated windows propagate exact zeros); the
    activation is discontinuous there in any additive parameter. The betas
    (the branch convs have no bias) are therefore redrawn from a signed band
    [0.05, 0.3], and the seeds were scanned so the smallest gate-input
    magnitude on the forward pass (about 1.2e-3) clears the 1e-5 probe step
    by two decades.
    """
    model = init_fusenet(
        toy_branch_config(), n_classes=2, rng=np.random.default_rng(model_seed),
        embed_dim=8, heads=2,
    )
    jitter = np.random.default_rng(model_seed + 10_000)

    def band(shape):
        return jitter.uniform(0.05, 0.3, shape) * np.sign(jitter.standard_normal(shape))

    model = model.with_tensors({name: ComplexTensor(band(t.shape), band(t.shape))
                                for name, t in model.parameters() if name.endswith(".beta")})
    rng = np.random.default_rng(data_seed)
    x = _rand(rng, (1, 1, 4, 8))
    big_x = _rand(rng, (1, 1, 4, 8))
    return model, x, big_x, np.eye(2)[[1]]


def check_primitives():
    """Finite-difference checks of representative tape primitives."""
    rng = np.random.default_rng(7)
    a, b = _rand(rng, (3, 4)), _rand(rng, (3, 4))
    m1, m2 = _rand(rng, (3, 4)), _rand(rng, (4, 2))
    sm = _rand(rng, (2, 5))
    cr = _rand_off_axis(rng, (3, 4))
    logits = _rand(rng, (4,))
    logits = ComplexTensor(logits.re, np.zeros(4))
    cases = [
        ("mul", lambda: grad_check_multi(lambda x, y: ops.real(ops.sum_all(ops.mul(x, y))), [a, b])),
        ("matmul", lambda: grad_check_multi(lambda x, y: _energy(ops.matmul(x, y)), [m1, m2])),
        ("softmax_last", lambda: grad_check(lambda x: _energy(ops.softmax_last(x)), sm)),
        ("crelu", lambda: grad_check(lambda x: _energy(ops.crelu(x)), cr)),
        ("mean_axis", lambda: grad_check(lambda x: _energy(ops.mean_axis(x, 1)), a)),
        ("cavgpool_last", lambda: grad_check(lambda x: _energy(ops.cavgpool_last(x, 2)), a)),
        (
            "cross_entropy_logits",
            lambda: grad_check(lambda x: ops.cross_entropy_logits(x, np.eye(4)[2]), logits),
        ),
    ]
    return [CheckResult("primitives", n, f(), 1e-6) for n, f in cases]


def check_layers():
    """Finite-difference checks of the parameterized layers."""
    rng = np.random.default_rng(11)
    x = _rand_off_axis(rng, (2, 2, 3, 6), margin=0.3)
    conv = init_conv(rng, 3, 2, (1, 3), (1, 2))
    bn = init_batchnorm(3)
    xb = _rand(rng, (4, 3, 5))
    conv_err = grad_check_multi(lambda k, c: _energy(ops.cconv2d(x, k, c, stride=(1, 2))),
                                [conv.kernels, _rand(rng, (3,))])
    probe_c = _rand(rng, (4, 3, 5))
    train_err = grad_check_multi(
        lambda g, bt, v: _probe(ops.cbatchnorm_train(v, g, bt)[0], probe_c),
        [bn.gamma, _rand(rng, (3,)), xb])
    eval_err = grad_check(lambda v: _energy(ops.cbatchnorm_eval(
        v, bn.gamma, bn.beta, bn.running_mean, bn.running_var)), xb)
    return [CheckResult("layers", name, err, 1e-6) for name, err in (
        ("conv kernels+bias", conv_err), ("batchnorm train gamma+beta+x", train_err),
        ("batchnorm eval x", eval_err))]


def check_attention():
    """Finite-difference check of every fusion projection at toy size."""
    rng = np.random.default_rng(13)
    block = init_attention(4, 8, 2, rng)
    f1 = ComplexTensor(rng.standard_normal((1, 3, 4)), np.zeros((1, 3, 4)))
    f2 = ComplexTensor(rng.standard_normal((1, 3, 4)), np.zeros((1, 3, 4)))
    names, tensors = zip(*block.parameters())

    def fn(*ws):
        trial = block.with_tensors(dict(zip(names, ws)))
        return ops.real(_energy(bidirectional_fuse(f1, f2, trial)))

    err = grad_check_multi(fn, tensors)
    return [CheckResult("attention", "all projections", err, 1e-6)]


def check_fusenet():
    """Finite-difference check of every parameter of the full toy model."""
    model, x, big_x, target = toy_fusenet_instance()
    names = [n for n, _ in model.parameters()]
    initial = dict(model.parameters())

    def fn(*tensors):
        trial = model.with_tensors(dict(zip(names, tensors)))
        return ops.cross_entropy_logits(fusenet_logits_batch(x, big_x, trial, "eval"), target)

    err = grad_check_multi(fn, [initial[n] for n in names])
    return [CheckResult("fusenet", "all parameters", err, 1e-4)]


GRAD_SUITES = {
    "primitives": check_primitives,
    "layers": check_layers,
    "attention": check_attention,
    "fusenet": check_fusenet,
}


def run_grad_suites(module=None):
    """Run one named suite or all of them; returns CheckResult list."""
    if module is not None:
        if module not in GRAD_SUITES:
            raise ValueError(
                f"unknown module {module!r}; choose from {', '.join(sorted(GRAD_SUITES))}"
            )
        return list(GRAD_SUITES[module]())
    return [r for suite in GRAD_SUITES.values() for r in suite()]


def fft_check(shape, trials, seed=0, tolerance=1e-6):
    """Max |fast - direct| over random cubes of the given shape."""
    if len(shape) != 3 or min(shape) < 1:
        raise ValueError(f"shape must be three positive extents, got {shape}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        cube = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        err = float(np.max(np.abs(fft3d_array(cube) - dft3d_direct(cube))))
        worst = max(worst, err)
    return CheckResult("fft", f"{shape[0]}x{shape[1]}x{shape[2]}", worst, tolerance)
