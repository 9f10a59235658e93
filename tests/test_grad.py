"""Finite-difference verification of analytic gradients, primitive by primitive.

Each check pairs the op's output with the checker's seeded random cotangent
(ctensor.gradcheck), so every output component weighs in.
"""

import numpy as np

from cvradar.ctensor import ComplexTensor, ops
from cvradar.ctensor.gradcheck import grad_check, grad_check_multi
from cvradar.traincli.checks import _gated_batchnorm_point

TOL = 1e-6


def rand_ct(rng, shape, scale=1.0):
    return ComplexTensor(scale * rng.standard_normal(shape), scale * rng.standard_normal(shape))


def rand_away_from_zero(rng, shape, margin=0.2):
    # kink-free points for crelu: every component at least `margin` from 0
    def plane():
        return np.sign(rng.standard_normal(shape)) * (margin + rng.uniform(0.1, 1.0, shape))

    return ComplexTensor(plane(), plane())


def gate_margin(y):
    """Distance of the nearest component of y's planes from the gate boundary at 0."""
    return min(np.abs(y.re).min(), np.abs(y.im).min())


class TestPrimitiveGradients:
    def test_add(self):
        rng = np.random.default_rng(0)
        err = grad_check_multi(ops.add, [rand_ct(rng, (3, 4)), rand_ct(rng, (3, 4))])
        assert err <= TOL

    def test_scale(self):
        rng = np.random.default_rng(3)
        err = grad_check(lambda a: ops.scale(a, -0.7), rand_ct(rng, (2, 5)))
        assert err <= TOL

    def test_reshape_permute(self):
        rng = np.random.default_rng(6)
        err = grad_check(
            lambda a: ops.reshape(ops.permute(a, (1, 0, 2)), (4, 6)), rand_ct(rng, (2, 3, 4))
        )
        assert err <= TOL

    def test_concat_index0(self):
        rng = np.random.default_rng(7)
        err = grad_check_multi(
            lambda a, b: ops.index0(ops.concat([a, b], 1), 0),
            [rand_ct(rng, (2, 1, 3)), rand_ct(rng, (2, 2, 3))],
        )
        assert err <= TOL

    def test_add_row(self):
        rng = np.random.default_rng(22)
        err = grad_check_multi(ops.add_row, [rand_ct(rng, (4, 3)), rand_ct(rng, (3,))])
        assert err <= TOL

    def test_matmul(self):
        rng = np.random.default_rng(8)
        err = grad_check_multi(ops.matmul, [rand_ct(rng, (3, 4)), rand_ct(rng, (4, 5))])
        assert err <= TOL

    def test_bmm(self):
        rng = np.random.default_rng(9)
        err = grad_check_multi(ops.bmm, [rand_ct(rng, (2, 3, 4)), rand_ct(rng, (2, 4, 5))])
        assert err <= TOL
        # rank 4: the (B, heads) batch of the attention kernel
        err = grad_check_multi(ops.bmm, [rand_ct(rng, (2, 3, 4, 5)), rand_ct(rng, (2, 3, 5, 2))])
        assert err <= TOL

    def test_mean_axis(self):
        rng = np.random.default_rng(11)
        err = grad_check(lambda a: ops.mean_axis(a, 1), rand_ct(rng, (3, 4, 5)))
        assert err <= TOL

    def test_crelu_away_from_kink(self):
        rng = np.random.default_rng(12)
        err = grad_check(ops.crelu, rand_away_from_zero(rng, (4, 4)))
        assert err <= TOL

    def test_crelu_then_sum(self):
        # all components well above the finite-difference step
        rng = np.random.default_rng(13)
        x = ComplexTensor(rng.uniform(0.5, 2.0, (3, 3)), rng.uniform(0.5, 2.0, (3, 3)))
        err = grad_check(lambda a: ops.mean_axis(ops.crelu(a), 0), x)
        assert err <= TOL

    def test_softmax_last(self):
        rng = np.random.default_rng(14)
        err = grad_check(ops.softmax_last, rand_ct(rng, (3, 5), scale=0.5))
        assert err <= TOL

    def test_cavgpool_last(self):
        rng = np.random.default_rng(15)
        err = grad_check(lambda a: ops.cavgpool_last(a, 2), rand_ct(rng, (2, 7)))
        assert err <= TOL

    def test_flatten_parts(self):
        rng = np.random.default_rng(16)
        err = grad_check(ops.flatten_parts, rand_ct(rng, (2, 3, 4)))
        assert err <= TOL

    def test_tokens_from_complex(self):
        rng = np.random.default_rng(17)
        err = grad_check(ops.tokens_from_complex, rand_ct(rng, (3, 5)))
        assert err <= TOL
        # rank 3: a batch of 2 maps (C=3, L=4) -> 8 token rows of width 6
        err = grad_check(ops.tokens_from_complex, rand_ct(rng, (2, 3, 4)))
        assert err <= TOL

    def test_cconv2d(self):
        rng = np.random.default_rng(18)
        err = grad_check_multi(
            lambda x, k, b: ops.cconv2d(x, k, b, stride=(1, 2)),
            [rand_ct(rng, (2, 2, 2, 5)), rand_ct(rng, (3, 2, 1, 2)), rand_ct(rng, (3,))],
        )
        assert err <= TOL

    def test_cbatchnorm_train(self):
        rng = np.random.default_rng(19)
        gamma = ComplexTensor(rng.uniform(0.5, 1.5, 3), rng.uniform(0.5, 1.5, 3))
        beta = rand_ct(rng, (3,))

        def f(x, g, b):
            return ops.cbatchnorm_train(x, g, b)[0]

        err = grad_check_multi(f, [rand_ct(rng, (4, 3, 2, 2)), gamma, beta])
        assert err <= TOL

    def test_cbatchnorm_train_gated_check_point_clears_the_gate(self):
        gamma, beta, x = _gated_batchnorm_point()
        assert gate_margin(ops.cbatchnorm_train(x, gamma, beta)[0]) >= 0.1

    def test_cbatchnorm_eval(self):
        rng = np.random.default_rng(20)
        mean = rand_ct(rng, (3,))
        var = ComplexTensor(rng.uniform(0.5, 2.0, 3), rng.uniform(0.5, 2.0, 3))

        def f(x, g, b):
            return ops.cbatchnorm_eval(x, g, b, mean, var)

        err = grad_check_multi(
            f, [rand_ct(rng, (4, 3, 2, 2)), rand_ct(rng, (3,)), rand_ct(rng, (3,))]
        )
        assert err <= TOL

    def test_cbatchnorm_eval_gated(self):
        # seed 23 puts every pre-gate output component at least 0.1 from the
        # gate boundary, where the gate is discontinuous
        rng = np.random.default_rng(23)
        mean = rand_ct(rng, (3,))
        var = ComplexTensor(rng.uniform(0.5, 2.0, 3), rng.uniform(0.5, 2.0, 3))
        point = [rand_ct(rng, (4, 3, 2, 2)), rand_ct(rng, (3,)), rand_ct(rng, (3,))]
        assert gate_margin(ops.cbatchnorm_eval(*point, mean, var)) >= 0.1
        gated = ops.cbatchnorm_eval(*point, mean, var, gate=True)
        assert 0 < np.count_nonzero(gated.re) < gated.size

        def f(x, g, b):
            return ops.cbatchnorm_eval(x, g, b, mean, var, gate=True)

        assert grad_check_multi(f, point) <= TOL

    def test_cross_entropy_logits(self):
        rng = np.random.default_rng(21)
        target = np.zeros(5)
        target[2] = 1.0
        err = grad_check(
            lambda z: ops.cross_entropy_logits(z, target), rand_ct(rng, (5,))
        )
        assert err <= TOL
        # (B, C) logits: the batch-mean loss
        targets = np.eye(5)[[2, 0, 4]]
        err = grad_check(
            lambda z: ops.cross_entropy_logits(z, targets), rand_ct(rng, (3, 5))
        )
        assert err <= TOL


class TestCompositeGradients:
    def test_conv_stack_matches_finite_differences(self):
        # a small conv on a 2x2x3 input block
        rng = np.random.default_rng(30)
        x = rand_ct(rng, (1, 2, 2, 3))
        k = rand_ct(rng, (2, 2, 1, 2))
        b = rand_ct(rng, (2,))
        err = grad_check_multi(lambda xi, ki, bi: ops.cconv2d(xi, ki, bi, stride=(1, 1)), [x, k, b])
        assert err <= 1e-4

    def test_attention_style_chain(self):
        rng = np.random.default_rng(31)
        q = rand_ct(rng, (4, 6))
        kv = rand_ct(rng, (5, 6))

        def f(qi, ki):
            scores = ops.scale(ops.matmul(qi, ops.permute(ki, (1, 0))), 6 ** -0.5)
            return ops.matmul(ops.softmax_last(scores), ki)

        err = grad_check_multi(f, [q, kv])
        assert err <= TOL
