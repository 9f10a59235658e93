"""Finite-difference verification of analytic gradients, primitive by primitive."""

import numpy as np
import pytest

from cvradar.ctensor import ComplexTensor, GradTape, ops
from cvradar.ctensor.gradcheck import grad_check, grad_check_multi

TOL = 1e-6


def rand_ct(rng, shape, scale=1.0):
    return ComplexTensor(scale * rng.standard_normal(shape), scale * rng.standard_normal(shape))


def rand_away_from_zero(rng, shape, margin=0.2):
    # kink-free points for crelu: every component at least `margin` from 0
    def plane():
        return np.sign(rng.standard_normal(shape)) * (margin + rng.uniform(0.1, 1.0, shape))

    return ComplexTensor(plane(), plane())


def probe(out, c):
    """Scalar loss sensitive to both planes of `out`: sum |out|^2 + Re sum(c*out)."""
    quad = ops.sum_all(ops.mul(out, ops.conj(out)))
    lin = ops.sum_all(ops.mul(c, out))
    return ops.real(ops.add(quad, lin))


class TestPrimitiveGradients:
    def test_add(self):
        rng = np.random.default_rng(0)
        c = rand_ct(rng, (3, 4))
        err = grad_check_multi(
            lambda a, b: probe(ops.add(a, b), c),
            [rand_ct(rng, (3, 4)), rand_ct(rng, (3, 4))],
        )
        assert err <= TOL

    def test_sub(self):
        rng = np.random.default_rng(1)
        c = rand_ct(rng, (3, 4))
        err = grad_check_multi(
            lambda a, b: probe(ops.sub(a, b), c),
            [rand_ct(rng, (3, 4)), rand_ct(rng, (3, 4))],
        )
        assert err <= TOL

    def test_mul(self):
        rng = np.random.default_rng(2)
        c = rand_ct(rng, (3, 4))
        err = grad_check_multi(
            lambda a, b: probe(ops.mul(a, b), c),
            [rand_ct(rng, (3, 4)), rand_ct(rng, (3, 4))],
        )
        assert err <= TOL

    def test_scale(self):
        rng = np.random.default_rng(3)
        c = rand_ct(rng, (2, 5))
        err = grad_check(lambda a: probe(ops.scale(a, -0.7), c), rand_ct(rng, (2, 5)))
        assert err <= TOL

    def test_conj(self):
        rng = np.random.default_rng(4)
        c = rand_ct(rng, (6,))
        err = grad_check(lambda a: probe(ops.conj(a), c), rand_ct(rng, (6,)))
        assert err <= TOL

    def test_real(self):
        rng = np.random.default_rng(5)
        c = rand_ct(rng, (6,))
        err = grad_check(lambda a: probe(ops.real(a), c), rand_ct(rng, (6,)))
        assert err <= TOL

    def test_reshape_permute(self):
        rng = np.random.default_rng(6)
        c = rand_ct(rng, (4, 6))
        err = grad_check(
            lambda a: probe(ops.reshape(ops.permute(a, (1, 0, 2)), (4, 6)), c),
            rand_ct(rng, (2, 3, 4)),
        )
        assert err <= TOL

    def test_concat_index0(self):
        rng = np.random.default_rng(7)
        c = rand_ct(rng, (3, 3))
        err = grad_check_multi(
            lambda a, b: probe(ops.index0(ops.concat([a, b], 1), 0), c),
            [rand_ct(rng, (2, 1, 3)), rand_ct(rng, (2, 2, 3))],
        )
        assert err <= TOL

    def test_add_row(self):
        rng = np.random.default_rng(22)
        c = rand_ct(rng, (4, 3))
        err = grad_check_multi(
            lambda x, b: probe(ops.add_row(x, b), c),
            [rand_ct(rng, (4, 3)), rand_ct(rng, (3,))],
        )
        assert err <= TOL

    def test_matmul(self):
        rng = np.random.default_rng(8)
        c = rand_ct(rng, (3, 5))
        err = grad_check_multi(
            lambda a, b: probe(ops.matmul(a, b), c),
            [rand_ct(rng, (3, 4)), rand_ct(rng, (4, 5))],
        )
        assert err <= TOL

    def test_bmm(self):
        rng = np.random.default_rng(9)
        c = rand_ct(rng, (2, 3, 5))
        err = grad_check_multi(
            lambda a, b: probe(ops.bmm(a, b), c),
            [rand_ct(rng, (2, 3, 4)), rand_ct(rng, (2, 4, 5))],
        )
        assert err <= TOL
        # rank 4: the (B, heads) batch of the attention kernel
        c4 = rand_ct(rng, (2, 3, 4, 2))
        err = grad_check_multi(
            lambda a, b: probe(ops.bmm(a, b), c4),
            [rand_ct(rng, (2, 3, 4, 5)), rand_ct(rng, (2, 3, 5, 2))],
        )
        assert err <= TOL

    def test_sum_all(self):
        rng = np.random.default_rng(10)
        c = rand_ct(rng, ())
        err = grad_check(lambda a: probe(ops.sum_all(a), c), rand_ct(rng, (3, 4)))
        assert err <= TOL

    def test_mean_axis(self):
        rng = np.random.default_rng(11)
        c = rand_ct(rng, (3, 5))
        err = grad_check(lambda a: probe(ops.mean_axis(a, 1), c), rand_ct(rng, (3, 4, 5)))
        assert err <= TOL

    def test_crelu_away_from_kink(self):
        rng = np.random.default_rng(12)
        c = rand_ct(rng, (4, 4))
        err = grad_check(
            lambda a: probe(ops.crelu(a), c), rand_away_from_zero(rng, (4, 4))
        )
        assert err <= TOL

    def test_crelu_then_sum(self):
        # all components well above the finite-difference step
        rng = np.random.default_rng(13)
        x = ComplexTensor(rng.uniform(0.5, 2.0, (3, 3)), rng.uniform(0.5, 2.0, (3, 3)))
        err = grad_check(lambda a: ops.real(ops.sum_all(ops.crelu(a))), x)
        assert err <= TOL

    def test_softmax_last(self):
        rng = np.random.default_rng(14)
        c = rand_ct(rng, (3, 5))
        err = grad_check(
            lambda a: probe(ops.softmax_last(a), c), rand_ct(rng, (3, 5), scale=0.5)
        )
        assert err <= TOL

    def test_cavgpool_last(self):
        rng = np.random.default_rng(15)
        c = rand_ct(rng, (2, 3))
        err = grad_check(lambda a: probe(ops.cavgpool_last(a, 2), c), rand_ct(rng, (2, 7)))
        assert err <= TOL

    def test_flatten_parts(self):
        rng = np.random.default_rng(16)
        c = rand_ct(rng, (2, 24))
        err = grad_check(lambda a: probe(ops.flatten_parts(a), c), rand_ct(rng, (2, 3, 4)))
        assert err <= TOL

    def test_tokens_from_complex(self):
        rng = np.random.default_rng(17)
        c = rand_ct(rng, (5, 6))
        err = grad_check(lambda a: probe(ops.tokens_from_complex(a), c), rand_ct(rng, (3, 5)))
        assert err <= TOL
        # rank 3: a batch of 2 maps (C=3, L=4) -> 8 token rows of width 6
        c3 = rand_ct(rng, (8, 6))
        err = grad_check(lambda a: probe(ops.tokens_from_complex(a), c3), rand_ct(rng, (2, 3, 4)))
        assert err <= TOL

    def test_cconv2d(self):
        rng = np.random.default_rng(18)
        c = rand_ct(rng, (2, 3, 2, 2))
        err = grad_check_multi(
            lambda x, k, b: probe(ops.cconv2d(x, k, b, stride=(1, 2)), c),
            [rand_ct(rng, (2, 2, 2, 5)), rand_ct(rng, (3, 2, 1, 2)), rand_ct(rng, (3,))],
        )
        assert err <= TOL

    def test_cbatchnorm_train(self):
        rng = np.random.default_rng(19)
        c = rand_ct(rng, (4, 3, 2, 2))
        gamma = ComplexTensor(rng.uniform(0.5, 1.5, 3), rng.uniform(0.5, 1.5, 3))
        beta = rand_ct(rng, (3,))

        def f(x, g, b):
            out, _ = ops.cbatchnorm_train(x, g, b)
            return probe(out, c)

        err = grad_check_multi(f, [rand_ct(rng, (4, 3, 2, 2)), gamma, beta])
        assert err <= TOL

    def test_cbatchnorm_eval(self):
        rng = np.random.default_rng(20)
        c = rand_ct(rng, (4, 3, 2, 2))
        mean = rand_ct(rng, (3,))
        var = ComplexTensor(rng.uniform(0.5, 2.0, 3), rng.uniform(0.5, 2.0, 3))

        def f(x, g, b):
            return probe(ops.cbatchnorm_eval(x, g, b, mean, var), c)

        err = grad_check_multi(
            f, [rand_ct(rng, (4, 3, 2, 2)), rand_ct(rng, (3,)), rand_ct(rng, (3,))]
        )
        assert err <= TOL

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
        # small conv + magnitude loss on a 2x2x3 input block
        rng = np.random.default_rng(30)
        x = rand_ct(rng, (1, 2, 2, 3))
        k = rand_ct(rng, (2, 2, 1, 2))
        b = rand_ct(rng, (2,))

        def f(xi, ki, bi):
            y = ops.cconv2d(xi, ki, bi, stride=(1, 1))
            return ops.real(ops.sum_all(ops.mul(y, ops.conj(y))))

        err = grad_check_multi(f, [x, k, b])
        assert err <= 1e-4

    def test_attention_style_chain(self):
        rng = np.random.default_rng(31)
        q = rand_ct(rng, (4, 6))
        kv = rand_ct(rng, (5, 6))

        def f(qi, ki):
            scores = ops.scale(ops.matmul(qi, ops.permute(ki, (1, 0))), 6 ** -0.5)
            w = ops.softmax_last(ops.real(scores))
            out = ops.matmul(w, ki)
            return ops.real(ops.sum_all(ops.mul(out, ops.conj(out))))

        err = grad_check_multi(f, [q, kv])
        assert err <= TOL
