"""Layer oracles and branch/baseline behavior for the complex CNN."""

import numpy as np
import pytest

from cvradar.ctensor import ComplexTensor, GradTape, ShapeError, ops, tape as tape_module
from cvradar.cnn import (
    BranchConfig,
    ConvSpec,
    baseline_logits,
    branch_forward,
    chunk_size,
    default_branch_config,
    init_baseline,
    init_batchnorm,
    init_branch,
    init_conv,
)


def rand_ct(rng, shape, scale=1.0):
    return ComplexTensor(scale * rng.standard_normal(shape), scale * rng.standard_normal(shape))


def conv_oracle(x, k, b, stride):
    """Native complex-arithmetic convolution, written loop by loop."""
    bs, ci, h, w = x.shape
    co, _, kh, kw = k.shape
    sh, sw = stride
    ho = (h - kh) // sh + 1
    wo = (w - kw) // sw + 1
    out = np.zeros((bs, co, ho, wo), dtype=np.complex128)
    for n in range(bs):
        for o in range(co):
            for i in range(ho):
                for j in range(wo):
                    acc = 0j
                    for c in range(ci):
                        for u in range(kh):
                            for v in range(kw):
                                acc += x[n, c, i * sh + u, j * sw + v] * k[o, c, u, v]
                    out[n, o, i, j] = acc + b[o]
    return out


def bn_oracle(q, gamma, beta, eps):
    """Real batch norm by the direct formula, per channel over (B, spatial)."""
    axes = (0,) + tuple(range(2, q.ndim))
    mu = q.mean(axis=axes, keepdims=True)
    var = q.var(axis=axes, keepdims=True)
    pshape = (1, q.shape[1]) + (1,) * (q.ndim - 2)
    return (q - mu) / np.sqrt(var + eps) * gamma.reshape(pshape) + beta.reshape(pshape)


def conv_planes_reference(xr, xi, kr, ki, br, bi, stride, gr, gi):
    """cconv2d's value and adjoints written plane by plane, one kernel tap at a time.

    Returns (out_re, out_im), (dx_re, dx_im), (dk_re, dk_im), (db_re, db_im)
    for upstream gradient planes (gr, gi): four real products per complex
    product, einsum Gram sums for the kernels, and a col2im-style scatter
    for the input.
    """
    bs, _, h, w = xr.shape
    co, _, kh, kw = kr.shape
    sh, sw = stride
    ho = (h - kh) // sh + 1
    wo = (w - kw) // sw + 1
    out_re = np.zeros((bs, co, ho, wo)) + br[:, None, None]
    out_im = np.zeros((bs, co, ho, wo)) + bi[:, None, None]
    dx_re, dx_im = np.zeros_like(xr), np.zeros_like(xi)
    dk_re, dk_im = np.zeros_like(kr), np.zeros_like(ki)

    def prod(k, p):
        return np.einsum("oc,bcij->boij", k, p)

    def gram(g, p):
        return np.einsum("boij,bcij->oc", g, p)

    def back(k, g):
        return np.einsum("oc,boij->bcij", k, g)

    for u in range(kh):
        for v in range(kw):
            win = (slice(None), slice(None), slice(u, u + sh * ho, sh), slice(v, v + sw * wo, sw))
            pr, pi = xr[win], xi[win]
            tr, ti = kr[:, :, u, v], ki[:, :, u, v]
            out_re += prod(tr, pr) - prod(ti, pi)
            out_im += prod(tr, pi) + prod(ti, pr)
            dk_re[:, :, u, v] = gram(gr, pr) + gram(gi, pi)
            dk_im[:, :, u, v] = gram(gi, pr) - gram(gr, pi)
            dx_re[win] += back(tr, gr) + back(ti, gi)
            dx_im[win] += back(tr, gi) - back(ti, gr)
    return ((out_re, out_im), (dx_re, dx_im), (dk_re, dk_im),
            (gr.sum(axis=(0, 2, 3)), gi.sum(axis=(0, 2, 3))))


def bn_train_plane_reference(q, gam, bta, eps, g):
    """Train batch norm of one plane over the (B, ...) axes, written out directly.

    Returns the value, the batch mean and variance per channel, and the
    adjoints (dx, dgamma, dbeta) for the upstream gradient plane g.
    """
    axes = (0,) + tuple(range(2, q.ndim))
    pshape = (1, q.shape[1]) + (1,) * (q.ndim - 2)
    mu = q.mean(axis=axes, keepdims=True)
    var = q.var(axis=axes, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (q - mu) * inv
    gm = g.mean(axis=axes, keepdims=True)
    gxm = (g * xhat).mean(axis=axes, keepdims=True)
    dx = gam.reshape(pshape) * inv * (g - gm - xhat * gxm)
    return (xhat * gam.reshape(pshape) + bta.reshape(pshape), mu.reshape(-1), var.reshape(-1),
            dx, (g * xhat).sum(axis=axes), g.sum(axis=axes))


def bn_eval_plane_reference(q, gam, bta, m, v, eps, g):
    """Eval batch norm of one plane with frozen statistics: value, dx, dgamma, dbeta."""
    axes = (0,) + tuple(range(2, q.ndim))
    pshape = (1, q.shape[1]) + (1,) * (q.ndim - 2)
    inv = (1.0 / np.sqrt(v + eps)).reshape(pshape)
    xhat = (q - m.reshape(pshape)) * inv
    return (xhat * gam.reshape(pshape) + bta.reshape(pshape),
            g * gam.reshape(pshape) * inv, (g * xhat).sum(axis=axes), g.sum(axis=axes))


def crelu_planes_reference(re, im, gr, gi):
    """crelu's value and adjoint with two selects per plane."""
    mask = (re >= 0) & (im >= 0)
    return (np.where(mask, re, 0.0), np.where(mask, im, 0.0)), (gr * mask, gi * mask)


def conv_output_planes(rng, b, c, hw):
    """A (b, c) + hw tensor whose planes are views of one (b, 2c) + hw array, as
    cconv2d returns them (a 1x1 conv, run off the tape)."""
    x = rand_ct(rng, (b, 2) + hw)
    out = ops.cconv2d(x, rand_ct(rng, (c, 2, 1, 1)), rand_ct(rng, (c,)))
    assert out.re.base is not None and out.re.base is out.im.base
    return out


def plane_case_input(rng, b, rank, layout):
    if layout == "fresh":
        return rand_ct(rng, (b, 3, 4, 5) if rank == 4 else (b, 3, 20))
    out = conv_output_planes(rng, b, 3, (4, 5))
    return out if rank == 4 else ops.reshape(out, (b, 3, 20))


def assert_all_close(got, want, tol=1e-12):
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.max(np.abs(g - w)) <= tol


class TestPlaneReference:
    """Value and every gradient plane of batch norm and crelu against the
    direct per-plane formulas, within 1e-12."""

    CASES = [(b, rank, layout) for b in (2, 3) for rank in (3, 4) for layout in ("fresh", "conv")]

    @pytest.mark.parametrize("b, rank, layout", CASES)
    def test_cbatchnorm_train(self, b, rank, layout):
        rng = np.random.default_rng(40 + b + rank)
        x = plane_case_input(rng, b, rank, layout)
        gamma = ComplexTensor(rng.uniform(0.5, 1.5, 3), rng.uniform(0.5, 1.5, 3))
        beta = rand_ct(rng, (3,))
        with GradTape() as tape:
            for leaf in (x, gamma, beta):
                tape.watch(leaf)
            out, stats = ops.cbatchnorm_train(x, gamma, beta)
            up = rand_ct(rng, out.shape)
        grads = tape.backward(out, up)
        want_re = bn_train_plane_reference(x.re, gamma.re, beta.re, 1e-5, up.re)
        want_im = bn_train_plane_reference(x.im, gamma.im, beta.im, 1e-5, up.im)
        assert_all_close(
            (out.re, stats.mean_re, stats.var_re, grads[x].re, grads[gamma].re, grads[beta].re),
            want_re,
        )
        assert_all_close(
            (out.im, stats.mean_im, stats.var_im, grads[x].im, grads[gamma].im, grads[beta].im),
            want_im,
        )

    @pytest.mark.parametrize("b, rank, layout", CASES)
    def test_cbatchnorm_eval(self, b, rank, layout):
        rng = np.random.default_rng(50 + b + rank)
        x = plane_case_input(rng, b, rank, layout)
        gamma, beta, mean = rand_ct(rng, (3,)), rand_ct(rng, (3,)), rand_ct(rng, (3,))
        var = ComplexTensor(rng.uniform(0.5, 2.0, 3), rng.uniform(0.5, 2.0, 3))
        with GradTape() as tape:
            for leaf in (x, gamma, beta):
                tape.watch(leaf)
            out = ops.cbatchnorm_eval(x, gamma, beta, mean, var)
            up = rand_ct(rng, out.shape)
        grads = tape.backward(out, up)
        assert_all_close(
            (out.re, grads[x].re, grads[gamma].re, grads[beta].re),
            bn_eval_plane_reference(x.re, gamma.re, beta.re, mean.re, var.re, 1e-5, up.re),
        )
        assert_all_close(
            (out.im, grads[x].im, grads[gamma].im, grads[beta].im),
            bn_eval_plane_reference(x.im, gamma.im, beta.im, mean.im, var.im, 1e-5, up.im),
        )

    @pytest.mark.parametrize("b, rank, layout", CASES)
    def test_crelu(self, b, rank, layout):
        rng = np.random.default_rng(60 + b + rank)
        x = plane_case_input(rng, b, rank, layout)
        with GradTape() as tape:
            tape.watch(x)
            out = ops.crelu(x)
            up = rand_ct(rng, out.shape)
        grads = tape.backward(out, up)
        (want_re, want_im), (dre, dim) = crelu_planes_reference(x.re, x.im, up.re, up.im)
        assert_all_close((out.re, out.im, grads[x].re, grads[x].im), (want_re, want_im, dre, dim))

    def test_crelu_boundary(self):
        # re == 0 or im == 0 passes (-0.0 too); exactly one negative plane blocks
        re = np.array([0.0, 2.0, 0.0, -0.0, -1.0, 3.0, -2.0, -0.5])
        im = np.array([4.0, 0.0, 0.0, 1.0, 2.0, -1.5, -3.0, 0.0])
        passes = np.array([True, True, True, True, False, False, False, False])
        x = ComplexTensor(re, im)
        with GradTape() as tape:
            tape.watch(x)
            out = ops.crelu(x)
        grads = tape.backward(out, ComplexTensor(np.ones(8), np.ones(8)))
        assert np.all(np.isfinite(out.re)) and np.all(np.isfinite(out.im))
        assert np.array_equal(out.re, np.where(passes, re, 0.0))
        assert np.array_equal(out.im, np.where(passes, im, 0.0))
        assert np.all(out.re[~passes] == 0) and np.all(out.im[~passes] == 0)
        assert np.array_equal(grads[x].re, passes.astype(float))
        assert np.array_equal(grads[x].im, passes.astype(float))

    def test_crelu_non_finite(self):
        # a passing inf stays; a blocked non-finite entry is x * 0 = NaN
        re = np.array([np.inf, -np.inf, np.nan, np.inf, 1.0, 2.0])
        im = np.array([1.0, 1.0, 1.0, -1.0, np.nan, -np.inf])
        with np.errstate(invalid="ignore"):
            out = ops.crelu(ComplexTensor(re, im))
        np.testing.assert_array_equal(out.re, [np.inf, np.nan, np.nan, np.nan, 0.0, 0.0])
        np.testing.assert_array_equal(out.im, [1.0, 0.0, 0.0, 0.0, np.nan, np.nan])


def gated_bn_planes(mode, fused, x, gamma, beta, up, stats=None):
    """Output and every gradient plane of batch norm with crelu, either fused
    into the batch-norm op (gate=True) or as a second op after it."""
    with GradTape() as tape:
        for leaf in (x, gamma, beta):
            tape.watch(leaf)
        if mode == "train":
            out, _ = ops.cbatchnorm_train(x, gamma, beta, gate=fused)
        else:
            out = ops.cbatchnorm_eval(x, gamma, beta, *stats, gate=fused)
        if not fused:
            out = ops.crelu(out)
    grads = tape.backward(out, up)
    return [out.re, out.im] + [p for t in (x, gamma, beta) for p in (grads[t].re, grads[t].im)]


def assert_same_bits(got, want):
    for g, w in zip(got, want, strict=True):
        assert g.shape == w.shape and g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()


class TestFusedGate:
    """Batch norm with gate=True equals crelu(batch norm) bit for bit: the
    output and every gradient plane, including -0.0, NaN and the boundary."""

    @staticmethod
    def stats(rng, c):
        return rand_ct(rng, (c,)), ComplexTensor(rng.uniform(0.5, 2.0, c), rng.uniform(0.5, 2.0, c))

    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("b, rank, layout", TestPlaneReference.CASES)
    def test_matches_two_ops(self, mode, b, rank, layout):
        rng = np.random.default_rng(70 + b + rank)
        x = plane_case_input(rng, b, rank, layout)
        gamma, beta, up = rand_ct(rng, (3,)), rand_ct(rng, (3,)), rand_ct(rng, x.shape)
        stats = self.stats(rng, 3)
        fused = gated_bn_planes(mode, True, x, gamma, beta, up, stats)
        assert_same_bits(fused, gated_bn_planes(mode, False, x, gamma, beta, up, stats))
        blocked = (fused[0] == 0) & (fused[1] == 0)
        assert 0 < blocked.sum() < blocked.size

    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("case", ["boundary", "non-finite"])
    def test_edge_values_match_two_ops(self, mode, case):
        # gamma = 0 makes each channel's output its beta, so the gate sees
        # exactly test_crelu_boundary's and test_crelu_non_finite's values
        if case == "boundary":
            re = np.array([0.0, 2.0, 0.0, -0.0, -1.0, 3.0, -2.0, -0.5])
            im = np.array([4.0, 0.0, 0.0, 1.0, 2.0, -1.5, -3.0, 0.0])
        else:
            re = np.array([np.inf, -np.inf, np.nan, np.inf, 1.0, 2.0])
            im = np.array([1.0, 1.0, 1.0, -1.0, np.nan, -np.inf])
        c = re.size
        rng = np.random.default_rng(80)
        x, up = rand_ct(rng, (2, c, 3)), rand_ct(rng, (2, c, 3))
        gamma = ComplexTensor(np.zeros(c), np.zeros(c))
        beta = ComplexTensor(re, im)
        stats = self.stats(rng, c)
        with np.errstate(invalid="ignore"):
            fused = gated_bn_planes(mode, True, x, gamma, beta, up, stats)
            two_ops = gated_bn_planes(mode, False, x, gamma, beta, up, stats)
            gated_beta = ops.crelu(beta)
        assert_same_bits(fused, two_ops)
        np.testing.assert_array_equal(fused[0][:, :, 0], np.stack([gated_beta.re] * 2))
        np.testing.assert_array_equal(fused[1][:, :, 0], np.stack([gated_beta.im] * 2))


class TestConv:
    def test_hand_value(self):
        x = ComplexTensor(np.full((1, 1, 1, 1), 2.0), np.full((1, 1, 1, 1), 3.0))
        k = ComplexTensor(np.ones((1, 1, 1, 1)), np.ones((1, 1, 1, 1)))
        b = ComplexTensor(np.zeros(1), np.zeros(1))
        out = ops.cconv2d(x, k, b, stride=(1, 1))
        assert out.re[0, 0, 0, 0] == pytest.approx(-1.0)
        assert out.im[0, 0, 0, 0] == pytest.approx(5.0)

    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = rand_ct(rng, (2, 1, 4, 5))
        k = ComplexTensor(np.ones((1, 1, 1, 1)), np.zeros((1, 1, 1, 1)))
        b = ComplexTensor(np.zeros(1), np.zeros(1))
        out = ops.cconv2d(x, k, b, stride=(1, 1))
        assert np.allclose(out.re[:, 0], x.re[:, 0], atol=0)
        assert np.allclose(out.im[:, 0], x.im[:, 0], atol=0)

    def test_matches_native_complex_oracle(self):
        rng = np.random.default_rng(1)
        x = rand_ct(rng, (1, 2, 5, 6))
        k = rand_ct(rng, (3, 2, 3, 3))
        b = rand_ct(rng, (3,))
        out = ops.cconv2d(x, k, b, stride=(1, 1))
        want = conv_oracle(x.to_complex(), k.to_complex(), b.to_complex(), (1, 1))
        assert np.max(np.abs(out.to_complex() - want)) <= 1e-12

    def test_strided_matches_oracle(self):
        rng = np.random.default_rng(2)
        x = rand_ct(rng, (2, 2, 5, 9))
        k = rand_ct(rng, (2, 2, 2, 3))
        b = rand_ct(rng, (2,))
        out = ops.cconv2d(x, k, b, stride=(2, 3))
        want = conv_oracle(x.to_complex(), k.to_complex(), b.to_complex(), (2, 3))
        assert np.max(np.abs(out.to_complex() - want)) <= 1e-12

    @pytest.mark.parametrize("b", [1, 3])
    @pytest.mark.parametrize("cin, cout, hw, kernel, stride", [
        (1, 4, (6, 40), (1, 7), (1, 2)),
        (16, 8, (3, 30), (1, 5), (1, 2)),
        (1, 8, (16, 12), (4, 5), (2, 2)),
        (8, 12, (7, 5), (3, 3), (2, 2)),
    ], ids=["paper-1x7", "paper-1x5", "bench-4x5", "bench-3x3"])
    def test_value_and_gradients_match_plane_reference(self, b, cin, cout, hw, kernel, stride):
        rng = np.random.default_rng(11)
        x = rand_ct(rng, (b, cin) + hw)
        k = rand_ct(rng, (cout, cin) + kernel)
        bias = rand_ct(rng, (cout,))
        with GradTape() as tape:
            for leaf in (x, k, bias):
                tape.watch(leaf)
            out = ops.cconv2d(x, k, bias, stride=stride)
            up = rand_ct(rng, out.shape)
        grads = tape.backward(out, up)
        want = conv_planes_reference(x.re, x.im, k.re, k.im, bias.re, bias.im, stride,
                                     up.re, up.im)
        got = ((out.re, out.im),) + tuple((grads[t].re, grads[t].im) for t in (x, k, bias))
        for got_pair, want_pair in zip(got, want):
            for g, w in zip(got_pair, want_pair):
                assert g.shape == w.shape
                assert np.max(np.abs(g - w)) <= 1e-12

    @staticmethod
    def conv_step(x, k, bias, up):
        """Output and (x, kernel, bias) gradients for the cotangent up."""
        with GradTape() as tape:
            for leaf in (x, k, bias):
                tape.watch(leaf)
            out = ops.cconv2d(x, k, bias)
        grads = tape.backward(out, up)
        return out, grads[x], grads[k], grads[bias]

    def test_batch_spanning_chunks_matches_per_sample_calls(self, monkeypatch):
        """Five samples of 640 kB (output plus columns) run as chunks of 2, 2
        and 1. The output and dx equal five B = 1 calls bit for bit; the kernel
        and bias gradients equal a one-chunk call's, and the per-sample sum's
        to 1e-12. The backward refills each chunk's columns, one chunk too."""
        rng = np.random.default_rng(12)
        x, k, bias = rand_ct(rng, (5, 2, 8, 502)), rand_ct(rng, (4, 2, 1, 3)), rand_ct(rng, (4,))
        up = rand_ct(rng, (5, 4, 8, 500))
        assert tape_module.CHUNK_BYTES // ((2 * 6 + 2 * 4) * 8 * 500 * 8) == 2
        builds = []
        fill_cols = ops._fill_cols

        def counted_fill_cols(cols, re, *args):
            builds.append(re.shape[0])
            return fill_cols(cols, re, *args)

        monkeypatch.setattr(ops, "_fill_cols", counted_fill_cols)
        out, dx, dk, db = self.conv_step(x, k, bias, up)
        assert builds == [2, 2, 1, 2, 2, 1]
        samples = [self.conv_step(ComplexTensor(x.re[i : i + 1], x.im[i : i + 1]), k, bias,
                                  ComplexTensor(up.re[i : i + 1], up.im[i : i + 1]))
                   for i in range(5)]
        for got, i in ((out, 0), (dx, 1)):
            for plane in ("re", "im"):
                want = np.concatenate([getattr(s[i], plane) for s in samples])
                assert np.array_equal(getattr(got, plane), want)
        monkeypatch.setattr(tape_module, "CHUNK_BYTES", 1 << 40)
        builds.clear()
        _, _, dk_one, db_one = self.conv_step(x, k, bias, up)
        assert builds == [5, 5]
        for got, one, i in ((dk, dk_one, 2), (db, db_one, 3)):
            for plane in ("re", "im"):
                assert np.array_equal(getattr(got, plane), getattr(one, plane))
                summed = sum(getattr(s[i], plane) for s in samples)
                assert np.max(np.abs(getattr(got, plane) - summed)) <= 1e-12 * np.max(np.abs(summed))

    def test_batch_spanning_chunks_matches_oracles(self, monkeypatch):
        """A one-byte budget runs every sample as its own chunk: criterion 2's
        direct oracle holds at 1e-10 and the plane reference's adjoints at 1e-12."""
        monkeypatch.setattr(tape_module, "CHUNK_BYTES", 1)
        rng = np.random.default_rng(13)
        for _ in range(20):
            bs, ci, co = rng.integers(2, 5), rng.integers(1, 4), rng.integers(1, 4)
            kh, kw = rng.integers(1, 4), rng.integers(1, 4)
            stride = (int(rng.integers(1, 3)), int(rng.integers(1, 3)))
            h, w = kh + rng.integers(0, 5), kw + rng.integers(0, 5)
            x, k, bias = rand_ct(rng, (bs, ci, h, w)), rand_ct(rng, (co, ci, kh, kw)), rand_ct(rng, (co,))
            with GradTape() as tape:
                for leaf in (x, k, bias):
                    tape.watch(leaf)
                out = ops.cconv2d(x, k, bias, stride=stride)
                up = rand_ct(rng, out.shape)
            grads = tape.backward(out, up)
            want = conv_oracle(x.to_complex(), k.to_complex(), bias.to_complex(), stride)
            assert np.max(np.abs(out.to_complex() - want)) <= 1e-10
            ref = conv_planes_reference(x.re, x.im, k.re, k.im, bias.re, bias.im, stride,
                                        up.re, up.im)[1:]
            for t, want_pair in zip((x, k, bias), ref):
                for g, w in zip((grads[t].re, grads[t].im), want_pair):
                    assert np.max(np.abs(g - w)) <= 1e-12

    def test_kernel_too_large_names_shapes(self):
        x = ComplexTensor(np.zeros((1, 1, 2, 2)), np.zeros((1, 1, 2, 2)))
        k = ComplexTensor(np.zeros((1, 1, 3, 3)), np.zeros((1, 1, 3, 3)))
        b = ComplexTensor(np.zeros(1), np.zeros(1))
        with pytest.raises(ShapeError) as ei:
            ops.cconv2d(x, k, b, stride=(1, 1))
        assert "(1, 1, 2, 2)" in str(ei.value) and "(1, 1, 3, 3)" in str(ei.value)

    def test_complex_linear_without_bias(self):
        rng = np.random.default_rng(3)
        x = rand_ct(rng, (1, 2, 4, 6))
        k = rand_ct(rng, (2, 2, 2, 2))
        zero_b = ComplexTensor(np.zeros(2), np.zeros(2))
        lhs = ops.cconv2d(ops.scale(x, 0.7 - 1.9j), k, zero_b, stride=(1, 1)).to_complex()
        rhs = (0.7 - 1.9j) * ops.cconv2d(x, k, zero_b, stride=(1, 1)).to_complex()
        assert np.max(np.abs(lhs - rhs)) / np.max(np.abs(rhs)) <= 1e-10

    def test_layer_wrapper(self):
        rng = np.random.default_rng(4)
        layer = init_conv(rng, out_channels=3, in_channels=2, kernel_hw=(1, 3), stride=(1, 2))
        x = rand_ct(rng, (2, 2, 4, 9))
        out = layer.apply(x)
        assert out.shape == (2, 3, 4, 4)
        # no bias: the layer acts as the conv with a zero bias
        assert layer.bias is None
        zero_b = ComplexTensor(np.zeros(3), np.zeros(3))
        biased = ops.cconv2d(x, layer.kernels, zero_b, stride=(1, 2))
        assert np.array_equal(out.re, biased.re) and np.array_equal(out.im, biased.im)


class TestBatchNorm:
    def test_constant_batch_collapses(self):
        x = ComplexTensor(np.full((4, 3, 2), 5.0), np.full((4, 3, 2), -2.0))
        gamma = ComplexTensor(np.ones(3), np.ones(3))
        beta = ComplexTensor(np.zeros(3), np.zeros(3))
        out, _ = ops.cbatchnorm_train(x, gamma, beta)
        assert np.max(np.abs(out.re)) <= 1e-6
        assert np.max(np.abs(out.im)) <= 1e-6

    def test_standardized_input_passes_through(self):
        # bounded values keep the eps damping (~|x|*eps/2) inside the tolerance
        rng = np.random.default_rng(5)
        q = rng.uniform(-1.7, 1.7, (64, 2, 8))
        q = (q - q.mean(axis=(0, 2), keepdims=True)) / q.std(axis=(0, 2), keepdims=True)
        p = rng.uniform(-1.7, 1.7, (64, 2, 8))
        p = (p - p.mean(axis=(0, 2), keepdims=True)) / p.std(axis=(0, 2), keepdims=True)
        x = ComplexTensor(q, p)
        gamma = ComplexTensor(np.ones(2), np.ones(2))
        beta = ComplexTensor(np.zeros(2), np.zeros(2))
        out, _ = ops.cbatchnorm_train(x, gamma, beta)
        assert np.max(np.abs(out.re - q)) <= 1e-5
        assert np.max(np.abs(out.im - p)) <= 1e-5

    def test_matches_real_bn_oracle_per_plane(self):
        rng = np.random.default_rng(6)
        x = rand_ct(rng, (8, 3, 4, 5))
        gamma = rand_ct(rng, (3,))
        beta = rand_ct(rng, (3,))
        out, _ = ops.cbatchnorm_train(x, gamma, beta)
        assert np.max(np.abs(out.re - bn_oracle(x.re, gamma.re, beta.re, 1e-5))) <= 1e-12
        assert np.max(np.abs(out.im - bn_oracle(x.im, gamma.im, beta.im, 1e-5))) <= 1e-12

    def test_train_statistics(self):
        rng = np.random.default_rng(7)
        x = rand_ct(rng, (32, 4, 6), scale=3.0)
        gamma = ComplexTensor(np.ones(4), np.ones(4))
        beta = ComplexTensor(np.zeros(4), np.zeros(4))
        out, _ = ops.cbatchnorm_train(x, gamma, beta)
        for plane in (out.re, out.im):
            assert np.max(np.abs(plane.mean(axis=(0, 2)))) <= 1e-6
            assert np.max(np.abs(plane.var(axis=(0, 2)) - 1.0)) <= 1e-4

    def test_running_stats_update(self):
        rng = np.random.default_rng(8)
        layer = init_batchnorm(2)
        x = rand_ct(rng, (16, 2, 3), scale=2.0)
        _, stats = ops.cbatchnorm_train(x, layer.gamma, layer.beta)
        layer.apply(x, "train")
        assert np.allclose(layer.running_mean.re, 0.1 * stats.mean_re, atol=1e-12)
        assert np.allclose(layer.running_var.re, 0.9 * 1.0 + 0.1 * stats.var_re, atol=1e-12)

    def test_small_batch_rejected(self):
        layer = init_batchnorm(2)
        x = ComplexTensor(np.zeros((1, 2, 3)), np.zeros((1, 2, 3)))
        with pytest.raises(ShapeError):
            layer.apply(x, "train")

    def test_eval_uses_running_stats(self):
        rng = np.random.default_rng(9)
        layer = init_batchnorm(2)
        layer.running_mean = ComplexTensor(np.array([1.0, -1.0]), np.zeros(2))
        layer.running_var = ComplexTensor(np.array([4.0, 0.25]), np.ones(2))
        x = rand_ct(rng, (3, 2, 5))
        out = layer.apply(x, "eval")
        want0 = (x.re[:, 0] - 1.0) / np.sqrt(4.0 + 1e-5)
        assert np.max(np.abs(out.re[:, 0] - want0)) <= 1e-12


class TestActivationAndPool:
    def test_crelu_cases(self):
        x = ComplexTensor(np.array([1.0, -1.0, 3.0]), np.array([2.0, 2.0, -0.5]))
        out = ops.crelu(x)
        assert out.re.tolist() == [1.0, 0.0, 0.0]
        assert out.im.tolist() == [2.0, 0.0, 0.0]

    def test_crelu_idempotent(self):
        rng = np.random.default_rng(10)
        x = rand_ct(rng, (50,))
        once = ops.crelu(x)
        twice = ops.crelu(once)
        assert np.array_equal(once.re, twice.re)
        assert np.array_equal(once.im, twice.im)

    def test_crelu_nonnegative_or_zero(self):
        rng = np.random.default_rng(11)
        out = ops.crelu(rand_ct(rng, (100,)))
        passed = (out.re != 0) | (out.im != 0)
        assert np.all(out.re[passed] >= 0) and np.all(out.im[passed] >= 0)

    def test_pool_hand_value(self):
        x = ComplexTensor(np.array([[1.0, 3.0]]), np.array([[1.0, 3.0]]))
        out = ops.cavgpool_last(x, 2)
        assert out.re.tolist() == [[2.0]] and out.im.tolist() == [[2.0]]

    def test_pool_constant(self):
        x = ComplexTensor(np.full((2, 6), 1.5), np.full((2, 6), -0.5))
        out = ops.cavgpool_last(x, 3)
        assert np.array_equal(out.re, np.full((2, 2), 1.5))
        assert np.array_equal(out.im, np.full((2, 2), -0.5))

    def test_pool_matches_mean_oracle(self):
        rng = np.random.default_rng(12)
        x = rand_ct(rng, (3, 8))
        out = ops.cavgpool_last(x, 2)
        want = x.to_complex().reshape(3, 4, 2).mean(axis=-1)
        assert np.max(np.abs(out.to_complex() - want)) <= 1e-12

    def test_pool_drops_remainder(self):
        rng = np.random.default_rng(13)
        x = rand_ct(rng, (2, 7))
        out = ops.cavgpool_last(x, 3)
        assert out.shape == (2, 2)
        want = x.to_complex()[:, :6].reshape(2, 2, 3).mean(axis=-1)
        assert np.max(np.abs(out.to_complex() - want)) <= 1e-12

    def test_pool_preserves_channel_mean(self):
        rng = np.random.default_rng(14)
        x = rand_ct(rng, (4, 12))
        out = ops.cavgpool_last(x, 4)
        assert np.max(np.abs(out.re.mean(axis=1) - x.re.mean(axis=1))) <= 1e-12


TOY = BranchConfig(
    input_hw=(4, 8),
    convs=(ConvSpec(2, (1, 3), (1, 1)), ConvSpec(3, (1, 3), (1, 1)), ConvSpec(2, (1, 2), (1, 1))),
    pool_window=1,
)


class TestBranch:
    def test_default_shape_propagation(self):
        config = default_branch_config()
        assert config.stage_shapes() == [(16, 400, 47), (32, 400, 22), (64, 400, 20), (64, 10)]
        assert config.feature_shape() == (64, 10)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            BranchConfig(input_hw=(4, 8), convs=(ConvSpec(2, (1, 3), (1, 1)),), pool_window=1)
        with pytest.raises(ShapeError):
            BranchConfig(
                input_hw=(4, 5),
                convs=(
                    ConvSpec(2, (1, 3), (1, 2)),
                    ConvSpec(2, (1, 3), (1, 1)),
                    ConvSpec(2, (1, 2), (1, 1)),
                ),
                pool_window=1,
            )

    @pytest.mark.parametrize("spec", [
        ConvSpec(0, (1, 2), (1, 1)), ConvSpec(-2, (1, 2), (1, 1)),
        ConvSpec(2, (1, -2), (1, 1)), ConvSpec(2, (1, 2), (0, 1)),
    ], ids=["zero-channels", "negative-channels", "negative-kernel", "zero-stride"])
    def test_non_positive_conv_extents_rejected(self, spec):
        with pytest.raises(ShapeError, match="conv3"):
            BranchConfig(input_hw=(4, 8), convs=TOY.convs[:2] + (spec,), pool_window=1)

    def test_zero_input_zero_features(self):
        rng = np.random.default_rng(15)
        weights = init_branch(TOY, rng)
        zero = ComplexTensor(np.zeros((1, 1, 4, 8)), np.zeros((1, 1, 4, 8)))
        fm = ops.index0(branch_forward(zero, TOY, weights, mode="eval"), 0)
        assert fm.shape == TOY.feature_shape()
        assert np.array_equal(fm.re, np.zeros(fm.shape))
        assert np.array_equal(fm.im, np.zeros(fm.shape))

    def test_deterministic(self):
        rng = np.random.default_rng(16)
        weights = init_branch(TOY, rng)
        x = rand_ct(rng, (1, 1, 4, 8))
        a = branch_forward(x, TOY, weights, mode="eval")
        b = branch_forward(x, TOY, weights, mode="eval")
        assert np.array_equal(a.re, b.re)
        assert np.array_equal(a.im, b.im)

    def test_wrong_input_shape_names_stage(self):
        rng = np.random.default_rng(17)
        weights = init_branch(TOY, rng)
        with pytest.raises(ShapeError, match="input"):
            branch_forward(ComplexTensor(np.zeros((1, 1, 5, 8))), TOY, weights, mode="eval")

    def test_batched_forward_shape(self):
        rng = np.random.default_rng(18)
        weights = init_branch(TOY, rng)
        x = rand_ct(rng, (3, 1, 4, 8))
        out = branch_forward(x, TOY, weights, mode="train")
        assert out.shape == (3,) + TOY.feature_shape()

    @pytest.mark.parametrize("geometry", ["toy", "bench", "paper"])
    def test_chunk_size_is_one_conv_span(self, monkeypatch, geometry):
        """chunk_size(config) samples run every stage's cconv2d as one span, and
        one sample more runs the largest stage's as two."""
        from cvradar.traincli import bench_branch_config

        config = {"toy": TOY, "bench": bench_branch_config(),
                  "paper": default_branch_config()}[geometry]
        conv, fill_cols = ops.cconv2d, ops._fill_cols
        spans = []  # per cconv2d call

        def counted_conv(*args, **kwargs):
            spans.append(0)
            return conv(*args, **kwargs)

        def counted_fill_cols(cols, re, im, sh, sw, a, e):
            if a == 0:  # a span's first rows; halves fills a split span's rest later
                spans[-1] += 1
            return fill_cols(cols, re, im, sh, sw, a, e)

        monkeypatch.setattr(ops, "cconv2d", counted_conv)
        monkeypatch.setattr(ops, "_fill_cols", counted_fill_cols)
        weights = init_branch(config, np.random.default_rng(19))

        def stage_spans(batch):
            spans.clear()
            branch_forward(ComplexTensor(np.zeros((batch, 1) + config.input_hw)), config,
                           weights, mode="eval")
            return spans

        n = chunk_size(config)
        assert stage_spans(n) == [1, 1, 1]
        assert max(stage_spans(n + 1)) == 2


class TestBaseline:
    def test_logit_shape_and_uniform_softmax(self):
        rng = np.random.default_rng(19)
        model = init_baseline(TOY, n_classes=3, rng=rng)
        zero = ComplexTensor(np.zeros((1, 1, 4, 8)), np.zeros((1, 1, 4, 8)))
        logits = baseline_logits(zero, model, mode="eval")
        assert logits.shape == (1, 3)
        assert np.array_equal(logits.re, np.zeros((1, 3)))
        p = ops.softmax_last(logits)
        assert np.allclose(p.re, np.full((1, 3), 1 / 3), atol=1e-12)

    def test_logits_are_real(self):
        rng = np.random.default_rng(20)
        model = init_baseline(TOY, n_classes=4, rng=rng)
        x = rand_ct(rng, (2, 1, 4, 8))
        logits = baseline_logits(x, model, mode="train")
        assert logits.shape == (2, 4)
        assert np.array_equal(logits.im, np.zeros((2, 4)))

    def test_batched_matches_per_sample(self):
        # bench geometry, eval mode: one call at B = 5 against five at B = 1
        from cvradar.traincli import bench_branch_config

        rng = np.random.default_rng(22)
        model = init_baseline(bench_branch_config(), n_classes=3, rng=rng)
        x = rand_ct(rng, (5, 1, 64, 32))
        batched = baseline_logits(x, model, mode="eval")
        for n in range(5):
            single = baseline_logits(
                ComplexTensor(x.re[n : n + 1], x.im[n : n + 1]), model, mode="eval"
            )
            assert np.max(np.abs(batched.re[n] - single.re[0])) <= 1e-12

    def test_end_to_end_gradient(self):
        from cvradar.ctensor.gradcheck import grad_check_multi

        rng = np.random.default_rng(21)
        model = init_baseline(TOY, n_classes=2, rng=rng)
        x = rand_ct(rng, (2, 1, 4, 8))
        target = np.array([1.0, 0.0])

        def f(k0, hw):
            trial = model.with_tensors({"branch.conv0.kernels": k0, "head.w": hw})
            logits = baseline_logits(x, trial, mode="train")
            return ops.cross_entropy_logits(ops.index0(logits, 0), target)

        err = grad_check_multi(f, [model.branch.convs[0].kernels, model.head_w])
        assert err <= 1e-4
