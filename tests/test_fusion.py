"""Realification, attention oracle and invariants, head, and loss tests."""

import numpy as np
import pytest

from cvradar.ctensor import ComplexTensor, GradTape, ShapeError, ops
from cvradar.cnn import BranchConfig, ConvSpec, chunk_size
from cvradar.fusion import model as fusion_model
from cvradar.fusion import (
    attention_weights,
    bidirectional_fuse,
    classify,
    cross_entropy,
    cross_entropy_from_logits,
    fusenet_logits_batch,
    init_attention,
    init_fusenet,
    one_hot,
    scaled_dot_attention,
    softmax_np,
)
from cvradar.traincli import bench_branch_config


def rand_ct(rng, shape, scale=1.0):
    return ComplexTensor(scale * rng.standard_normal(shape), scale * rng.standard_normal(shape))


def real_ct(rng, shape, scale=1.0):
    return ComplexTensor(scale * rng.standard_normal(shape), np.zeros(shape))


def attention_oracle(q, k, v):
    """Eq-by-eq evaluation with an independently written softmax."""
    scores = q @ k.T / np.sqrt(q.shape[1])
    weights = np.empty_like(scores)
    for i, row in enumerate(scores):
        e = np.exp(row - row.max())
        weights[i] = e / e.sum()
    return weights @ v


class TestComplexToReal:
    # realification is ops.tokens_from_complex; a (C, L) map is the B = 1 case
    def test_hand_layout(self):
        fm = ComplexTensor(np.array([[1.0], [3.0]]), np.array([[2.0], [4.0]]))
        tokens = ops.tokens_from_complex(fm)
        assert tokens.shape == (1, 4)
        assert tokens.re[0].tolist() == [1.0, 3.0, 2.0, 4.0]
        assert np.array_equal(tokens.im, np.zeros((1, 4)))

    def test_purely_real_second_half_zero(self):
        rng = np.random.default_rng(0)
        fm = ComplexTensor(rng.standard_normal((3, 5)), np.zeros((3, 5)))
        tokens = ops.tokens_from_complex(fm)
        assert np.array_equal(tokens.re[:, 3:], np.zeros((5, 3)))

    def test_norm_preserved(self):
        rng = np.random.default_rng(1)
        fm = rand_ct(rng, (4, 6))
        tokens = ops.tokens_from_complex(fm)
        src = np.sqrt(np.sum(fm.re**2 + fm.im**2))
        assert abs(np.linalg.norm(tokens.re) - src) <= 1e-12

    def test_injective(self):
        rng = np.random.default_rng(2)
        a = rand_ct(rng, (2, 3))
        b = ComplexTensor(a.re, a.im + 1e-9)
        ta = ops.tokens_from_complex(a)
        tb = ops.tokens_from_complex(b)
        assert not np.array_equal(ta.re, tb.re)


class TestScaledDotAttention:
    def test_identical_keys_average_values(self):
        rng = np.random.default_rng(3)
        q = real_ct(rng, (4, 3))
        k = ComplexTensor(np.tile(rng.standard_normal(3), (5, 1)), np.zeros((5, 3)))
        v = real_ct(rng, (5, 2))
        out = scaled_dot_attention(q, k, v)
        w = attention_weights(q, k)
        assert np.array_equal(w.re, np.full((4, 5), 0.2))
        assert np.max(np.abs(out.re - v.re.mean(axis=0))) <= 1e-14

    def test_single_key_value(self):
        rng = np.random.default_rng(4)
        q = real_ct(rng, (6, 3))
        k = real_ct(rng, (1, 3))
        v = real_ct(rng, (1, 4))
        out = scaled_dot_attention(q, k, v)
        assert np.max(np.abs(out.re - v.re[0])) <= 1e-14

    def test_matches_oracle(self):
        rng = np.random.default_rng(5)
        q = real_ct(rng, (3, 4))
        k = real_ct(rng, (3, 4))
        v = real_ct(rng, (3, 4))
        out = scaled_dot_attention(q, k, v)
        want = attention_oracle(q.re, k.re, v.re)
        assert np.max(np.abs(out.re - want)) <= 1e-12

    def test_dk_mismatch(self):
        with pytest.raises(ShapeError):
            scaled_dot_attention(
                ComplexTensor(np.zeros((2, 3))),
                ComplexTensor(np.zeros((2, 4))),
                ComplexTensor(np.zeros((2, 4))),
            )

    def test_kv_count_mismatch(self):
        with pytest.raises(ShapeError):
            scaled_dot_attention(
                ComplexTensor(np.zeros((2, 3))),
                ComplexTensor(np.zeros((4, 3))),
                ComplexTensor(np.zeros((5, 3))),
            )

    def test_rows_stochastic_and_in_hull(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            q = real_ct(rng, (4, 5), scale=2.0)
            k = real_ct(rng, (6, 5), scale=2.0)
            v = real_ct(rng, (6, 3), scale=3.0)
            w = attention_weights(q, k).re
            assert np.all(w >= 0)
            assert np.max(np.abs(w.sum(axis=1) - 1.0)) <= 1e-9
            out = scaled_dot_attention(q, k, v).re
            lo = v.re.min(axis=0) - 1e-9
            hi = v.re.max(axis=0) + 1e-9
            assert np.all(out >= lo) and np.all(out <= hi)


class TestBidirectionalFuse:
    def test_default_output_shape(self):
        rng = np.random.default_rng(7)
        block = init_attention(d_in=8, embed_dim=256, heads=16, rng=rng)
        ft = real_ct(rng, (2, 5, 8))
        Ft = real_ct(rng, (2, 5, 8))
        fused = bidirectional_fuse(ft, Ft, block)
        assert fused.shape == (2, 5, 512)
        assert np.array_equal(fused.im, np.zeros((2, 5, 512)))

    def test_token_count_mismatch(self):
        rng = np.random.default_rng(10)
        block = init_attention(d_in=6, embed_dim=8, heads=2, rng=rng)
        with pytest.raises(ShapeError):
            bidirectional_fuse(real_ct(rng, (2, 4, 6)), real_ct(rng, (2, 5, 6)), block)

    def test_single_head_matches_plain_attention(self):
        rng = np.random.default_rng(11)
        block = init_attention(d_in=6, embed_dim=8, heads=1, rng=rng)
        a = real_ct(rng, (3, 4, 6))
        b = real_ct(rng, (3, 4, 6))
        fused = bidirectional_fuse(a, b, block)
        for n in range(3):
            an, bn = ops.index0(a, n), ops.index0(b, n)
            q1 = ops.matmul(an, block.wq1)
            k1 = ops.matmul(bn, block.wk1)
            v1 = ops.matmul(bn, block.wv1)
            want = scaled_dot_attention(q1, k1, v1)
            assert np.max(np.abs(fused.re[n, :, :8] - want.re)) <= 1e-12

    def test_finite_for_large_inputs(self):
        rng = np.random.default_rng(12)
        block = init_attention(d_in=4, embed_dim=8, heads=2, rng=rng)
        huge = ComplexTensor(rng.standard_normal((2, 3, 4)) * 1e6, np.zeros((2, 3, 4)))
        fused = bidirectional_fuse(huge, huge, block)
        assert np.all(np.isfinite(fused.re))


class TestClassify:
    def test_zero_tokens_zero_logits(self):
        fused = ComplexTensor(np.zeros((2, 3, 4)), np.zeros((2, 3, 4)))
        w = ComplexTensor(np.ones((4, 2)), np.zeros((4, 2)))
        b = ComplexTensor(np.zeros(2), np.zeros(2))
        logits = classify(fused, w, b)
        assert np.array_equal(logits.re, np.zeros((2, 2)))

    def test_single_token_identity_pooling(self):
        rng = np.random.default_rng(13)
        fused = real_ct(rng, (2, 1, 4))
        w = real_ct(rng, (4, 3))
        b = real_ct(rng, (3,))
        logits = classify(fused, w, b)
        want = fused.re[:, 0] @ w.re + b.re
        assert np.max(np.abs(logits.re - want)) <= 1e-14

    def test_token_permutation_invariant(self):
        rng = np.random.default_rng(14)
        fused = real_ct(rng, (2, 6, 4))
        w = real_ct(rng, (4, 3))
        b = real_ct(rng, (3,))
        perm = rng.permutation(6)
        shuffled = ComplexTensor(fused.re[:, perm], fused.im[:, perm])
        a = classify(fused, w, b)
        c = classify(shuffled, w, b)
        assert np.max(np.abs(a.re - c.re)) <= 1e-12


class TestCrossEntropy:
    def test_one_hot_match(self):
        assert cross_entropy([0.0, 1.0, 0.0], [0.0, 1.0, 0.0]) == pytest.approx(0.0, abs=1e-9)

    def test_uniform_ten(self):
        assert cross_entropy(np.full(10, 0.1), one_hot(4, 10)) == pytest.approx(
            2.302585, abs=1e-6
        )

    def test_hand_value(self):
        assert cross_entropy([0.8, 0.2], [1.0, 0.0]) == pytest.approx(0.223144, abs=1e-6)

    def test_zero_probability_clamped(self):
        loss = cross_entropy([1.0, 0.0], [0.0, 1.0])
        assert np.isfinite(loss) and loss >= 20.0

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            cross_entropy([np.nan, 1.0], [1.0, 0.0])

    def test_not_a_distribution(self):
        with pytest.raises(ValueError):
            cross_entropy([0.9, 0.9], [1.0, 0.0])

    def test_logit_form_values(self):
        logits = ComplexTensor(np.zeros(10))
        loss = cross_entropy_from_logits(logits, one_hot(3, 10))
        assert float(loss.re) == pytest.approx(np.log(10.0), abs=1e-12)

    def test_logit_shift_invariance(self):
        rng = np.random.default_rng(15)
        raw = rng.standard_normal(5)
        t = one_hot(2, 5)
        a = cross_entropy_from_logits(ComplexTensor(raw), t)
        b = cross_entropy_from_logits(ComplexTensor(raw + 123.456), t)
        assert abs(float(a.re) - float(b.re)) <= 1e-9

    def test_matches_distribution_form(self):
        rng = np.random.default_rng(16)
        raw = rng.standard_normal(4)
        t = one_hot(1, 4)
        via_logits = float(cross_entropy_from_logits(ComplexTensor(raw), t).re)
        via_probs = cross_entropy(softmax_np(raw), t)
        assert via_logits == pytest.approx(via_probs, abs=1e-12)

    def test_batch_is_mean_of_rows(self):
        rng = np.random.default_rng(23)
        raw = rng.standard_normal((6, 4))
        targets = np.stack([one_hot(int(c), 4) for c in rng.integers(0, 4, 6)])
        batch = float(cross_entropy_from_logits(ComplexTensor(raw), targets).re)
        rows = [float(cross_entropy_from_logits(ComplexTensor(r), t).re) for r, t in zip(raw, targets)]
        assert abs(batch - np.mean(rows)) <= 1e-12


TOY = BranchConfig(
    input_hw=(4, 8),
    convs=(ConvSpec(2, (1, 3), (1, 1)), ConvSpec(3, (1, 3), (1, 1)), ConvSpec(2, (1, 2), (1, 1))),
    pool_window=1,
)


class TestFuseNet:
    def _model(self, seed=17):
        rng = np.random.default_rng(seed)
        return init_fusenet(TOY, n_classes=2, rng=rng, embed_dim=8, heads=2)

    def test_logits_shape_and_real(self):
        rng = np.random.default_rng(18)
        model = self._model()
        logits = fusenet_logits_batch(
            rand_ct(rng, (1, 1, 4, 8)), rand_ct(rng, (1, 1, 4, 8)), model, "eval"
        )
        assert logits.shape == (1, 2)
        assert np.array_equal(logits.im, np.zeros((1, 2)))

    def test_deterministic(self):
        rng = np.random.default_rng(19)
        model = self._model()
        x, X = rand_ct(rng, (1, 1, 4, 8)), rand_ct(rng, (1, 1, 4, 8))
        a = fusenet_logits_batch(x, X, model, "eval")
        b = fusenet_logits_batch(x, X, model, "eval")
        assert np.array_equal(a.re, b.re)

    def test_end_to_end_gradient(self):
        # checks every parameter of the full two-branch + fusion + head graph
        # at a point bounded away from activation gate boundaries (conftest)
        from conftest import toy_fusenet_instance
        from cvradar.ctensor.gradcheck import grad_check_multi

        model, x, X, target = toy_fusenet_instance()
        names = [n for n, _ in model.parameters()]
        initial = dict(model.parameters())

        def f(*tensors):
            trial = model.with_tensors(dict(zip(names, tensors)))
            return cross_entropy_from_logits(fusenet_logits_batch(x, X, trial, "eval"), target)

        err = grad_check_multi(f, [initial[n] for n in names])
        assert err <= 1e-4

    def test_batched_matches_per_sample(self):
        # bench geometry, eval mode: one call at B = 5 against five at B = 1
        rng = np.random.default_rng(24)
        model = init_fusenet(bench_branch_config(), n_classes=3, rng=rng, embed_dim=16, heads=2)
        x_iq, x_fft = rand_ct(rng, (5, 1, 64, 32)), rand_ct(rng, (5, 1, 64, 32))
        batched = fusenet_logits_batch(x_iq, x_fft, model, "eval")
        assert batched.shape == (5, 3)
        for n in range(5):
            single = fusenet_logits_batch(
                ComplexTensor(x_iq.re[n : n + 1], x_iq.im[n : n + 1]),
                ComplexTensor(x_fft.re[n : n + 1], x_fft.im[n : n + 1]),
                model,
                "eval",
            )
            assert single.shape == (1, 3)
            assert np.max(np.abs(batched.re[n] - single.re[0])) <= 1e-12

    @pytest.mark.parametrize("same_input", [False, True])
    def test_lanes_step_matches_branches_in_order(self, monkeypatch, same_input):
        """A train step whose batch spans two chunks runs the branches on two
        tape lanes, unless one tensor feeds both; its logits and every gradient
        equal the same step with the branches called in order, bit for bit."""
        config = BranchConfig(input_hw=(40, 256), convs=(ConvSpec(8, (1, 3), (1, 1)),) * 3,
                              pool_window=2)
        assert chunk_size(config) == 1
        rng = np.random.default_rng(25)
        x_iq, x_fft = rand_ct(rng, (2, 1, 40, 256)), rand_ct(rng, (2, 1, 40, 256))
        if same_input:
            x_fft = x_iq
        targets = np.eye(2)
        lanes = []

        def step(model):
            with GradTape() as tape:
                for _, t in model.parameters():
                    tape.watch(t)
                logits = fusenet_logits_batch(x_iq, x_fft, model, "train")
                loss = cross_entropy_from_logits(logits, targets)
            return logits, tape.backward(loss)

        def counted(*thunks):
            lanes.append(len(thunks))
            return parallel(*thunks)

        parallel = fusion_model.parallel
        model = init_fusenet(config, n_classes=2, rng=rng, embed_dim=8, heads=2)
        monkeypatch.setattr(fusion_model, "parallel", counted)
        got_logits, got = step(model)
        assert lanes == ([] if same_input else [2])
        monkeypatch.setattr(fusion_model, "parallel", lambda *thunks: [t() for t in thunks])
        want_logits, want = step(model)
        assert np.array_equal(got_logits.re, want_logits.re)
        for _, t in model.parameters():
            assert np.array_equal(got[t].re, want[t].re)
            assert np.array_equal(got[t].im, want[t].im)

    def test_parameter_roundtrip(self):
        model = self._model()
        names = [n for n, _ in model.parameters()]
        assert len(names) == len(set(names))
        rebuilt = model.with_tensors(dict(model.parameters()))
        for (n0, t0), (n1, t1) in zip(model.parameters(), rebuilt.parameters()):
            assert n0 == n1
            assert np.array_equal(t0.re, t1.re)
