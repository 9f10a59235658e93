"""Tensor construction, elementwise contracts, and tape backward behavior."""

import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from cvradar.cnn import baseline_logits, init_baseline
from cvradar.ctensor import ComplexTensor, GradTape, ShapeError, TapeError, ops, parallel
from cvradar.fusion import fusenet_logits_batch, init_fusenet
from cvradar.traincli.checks import toy_branch_config


def rand_ct(rng, shape, scale=1.0):
    return ComplexTensor(scale * rng.standard_normal(shape), scale * rng.standard_normal(shape))


def abs2_loss(t):
    return ops.real(ops.sum_all(ops.mul(t, ops.conj(t))))


class TestConstruction:
    def test_plane_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ComplexTensor(np.zeros((2, 3)), np.zeros((3, 2)))

    def test_zero_extent_rejected(self):
        with pytest.raises(ShapeError):
            ComplexTensor(np.zeros((2, 0)), np.zeros((2, 0)))

    def test_scalar_shape_allowed(self):
        t = ComplexTensor(1.0, 2.0)
        assert t.shape == ()
        assert t.size == 1

    def test_immutable(self):
        t = ComplexTensor([1.0, 2.0])
        with pytest.raises(AttributeError):
            t.re = np.zeros(2)
        with pytest.raises(ValueError):
            t.re[0] = 5.0

    def test_default_im_is_zero(self):
        t = ComplexTensor([1.0, 2.0])
        assert np.array_equal(t.im, np.zeros(2))


class TestElementwise:
    def test_mul_hand_value(self):
        # (1+j)(2+3j): ca-db + j(cb+da) with k=1+j, x=2+3j gives 2-3 + j(3+2)
        out = ops.mul(ComplexTensor(1.0, 1.0), ComplexTensor(2.0, 3.0))
        assert complex(out.to_complex()) == (-1 + 5j)

    def test_mul_identity(self):
        rng = np.random.default_rng(7)
        z = rand_ct(rng, (4, 5))
        one = ComplexTensor(np.ones((4, 5)), np.zeros((4, 5)))
        out = ops.mul(z, one)
        assert np.array_equal(out.re, z.re) and np.array_equal(out.im, z.im)

    def test_add_inverse(self):
        a = ComplexTensor(1.0, 2.0)
        b = ComplexTensor(-1.0, -2.0)
        assert complex(ops.add(a, b).to_complex()) == 0j

    def test_shape_mismatch_names_both(self):
        a = ComplexTensor(np.zeros((2, 3)))
        b = ComplexTensor(np.zeros((4,)))
        with pytest.raises(ShapeError) as ei:
            ops.add(a, b)
        msg = str(ei.value)
        assert "(2, 3)" in msg and "(4,)" in msg

    def test_mul_distributes(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = rand_ct(rng, (3, 4))
            b = rand_ct(rng, (3, 4))
            c = rand_ct(rng, (3, 4))
            lhs = ops.mul(a, ops.add(b, c))
            rhs = ops.add(ops.mul(a, b), ops.mul(a, c))
            assert np.allclose(lhs.re, rhs.re, rtol=0, atol=1e-12)
            assert np.allclose(lhs.im, rhs.im, rtol=0, atol=1e-12)


class TestBackward:
    def test_sum_of_re_gradient(self):
        rng = np.random.default_rng(3)
        x = rand_ct(rng, (2, 3))
        with GradTape() as tape:
            tape.watch(x)
            loss = ops.real(ops.sum_all(ops.real(x)))
        g = tape.backward(loss)[x]
        assert np.array_equal(g.re, np.ones((2, 3)))
        assert np.array_equal(g.im, np.zeros((2, 3)))

    def test_abs2_gradient(self):
        z = ComplexTensor(3.0, 4.0)
        with GradTape() as tape:
            tape.watch(z)
            loss = abs2_loss(z)
        g = tape.backward(loss)[z]
        assert float(g.re) == pytest.approx(6.0, abs=1e-12)
        assert float(g.im) == pytest.approx(8.0, abs=1e-12)

    def test_gradient_shapes_match_leaves(self):
        rng = np.random.default_rng(5)
        x = rand_ct(rng, (2, 3, 4))
        w = rand_ct(rng, (4,))
        with GradTape() as tape:
            tape.watch(x)
            tape.watch(w)
            loss = abs2_loss(ops.mul(x, ops.reshape(ops.concat([w] * 6, 0), (2, 3, 4))))
        grads = tape.backward(loss)
        assert grads[x].shape == (2, 3, 4)
        assert grads[w].shape == (4,)

    def test_unused_leaf_gets_zeros(self):
        x = ComplexTensor([1.0, 2.0])
        unused = ComplexTensor([5.0])
        with GradTape() as tape:
            tape.watch(x)
            tape.watch(unused)
            loss = ops.real(ops.sum_all(x))
        g = tape.backward(loss)[unused]
        assert np.array_equal(g.re, np.zeros(1))
        assert np.array_equal(g.im, np.zeros(1))

    def test_repeated_backward_bit_identical(self):
        rng = np.random.default_rng(9)
        x = rand_ct(rng, (4, 4))
        y = rand_ct(rng, (4, 4))
        with GradTape() as tape:
            tape.watch(x)
            tape.watch(y)
            loss = abs2_loss(ops.matmul(ops.crelu(x), y))
        g1 = tape.backward(loss)
        g2 = tape.backward(loss)
        for leaf in (x, y):
            assert np.array_equal(g1[leaf].re, g2[leaf].re)
            assert np.array_equal(g1[leaf].im, g2[leaf].im)

    def test_intermediate_adjoints_are_freed(self):
        """A 40-op chain on a 1 MiB tensor: backward holds a few adjoints, not 40."""
        mib = 1 << 20
        x = ComplexTensor(np.ones((64, 1024)), np.ones((64, 1024)))
        tracemalloc.start()
        try:
            with GradTape() as tape:
                tape.watch(x)
                chain = [x]
                for _ in range(40):
                    chain.append(ops.scale(chain[-1], 0.5))
                mid = tape.watch(chain[20])
                loss = ops.real(ops.sum_all(chain[-1]))
            start, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            g1 = tape.backward(loss)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start <= 8 * mib, f"backward peak {(peak - start) / mib:.1f} MiB"
        assert np.array_equal(g1[mid].re, np.full(x.shape, 0.5**20))
        assert np.array_equal(g1[mid].im, np.zeros(x.shape))
        assert np.array_equal(g1[x].re, np.full(x.shape, 0.5**40))
        g2 = tape.backward(loss)
        for leaf in (x, mid):
            assert np.array_equal(g1[leaf].re, g2[leaf].re)
            assert np.array_equal(g1[leaf].im, g2[leaf].im)

    def test_consumed_outputs_are_released(self):
        """A 40-op chain on a 1 MiB tensor: the tape keeps no consumed output alive."""
        mib = 1 << 20
        x = ComplexTensor(np.ones((64, 1024)), np.ones((64, 1024)))
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            with GradTape() as tape:
                tape.watch(x)
                h = x
                for _ in range(40):
                    h = ops.scale(h, 0.5)
                loss = ops.real(ops.sum_all(h))
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held - start <= 8 * mib, f"forward holds {(held - start) / mib:.1f} MiB"
        g = tape.backward(loss)[x]
        assert np.array_equal(g.re, np.full(x.shape, 0.5**40))
        assert np.array_equal(g.im, np.zeros(x.shape))

    def test_stage_closures_do_not_keep_tensors(self):
        """conv -> batch norm -> crelu: no intermediate outlives its last reference,
        and the gradients equal those of a run that keeps every intermediate."""
        rng = np.random.default_rng(4)
        x = rand_ct(rng, (2, 2, 6, 5))
        params = [rand_ct(rng, (3, 2, 2, 2)), rand_ct(rng, (3,)), rand_ct(rng, (3,)),
                  rand_ct(rng, (3,))]

        def stage(keep):
            with GradTape() as tape:
                for p in params:
                    tape.watch(p)
                conv = ops.cconv2d(x, params[0], params[1])
                bn, _ = ops.cbatchnorm_train(conv, params[2], params[3])
                act = ops.crelu(bn)
                loss = abs2_loss(act)
            refs = [weakref.ref(t) for t in (conv, bn, act)]
            if keep is not None:
                keep.extend((conv, bn, act))
            del conv, bn, act
            return tape.backward(loss), [r() is not None for r in refs]

        kept = []
        g_kept, _ = stage(kept)
        g_freed, alive = stage(None)
        assert alive == [False, False, False]
        for p in params:
            assert np.array_equal(g_freed[p].re, g_kept[p].re)
            assert np.array_equal(g_freed[p].im, g_kept[p].im)

    def test_untracked_conv_input_is_freed_and_skipped(self, monkeypatch):
        """conv -> gated batch norm on an unwatched input: the input is freed
        after the forward, no input gradient is built, and the parameter
        gradients equal those of a run that watches the input."""
        rng = np.random.default_rng(5)
        planes = (rng.standard_normal((2, 2, 6, 5)), rng.standard_normal((2, 2, 6, 5)))
        params = [rand_ct(rng, (3, 2, 2, 2)), rand_ct(rng, (3,)), rand_ct(rng, (3,))]
        scatters = []
        col2im = ops._col2im

        def counted_col2im(*args):
            scatters.append(args[1])
            return col2im(*args)

        monkeypatch.setattr(ops, "_col2im", counted_col2im)

        def stage(watch_x):
            x = ComplexTensor(*planes)
            with GradTape() as tape:
                for p in params:
                    tape.watch(p)
                if watch_x:
                    tape.watch(x)
                out, _ = ops.cbatchnorm_train(ops.cconv2d(x, params[0]), *params[1:], gate=True)
                loss = abs2_loss(out)
            ref = weakref.ref(x)
            del x, out
            return tape.backward(loss), ref() is None

        g_free, freed = stage(False)
        assert freed and scatters == []
        g_watched, freed = stage(True)
        assert not freed and len(scatters) == 1
        for p in params:
            assert np.array_equal(g_free[p].re, g_watched[p].re)
            assert np.array_equal(g_free[p].im, g_watched[p].im)

    def test_eval_batchnorm_input_is_freed(self):
        """Gated eval-mode batch norm on a tape: its backward keeps the input's
        planes, not the input tensor, and the gradients do not depend on it."""
        rng = np.random.default_rng(7)
        planes = (rng.standard_normal((2, 3, 4, 5)), rng.standard_normal((2, 3, 4, 5)))
        gamma, beta, mean = rand_ct(rng, (3,)), rand_ct(rng, (3,)), rand_ct(rng, (3,))
        var = ComplexTensor(rng.uniform(0.5, 2.0, 3), rng.uniform(0.5, 2.0, 3))

        def stage(keep):
            x = ComplexTensor(*planes)
            with GradTape() as tape:
                tape.watch(gamma)
                tape.watch(beta)
                out = ops.cbatchnorm_eval(x, gamma, beta, mean, var, gate=True)
                loss = abs2_loss(out)
            ref = weakref.ref(x)
            if keep is not None:
                keep.append(x)
            del x, out
            return tape.backward(loss), ref() is None

        g_freed, freed = stage(None)
        assert freed
        g_kept, _ = stage([])
        for p in (gamma, beta):
            assert np.array_equal(g_freed[p].re, g_kept[p].re)
            assert np.array_equal(g_freed[p].im, g_kept[p].im)

    def test_conv_input_watched_after_use_gets_gradient(self):
        rng = np.random.default_rng(6)
        x, k = rand_ct(rng, (2, 2, 4, 5)), rand_ct(rng, (3, 2, 2, 2))

        def grad_x(watch_first):
            with GradTape() as tape:
                if watch_first:
                    tape.watch(x)
                out = ops.cconv2d(x, k)
                tape.watch(x)
                loss = abs2_loss(out)
            return tape.backward(loss)[x]

        late, early = grad_x(False), grad_x(True)
        assert np.any(late.re != 0) and np.any(late.im != 0)
        assert np.array_equal(late.re, early.re) and np.array_equal(late.im, early.im)

    def test_reused_address_does_not_alias(self):
        """A constant allocated where a freed intermediate lived starts with no adjoint."""
        x = ComplexTensor([1.0, 2.0])
        with GradTape() as tape:
            tape.watch(x)
            # Keep the chain alive until the forward is done, so that no later
            # tape object takes one of its addresses; then free it at once.
            chain = [x]
            for _ in range(50):
                chain.append(ops.scale(chain[-1], 0.5))
            total = ops.real(ops.sum_all(chain[-1]))
            refs = [weakref.ref(t) for t in chain[1:]]
            freed = {id(t) for t in chain[1:]}
            del chain
            assert all(r() is None for r in refs)
            constants = []
            while len(constants) < 10000:
                constants.append(ComplexTensor(3.0, 0.0))
                if id(constants[-1]) in freed:
                    break
            assert id(constants[-1]) in freed, "no constant landed on a freed address"
            loss = ops.add(total, constants[-1])
        g = tape.backward(loss)[x]
        assert np.array_equal(g.re, np.full(2, 0.5**50))
        assert np.array_equal(g.im, np.zeros(2))

    def test_watch_after_use(self):
        x = ComplexTensor([1.0, 2.0], [0.5, -1.0])
        with GradTape() as tape:
            y = ops.scale(x, 3.0)
            tape.watch(x)
            loss = ops.real(ops.sum_all(y))
        g = tape.backward(loss)[x]
        assert np.array_equal(g.re, np.full(2, 3.0))
        assert np.array_equal(g.im, np.zeros(2))

    def test_loss_must_be_scalar(self):
        x = ComplexTensor([1.0, 2.0])
        with GradTape() as tape:
            tape.watch(x)
            out = ops.crelu(x)
        with pytest.raises(TapeError):
            tape.backward(out)

    def test_loss_must_be_on_tape(self):
        x = ComplexTensor([1.0])
        with GradTape() as tape:
            tape.watch(x)
            ops.crelu(x)
        stray = ComplexTensor(1.0, 0.0)
        with pytest.raises(TapeError):
            tape.backward(stray)

    def test_loss_must_be_real(self):
        x = ComplexTensor(1.0, 1.0)
        with GradTape() as tape:
            tape.watch(x)
            loss = ops.sum_all(x)
        with pytest.raises(TapeError):
            tape.backward(loss)

    def test_tapes_do_not_nest(self):
        with GradTape():
            with pytest.raises(TapeError):
                with GradTape():
                    pass

    def test_no_recording_outside_tape(self):
        tape = GradTape()
        with tape:
            pass
        before = len(tape)
        ops.add(ComplexTensor([1.0]), ComplexTensor([2.0]))
        assert len(tape) == before


class TestLanes:
    """parallel(): each thunk records into its own tape lane, walked concurrently."""

    @staticmethod
    def leaves(seed):
        rng = np.random.default_rng(seed)
        return ([rand_ct(rng, (2, 1, 4, 6)), rand_ct(rng, (3, 1, 2, 3)), rand_ct(rng, (4, 3))]
                for _ in range(2))

    @staticmethod
    def chain(x, k, w):
        """conv -> crelu -> matmul: (2, 1, 4, 6) -> (18, 3)."""
        return ops.matmul(ops.reshape(ops.crelu(ops.cconv2d(x, k)), (18, 4)), w)

    def step(self, seed, lanes):
        a, b = self.leaves(seed)
        with GradTape() as tape:
            for t in a + b:
                tape.watch(t)
            thunks = (lambda: self.chain(*a), lambda: self.chain(*b))
            ya, yb = parallel(*thunks) if lanes else [t() for t in thunks]
            loss = abs2_loss(ops.add(ya, ops.scale(yb, 0.5j)))
        return tape, loss, a + b

    def test_lanes_match_in_order_recording(self):
        tape, loss, leaves = self.step(1, lanes=True)
        ref_tape, ref_loss, ref_leaves = self.step(1, lanes=False)
        assert len(tape) == len(ref_tape)
        assert np.array_equal(loss.re, ref_loss.re)
        g1, g2, ref = tape.backward(loss), tape.backward(loss), ref_tape.backward(ref_loss)
        for leaf, ref_leaf in zip(leaves, ref_leaves):
            for g in (g1[leaf], g2[leaf]):
                assert np.array_equal(g.re, ref[ref_leaf].re)
                assert np.array_equal(g.im, ref[ref_leaf].im)
            assert np.any(g1[leaf].re != 0)

    def test_lanes_sharing_a_tensor_raise(self):
        x = ComplexTensor([1.0, 2.0])
        with GradTape() as tape:
            tape.watch(x)
            with pytest.raises(TapeError, match="shares a tensor"):
                parallel(lambda: ops.scale(x, 2.0), lambda: ops.scale(x, 3.0))

    def test_shared_tensor_keyed_in_both_lanes_at_once_is_caught(self):
        """A tensor first keyed by two lanes at once gets one key, so the fork
        check sees the sharing. With a get-then-set key map, about one round
        in 3000 gave it two keys and passed the check."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        rounds, missed = 0, 0
        try:
            deadline = time.monotonic() + 2.0
            while time.monotonic() < deadline:
                x = ComplexTensor([1.0, 2.0])
                with GradTape():
                    try:
                        parallel(lambda: ops.scale(x, 2.0), lambda: ops.scale(x, 3.0))
                        missed += 1
                    except TapeError:
                        pass
                rounds += 1
        finally:
            sys.setswitchinterval(interval)
        assert rounds > 1000 and missed == 0

    def test_lanes_do_not_nest(self):
        with pytest.raises(TapeError, match="nest"):
            parallel(lambda: parallel(lambda: None), lambda: None)

    @pytest.mark.parametrize("failing", [0, 1])
    def test_error_waits_for_the_other_lane(self, failing):
        finished = threading.Event()

        def slow():
            time.sleep(0.05)
            finished.set()
            return ops.scale(ComplexTensor([1.0]), 2.0)

        def fail():
            raise ValueError("lane failed")

        thunks = [slow, slow]
        thunks[failing] = fail
        with GradTape():
            with pytest.raises(ValueError, match="lane failed"):
                parallel(*thunks)
            assert finished.is_set()
        # the worker and the lane state are clean for the next step
        tape, loss, leaves = self.step(2, lanes=True)
        ref_tape, ref_loss, ref_leaves = self.step(2, lanes=False)
        got, want = tape.backward(loss), ref_tape.backward(ref_loss)
        for leaf, ref_leaf in zip(leaves, ref_leaves):
            assert np.array_equal(got[leaf].re, want[ref_leaf].re)

    def test_without_tape_returns_results_in_order(self):
        assert parallel(lambda: 1, lambda: 2, lambda: 3) == [1, 2, 3]


class TestBackwardContract:
    """Every backward call gets two dense planes and returns a dense pair per input."""

    def test_train_steps_pass_dense_plane_pairs(self, monkeypatch):
        calls = []
        record = GradTape.record

        def checked_record(tape, op, output, inputs, backward_fn):
            def checked(gre, gim):
                contribs = backward_fn(gre, gim)
                calls.append((op, output.shape, [t.shape for t in inputs], gre, gim, contribs))
                return contribs
            record(tape, op, output, inputs, checked)

        monkeypatch.setattr(GradTape, "record", checked_record)
        rng = np.random.default_rng(0)
        config = toy_branch_config()
        x_iq = rand_ct(rng, (2, 1) + config.input_hw)
        x_fft = rand_ct(rng, (2, 1) + config.input_hw)
        targets = np.eye(2)
        fusenet = init_fusenet(config, 2, rng, embed_dim=8, heads=2)
        baseline = init_baseline(config, 2, rng)
        steps = (
            (fusenet, lambda: fusenet_logits_batch(x_iq, x_fft, fusenet, "train")),
            (baseline, lambda: baseline_logits(x_fft, baseline, "train")),
        )
        for model, logits in steps:
            with GradTape() as tape:
                for _, t in model.parameters():
                    tape.watch(t)
                tape.backward(ops.cross_entropy_logits(logits(), targets))

        assert {"cross_entropy_logits", "add_row", "matmul", "bmm", "softmax_last", "scale",
                "cconv2d", "cbatchnorm_train"} <= {c[0] for c in calls}
        for op, out_shape, in_shapes, gre, gim, contribs in calls:
            assert type(gre) is np.ndarray and type(gim) is np.ndarray, op
            assert gre.shape == gim.shape == out_shape, op
            assert len(contribs) == len(in_shapes), op
            for shape, (dre, dim) in zip(in_shapes, contribs):
                assert type(dre) is np.ndarray and type(dim) is np.ndarray, op
                assert dre.shape == dim.shape == shape, op
