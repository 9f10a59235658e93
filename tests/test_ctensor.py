"""Tensor construction, elementwise contracts, and tape backward behavior."""

import os
import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from cvradar.cnn import baseline_logits, init_baseline
from cvradar.ctensor import ComplexTensor, GradTape, ShapeError, TapeError, ops, parallel, tape
from cvradar.ctensor.tensor import _wrap
from cvradar.fusion import fusenet_logits_batch, init_fusenet
from cvradar.traincli.checks import toy_branch_config, toy_fusenet_instance


def rand_ct(rng, shape, scale=1.0):
    return ComplexTensor(scale * rng.standard_normal(shape), scale * rng.standard_normal(shape))


def abs2_seed(t):
    """The cotangent of sum |t|^2: 2t."""
    return ComplexTensor(2 * t.re, 2 * t.im)


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


class TestKeys:
    """A tensor's key is a serial number set when it is built and never reused."""

    def test_built_tensors_and_op_outputs_get_distinct_keys(self):
        x = ComplexTensor([1.0, 2.0], [0.5, -1.0])
        y = ops.scale(x, 2.0)
        rebuilt = ComplexTensor(x.re, x.im)  # the same planes, a new tensor
        keys = [t.key for t in (x, y, ops.add(x, y), rebuilt)]
        assert all(type(k) is int for k in keys) and len(set(keys)) == len(keys)

    def test_watched_on_two_tapes_keeps_one_key(self):
        x = ComplexTensor([1.0, 2.0], [0.5, -1.0])
        key = x.key
        for factor in (2.0, 3.0):
            with GradTape() as tape:
                tape.watch(x)
                y = ops.scale(x, factor)
            g = tape.backward(y, ComplexTensor(np.ones(2)))[x]
            assert x.key == key and np.array_equal(g.re, np.full(2, factor))

    def test_lanes_building_at_once_get_distinct_keys(self, two_cores):
        both = threading.Barrier(2)

        def build():
            both.wait(timeout=10)
            return [ComplexTensor(1.0).key for _ in range(20000)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            a, b = parallel(build, build)
        finally:
            sys.setswitchinterval(interval)
        assert min(b) < max(a) and min(a) < max(b)  # the lanes did build at once
        assert len(set(a) | set(b)) == len(a) + len(b)


class TestElementwise:
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


class TestBackward:
    def test_sum_of_re_gradient(self):
        rng = np.random.default_rng(3)
        x = rand_ct(rng, (2, 3))
        with GradTape() as tape:
            tape.watch(x)
            y = ops.reshape(x, (6,))
        g = tape.backward(y, ComplexTensor(np.ones(6), np.zeros(6)))[x]
        assert np.array_equal(g.re, np.ones((2, 3)))
        assert np.array_equal(g.im, np.zeros((2, 3)))

    def test_abs2_gradient(self):
        # |jz|^2 = |z|^2: the seed 2y passes back through scale's adjoint as 2z
        z = ComplexTensor(3.0, 4.0)
        with GradTape() as tape:
            tape.watch(z)
            y = ops.scale(z, 1j)
        g = tape.backward(y, abs2_seed(y))[z]
        assert float(g.re) == pytest.approx(6.0, abs=1e-12)
        assert float(g.im) == pytest.approx(8.0, abs=1e-12)

    def test_gradient_shapes_match_leaves(self):
        """backward gives each leaf a read-only ComplexTensor of its shape."""
        rng = np.random.default_rng(5)
        x = rand_ct(rng, (2, 3, 4))
        w = rand_ct(rng, (4,))
        with GradTape() as tape:
            tape.watch(x)
            tape.watch(w)
            y = ops.bmm(x, ops.reshape(ops.concat([w] * 2, 0), (2, 4, 1)))
        grads = tape.backward(y, abs2_seed(y))
        assert grads[x].shape == (2, 3, 4)
        assert grads[w].shape == (4,)
        for g in grads.values():
            assert type(g) is ComplexTensor
            with pytest.raises(ValueError):
                g.re[0] = 1.0

    def test_unused_leaf_gets_zeros(self):
        x = ComplexTensor([1.0, 2.0])
        unused = ComplexTensor([5.0])
        with GradTape() as tape:
            tape.watch(x)
            tape.watch(unused)
            y = ops.scale(x, 1.0)
        g = tape.backward(y, ComplexTensor(np.ones(2)))[unused]
        assert np.array_equal(g.re, np.zeros(1))
        assert np.array_equal(g.im, np.zeros(1))

    def test_repeated_backward_bit_identical(self):
        rng = np.random.default_rng(9)
        x = rand_ct(rng, (4, 4))
        y = rand_ct(rng, (4, 4))
        with GradTape() as tape:
            tape.watch(x)
            tape.watch(y)
            out = ops.matmul(ops.crelu(x), y)
        g1 = tape.backward(out, abs2_seed(out))
        g2 = tape.backward(out, abs2_seed(out))
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
            ones = ComplexTensor(np.ones(x.shape))
            start, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            g1 = tape.backward(chain[-1], ones)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start <= 8 * mib, f"backward peak {(peak - start) / mib:.1f} MiB"
        assert np.array_equal(g1[mid].re, np.full(x.shape, 0.5**20))
        assert np.array_equal(g1[mid].im, np.zeros(x.shape))
        assert np.array_equal(g1[x].re, np.full(x.shape, 0.5**40))
        g2 = tape.backward(chain[-1], ones)
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
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held - start <= 8 * mib, f"forward holds {(held - start) / mib:.1f} MiB"
        g = tape.backward(h, ComplexTensor(np.ones(x.shape)))[x]
        assert np.array_equal(g.re, np.full(x.shape, 0.5**40))
        assert np.array_equal(g.im, np.zeros(x.shape))

    def test_stage_closures_do_not_keep_tensors(self):
        """conv -> batch norm -> crelu -> mean: no intermediate outlives its last reference,
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
                out = ops.mean_axis(act, 0)
            refs = [weakref.ref(t) for t in (conv, bn, act)]
            if keep is not None:
                keep.extend((conv, bn, act))
            del conv, bn, act
            return tape.backward(out, abs2_seed(out)), [r() is not None for r in refs]

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
            ref = weakref.ref(x)
            del x
            return tape.backward(out, abs2_seed(out)), ref() is None

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
            ref = weakref.ref(x)
            if keep is not None:
                keep.append(x)
            del x
            return tape.backward(out, abs2_seed(out)), ref() is None

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
            return tape.backward(out, abs2_seed(out))[x]

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
            total = ops.scale(chain[-1], 1.0)
            refs = [weakref.ref(t) for t in chain[1:]]
            freed = {id(t) for t in chain[1:]}
            del chain
            assert all(r() is None for r in refs)
            constants = []
            while len(constants) < 10000:
                constants.append(ComplexTensor([3.0, 3.0]))
                if id(constants[-1]) in freed:
                    break
            assert id(constants[-1]) in freed, "no constant landed on a freed address"
            out = ops.add(total, constants[-1])
        g = tape.backward(out, ComplexTensor(np.ones(2)))[x]
        assert np.array_equal(g.re, np.full(2, 0.5**50))
        assert np.array_equal(g.im, np.zeros(2))

    def test_watch_after_use(self):
        x = ComplexTensor([1.0, 2.0], [0.5, -1.0])
        with GradTape() as tape:
            y = ops.scale(x, 3.0)
            tape.watch(x)
        g = tape.backward(y, ComplexTensor(np.ones(2)))[x]
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
        x = ComplexTensor([1.0, 2.0], [1.0, 1.0])
        with GradTape() as tape:
            tape.watch(x)
            loss = ops.mean_axis(x, 0)
        with pytest.raises(TapeError, match="real"):
            tape.backward(loss)

    def test_unit_cotangent_matches_the_default_seed(self):
        """An explicit (1, 0) cotangent gives the toy fusenet loss's gradients bit for bit."""
        model, x, big_x, target = toy_fusenet_instance()

        def grads(*cotangent):
            with GradTape() as tape:
                for _, t in model.parameters():
                    tape.watch(t)
                logits = fusenet_logits_batch(x, big_x, model, "eval")
                loss = ops.cross_entropy_logits(logits, target)
            return list(tape.backward(loss, *cotangent).values())

        default, seeded = grads(), grads(ComplexTensor(1.0, 0.0))
        assert len(default) == len(seeded) == len(model.parameters())
        for a, b in zip(default, seeded):
            assert same_bits(a, b)

    def test_cotangent_shape_must_match(self):
        x = ComplexTensor([1.0, 2.0])
        with GradTape() as tape:
            tape.watch(x)
            out = ops.scale(x, 2.0)
        with pytest.raises(ShapeError, match=r"cotangent shape \(3,\) .* output shape \(2,\)"):
            tape.backward(out, ComplexTensor([1.0, 2.0, 3.0]))

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

    @pytest.fixture(autouse=True)
    def second_core(self, two_cores):
        return two_cores

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
            out = ops.concat([ya, ops.scale(yb, 0.5j)], 0)
        return tape, out, a + b

    def test_lanes_match_in_order_recording(self):
        tape, out, leaves = self.step(1, lanes=True)
        ref_tape, ref_out, ref_leaves = self.step(1, lanes=False)
        assert len(tape) == len(ref_tape)
        assert np.array_equal(out.re, ref_out.re)
        seed = abs2_seed(out)
        g1, g2 = tape.backward(out, seed), tape.backward(out, seed)
        ref = ref_tape.backward(ref_out, abs2_seed(ref_out))
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
        tape, out, leaves = self.step(2, lanes=True)
        ref_tape, ref_out, ref_leaves = self.step(2, lanes=False)
        got = tape.backward(out, abs2_seed(out))
        want = ref_tape.backward(ref_out, abs2_seed(ref_out))
        for leaf, ref_leaf in zip(leaves, ref_leaves):
            assert np.array_equal(got[leaf].re, want[ref_leaf].re)

    def test_worker_passes_back_a_base_exception_and_serves_on(self, lane_submissions):
        """A BaseException raised on the worker reaches the caller, as an executor's
        future gave it, and the same worker thread runs the next job. A hang
        fails here instead of stalling the suite."""
        class Halt(BaseException):
            pass

        def halt():
            raise Halt

        got = []

        def calls():
            try:
                parallel(threading.current_thread, halt)
            except Halt as e:
                got.append(e)
            got.append(parallel(threading.current_thread, threading.current_thread))

        caller = threading.Thread(target=calls, daemon=True)
        caller.start()
        caller.join(timeout=10)
        assert not caller.is_alive(), "the lane worker stopped serving"
        halted, (here, worker) = got
        assert isinstance(halted, Halt)
        assert here is caller and worker.name == "test-lane"
        assert len(lane_submissions) == 2

    def test_worker_lets_go_of_a_job_before_it_replies(self):
        """What a job's closure holds (an op's buffers) is freed once the caller is
        done with it, not kept until the worker's next job."""
        held = np.ones(4)
        gone = weakref.ref(held)
        first, second = parallel(threading.current_thread,
                                 lambda held=held: threading.current_thread())
        del held
        assert first is not second
        assert gone() is None

    def test_lanes_run_without_sched_getaffinity(self, monkeypatch):
        """Windows and macOS lack os.sched_getaffinity; there the CPU count decides."""
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        first, second = parallel(threading.current_thread, threading.current_thread)
        assert first is not second
        tape, out, leaves = self.step(3, lanes=True)
        ref_tape, ref_out, ref_leaves = self.step(3, lanes=False)
        got = tape.backward(out, abs2_seed(out))
        want = ref_tape.backward(ref_out, abs2_seed(ref_out))
        for leaf, ref_leaf in zip(leaves, ref_leaves):
            assert np.array_equal(got[leaf].re, want[ref_leaf].re)
            assert np.array_equal(got[leaf].im, want[ref_leaf].im)

    def test_without_tape_returns_results_in_order(self):
        assert parallel(lambda: 1, lambda: 2, lambda: 3) == [1, 2, 3]

    @pytest.mark.parametrize("blas_threads, concurrent", [(1, True), (2, False), (0, False)])
    def test_lanes_only_with_one_blas_thread(self, second_core, blas_threads, concurrent):
        """BLAS threads of its own hold the cores, and 0 (count unreadable) runs in order."""
        second_core(blas_threads)
        first, second = parallel(threading.current_thread, threading.current_thread)
        assert (first is not second) == concurrent

    def test_lanes_in_order_on_one_cpu(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        first, second = parallel(threading.current_thread, threading.current_thread)
        assert first is second

    def test_worker_keeps_the_callers_errstate(self):
        """numpy's errstate lives in a context variable; the worker runs in a copy."""
        def overflow_rule():
            return threading.current_thread(), np.geterr()["over"]

        with np.errstate(over="ignore"):
            (first, a), (second, b) = parallel(overflow_rule, overflow_rule)
        assert first is not second
        assert a == b == "ignore"


def same_bits(a, b):
    return all(np.array_equal(p.view(np.uint64), q.view(np.uint64))
               for p, q in ((a.re, b.re), (a.im, b.im)))


class TestRowSplit:
    """A conv span of one sample above CHUNK_BYTES runs its forward as two halves
    of its output rows, and a cbatchnorm_eval input above it as two halves of its
    channels; off the tape, with a second core, the second half runs on the lane
    worker."""

    @pytest.fixture(autouse=True)
    def second_core(self, monkeypatch, two_cores):
        monkeypatch.setattr(tape, "CHUNK_BYTES", 64)  # so that these small inputs split
        return two_cores

    @staticmethod
    def norm(y, gate):
        c = y.shape[1]
        rng = np.random.default_rng(11)
        gamma, beta, mean = (rand_ct(rng, (c,)) for _ in range(3))
        var = ComplexTensor(rng.random(c) + 0.5, rng.random(c) + 0.5)
        return ops.cbatchnorm_eval(y, gamma, beta, mean, var, gate=gate)

    def stage(self, x, k, stride=(1, 1), bias=None, gate=True):
        y = ops.cconv2d(x, k, bias, stride)
        return y, self.norm(y, gate)

    @pytest.mark.parametrize("x_shape, k_shape, stride", [
        ((1, 2, 9, 8), (3, 2, 1, 3), (1, 1)),  # Ho = 9, odd
        ((1, 2, 10, 9), (4, 2, 3, 2), (1, 2)),  # kh = 3
        ((1, 1, 12, 7), (2, 1, 3, 3), (2, 1)),  # sh = 2, kh = 3, Ho = 5
        ((1, 3, 11, 6), (2, 3, 2, 1), (3, 2)),  # sh = 3, Ho = 4
    ])
    @pytest.mark.parametrize("bias", [False, True])
    @pytest.mark.parametrize("gate", [False, True])
    def test_split_matches_in_order(self, monkeypatch, second_core, lane_submissions, x_shape,
                                    k_shape, stride, bias, gate):
        rng = np.random.default_rng(7)
        x, k = rand_ct(rng, x_shape), rand_ct(rng, k_shape)
        b = rand_ct(rng, k_shape[:1]) if bias else None
        split = self.stage(x, k, stride, b, gate)
        assert len(lane_submissions) == 2  # one half per op
        second_core(2)
        in_order = self.stage(x, k, stride, b, gate)
        assert len(lane_submissions) == 2
        for got, want in zip(split, in_order):
            assert same_bits(got, want)
        # against one GEMM, and one batch-norm pass over the same input
        monkeypatch.setattr(tape, "CHUNK_BYTES", 3 << 19)
        whole = ops.cconv2d(x, k, b, stride)
        np.testing.assert_allclose(split[0].to_complex(), whole.to_complex(), rtol=1e-13,
                                   atol=1e-13)
        assert same_bits(split[1], self.norm(split[0], gate))
        assert len(lane_submissions) == 2

    def test_half_reads_only_its_input_rows(self):
        """Output rows [a, e) come from input rows [a*sh, (e-1)*sh + kh) alone."""
        rng = np.random.default_rng(9)
        kh, kw, sh, sw, ho, wo = 3, 2, 2, 1, 7, 5
        planes = rng.standard_normal((2, 1, 2, 15, 6))
        full = np.empty((1, 2, 2, kh, kw, ho, wo))
        ops._fill_cols(full, *planes, sh, sw, 0, ho)
        for a, e in ((0, 3), (3, 7), (2, 5)):
            rows = slice(a * sh, (e - 1) * sh + kh)
            poisoned = np.full_like(planes, np.nan)
            poisoned[:, :, :, rows] = planes[:, :, :, rows]
            cols = np.full(full.shape, np.nan)
            ops._fill_cols(cols, *poisoned, sh, sw, a, e)
            assert np.array_equal(cols[..., a:e, :], full[..., a:e, :])
            assert np.isnan(np.delete(cols, np.s_[a:e], axis=5)).all()

    def test_rule(self, monkeypatch, second_core):
        assert tape._second_core()
        # never from a lane, on the calling thread or on the worker
        assert parallel(tape._second_core, tape._second_core) == [False, False]
        for blas_threads in (2, 0):
            second_core(blas_threads)
            assert not tape._second_core()
        second_core(1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert not tape._second_core()

    def test_no_split_under_a_tape_in_a_lane_or_for_a_batch(self, monkeypatch, lane_submissions):
        """Under a tape and in a lane nothing splits. A batch splits by spans: one
        span of at most CHUNK_BYTES runs whole, and each span of one sample above
        it splits its rows."""
        rng = np.random.default_rng(10)
        k = rand_ct(rng, (2, 1, 1, 3))
        with GradTape():
            self.stage(rand_ct(rng, (1, 1, 6, 5)), k)
        assert lane_submissions == []
        parallel(lambda: self.stage(rand_ct(rng, (1, 1, 6, 5)), k), lambda: None)
        assert len(lane_submissions) == 1  # the lane itself
        x, sample_bytes = rand_ct(rng, (2, 1, 6, 5)), ops.conv_sample_bytes(1, 2, 1, 3, 6, 3)
        monkeypatch.setattr(tape, "CHUNK_BYTES", 2 * sample_bytes)
        ops.cconv2d(x, k)
        assert len(lane_submissions) == 1
        monkeypatch.setattr(tape, "CHUNK_BYTES", sample_bytes - 1)
        ops.cconv2d(x, k)
        assert len(lane_submissions) == 3  # one row half per span

    @pytest.mark.parametrize("blas_threads, cpus", [(2, {0, 1}), (1, {0})])
    def test_no_split_without_a_free_core(self, monkeypatch, second_core, lane_submissions,
                                          blas_threads, cpus):
        second_core(blas_threads)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        rng = np.random.default_rng(12)
        self.stage(rand_ct(rng, (1, 1, 6, 5)), rand_ct(rng, (2, 1, 1, 3)))
        assert lane_submissions == []


class TestColumnBuffer:
    """Off the tape cconv2d fills one grow-only column buffer per thread; under a
    tape it fills a fresh one and drops that thread's reusable buffer."""

    @pytest.fixture(autouse=True)
    def no_buffer(self, monkeypatch):
        monkeypatch.setattr(ops._COLS, "flat", None)

    @staticmethod
    def conv_pair(rng, x_shape, k_shape, dtype=np.float64):
        x, k = rand_ct(rng, x_shape), rand_ct(rng, k_shape)
        if dtype != np.float64:
            x, k = (_wrap(t.re.astype(dtype), t.im.astype(dtype)) for t in (x, k))
        return x, k

    def test_unrecorded_calls_reuse_one_buffer(self):
        """A larger then a smaller call leave one buffer, the same object, and each
        output equals the same call under a tape, bit for bit."""
        rng = np.random.default_rng(30)
        calls = [self.conv_pair(rng, (3, 2, 9, 8), (4, 2, 3, 2)),
                 self.conv_pair(rng, (2, 1, 6, 5), (2, 1, 1, 3))]
        outs, held = [], []
        for x, k in calls:
            outs.append(ops.cconv2d(x, k))
            held.append(ops._COLS.flat)
        assert held[0] is not None and held[1] is held[0]
        assert held[0].size == 3 * 2 * 2 * 3 * 2 * 7 * 7  # the larger call's columns
        for (x, k), out in zip(calls, outs):
            with GradTape():
                assert same_bits(ops.cconv2d(x, k), out)

    def test_recorded_call_drops_the_buffer(self):
        rng = np.random.default_rng(31)
        x, k = self.conv_pair(rng, (2, 1, 6, 5), (2, 1, 1, 3))
        ops.cconv2d(x, k)
        ref = weakref.ref(ops._COLS.flat)
        with GradTape():
            ops.cconv2d(x, k)
        assert ref() is None
        assert ops._COLS.flat is None

    def test_recorded_columns_survive_an_unrecorded_call(self):
        """A one-span conv keeps its columns for the backward; an unrecorded conv of
        the same shape between its forward and backward changes no gradient."""
        def grads(interleave):
            rng = np.random.default_rng(32)
            x, k = self.conv_pair(rng, (2, 2, 7, 6), (3, 2, 2, 3))
            with GradTape() as t:
                t.watch(x)
                t.watch(k)
                y = ops.cconv2d(x, k)
            if interleave:
                ops.cconv2d(*self.conv_pair(rng, (2, 2, 7, 6), (3, 2, 2, 3)))
            g = t.backward(y, abs2_seed(y))
            return g[x], g[k]

        for got, want in zip(grads(True), grads(False)):
            assert same_bits(got, want)

    def test_lanes_use_a_buffer_per_thread(self, monkeypatch, two_cores, lane_submissions):
        """An off-tape eval batch above chunk_size runs one branch on the worker, each
        thread with a buffer of its own, and gives the in-order run's logits."""
        model, x, big_x, _ = toy_fusenet_instance()
        monkeypatch.setattr(tape, "CHUNK_BYTES", 64)  # chunk_size 1: two samples run lanes
        x_iq = ComplexTensor(np.concatenate([x.re, big_x.re]), np.concatenate([x.im, big_x.im]))
        x_fft = ComplexTensor(x_iq.im, x_iq.re)
        lanes = fusenet_logits_batch(x_iq, x_fft, model, "eval")
        assert len(lane_submissions) == 1
        caller, worker = parallel(lambda: ops._COLS.flat, lambda: ops._COLS.flat)
        assert caller is not None and worker is not None and caller is not worker
        two_cores(2)  # in order
        assert same_bits(fusenet_logits_batch(x_iq, x_fft, model, "eval"), lanes)

    def test_another_dtype_gets_a_fresh_buffer(self):
        rng = np.random.default_rng(33)
        ops.cconv2d(*self.conv_pair(rng, (2, 1, 6, 5), (2, 1, 1, 3)))
        wide = ops._COLS.flat
        x, k = self.conv_pair(rng, (1, 1, 6, 5), (2, 1, 1, 3), np.float32)
        out = ops.cconv2d(x, k)
        assert ops._COLS.flat is not wide and ops._COLS.flat.dtype == np.float32
        assert out.dtype == np.float32
        with GradTape():
            want = ops.cconv2d(x, k)
        assert np.array_equal(out.re, want.re) and np.array_equal(out.im, want.im)


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
