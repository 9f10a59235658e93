"""Outside-in instrumentation of the cvradar package.

Two layers of wrappers, both installed by patching names in the modules that
look them up; no package file is touched.

* Probes (always on): one timestamp per optimizer step, one per epoch start,
  and the boundaries of every evaluation call and eval sample. They feed the
  end-to-end metrics.
* Tracer (``--trace 1`` only): spans (name, start, end, parent) around the
  public functions of dsp, ctensor, cnn, fusion and traincli, per-op backward
  spans through ``GradTape.record``, and tape counters. Spans stay in memory
  until the run ends.
"""

import importlib
import os
from array import array
from time import perf_counter

import numpy as np

# The 19 tape ops: ops-module function name -> op name the tape records.
TAPE_OPS = {
    "cconv2d": "cconv2d",
    "cbatchnorm_train": "cbatchnorm_train",
    "cbatchnorm_eval": "cbatchnorm_eval",
    "crelu": "crelu",
    "cavgpool_last": "cavgpool",
    "mean_axis": "mean_axis",
    "matmul": "matmul",
    "bmm": "bmm",
    "softmax_last": "softmax_last",
    "cross_entropy_logits": "cross_entropy_logits",
    "reshape": "reshape",
    "permute": "permute",
    "index0": "index0",
    "concat": "concat",
    "add": "add",
    "scale": "scale",
    "add_row": "add_row",
    "tokens_from_complex": "tokens_from_complex",
    "flatten_parts": "flatten_parts",
}

# (module, attribute, span name): every call site the tracer times.
TRACED_CALLS = (
    ("cvradar.traincli.train", "adam_step", "traincli.adam"),
    ("cvradar.traincli.train", "evaluate_pairs", "traincli.epoch_eval"),
    ("cvradar.traincli.train", "save_checkpoint", "traincli.checkpoint"),
    ("cvradar.traincli.train", "load_pairs", "traincli.load_pairs"),
    ("cvradar.traincli.cli", "load_pairs", "traincli.load_pairs"),
    ("cvradar.traincli.cli", "load_checkpoint", "traincli.load_checkpoint"),
    ("cvradar.traincli.cli", "evaluate_pairs", "traincli.eval"),
    ("cvradar.traincli.train", "fusenet_logits_batch", "fusion.forward_batch"),
    ("cvradar.traincli.train", "cross_entropy_from_logits", "fusion.loss"),
    ("cvradar.fusion.model", "bidirectional_fuse", "fusion.attention"),
    ("cvradar.fusion.model", "classify", "fusion.head"),
    ("cvradar.traincli.metrics", "fusenet_forward", "fusion.forward"),
    ("cvradar.fusion.model", "branch_forward", "cnn.branch_forward"),
    ("cvradar.cnn.branch", "branch_forward", "cnn.branch_forward"),
    ("cvradar.traincli.cli", "synth_fmcw_cube", "dsp.synth"),
    ("cvradar.traincli.pipeline", "fft3d_array", "dsp.fft3d"),
    ("cvradar.traincli.cli", "write_rfc1", "dsp.write_rfc1"),
    ("cvradar.traincli.pipeline", "write_rfc1", "dsp.write_rfc1"),
    ("cvradar.dsp.dataset", "read_rfc1", "dsp.read_rfc1"),
    ("cvradar.traincli.pipeline", "read_rfc1", "dsp.read_rfc1"),
)

# Stages a training step is made of (forward, loss, backward, Adam); their
# share of the step is the coverage. The forward holds both branches,
# attention and head.
STEP_STAGES = ("fusion.forward_batch", "fusion.loss", "ctensor.backward", "traincli.adam")
# Stages one eval sample is made of.
SAMPLE_STAGES = ("cnn.branch_forward", "fusion.attention", "fusion.head")

# Span names whose first argument is the path of a file they write.
_WRITES = {"traincli.checkpoint": "traincli.checkpoint_bytes", "dsp.write_rfc1": "dsp.write_rfc1_bytes"}


def _patch(module, attr, make):
    mod = importlib.import_module(module)
    setattr(mod, attr, make(getattr(mod, attr)))


class Probes:
    """Timestamps the end-to-end metrics need, and the eval reports to check."""

    def __init__(self):
        self.steps = []  # (start, end) of each optimizer step
        self.sample_times = []  # duration of each single-sample forward in an eval
        self.evals = []  # (start, end, samples submitted, report)
        self._step_start = None

    def install(self):
        _patch("cvradar.traincli.train", "adam_step", self._adam)
        _patch("cvradar.traincli.train", "epoch_batches", self._epoch)
        _patch("cvradar.traincli.train", "evaluate_pairs", self._evaluate)
        _patch("cvradar.traincli.cli", "evaluate_pairs", self._evaluate)
        _patch("cvradar.traincli.metrics", "fusenet_forward", self._forward)

    def _adam(self, fn):
        # A step ends when adam_step returns and starts when the previous one
        # returned, or, for an epoch's first step, when its batches were drawn;
        # so no step carries the previous epoch's eval and checkpoint.
        def adam_step(*args, **kwargs):
            out = fn(*args, **kwargs)
            end = perf_counter()
            self.steps.append((self._step_start, end))
            self._step_start = end
            return out

        return adam_step

    def _epoch(self, fn):
        def epoch_batches(*args, **kwargs):
            out = fn(*args, **kwargs)
            self._step_start = perf_counter()
            return out

        return epoch_batches

    def _evaluate(self, fn):
        def evaluate_pairs(model, kind, pairs, *args, **kwargs):
            t0 = perf_counter()
            report = fn(model, kind, pairs, *args, **kwargs)
            self.evals.append((t0, perf_counter(), len(pairs), report))
            return report

        return evaluate_pairs

    def _forward(self, fn):
        def fusenet_forward(*args, **kwargs):
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            self.sample_times.append(perf_counter() - t0)
            return out

        return fusenet_forward


def _conv_flop(x_shape, k_shape, stride):
    """Real flops of one cconv2d forward: 4 real GEMMs, 2 flops per MAC each."""
    b, _, h, w = x_shape
    cout, cin, kh, kw = k_shape
    ho = (h - kh) // stride[0] + 1
    wo = (w - kw) // stride[1] + 1
    return 8 * b * cout * ho * wo * cin * kh * kw


class Tracer:
    """In-memory span recorder plus the tape counters."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self._stack = []
        self.counts = {}

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, fn, name, on_call=None):
        nid = self._id(name)
        written = _WRITES.get(name)
        start, end, names, parent, stack = self.start, self.end, self.name, self.parent, self._stack

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            idx = len(start)
            names.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
                if written is not None:
                    self.count(written, os.path.getsize(args[0]))

        return traced

    def install(self):
        from cvradar.ctensor import ops, tape

        for module, attr, name in TRACED_CALLS:
            _patch(module, attr, lambda fn, name=name: self.wrap(fn, name))

        for fname, op in TAPE_OPS.items():
            wrapped = self.wrap(getattr(ops, fname), f"ctensor.fwd.{op}", on_call=self._on_op(op))
            setattr(ops, fname, wrapped)

        grad_tape = tape.GradTape
        grad_tape.backward = self.wrap(grad_tape.backward, "ctensor.backward")
        original_record = grad_tape.record

        def record(tape_self, op, output, inputs, backward_fn):
            self.count("tape_nodes")
            self.count("tape_bytes", output.re.nbytes + output.im.nbytes)
            timed = self._backward(op, output, inputs, backward_fn)
            return original_record(tape_self, op, output, inputs, timed)

        grad_tape.record = record

    def _on_op(self, op):
        key = "calls." + op
        if op != "cconv2d":
            return lambda args, kwargs: self.count(key)

        def on_conv(args, kwargs):
            self.count(key)
            stride = kwargs.get("stride", args[3] if len(args) > 3 else (1, 1))
            self.count("cconv2d_flop", _conv_flop(args[0].shape, args[1].shape, stride))

        return on_conv

    def _backward(self, op, output, inputs, backward_fn):
        timed = self.wrap(backward_fn, f"ctensor.bwd.{op}")
        # The kernel and input gradients each cost one forward's worth of flops.
        flop = 0
        if op == "cconv2d":
            b, cout, ho, wo = output.shape
            _, cin, kh, kw = inputs[1].shape
            flop = 2 * 8 * b * cout * ho * wo * cin * kh * kw

        def counted_backward(gre, gim):
            self.count("backward_calls")
            if flop:
                self.count("cconv2d_flop", flop)
            return timed(gre, gim)

        return counted_backward

    # -- analysis ---------------------------------------------------------

    def arrays(self):
        return (
            np.frombuffer(self.name, dtype=np.int32).copy(),
            np.frombuffer(self.start, dtype=np.float64).copy(),
            np.frombuffer(self.end, dtype=np.float64).copy(),
            np.frombuffer(self.parent, dtype=np.int32).copy(),
        )

    def totals(self):
        """name -> (inclusive seconds, self seconds)."""
        name, start, end, parent = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - children
        n = len(self.names)
        incl = np.bincount(name, weights=dur, minlength=n)
        excl = np.bincount(name, weights=self_time, minlength=n)
        return {self.names[i]: (float(incl[i]), float(excl[i])) for i in range(n)}

    def coverage(self, intervals, stages):
        """Share of the given intervals spent inside the named stage spans."""
        if not intervals:
            return 0.0
        name, start, end, _ = self.arrays()
        ids = [self._ids[s] for s in stages if s in self._ids]
        mask = np.isin(name, ids)
        s, e = start[mask], end[mask]
        order = np.argsort(s)
        s, e = s[order], e[order]
        covered = 0.0
        total = 0.0
        for t0, t1 in intervals:
            lo = np.searchsorted(s, t0, side="left")
            hi = np.searchsorted(s, t1, side="right")
            covered += float(np.clip(np.minimum(e[lo:hi], t1) - s[lo:hi], 0.0, None).sum())
            total += t1 - t0
        return covered / total

    def save(self, path):
        name, start, end, parent = self.arrays()
        np.savez_compressed(
            path, names=np.array(self.names), name=name, start=start, end=end, parent=parent
        )


def per_layer(tracer, units, cubes, unit_intervals, unit_stages):
    """Per-layer metrics of one traced child.

    dsp metrics are per cube; the others per unit of work (a step, or an
    eval sample). On the train workloads both divisors are the step count.
    """
    totals = tracer.totals()
    counts = tracer.counts

    def incl(span, per=units):
        return totals.get(span, (0.0, 0.0))[0] / per

    def own(span):
        return totals.get(span, (0.0, 0.0))[1] / units

    out = {}
    for op in TAPE_OPS.values():
        out[f"ctensor.fwd.{op}_s"] = own(f"ctensor.fwd.{op}")
        out[f"ctensor.bwd.{op}_s"] = own(f"ctensor.bwd.{op}")
        out[f"ctensor.calls.{op}"] = counts.get("calls." + op, 0) / units
    nodes = counts.get("tape_nodes", 0)
    conv_time = incl("ctensor.fwd.cconv2d") + incl("ctensor.bwd.cconv2d")
    conv_gflop = counts.get("cconv2d_flop", 0) / 1e9 / units
    out.update(
        {
            "ctensor.backward_s": incl("ctensor.backward"),
            "ctensor.tape_nodes_per_step": nodes / units,
            "ctensor.tape_mb_per_step": counts.get("tape_bytes", 0) / 2**20 / units,
            "ctensor.backward_useful_ratio": counts.get("backward_calls", 0) / nodes if nodes else 0.0,
            "ctensor.cconv2d_gflop_per_step": conv_gflop,
            "ctensor.cconv2d_gflops": conv_gflop / conv_time if conv_time else 0.0,
            "cnn.branch_forward_s": incl("cnn.branch_forward"),
            "fusion.attention_s": incl("fusion.attention"),
            "fusion.head_s": incl("fusion.head"),
            "fusion.loss_s": incl("fusion.loss"),
            "traincli.adam_s": incl("traincli.adam"),
            "traincli.epoch_eval_s": incl("traincli.epoch_eval"),
            "traincli.checkpoint_s": incl("traincli.checkpoint"),
            "traincli.checkpoint_bytes": counts.get("traincli.checkpoint_bytes", 0) / units,
            "traincli.load_pairs_s": incl("traincli.load_pairs"),
            "traincli.load_checkpoint_s": incl("traincli.load_checkpoint"),
            "traincli.step_coverage": tracer.coverage(unit_intervals, unit_stages),
            "dsp.synth_s": incl("dsp.synth", cubes),
            "dsp.fft3d_s": incl("dsp.fft3d", cubes),
            "dsp.write_rfc1_s": incl("dsp.write_rfc1", cubes),
            "dsp.write_rfc1_bytes": counts.get("dsp.write_rfc1_bytes", 0) / cubes,
            "dsp.read_rfc1_s": incl("dsp.read_rfc1", cubes),
        }
    )
    return out
