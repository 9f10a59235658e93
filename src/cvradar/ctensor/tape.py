"""Reverse-mode gradient tape over ComplexTensor operations.

Differentiation semantics: every complex tensor is treated as an
independent pair of real tensors (re, im), and standard real reverse-mode
accumulation runs over the recorded primitives. A loss is a real scalar,
or any output with a cotangent of its shape; gradients come back as one
read-only ComplexTensor per watched leaf.

One training step builds and consumes one tape; parallel() lets threads
record into it on separate lanes. Backward is a pure function of the tape,
so repeated calls produce bit-identical gradients.

Nodes hold integer keys, not tensors: each tensor's key, the serial number
set when it was built and never reused. So the tape keeps no op's output or
input alive: an intermediate is freed as soon as its consumers have run, and
only what the recorded backward closures captured stays.
"""

import contextvars
import os
import queue
import threading
from collections import namedtuple

import numpy as np

from .tensor import ComplexTensor, ShapeError, _wrap

__all__ = ["GradTape", "TapeError", "halves", "parallel"]


class TapeError(RuntimeError):
    """Raised on tape misuse: nesting, shared lanes, non-scalar or off-tape loss."""


_Node = namedtuple("_Node", "out_key in_keys backward_fn")


_ACTIVE = None
# .nodes: the lane this thread records into; .busy: it runs a lane or a half (_outcome)
_LANE = type("_Lane", (threading.local,), {"nodes": None, "busy": False})()
_WORKER = None  # the lane worker's job queue, from _start_worker on first use
_BLAS_THREADS = None  # numpy's BLAS thread count, read on first use by _blas_threads

# the thread-count getter of the OpenBLAS that numpy's wheels bundle: numpy >= 2
# (scipy-openblas64), then numpy 1.22-1.26 (openblas64_)
_BLAS_GETTERS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_")


def active_tape():
    """The tape currently recording, or None outside any tape context."""
    return _ACTIVE


def _read_blas_threads():
    """The thread count numpy's bundled OpenBLAS reports, or 0 if none is found."""
    import ctypes
    import glob

    root = os.path.dirname(np.__file__)  # wheels bundle it in numpy.libs, or numpy/.dylibs
    for pattern in (os.path.join(root, os.pardir, "numpy.libs", "*openblas*"),
                    os.path.join(root, ".dylibs", "*openblas*")):
        for path in sorted(glob.glob(pattern)):
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            for name in _BLAS_GETTERS:
                getter = getattr(lib, name, None)
                if getter is not None:
                    getter.argtypes, getter.restype = [], ctypes.c_int
                    return getter()
    return 0


def _blas_threads():
    """_read_blas_threads, read once: nothing at import time."""
    global _BLAS_THREADS
    if _BLAS_THREADS is None:
        _BLAS_THREADS = _read_blas_threads()
    return _BLAS_THREADS


def _second_core():
    """May work go to the lane worker? Only with more than one usable CPU, from a
    thread on no lane or half (the one worker must never wait on itself), and with
    BLAS on one thread: BLAS threads of its own already hold the cores, and an
    unknown count runs in order."""
    if _LANE.busy:
        return False
    # sched_getaffinity is missing on Windows and macOS: count every CPU there
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return cpus > 1 and _blas_threads() == 1


# The most bytes a halves job runs as one call, and a cconv2d span's output plus
# im2col columns (16 bytes per complex element), so each thread's reusable
# off-tape column buffer holds at most the larger of it and one sample's columns.
# Sized for memory: eval chunks of 4 / 8 / 16 / 30 at bench geometry (194 kB per
# sample) read eval_samples_per_s 1448 / 1683 / 1589 / 1511 and peak_rss_mb 56.6 /
# 56.9 / 60.0 / 64.4 on perfbench train-bench (2 CPUs, one BLAS thread). This gives
# 8 there and 1 at paper geometry.
CHUNK_BYTES = 3 << 19  # 1.5 MiB


def _outcome(fn, lane):
    saved = _LANE.nodes, _LANE.busy
    _LANE.nodes, _LANE.busy = lane, True
    try:
        return fn(), None
    except Exception as e:
        return None, e
    finally:
        _LANE.nodes, _LANE.busy = saved


def _start_worker(jobs, name):
    """Start a daemon thread that runs the (reply, fn, *args) jobs on jobs in order
    until None, putting on reply fn(*args), or (None, e) for any e it raised."""
    def serve():
        for reply, fn, *args in iter(jobs.get, None):
            try:
                outcome = fn(*args)
            except BaseException as e:
                outcome = None, e
            del fn, args  # before replying: the job's closures may hold an op's buffers
            reply.put(outcome)
            del outcome

    threading.Thread(target=serve, name=name, daemon=True).start()
    return jobs


def _run_lanes(fns, lanes):
    """Results of fns, fn i recording into lanes[i]: the first here, the rest on one
    worker started on first use, each in a copy of the caller's context so numpy's
    errstate holds there too; all here, in order, unless _second_core allows. All
    end before an error is raised."""
    global _WORKER
    here, rest = list(zip(fns, lanes)), []
    if len(here) > 1 and _second_core():
        if _WORKER is None:
            _WORKER = _start_worker(queue.SimpleQueue(), "cvradar-lane")
        here, rest = here[:1], [(queue.SimpleQueue(), pair) for pair in here[1:]]
        for reply, pair in rest:
            _WORKER.put((reply, contextvars.copy_context().run, _outcome, *pair))
    outcomes = [_outcome(*pair) for pair in here] + [reply.get() for reply, _ in rest]
    for _, error in outcomes:
        if error is not None:
            raise error
    return [value for value, _ in outcomes]


def halves(n, fill, nbytes):
    """[fill(0, n)], or [fill(0, n // 2), fill(n // 2, n)]: one job of nbytes over n
    items, each call writing only its part of what the caller allocated.

    The one split rule: under an active tape, for fewer than two items, or for at
    most CHUNK_BYTES, the job is one call here; else two halves, the second on the
    lane worker where _second_core allows. They are the same calls wherever they
    run, so where they ran changes no bit. Where items fail independently, the
    error raised is the one in-order running gives: the first half's.
    """
    if _ACTIVE is not None or n < 2 or nbytes <= CHUNK_BYTES:
        return [fill(0, n)]
    return _run_lanes([lambda: fill(0, n // 2), lambda: fill(n // 2, n)], [None, None])


def parallel(*thunks):
    """Call independent thunks concurrently (in order where _second_core refuses)
    and return their results in order.

    Under an active tape each thunk records into its own lane and the tape
    appends one fork, the tuple of lanes, which backward walks concurrently.
    Lanes share no tensor (else TapeError), so each adjoint is written by one
    thread, in the order in-order recording would give. Lanes do not nest.
    """
    if _LANE.nodes is not None:
        raise TapeError("parallel lanes do not nest")
    lanes = tuple([] for _ in thunks)
    results = _run_lanes(thunks, lanes)
    if _ACTIVE is not None:
        seen = set()
        for i, lane in enumerate(lanes):
            keys = {k for node in lane for k in (node.out_key, *node.in_keys)}
            if keys & seen:
                raise TapeError(f"parallel lane {i} shares a tensor with an earlier lane")
            seen |= keys
        _ACTIVE._nodes.append(lanes)
    return results


class GradTape:
    """Ordered record of primitive ops plus the set of watched leaves.

    Node order is topological by construction: tensors are immutable, so
    every input of a recorded op was produced (or watched) earlier.

    Nodes refer to tensors by key, and the tape holds strong references
    only to watched leaves, so recording does not extend the life of any
    op's output or inputs.
    """

    def __init__(self):
        self._nodes = []
        self._leaves = {}  # key -> watched tensor, in watch order
        self._output_keys = set()

    # -- recording --------------------------------------------------------

    def __enter__(self):
        global _ACTIVE
        if _ACTIVE is not None:
            raise TapeError("a GradTape is already active; tapes do not nest")
        _ACTIVE = self
        return self

    def __exit__(self, exc_type, exc, tb):
        global _ACTIVE
        _ACTIVE = None
        return False

    def watch(self, tensor):
        """Mark a tensor as a leaf whose gradient backward() must produce."""
        if not isinstance(tensor, ComplexTensor):
            raise TypeError(f"can only watch ComplexTensor, got {type(tensor).__name__}")
        self._leaves.setdefault(tensor.key, tensor)
        return tensor

    def tracks(self, tensor):
        """A zero-argument predicate: does backward need this tensor's gradient?

        True once the tensor is a watched leaf or a recorded output. An op
        asks it from its backward closure, so a tensor watched after the op
        consumed it still counts. The predicate holds the tensor's key, not
        the tensor, and not the tape.
        """
        key = tensor.key
        leaves, outputs = self._leaves, self._output_keys
        return lambda: key in leaves or key in outputs

    def record(self, op, output, inputs, backward_fn):
        # Keep every input's key, known or not: a tensor consumed here and
        # watched later must still reach this node's adjoint.
        lane = _LANE.nodes
        (self._nodes if lane is None else lane).append(
            _Node(output.key, tuple(t.key for t in inputs), backward_fn))
        self._output_keys.add(output.key)

    def __len__(self):
        return sum(sum(map(len, n)) if type(n) is tuple else 1 for n in self._nodes)

    # -- backward ---------------------------------------------------------

    def backward(self, loss, cotangent=None):
        """Gradients of a real scalar loss with respect to every watched leaf.

        A cotangent c, a ComplexTensor of loss's shape, makes loss any
        recorded output and seeds its adjoint with c's planes: the gradients
        are then those of sum(c.re * loss.re + c.im * loss.im), one
        vector-Jacobian product.
        Returns a dict from each watched leaf to a read-only ComplexTensor
        of its gradient. Walks the node record in reverse insertion order,
        accumulating adjoints per tensor key. Every gradient plane is a
        dense array: a scalar loss's adjoint is seeded as (1, 0), each
        backward_fn returns an array pair per input, and a leaf the loss
        never reaches gets zeros.
        An intermediate tensor's adjoint is freed as soon as the node that
        produced it has run, so the walk holds only the adjoints still
        awaiting their producer; watched tensors keep theirs. The recorded
        closures stay on the tape, so backward may be called again. The
        tensors themselves are not needed: each node holds only keys, and
        each closure holds the arrays its own gradient reads.
        """
        if not isinstance(loss, ComplexTensor):
            raise TapeError("loss must be a ComplexTensor")
        if cotangent is None:
            if loss.shape != ():
                raise TapeError(f"loss must be a scalar, got shape {loss.shape}")
            if float(loss.im) != 0.0:
                raise TapeError("loss must be real (im part exactly zero)")
            seed = [np.ones((), dtype=loss.dtype), np.zeros((), dtype=loss.dtype)]
        elif cotangent.shape != loss.shape:
            raise ShapeError(
                f"cotangent shape {cotangent.shape} does not match output shape {loss.shape}"
            )
        else:
            seed = [cotangent.re, cotangent.im]
        if loss.key not in self._output_keys:
            raise TapeError("loss was not produced on this tape")

        # adjoints[key] = [re_grad, im_grad]
        adjoints = {loss.key: seed}

        self._walk(self._nodes, adjoints)

        result = {}
        for key, leaf in self._leaves.items():
            slot = adjoints.get(key)
            if slot is None:
                slot = [np.zeros(leaf.shape, dtype=leaf.dtype) for _ in range(2)]
            gre, gim = slot
            if gre.shape != leaf.shape or gim.shape != leaf.shape:
                raise ShapeError(
                    f"gradient shape {gre.shape} does not match leaf shape {leaf.shape}"
                )
            result[leaf] = _wrap(gre, gim)
        return result

    def _walk(self, nodes, adjoints):
        for node in reversed(nodes):
            if type(node) is tuple:  # a fork
                _run_lanes([lambda lane=lane: self._walk(lane, adjoints) for lane in node],
                           [None] * len(node))
                continue
            # Every consumer of an op's output was recorded after it, so its
            # adjoint is complete here and, unless the output is watched,
            # is not needed again.
            key = node.out_key
            acc = adjoints.get(key) if key in self._leaves else adjoints.pop(key, None)
            if acc is None:
                continue
            for in_key, (gre, gim) in zip(node.in_keys, node.backward_fn(acc[0], acc[1])):
                slot = adjoints.get(in_key)
                if slot is None:
                    adjoints[in_key] = [gre, gim]
                else:
                    slot[0] = slot[0] + gre
                    slot[1] = slot[1] + gim
