"""Reverse-mode gradient tape over ComplexTensor operations.

Differentiation semantics: every complex tensor is treated as an
independent pair of real tensors (re, im), and standard real reverse-mode
accumulation runs over the recorded primitives. Losses are real scalars;
gradients come back as one real pair per watched leaf.

A tape is single-writer: one training step builds and consumes one tape.
Backward is a pure function of the tape, so repeated calls produce
bit-identical gradients.
"""

import numpy as np

from .tensor import ComplexTensor, ShapeError

__all__ = ["GradTape", "Gradient", "TapeError", "active_tape"]


class TapeError(RuntimeError):
    """Raised on tape misuse: nesting, non-scalar loss, off-tape loss."""


class Gradient:
    """Real-valued gradient pair for one complex tensor."""

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re = re
        self.im = im

    @property
    def shape(self):
        return self.re.shape

    def __repr__(self):
        return f"Gradient(shape={self.re.shape})"


class _Node:
    __slots__ = ("op", "output", "inputs", "backward_fn")

    def __init__(self, op, output, inputs, backward_fn):
        self.op = op
        self.output = output
        self.inputs = inputs
        self.backward_fn = backward_fn


_ACTIVE = None


def active_tape():
    """The tape currently recording, or None outside any tape context."""
    return _ACTIVE


class GradTape:
    """Ordered record of primitive ops plus the set of watched leaves.

    Node order is topological by construction: tensors are immutable, so
    every input of a recorded op was produced (or watched) earlier.
    """

    def __init__(self):
        self._nodes = []
        self._leaves = []
        self._leaf_ids = set()
        self._output_ids = set()

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
        if id(tensor) not in self._leaf_ids:
            self._leaf_ids.add(id(tensor))
            self._leaves.append(tensor)
        return tensor

    def record(self, op, output, inputs, backward_fn):
        self._nodes.append(_Node(op, output, inputs, backward_fn))
        self._output_ids.add(id(output))

    def __len__(self):
        return len(self._nodes)

    # -- backward ---------------------------------------------------------

    def backward(self, loss):
        """Gradients of a real scalar loss with respect to every watched leaf.

        Walks the node record in reverse insertion order, accumulating
        adjoints per tensor identity. Every gradient plane is a dense array:
        the loss adjoint is seeded as (1, 0), each backward_fn returns an
        array pair per input, and a leaf the loss never reaches gets zeros.
        An intermediate tensor's adjoint is freed as soon as the node that
        produced it has run, so the walk holds only the adjoints still
        awaiting their producer; watched tensors keep theirs. The recorded
        closures stay on the tape, so backward may be called again.
        """
        if not isinstance(loss, ComplexTensor):
            raise TapeError("loss must be a ComplexTensor scalar")
        if loss.shape != ():
            raise TapeError(f"loss must be a scalar, got shape {loss.shape}")
        if id(loss) not in self._output_ids:
            raise TapeError("loss was not produced on this tape")
        if float(loss.im) != 0.0:
            raise TapeError("loss must be real (im part exactly zero)")

        # adjoints[id(tensor)] = [re_grad, im_grad]
        adjoints = {id(loss): [np.ones((), dtype=loss.dtype), np.zeros((), dtype=loss.dtype)]}

        for node in reversed(self._nodes):
            # Every consumer of an op's output was recorded after it, so its
            # adjoint is complete here and, unless the output is watched,
            # is not needed again.
            key = id(node.output)
            acc = adjoints.get(key) if key in self._leaf_ids else adjoints.pop(key, None)
            if acc is None:
                continue
            for tensor, (gre, gim) in zip(node.inputs, node.backward_fn(acc[0], acc[1])):
                slot = adjoints.get(id(tensor))
                if slot is None:
                    adjoints[id(tensor)] = [gre, gim]
                else:
                    slot[0] = slot[0] + gre
                    slot[1] = slot[1] + gim

        result = {}
        for leaf in self._leaves:
            slot = adjoints.get(id(leaf))
            if slot is None:
                slot = [np.zeros(leaf.shape, dtype=leaf.dtype) for _ in range(2)]
            gre, gim = slot
            if gre.shape != leaf.shape or gim.shape != leaf.shape:
                raise ShapeError(
                    f"gradient shape {gre.shape} does not match leaf shape {leaf.shape}"
                )
            result[leaf] = Gradient(gre, gim)
        return result
