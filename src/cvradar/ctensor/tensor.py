"""Dense complex tensors stored as separate real/imaginary planes.

Every value flowing through the library is a ComplexTensor. Real-valued
data (attention features, logits) rides along with an all-zero imaginary
plane so there is exactly one tensor type and one gradient engine.

Each tensor carries a key, a serial number drawn from one process-wide
counter when it is built and never reused; the gradient tape names tensors
by it.
"""

import itertools

import numpy as np

__all__ = ["ComplexTensor", "ShapeError"]


class ShapeError(ValueError):
    """Raised when tensor shapes violate an operation's contract."""


class ComplexTensor:
    """Immutable complex array: shape-tagged pair of real planes (re, im).

    Construction copies both planes to float64 and freezes them; zero
    extents are rejected. Rank 0 (shape ()) is the scalar, with element
    count 1. key is the tensor's serial number.
    """

    __slots__ = ("re", "im", "shape", "key", "__weakref__")

    def __init__(self, re, im=None):
        re = np.array(re, dtype=np.float64)
        _adopt(self, re, np.zeros_like(re) if im is None else np.array(im, dtype=np.float64))

    def __setattr__(self, name, value):
        raise AttributeError("ComplexTensor is immutable")

    # -- views -----------------------------------------------------------

    @property
    def dtype(self):
        return self.re.dtype

    @property
    def size(self):
        return self.re.size

    @property
    def ndim(self):
        return self.re.ndim

    def to_complex(self):
        """Materialize as a native numpy complex array (copy)."""
        return self.re.astype(np.complex128) + 1j * self.im.astype(np.complex128)

    def __repr__(self):
        return f"ComplexTensor(shape={self.shape}, dtype={self.dtype})"


_KEYS = itertools.count()  # next() is atomic under the GIL: concurrent lanes get distinct keys


def _adopt(t, re, im):
    # The one plane check, freeze and key, shared by the constructor and _wrap.
    if re.shape != im.shape:
        raise ShapeError(f"re shape {re.shape} != im shape {im.shape}")
    if any(n <= 0 for n in re.shape):
        raise ShapeError(f"zero or negative extent in shape {re.shape}")
    re.flags.writeable = False
    im.flags.writeable = False
    object.__setattr__(t, "re", re)
    object.__setattr__(t, "im", im)
    object.__setattr__(t, "shape", re.shape)
    object.__setattr__(t, "key", next(_KEYS))
    return t


def _wrap(re, im):
    """A ComplexTensor that adopts freshly computed planes without copying them."""
    return _adopt(object.__new__(ComplexTensor), np.asarray(re), np.asarray(im))
