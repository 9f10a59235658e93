"""Dense complex tensors stored as separate real/imaginary planes.

Every value flowing through the library is a ComplexTensor. Real-valued
data (attention features, logits) rides along with an all-zero imaginary
plane so there is exactly one tensor type and one gradient engine.
"""

import numpy as np

__all__ = ["ComplexTensor", "ShapeError"]


class ShapeError(ValueError):
    """Raised when tensor shapes violate an operation's contract."""


class ComplexTensor:
    """Immutable complex array: shape-tagged pair of real planes (re, im).

    Construction copies and freezes both planes; zero extents are rejected.
    Rank 0 (shape ()) is the scalar, with element count 1.
    """

    __slots__ = ("re", "im", "shape", "__weakref__")

    def __init__(self, re, im=None, dtype=np.float64):
        re = np.array(re, dtype=dtype)
        if im is None:
            im = np.zeros_like(re)
        else:
            im = np.array(im, dtype=dtype)
        if re.shape != im.shape:
            raise ShapeError(f"re shape {re.shape} != im shape {im.shape}")
        if any(n <= 0 for n in re.shape):
            raise ShapeError(f"zero or negative extent in shape {re.shape}")
        re.flags.writeable = False
        im.flags.writeable = False
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)
        object.__setattr__(self, "shape", re.shape)

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
