"""Radar sensor geometry, channel flattening, and the RFC1 binary format.

A cube is a 3-dimensional ComplexTensor over (tx index, rx index, fast
time); RadarConfig.shape gives its extents.
"""

import struct
from dataclasses import dataclass

import numpy as np

from ..ctensor import ComplexTensor, ShapeError
from ..ctensor.ops import reshape

__all__ = [
    "RadarConfig",
    "OCCLUDED_CONFIG",
    "flatten_channels",
    "write_rfc1",
    "read_rfc1",
    "CubeFormatError",
]

_MAGIC = b"RFC1"
_SPEED_OF_LIGHT = 299_792_458.0


class CubeFormatError(ValueError):
    """Raised for malformed RFC1 files."""


@dataclass(frozen=True)
class RadarConfig:
    """Sensor parameters; eirp is carried as metadata only."""

    center_frequency: float
    bandwidth: float
    eirp: float
    n_tx: int
    n_rx: int
    fast_time_samples: int

    def __post_init__(self):
        if self.bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")
        if self.fast_time_samples < 2:
            raise ValueError(
                f"fast_time_samples must be >= 2, got {self.fast_time_samples}"
            )
        if self.n_tx < 1 or self.n_rx < 1:
            raise ValueError(f"antenna counts must be >= 1, got {self.n_tx}x{self.n_rx}")

    @property
    def shape(self):
        return (self.n_tx, self.n_rx, self.fast_time_samples)

    @property
    def unambiguous_range(self):
        # beat-frequency bin k = 2*B*R/c must stay below fast_time_samples
        return self.fast_time_samples * _SPEED_OF_LIGHT / (2.0 * self.bandwidth)


OCCLUDED_CONFIG = RadarConfig(64.0e9, 4.0e9, -5.0, 20, 20, 100)


def flatten_channels(t):
    """(X, Y, N) -> (X*Y, N); row r = x*Y + y holds channel (x, y).

    The result is a view: it shares t's read-only planes and copies nothing.
    """
    if not isinstance(t, ComplexTensor) or t.ndim != 3:
        shape = getattr(t, "shape", None)
        raise ShapeError(f"flatten_channels expects a 3-dimensional tensor, got {shape}")
    x, y, n = t.shape
    return reshape(t, (x * y, n))


def write_rfc1(path, t):
    """Write a 3-dimensional ComplexTensor as an RFC1 cube file.

    The payload is float32, and read_rfc1 rejects non-finite values, so a
    tensor holding NaN, Inf or a value beyond float32 range raises
    CubeFormatError before the file is opened.
    """
    if not isinstance(t, ComplexTensor) or t.ndim != 3:
        shape = getattr(t, "shape", None)
        raise ShapeError(f"RFC1 payload must be a 3-dimensional tensor, got {shape}")
    x, y, n = t.shape
    interleaved = np.empty((t.size, 2), dtype="<f4")
    with np.errstate(over="ignore"):
        interleaved[:, 0] = t.re.reshape(-1)
        interleaved[:, 1] = t.im.reshape(-1)
    if not np.isfinite(interleaved).all():
        raise CubeFormatError(
            f"{path}: payload holds NaN, Inf or values beyond float32 range"
        )
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<III", x, y, n))
        fh.write(interleaved.tobytes())


def read_rfc1(path):
    """Read an RFC1 cube file back into a ComplexTensor (float64 planes)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 16 or blob[:4] != _MAGIC:
        raise CubeFormatError(f"{path}: missing RFC1 magic")
    x, y, n = struct.unpack("<III", blob[4:16])
    if x < 1 or y < 1 or n < 1:
        raise CubeFormatError(f"{path}: zero extent in header ({x}, {y}, {n})")
    expected = 16 + 8 * x * y * n
    if len(blob) != expected:
        raise CubeFormatError(
            f"{path}: payload is {len(blob) - 16} bytes, expected {expected - 16}"
        )
    pairs = np.frombuffer(blob, dtype="<f4", offset=16).reshape(-1, 2)
    if not np.isfinite(pairs).all():
        raise CubeFormatError(f"{path}: payload holds non-finite values")
    return ComplexTensor(*pairs.T.reshape(2, x, y, n))  # float32 views, copied once to float64
