"""Unnormalized forward 3D DFT: numpy's FFT and a direct-sum oracle for it.

The transform convention is the plain direct sum

    S(l,m,k) = sum_x sum_y sum_n s(x,y,n) * exp(-j*2*pi*(l*x/X + m*y/Y + k*n/N))

with no normalization factor anywhere. ``fft3d_array`` computes it with
``np.fft.fftn``; ``dft3d_direct`` evaluates the sum literally (vectorized)
and serves as the independent correctness oracle for ``fft3d_array``.
"""

import numpy as np

__all__ = ["dft3d_direct", "fft3d_array"]


def _dft_matrix(n):
    # W[k, j] = exp(-2j*pi*k*j/n)
    k = np.arange(n)
    return np.exp((-2j * np.pi / n) * np.outer(k, k))


def dft3d_direct(values):
    """Direct-sum 3D DFT oracle, O(total^2); values: complex array (X, Y, N)."""
    values = np.asarray(values, dtype=np.complex128)
    if values.ndim != 3:
        raise ValueError(f"expected a 3-dimensional cube, got shape {values.shape}")
    x, y, n = values.shape
    return np.einsum(
        "xyn,lx,my,kn->lmk",
        values,
        _dft_matrix(x),
        _dft_matrix(y),
        _dft_matrix(n),
        optimize=True,
    )


def fft3d_array(values):
    """Fast evaluation of the same transform as dft3d_direct."""
    values = np.asarray(values, dtype=np.complex128)
    if values.ndim != 3:
        raise ValueError(f"expected a 3-dimensional cube, got shape {values.shape}")
    return np.fft.fftn(values)
