"""Differentiable primitives over ComplexTensor.

Every op computes its value with plain numpy and, when a GradTape is
active, records a closure implementing the exact adjoint of the split-real
computation (re and im treated as independent real arguments).

Shape discipline is strict: no broadcasting anywhere. Mismatches raise
ShapeError naming both shapes. A backward closure takes the output's two
gradient planes as arrays and returns, per input, a pair of arrays of that
input's shape; a plane that gets no gradient is returned as zeros.
"""

import math
import threading
from collections import namedtuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import tape as _tape
from .tensor import ShapeError, _wrap

__all__ = [
    "add", "scale",
    "reshape", "permute", "concat", "index0", "matmul", "bmm", "add_row",
    "mean_axis", "crelu", "softmax_last", "cavgpool_last",
    "flatten_parts", "tokens_from_complex", "cconv2d",
    "cbatchnorm_train", "cbatchnorm_eval", "cross_entropy_logits",
    "BatchStats", "BN_EPS", "conv_sample_bytes",
]


def _record(op, out, inputs, backward_fn):
    tape = _tape.active_tape()
    if tape is not None:
        tape.record(op, out, inputs, backward_fn)
    return out


def _same_shape(op, a, b):
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shape {a.shape} does not match shape {b.shape}")


# ---------------------------------------------------------------------------
# elementwise
# ---------------------------------------------------------------------------

def add(a, b):
    _same_shape("add", a, b)
    out = _wrap(a.re + b.re, a.im + b.im)

    def bwd(gre, gim):
        return ((gre, gim), (gre, gim))

    return _record("add", out, (a, b), bwd)


def scale(a, s):
    """Multiply by a fixed Python scalar (real or complex); s is not a leaf."""
    s = complex(s)
    sr, si = s.real, s.imag
    out = _wrap(sr * a.re - si * a.im, sr * a.im + si * a.re)

    def bwd(gre, gim):
        return ((sr * gre + si * gim, -si * gre + sr * gim),)

    return _record("scale", out, (a,), bwd)


# ---------------------------------------------------------------------------
# structure
# ---------------------------------------------------------------------------

def reshape(a, shape):
    shape = tuple(int(n) for n in shape)
    if any(n <= 0 for n in shape):
        raise ShapeError(f"reshape: zero or negative extent in {shape}")
    if int(np.prod(shape, dtype=np.int64)) != a.size:
        raise ShapeError(f"reshape: cannot reshape {a.shape} into {shape}")
    out = _wrap(a.re.reshape(shape), a.im.reshape(shape))
    old = a.shape

    def bwd(gre, gim):
        return ((gre.reshape(old), gim.reshape(old)),)

    return _record("reshape", out, (a,), bwd)


def permute(a, axes):
    axes = tuple(axes)
    if sorted(axes) != list(range(a.ndim)):
        raise ShapeError(f"permute: axes {axes} is not a permutation of rank {a.ndim}")
    inv = np.argsort(axes)
    out = _wrap(a.re.transpose(axes), a.im.transpose(axes))

    def bwd(gre, gim):
        return ((gre.transpose(inv), gim.transpose(inv)),)

    return _record("permute", out, (a,), bwd)


def concat(tensors, axis):
    tensors = list(tensors)
    if not tensors:
        raise ShapeError("concat: need at least one tensor")
    for t in tensors[1:]:
        if t.ndim != tensors[0].ndim:
            raise ShapeError(f"concat: rank mismatch {tensors[0].shape} vs {t.shape}")
    out = _wrap(
        np.concatenate([t.re for t in tensors], axis=axis),
        np.concatenate([t.im for t in tensors], axis=axis),
    )
    sizes = [t.shape[axis] for t in tensors]
    bounds = np.cumsum(sizes)[:-1]

    def bwd(gre, gim):
        return tuple(zip(np.split(gre, bounds, axis=axis), np.split(gim, bounds, axis=axis)))

    return _record("concat", out, tuple(tensors), bwd)


def index0(a, i):
    """Select one slice along axis 0 (drops the axis)."""
    if a.ndim < 1:
        raise ShapeError("index0: scalar has no axis 0")
    if not 0 <= i < a.shape[0]:
        raise ShapeError(f"index0: index {i} out of range for extent {a.shape[0]}")
    out = _wrap(a.re[i].copy(), a.im[i].copy())
    full = a.shape
    dtype = a.dtype

    def bwd(gre, gim):
        def scatter(g):
            buf = np.zeros(full, dtype=dtype)
            buf[i] = g
            return buf
        return ((scatter(gre), scatter(gim)),)

    return _record("index0", out, (a,), bwd)


def flatten_parts(a):
    """Per-row realification: (B, ...) -> (B, 2K) rows [vec(re); vec(im)]."""
    if a.ndim < 2:
        raise ShapeError(f"flatten_parts: need rank >= 2, got shape {a.shape}")
    b = a.shape[0]
    k = a.size // b
    out_re = np.concatenate([a.re.reshape(b, k), a.im.reshape(b, k)], axis=1)
    out = _wrap(out_re, np.zeros_like(out_re))
    inner = a.shape[1:]

    def bwd(gre, gim):
        # out.im is constant zero, so gim never reaches the input
        return ((gre[:, :k].reshape((b,) + inner), gre[:, k:].reshape((b,) + inner)),)

    return _record("flatten_parts", out, (a,), bwd)


def tokens_from_complex(f):
    """Feature maps (B, C, L) -> real token rows (B*L, 2C), re block then im block.

    Row b*L + l holds position l of map b. A rank-2 (C, L) map is the B = 1 case.
    """
    if f.ndim not in (2, 3):
        raise ShapeError(f"tokens_from_complex: need rank 2 or 3, got shape {f.shape}")
    c, length = f.shape[-2:]
    lead = f.shape[:-2]

    def rows(plane):
        return np.swapaxes(plane, -1, -2).reshape(-1, c)

    out_re = np.concatenate([rows(f.re), rows(f.im)], axis=1)
    out = _wrap(out_re, np.zeros_like(out_re))

    def bwd(gre, gim):
        def maps(g):
            return np.ascontiguousarray(np.swapaxes(g.reshape(lead + (length, c)), -1, -2))

        return ((maps(gre[:, :c]), maps(gre[:, c:])),)

    return _record("tokens_from_complex", out, (f,), bwd)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def _product(op, a, b):
    # (..., n, k) @ (..., k, m); callers have checked the shapes.
    ar, ai, br, bi = a.re, a.im, b.re, b.im
    out = _wrap(ar @ br - ai @ bi, ar @ bi + ai @ br)

    def bwd(gre, gim):
        art, ait = np.swapaxes(ar, -1, -2), np.swapaxes(ai, -1, -2)
        brt, bit = np.swapaxes(br, -1, -2), np.swapaxes(bi, -1, -2)
        return ((gre @ brt + gim @ bit, -(gre @ bit) + gim @ brt),
                (art @ gre + ait @ gim, -(ait @ gre) + art @ gim))

    return _record(op, out, (a, b), bwd)


def matmul(a, b):
    """Complex matrix product of rank-2 tensors: (n,k) @ (k,m)."""
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul: need rank-2 operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner extents differ, {a.shape} @ {b.shape}")
    return _product("matmul", a, b)


def bmm(a, b):
    """Batched complex matmul: (..., n, k) @ (..., k, m) -> (..., n, m).

    The leading batch extents must be equal; rank 2 is the unbatched case.
    """
    if a.ndim < 2 or a.ndim != b.ndim:
        raise ShapeError(f"bmm: need operands of equal rank >= 2, got {a.shape} and {b.shape}")
    if a.shape[:-2] != b.shape[:-2] or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"bmm: incompatible shapes {a.shape} @ {b.shape}")
    return _product("bmm", a, b)


def add_row(x, b):
    """Add a length-D row vector to every row of a (N, D) tensor."""
    if x.ndim != 2 or b.ndim != 1 or b.shape[0] != x.shape[1]:
        raise ShapeError(f"add_row: shapes {x.shape} and {b.shape} are incompatible")
    out = _wrap(x.re + b.re[None, :], x.im + b.im[None, :])

    def bwd(gre, gim):
        return ((gre, gim), (gre.sum(axis=0), gim.sum(axis=0)))

    return _record("add_row", out, (x, b), bwd)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def mean_axis(a, axis):
    """Arithmetic mean along one axis, applied to each plane."""
    if not 0 <= axis < a.ndim:
        raise ShapeError(f"mean_axis: axis {axis} out of range for shape {a.shape}")
    n = a.shape[axis]
    shp = a.shape
    out = _wrap(a.re.mean(axis=axis), a.im.mean(axis=axis))

    def bwd(gre, gim):
        def spread(g):
            return np.broadcast_to(np.expand_dims(g / n, axis), shp)
        return ((spread(gre), spread(gim)),)

    return _record("mean_axis", out, (a,), bwd)


# ---------------------------------------------------------------------------
# nonlinearities
# ---------------------------------------------------------------------------

def _gate_mask(re, im, out=None):
    """crelu's gate: True where Re{z} >= 0 and Im{z} >= 0, built in one bool buffer."""
    mask = np.greater_equal(re, 0, out=out)
    mask &= im >= 0
    return mask


def crelu(a):
    """Pass z through iff both Re{z} >= 0 and Im{z} >= 0, else 0.

    Subgradient at the boundary: 1 for the passing branch, 0 otherwise,
    matching the real-ReLU convention applied componentwise.

    One bool mask is built in place and each plane is multiplied by it once,
    so a blocked entry is x * 0: -0.0 where x < 0 (equal to 0.0), and NaN
    where x is not finite.
    """
    mask = _gate_mask(a.re, a.im)
    out = _wrap(a.re * mask, a.im * mask)

    def bwd(gre, gim):
        return ((gre * mask, gim * mask),)

    return _record("crelu", out, (a,), bwd)


def softmax_last(a):
    """Row softmax over the last axis of the real plane; output im is zero.

    Max-subtraction keeps the exponentials bounded, so any finite input
    yields finite, normalized rows.
    """
    x = a.re
    p = np.exp(x - x.max(axis=-1, keepdims=True))
    p = p / p.sum(axis=-1, keepdims=True)
    out = _wrap(p, np.zeros_like(p))

    def bwd(gre, gim):
        # function of re only; im receives an exact zero gradient
        inner = (gre * p).sum(axis=-1, keepdims=True)
        return ((p * (gre - inner), np.zeros_like(gim)),)

    return _record("softmax_last", out, (a,), bwd)


# ---------------------------------------------------------------------------
# pooling
# ---------------------------------------------------------------------------

def cavgpool_last(a, window):
    """Non-overlapping window means along the last axis, per plane.

    A trailing remainder that does not fill a window is dropped; the
    resulting length is part of the declared shape contract.
    """
    if window < 1:
        raise ShapeError(f"cavgpool: window must be >= 1, got {window}")
    if a.ndim < 1:
        raise ShapeError("cavgpool: scalar input")
    length = a.shape[-1]
    blocks = length // window
    if blocks < 1:
        raise ShapeError(f"cavgpool: window {window} exceeds axis length {length}")
    lead = a.shape[:-1]
    core = lead + (blocks, window)

    def pool(plane):
        return plane[..., : blocks * window].reshape(core).mean(axis=-1)

    out = _wrap(pool(a.re), pool(a.im))
    full = a.shape
    dtype = a.dtype

    def bwd(gre, gim):
        def spread(g):
            buf = np.zeros(full, dtype=dtype)
            buf[..., : blocks * window] = np.repeat(
                np.expand_dims(g / window, -1), window, axis=-1
            ).reshape(lead + (blocks * window,))
            return buf
        return ((spread(gre), spread(gim)),)

    return _record("cavgpool", out, (a,), bwd)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def conv_sample_bytes(c_in, c_out, kh, kw, ho, wo):
    """Bytes one sample takes in a cconv2d span: its columns and its output."""
    return (2 * c_in * kh * kw + 2 * c_out) * ho * wo * 8


# cconv2d's reusable column buffer off the tape: .flat, one flat array per thread
_COLS = type("_Cols", (threading.local,), {"flat": None})()


def _col_buffer(shape, dtype):
    """cconv2d's column buffer. Under a tape, a fresh array the backward may
    keep, and this thread's reusable buffer is dropped, so training never
    carries it. Off the tape, a view of that buffer, which grows only when a
    call needs more elements or another dtype, dropping the old one first, so
    a forward-only run maps its large column blocks once, not on every call."""
    if _tape.active_tape() is not None:
        _COLS.flat = None
        return np.empty(shape, dtype=dtype)
    n = math.prod(shape)
    if _COLS.flat is None or _COLS.flat.size < n or _COLS.flat.dtype != dtype:
        _COLS.flat = None
        _COLS.flat = np.empty(n, dtype=dtype)
    return _COLS.flat[:n].reshape(shape)


def _fill_cols(cols, re, im, sh, sw, a, e):
    """Write output rows [a, e) of an (n, 2, C, kh, kw, Ho, Wo) column buffer from
    input rows [a*sh, (e-1)*sh + kh) of a (n, C, H, W) plane pair; returns it as
    (n, 2k, Ho*Wo) columns, k = C*kh*kw, re's patches in rows [0, k), im's after."""
    n, _, c, kh, kw, ho, wo = cols.shape
    for i, plane in enumerate((re, im)):
        rows = plane[:, :, a * sh : (e - 1) * sh + kh]
        s0, s1, s2, s3 = rows.strides  # copied from a (n, C, kh, kw, e-a, Wo) window view
        cols[:, i, :, :, :, a:e] = as_strided(rows, (n, c, kh, kw, e - a, wo),
                                              (s0, s1, s2, s3, sh * s2, sw * s3))
    return cols.reshape(n, -1, ho * wo)


def _col2im(dcols, buf, kh, kw, sh, sw, ho, wo):
    n, c = buf.shape[:2]
    d = dcols.reshape(n, c, kh, kw, ho, wo)
    for i in range(kh):
        for j in range(kw):
            buf[:, :, i : i + sh * ho : sh, j : j + sw * wo : sw] += d[:, :, i, j]


def cconv2d(x, kernels, bias=None, stride=(1, 1)):
    """Valid complex cross-correlation with an optional per-output-channel bias.

    x: (B, C_in, H, W); kernels: (C_out, C_in, kh, kw); bias: (C_out,) or None.
    Every multiply-accumulate is the complex product ca-db + j(cb+da),
    realified as one real GEMM: the re and im planes are stacked as 2*C_in
    channels into one column matrix, and the kernels as the block matrix
    [[Kr, -Ki], [Ki, Kr]], so each pass is one product over both planes.

    The batch runs as spans of tape.CHUNK_BYTES over one sample's output plus
    columns. Each span fills one span-sized column buffer and runs one GEMM
    per sample, so spans change no bit. Off the tape the buffer is this
    thread's reusable one (_col_buffer). Under a tape it is fresh per call:
    one span keeps it for the backward; more keep only x's planes, and the
    backward refills a buffer of its own. Each span is one halves job over
    its output rows, of its bytes, so a span of one sample above CHUNK_BYTES
    splits.
    OpenBLAS picks its kernels by shape, so a GEMM split by columns can differ
    from the whole in the last bit; at the paper geometry it does not.

    The backward builds the input gradient only if the tape tracks x (a
    watched leaf or a recorded output); for a data batch it returns a
    read-only zero instead of the Wᵀ @ g product and its scatter.
    """
    if x.ndim != 4:
        raise ShapeError(f"cconv2d: input must be (B, C, H, W), got {x.shape}")
    if kernels.ndim != 4:
        raise ShapeError(f"cconv2d: kernels must be (C_out, C_in, kh, kw), got {kernels.shape}")
    if bias is not None and (bias.ndim != 1 or bias.shape[0] != kernels.shape[0]):
        raise ShapeError(f"cconv2d: bias shape {bias.shape} != (C_out,) = ({kernels.shape[0]},)")
    b, cin, h, w = x.shape
    cout, kcin, kh, kw = kernels.shape
    if kcin != cin:
        raise ShapeError(f"cconv2d: input channels {cin} != kernel channels {kcin}")
    sh, sw = stride
    if sh < 1 or sw < 1:
        raise ShapeError(f"cconv2d: stride must be >= 1, got {stride}")
    if kh > h or kw > w:
        raise ShapeError(
            f"cconv2d: kernel shape {kernels.shape} larger than input shape {x.shape}"
        )

    ho, wo = (h - kh) // sh + 1, (w - kw) // sw + 1
    kr = kernels.re.reshape(cout, -1)
    ki = kernels.im.reshape(cout, -1)
    k = kr.shape[1]
    wblock = np.concatenate([np.concatenate([kr, -ki], axis=1), np.concatenate([ki, kr], axis=1)])

    sample_bytes = conv_sample_bytes(cin, cout, kh, kw, ho, wo)
    chunk = min(b, max(1, _tape.CHUNK_BYTES // sample_bytes))
    spans = [slice(s, min(s + chunk, b)) for s in range(0, b, chunk)]
    buf_shape = (chunk, 2, cin, kh, kw, ho, wo)
    buf = _col_buffer(buf_shape, x.dtype)
    y = np.empty((b, 2 * cout, ho * wo), dtype=x.dtype)

    def rows(s, a, e):
        # output rows [a, e) of span s: their columns, then one GEMM into y's columns
        cols = _fill_cols(buf[: s.stop - s.start], x.re[s], x.im[s], sh, sw, a, e)
        p = slice(a * wo, e * wo)
        np.matmul(wblock, cols[:, :, p], out=y[s, :, p])

    for s in spans:
        _tape.halves(ho, lambda a, e: rows(s, a, e), (s.stop - s.start) * sample_bytes)
    planes = (x.re, x.im) if len(spans) > 1 else None
    cols = None if planes else buf.reshape(chunk, 2 * k, ho * wo)
    if bias is not None:
        y[:, :cout] += bias.re[:, None]
        y[:, cout:] += bias.im[:, None]
    y = y.reshape(b, 2 * cout, ho, wo)
    out = _wrap(y[:, :cout], y[:, cout:])

    stacked_shape = (b, 2 * cin, h, w)
    kshape = kernels.shape
    # a predicate on x's tape key, never x itself: naming x in bwd would keep it alive
    tape = _tape.active_tape()
    x_tracked = tape.tracks(x) if tape is not None else None
    has_bias = bias is not None

    def bwd(gre, gim):
        dx = np.zeros(stacked_shape, dtype=gre.dtype) if x_tracked() else None
        refill = None if planes is None else np.empty(buf_shape, dtype=planes[0].dtype)
        grams = []
        for s in spans:
            g = np.concatenate([gre[s], gim[s]], axis=1).reshape(-1, 2 * cout, ho * wo)
            c = cols if refill is None else _fill_cols(refill[: s.stop - s.start], planes[0][s],
                                                       planes[1][s], sh, sw, 0, ho)
            grams.append(g @ np.swapaxes(c, 1, 2))
            if dx is not None:
                _col2im(wblock.T @ g, dx[s], kh, kw, sh, sw, ho, wo)
        gram = (grams[0] if len(grams) == 1 else np.concatenate(grams)).sum(axis=0)
        # gram = [[G_rr, G_ri], [G_ir, G_ii]], G_pq = sum_b g_p @ cols_q^T
        dk_re = (gram[:cout, :k] + gram[cout:, k:]).reshape(kshape)
        dk_im = (gram[cout:, :k] - gram[:cout, k:]).reshape(kshape)
        if dx is not None:
            dx_pair = (dx[:, :cin], dx[:, cin:])
        else:
            zero = np.broadcast_to(np.zeros((), dtype=gre.dtype), (b, cin, h, w))
            dx_pair = (zero, zero)
        if not has_bias:
            return (dx_pair, (dk_re, dk_im))
        return (dx_pair, (dk_re, dk_im), (gre.sum(axis=(0, 2, 3)), gim.sum(axis=(0, 2, 3))))

    inputs = (x, kernels, bias) if has_bias else (x, kernels)
    return _record("cconv2d", out, inputs, bwd)


# ---------------------------------------------------------------------------
# batch normalization
# ---------------------------------------------------------------------------

def _gate_output(y_re, y_im, out=None):
    """Apply crelu to a batch norm's fresh output planes in place; returns the
    mask, written into out if given.

    Multiplying in place by crelu's mask gives crelu's values bit for bit,
    and the backward multiplies g by the same mask before the batch-norm
    adjoint, as the two-op sequence would, so the gate costs no tape node
    and no second pair of output planes.
    """
    mask = _gate_mask(y_re, y_im, out)
    y_re *= mask
    y_im *= mask
    return mask


# added to every variance before its inverse square root (Ioffe & Szegedy, 2015)
BN_EPS = 1e-5

# per-channel batch statistics of one normalization pass (plain arrays)
BatchStats = namedtuple("BatchStats", ("mean_re", "var_re", "mean_im", "var_im"))


def _bn_view(x, **per_channel):
    """The (B, C, L) shape both batch norms work on, L = the flattened rest.

    Per-channel (C,) vectors act on that view as v[:, None].
    """
    if x.ndim < 2:
        raise ShapeError(f"batchnorm: need (B, C, ...) input, got shape {x.shape}")
    c = x.shape[1]
    for name, p in per_channel.items():
        if p.shape != (c,):
            raise ShapeError(f"batchnorm: {name} shape {p.shape} != ({c},)")
    return (x.shape[0], c, -1)


def _channel_dot(a, b):
    """Per-channel sum of a * b over B and L for (B, C, L) arrays.

    Each (B, C) row is one dot product (a (1, L) @ (L, 1) matmul), so no
    full-size product is written.
    """
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0].sum(axis=0)


def cbatchnorm_train(x, gamma, beta, gate=False):
    """Train-mode complex batch norm: each plane normalized independently.

    Normalizes re and im per channel by biased batch statistics over all
    non-channel axes, then applies the per-plane affine (gamma, beta).
    Returns (output, BatchStats) so the caller can update running buffers.
    With gate=True the op applies crelu to its own output (see _gate_output):
    the result equals crelu(cbatchnorm_train(...)) bit for bit, in one op.

    Each plane is read as a (B, C, L) view, L the flattened trailing axes.
    The forward centres it once into d = v - mu, takes the variance from d
    as row dot products d . d (two-pass, never E[x^2] - mu^2), scales d in
    place into xhat, and writes xhat * gamma + beta into one fresh output;
    the input is never written. The backward reduces g . xhat once for both
    dgamma and the xhat term and g once for both dbeta and the mean term,
    then builds dx in one buffer.
    """
    vshape = _bn_view(x, gamma=gamma, beta=beta)
    if x.shape[0] < 2:
        raise ShapeError(f"batchnorm train mode needs batch >= 2, got {x.shape[0]}")
    n = x.size // x.shape[1]

    planes = []
    for q, gam, bta in ((x.re, gamma.re, beta.re), (x.im, gamma.im, beta.im)):
        v = q.reshape(vshape)
        mu = v.mean(axis=(0, 2))
        xhat = v - mu[:, None]
        var = _channel_dot(xhat, xhat) / n
        inv = 1.0 / np.sqrt(var + BN_EPS)
        xhat *= inv[:, None]
        y = xhat * gam[:, None]
        y += bta[:, None]
        planes.append((y.reshape(x.shape), xhat, inv, mu, var))

    (y_re, xhat_re, inv_re, mu_re, var_re), (y_im, xhat_im, inv_im, mu_im, var_im) = planes
    mask = _gate_output(y_re, y_im) if gate else None
    out = _wrap(y_re, y_im)
    stats = BatchStats(mu_re, var_re, mu_im, var_im)

    def bwd(gre, gim):
        if mask is not None:
            gre, gim = gre * mask, gim * mask
        per_plane = []
        for g, xhat, inv, gam in ((gre, xhat_re, inv_re, gamma.re),
                                  (gim, xhat_im, inv_im, gamma.im)):
            gv = g.reshape(vshape)
            dgamma = _channel_dot(gv, xhat)
            dbeta = gv.sum(axis=(0, 2))
            # dx = gamma * inv * (g - mean(g) - xhat * mean(g * xhat))
            dx = xhat * (-dgamma / n)[:, None]
            dx += gv
            dx -= (dbeta / n)[:, None]
            dx *= (gam * inv)[:, None]
            # g has x's shape; naming x here would keep the input alive on the tape
            per_plane.append((dx.reshape(g.shape), dgamma, dbeta))
        # [(dx, dgamma, dbeta) per plane] -> ((dx_re, dx_im), (dgamma_re, ...), ...)
        return tuple(zip(*per_plane))

    return _record("cbatchnorm_train", out, (x, gamma, beta), bwd), stats


def cbatchnorm_eval(x, gamma, beta, running_mean, running_var, gate=False):
    """Eval-mode complex batch norm using frozen running statistics.

    running_mean/running_var pack the per-plane statistics as (re, im).
    Each plane is read as a (B, C, L) view and written into one fresh
    output as (x - m) * (gamma * inv) + beta, in place, with per-channel
    factors; centring first keeps x * a + (beta - m * a) cancellation out.
    No full-size xhat is kept: the backward recomputes it from x. gate=True
    applies crelu in the same op, as in cbatchnorm_train. The forward is one
    halves job over the channels, of x's 16 bytes per element: each element
    gets the same arithmetic in a channel half as in one pass.
    """
    vshape = _bn_view(x, gamma=gamma, beta=beta,
                      running_mean=running_mean, running_var=running_var)
    inv_re = 1.0 / np.sqrt(running_var.re + BN_EPS)
    inv_im = 1.0 / np.sqrt(running_var.im + BN_EPS)
    affine = ((x.re, running_mean.re, inv_re, gamma.re, beta.re),
              (x.im, running_mean.im, inv_im, gamma.im, beta.im))

    views = [q.reshape(vshape) for q in (x.re, x.im)]
    ys = [np.empty(v.shape, dtype=v.dtype) for v in views]
    mask = np.empty(views[0].shape, dtype=bool) if gate else None
    steps = [(m[:, None], (gam * inv)[:, None], bta[:, None]) for _, m, inv, gam, bta in affine]

    def fill(a, e):  # channels [a, e)
        for v, y, (m, s, bta) in zip(views, ys, steps):
            y = np.subtract(v[:, a:e], m[a:e], out=y[:, a:e])
            y *= s[a:e]
            y += bta[a:e]
        if gate:
            _gate_output(ys[0][:, a:e], ys[1][:, a:e], out=mask[:, a:e])

    _tape.halves(x.shape[1], fill, 16 * x.size)
    ys = [y.reshape(x.shape) for y in ys]
    mask = None if mask is None else mask.reshape(x.shape)
    out = _wrap(*ys)

    def bwd(gre, gim):
        if mask is not None:
            gre, gim = gre * mask, gim * mask
        per_plane = []
        for g, (q, m, inv, gam, _) in zip((gre, gim), affine):
            gv = g.reshape(vshape)
            xhat = q.reshape(vshape) - m[:, None]
            xhat *= inv[:, None]
            # g has x's shape; naming x here would keep the input alive on the tape
            per_plane.append(((gv * (gam * inv)[:, None]).reshape(g.shape),
                              _channel_dot(gv, xhat), gv.sum(axis=(0, 2))))
        return tuple(zip(*per_plane))

    return _record("cbatchnorm_eval", out, (x, gamma, beta), bwd)


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------

def cross_entropy_logits(logits, target):
    """Mean cross-entropy of softmax(logits) against fixed target distributions.

    logits: (B, C) ComplexTensor, real plane used; target: plain (B, C)
    array whose rows sum to 1. A rank-1 (C,) pair is the B = 1 case. Each
    row is computed through a max-shifted log-softmax, which equals
    -sum(target * log(softmax)) exactly but never overflows. Output is the
    real scalar mean over the B rows; non-finite logits give a NaN loss,
    as every op propagates NaN, and the training loop reports it.
    """
    if logits.ndim not in (1, 2):
        raise ShapeError(f"cross_entropy_logits: logits must be rank 1 or 2, got {logits.shape}")
    target = np.asarray(target, dtype=logits.dtype)
    if target.shape != logits.shape:
        raise ShapeError(f"cross_entropy_logits: target shape {target.shape} != {logits.shape}")
    x = logits.re
    z = x - x.max(axis=-1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    rows = -(target * logp).sum(axis=-1)
    value = rows.mean()
    out = _wrap(np.asarray(value), np.zeros(()))
    p = np.exp(logp)
    tsum = target.sum(axis=-1, keepdims=True)

    def bwd(gre, gim):
        return ((float(gre) / rows.size * (p * tsum - target), np.zeros_like(p)),)

    return _record("cross_entropy_logits", out, (logits,), bwd)
