"""Single-file weight checkpoints.

Layout: magic "CVW1", a little-endian u32 header length, a JSON header
(format version, model kind, class count, branch and attention dimensions,
the ordered tensor-name manifest, and free-form metadata), then one record
per tensor in manifest order: u32 rank, u32 extents, and the real plane
followed by the imaginary plane as little-endian 32-bit floats in row-major
order. Loading restores float64 working precision from those 32-bit values,
so save -> load -> save reproduces the file byte for byte. Every stored
value is finite: saving raises before the file is opened if a tensor's
float32 form is not, and loading refuses a non-finite payload or a negative
batch-norm running variance.
"""

import json
import os
import struct
from dataclasses import asdict

import numpy as np

from ..ctensor import ComplexTensor
from ..cnn import init_baseline
from ..fusion import init_fusenet
from ..dsp import json_float, json_int, read_json
from .config import branch_from_dict

__all__ = ["CheckpointError", "save_checkpoint", "load_checkpoint"]

_MAGIC = b"CVW1"
_VERSION = 1

# model kind -> (initializer, the header fields it takes beyond the branch and class count)
MODEL_KINDS = {"baseline": (init_baseline, ()), "fusenet": (init_fusenet, ("embed_dim", "heads"))}


class CheckpointError(ValueError):
    """Raised on malformed checkpoint files; the message names the path."""


def model_kind(kind):
    """kind's MODEL_KINDS entry; ValueError for anything else."""
    if not isinstance(kind, str) or kind not in MODEL_KINDS:
        raise ValueError(f"kind must be 'baseline' or 'fusenet', got {kind!r}")
    return MODEL_KINDS[kind]


def _all_tensors(model):
    return list(model.parameters()) + list(model.state())


def _record_head(t):
    """The head of a tensor's record: u32 rank, then its u32 extents."""
    return struct.pack(f"<I{t.ndim}I", t.ndim, *t.shape)


def save_checkpoint(path, model, kind, meta=None):
    _, dims = model_kind(kind)
    tensors = _all_tensors(model)
    header = {
        "version": _VERSION,
        "kind": kind,
        "n_classes": model.n_classes,
        "branch": asdict(model.config),
        "tensors": [name for name, _ in tensors],
        "meta": meta or {},
        **{d: getattr(model.attn, d) for d in dims},
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    records = []
    for name, t in tensors:
        with np.errstate(over="ignore"):  # a value beyond float32 range becomes inf
            planes = np.array([t.re, t.im], dtype="<f4")
        if not np.isfinite(planes).all():
            raise CheckpointError(
                f"{path}: tensor {name!r} holds NaN, Inf or values beyond float32 range"
            )
        records.append(_record_head(t) + planes.tobytes())
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(b"".join(records))


def _implied_values(kind, branch, n_classes, embed_dim):
    """Complex values stored by a model of these dimensions, from shapes alone.

    Equals the total size of ``_all_tensors`` of that model, without building it.
    """
    shapes = branch.stage_shapes()
    per_branch = 0
    in_c = 1
    for spec, (out_c, _, _) in zip(branch.convs, shapes):
        kh, kw = spec.kernel
        # conv kernels (no bias), then bn gamma, beta, running mean and variance
        per_branch += out_c * (in_c * kh * kw + 4)
        in_c = out_c
    c_f, length = shapes[-1]
    if kind == "baseline":
        return per_branch + (2 * c_f * length + 1) * n_classes
    # six (2*C_f, E) attention projections, then the (2E, C) head and its bias
    return 2 * per_branch + 12 * c_f * embed_dim + (2 * embed_dim + 1) * n_classes


def _positive_int(header, key):
    value = json_int(header[key], repr(key))
    if value < 1:
        raise ValueError(f"{key!r} must be a positive integer, got {value!r}")
    return value


def _skeleton(header, path, payload_bytes):
    """Check the header's fields, then build a placeholder model once its
    dimensions fit the payload."""
    kind = header.get("kind")
    try:
        init, dims = model_kind(kind)
        # eval re-derives the test split from these, so they must be usable as stored
        meta = header.get("meta", {})
        if "seed" in meta and json_int(meta["seed"], "meta 'seed'") < 0:
            raise ValueError(f"meta 'seed' must be >= 0, got {meta['seed']!r}")
        ratio = meta.get("split_ratio", 0.5)  # an absent ratio passes
        if not 0.0 < json_float(ratio, "meta 'split_ratio'") < 1.0:
            raise ValueError(f"meta 'split_ratio' must be in (0, 1), got {ratio!r}")
        branch = branch_from_dict(header["branch"])
        n_classes = _positive_int(header, "n_classes")
        extra = {d: _positive_int(header, d) for d in dims}
        need = 8 * _implied_values(kind, branch, n_classes, extra.get("embed_dim"))
        if need > payload_bytes:
            raise CheckpointError(
                f"{path}: header dimensions need {need} payload bytes, "
                f"only {payload_bytes} follow the header"
            )
        return init(branch, n_classes, np.random.default_rng(0), **extra)  # placeholder values
    except CheckpointError:
        raise
    except KeyError as e:
        raise CheckpointError(f"{path}: header lacks key {e}") from e
    except (TypeError, ValueError) as e:
        raise CheckpointError(f"{path}: bad header: {e}") from e


def load_checkpoint(path):
    """Returns (model, kind, meta) rebuilt from a checkpoint file; no more is
    read than its header and the tensors the header declares take."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        start = fh.read(8)
        if len(start) < 8 or start[:4] != _MAGIC:
            raise CheckpointError(f"{path}: missing checkpoint magic")
        (header_len,) = struct.unpack("<I", start[4:])
        if size < 8 + header_len:
            raise CheckpointError(f"{path}: truncated header")
        header = read_json(path, CheckpointError, fh.read(header_len), "bad header")
        if not isinstance(header, dict) or not isinstance(header.get("meta", {}), dict):
            raise CheckpointError(f"{path}: header and its 'meta' must be JSON objects")
        if type(header.get("version")) is not int or header["version"] != _VERSION:
            raise CheckpointError(f"{path}: unsupported version {header.get('version')!r}")
        payload_bytes = size - 8 - header_len
        model = _skeleton(header, path, payload_bytes)
        tensors = _all_tensors(model)
        if header.get("tensors") != [name for name, _ in tensors]:
            raise CheckpointError(
                f"{path}: tensor manifest does not match a {header['kind']} model "
                f"of the declared dimensions"
            )
        blob = fh.read(sum(len(_record_head(t)) + 8 * t.size for _, t in tensors))
    offset = 0
    mapping = {}
    for name, t in tensors:
        head = _record_head(t)
        stored = blob[offset : offset + len(head)]
        offset += len(head)
        if offset + 8 * t.size > len(blob):
            raise CheckpointError(f"{path}: truncated at tensor {name!r}")
        if stored != head:
            rank, *extents = struct.unpack(f"<{1 + t.ndim}I", stored)
            raise CheckpointError(
                f"{path}: tensor {name!r} has shape {tuple(extents)} of rank {rank}, "
                f"expected {t.shape}"
            )
        planes = np.frombuffer(blob, dtype="<f4", count=2 * t.size, offset=offset)
        offset += 8 * t.size
        if not np.isfinite(planes).all():
            raise CheckpointError(f"{path}: tensor {name!r} holds non-finite values")
        if name.endswith(".running_var") and (planes < 0).any():
            raise CheckpointError(f"{path}: tensor {name!r} holds negative variances")
        mapping[name] = ComplexTensor(*planes.reshape((2,) + t.shape))  # copied to float64
    if offset != payload_bytes:
        raise CheckpointError(f"{path}: {payload_bytes - offset} trailing bytes")
    return model.with_tensors(mapping), header["kind"], header.get("meta", {})
