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
import struct

import numpy as np

from ..ctensor import ComplexTensor
from ..cnn import init_baseline
from ..fusion import init_fusenet
from ..dsp import json_float, json_int
from .config import branch_from_dict, branch_to_dict

__all__ = ["CheckpointError", "save_checkpoint", "load_checkpoint"]

_MAGIC = b"CVW1"
_VERSION = 1


class CheckpointError(ValueError):
    """Raised on malformed checkpoint files; the message names the path."""


def _all_tensors(model):
    return list(model.parameters()) + list(model.state())


def save_checkpoint(path, model, kind, meta=None):
    if kind not in ("baseline", "fusenet"):
        raise ValueError(f"kind must be 'baseline' or 'fusenet', got {kind!r}")
    tensors = _all_tensors(model)
    header = {
        "version": _VERSION,
        "kind": kind,
        "n_classes": model.n_classes,
        "branch": branch_to_dict(model.config),
        "tensors": [name for name, _ in tensors],
        "meta": meta or {},
    }
    if kind == "fusenet":
        header["embed_dim"] = model.attn.embed_dim
        header["heads"] = model.attn.heads
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    records = []
    for name, t in tensors:
        with np.errstate(over="ignore"):  # a value beyond float32 range becomes inf
            planes = np.array([t.re, t.im], dtype="<f4")
        if not np.isfinite(planes).all():
            raise CheckpointError(
                f"{path}: tensor {name!r} holds NaN, Inf or values beyond float32 range"
            )
        records.append(struct.pack(f"<I{t.ndim}I", t.ndim, *t.shape) + planes.tobytes())
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
    if kind not in ("baseline", "fusenet"):
        raise CheckpointError(f"{path}: unknown model kind {kind!r}")
    try:
        # eval re-derives the test split from these, so they must be usable as stored
        meta = header.get("meta", {})
        if "seed" in meta and json_int(meta["seed"], "meta 'seed'") < 0:
            raise ValueError(f"meta 'seed' must be >= 0, got {meta['seed']!r}")
        ratio = meta.get("split_ratio", 0.5)  # an absent ratio passes
        if not 0.0 < json_float(ratio, "meta 'split_ratio'") < 1.0:
            raise ValueError(f"meta 'split_ratio' must be in (0, 1), got {ratio!r}")
        branch = branch_from_dict(header["branch"])
        n_classes = _positive_int(header, "n_classes")
        embed_dim = heads = None
        if kind == "fusenet":
            embed_dim = _positive_int(header, "embed_dim")
            heads = _positive_int(header, "heads")
        need = 8 * _implied_values(kind, branch, n_classes, embed_dim)
        if need > payload_bytes:
            raise CheckpointError(
                f"{path}: header dimensions need {need} payload bytes, "
                f"only {payload_bytes} follow the header"
            )
        rng = np.random.default_rng(0)  # placeholder values; every tensor is overwritten
        if kind == "baseline":
            return init_baseline(branch, n_classes, rng)
        return init_fusenet(branch, n_classes, rng, embed_dim=embed_dim, heads=heads)
    except CheckpointError:
        raise
    except KeyError as e:
        raise CheckpointError(f"{path}: header lacks key {e}") from e
    except (TypeError, ValueError) as e:
        raise CheckpointError(f"{path}: bad header: {e}") from e


def load_checkpoint(path):
    """Returns (model, kind, meta) rebuilt from a checkpoint file."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 8 or blob[:4] != _MAGIC:
        raise CheckpointError(f"{path}: missing checkpoint magic")
    (header_len,) = struct.unpack("<I", blob[4:8])
    if len(blob) < 8 + header_len:
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(blob[8 : 8 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"{path}: bad header: {e}") from e
    if not isinstance(header, dict) or not isinstance(header.get("meta", {}), dict):
        raise CheckpointError(f"{path}: header and its 'meta' must be JSON objects")
    if type(header.get("version")) is not int or header["version"] != _VERSION:
        raise CheckpointError(f"{path}: unsupported version {header.get('version')!r}")
    model = _skeleton(header, path, len(blob) - 8 - header_len)
    expected = [name for name, _ in _all_tensors(model)]
    if header.get("tensors") != expected:
        raise CheckpointError(
            f"{path}: tensor manifest does not match a {header['kind']} model "
            f"of the declared dimensions"
        )
    shapes = {name: t.shape for name, t in _all_tensors(model)}
    offset = 8 + header_len
    mapping = {}
    for name in expected:
        if offset + 4 > len(blob):
            raise CheckpointError(f"{path}: truncated at tensor {name!r}")
        (rank,) = struct.unpack("<I", blob[offset : offset + 4])
        offset += 4
        if rank != len(shapes[name]):
            raise CheckpointError(
                f"{path}: tensor {name!r} has rank {rank}, expected {len(shapes[name])}"
            )
        if offset + 4 * rank > len(blob):
            raise CheckpointError(f"{path}: truncated at tensor {name!r}")
        extents = struct.unpack(f"<{rank}I", blob[offset : offset + 4 * rank]) if rank else ()
        offset += 4 * rank
        if extents != shapes[name]:
            raise CheckpointError(
                f"{path}: tensor {name!r} has shape {extents}, expected {shapes[name]}"
            )
        count = int(np.prod(extents, dtype=np.int64)) if rank else 1
        need = 8 * count
        if offset + need > len(blob):
            raise CheckpointError(f"{path}: truncated payload for tensor {name!r}")
        planes = np.frombuffer(blob, dtype="<f4", count=2 * count, offset=offset)
        offset += need
        if not np.isfinite(planes).all():
            raise CheckpointError(f"{path}: tensor {name!r} holds non-finite values")
        if name.endswith(".running_var") and (planes < 0).any():
            raise CheckpointError(f"{path}: tensor {name!r} holds negative variances")
        re = planes[:count].astype(np.float64).reshape(extents)
        im = planes[count:].astype(np.float64).reshape(extents)
        mapping[name] = ComplexTensor(re, im)
    if offset != len(blob):
        raise CheckpointError(f"{path}: {len(blob) - offset} trailing bytes")
    return model.with_tensors(mapping), header["kind"], header.get("meta", {})
