"""Sample-list files: their validator, cube read loop and manifest writer, and the JSON reader and number rule.

Cube manifests, pairs manifests and scene files are all checked by
_check_samples. load_samples reads the cubes a manifest lists, and
write_manifest writes them: one per sample under `path` in a cube manifest,
two under `iq` and `fft` in a pairs manifest ("kind": "pairs").
"""

import json
import math
import os
from dataclasses import dataclass

from ..ctensor import halves
from .cube import read_rfc1

__all__ = ["DatasetError", "ManifestEntry", "json_float", "json_int", "load_samples",
           "read_json", "write_manifest"]

MANIFEST_VERSION = 1
_SPLIT_HINTS = ("auto", "unseen")


class DatasetError(ValueError):
    """Manifest or sample validation failure; the message names the entry."""


@dataclass(frozen=True)
class ManifestEntry:
    path: str | tuple  # one cube file, or an (iq, fft) pair of them
    class_index: int
    distance_tag: str
    split_hint: str


def json_int(value, name):
    """value if it is a JSON integer, else TypeError naming it: a bool, float or
    numeric string is refused, not cast. Callers add their path and error class."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return value


def json_float(value, name):
    """float(value) if it is a JSON number, else TypeError naming it: a bool or a
    string is refused, not cast. An integer beyond float range reads as infinite."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def read_json(path, error, blob=None, what="not valid JSON"):
    """The JSON document in the file at path, or in blob, UTF-8 bytes read from it.

    Bytes that are not UTF-8 or not JSON, an integer too long to convert, or
    nesting too deep to parse raise error(f"{path}: {what}: ...").
    """
    if blob is None:
        with open(path, "rb") as fh:
            blob = fh.read()
    try:
        return json.loads(blob.decode("utf-8"))
    except (ValueError, RecursionError) as e:
        raise error(f"{path}: {what}: {e}") from e


def _check_samples(path, doc, path_keys, list_key="samples"):
    """Validate a sample-list document: a cube manifest, a pairs manifest or a scene file.

    The document must be a version-1 object with a non-empty `classes` array of
    non-empty strings and an array under list_key. Each sample must be an
    object with a class index into `classes`, a string `distance_tag`
    (default ""), a `split_hint` of "auto" (default) or "unseen", and a
    non-empty string under each of path_keys. Returns (classes, samples), each
    sample as (raw object, class_index, distance_tag, split_hint); any fault
    raises DatasetError naming the path and, for a sample, its index.
    """
    if not isinstance(doc, dict):
        raise DatasetError(f"{path}: must be a JSON object")
    version = doc.get("version")
    if type(version) is not int or version != MANIFEST_VERSION:
        raise DatasetError(f"{path}: unsupported version {version!r}")
    classes = doc.get("classes")
    if not isinstance(classes, list) or not classes or not all(isinstance(c, str) and c for c in classes):
        raise DatasetError(f"{path}: 'classes' must be a non-empty array of non-empty strings")
    raw_samples = doc.get(list_key)
    if not isinstance(raw_samples, list):
        raise DatasetError(f"{path}: {list_key!r} must be an array")
    samples = []
    for i, raw in enumerate(raw_samples):
        where = f"{path}: {list_key}[{i}]"
        if not isinstance(raw, dict):
            raise DatasetError(f"{where}: must be an object")
        if not all(isinstance(raw.get(key), str) and raw[key] for key in path_keys):
            raise DatasetError(f"{where}: needs {' and '.join(map(repr, path_keys))} cube path strings")
        class_index = raw.get("class")
        if type(class_index) is not int or not 0 <= class_index < len(classes):
            raise DatasetError(f"{where}: class index {class_index!r} outside [0, {len(classes)})")
        distance_tag = raw.get("distance_tag", "")
        if not isinstance(distance_tag, str):
            raise DatasetError(f"{where}: 'distance_tag' must be a string, got {distance_tag!r}")
        split_hint = raw.get("split_hint", "auto")
        if split_hint not in _SPLIT_HINTS:
            raise DatasetError(f"{where}: split_hint {split_hint!r} not in {_SPLIT_HINTS}")
        samples.append((raw, class_index, distance_tag, split_hint))
    return tuple(classes), samples


def load_samples(manifest_path):
    """Every sample of a cube or pairs manifest, its cubes in manifest order.

    Returns (classes, samples), each sample as (cubes, class_index,
    distance_tag, unseen) with cubes a tuple of (X, Y, N) ComplexTensors: the
    one `path` cube, or the `iq` and `fft` cubes. Every cube must have one
    shape, the manifest's `shape` if it gives one, else the first cube's. An
    empty sample list raises DatasetError naming the manifest; a missing file
    or a wrong shape raises it naming the manifest, samples[i] and the cube
    file, for the lowest failing i. After sample 0 the rest are read as one
    ctensor.halves job of their bytes, 16 per complex element.
    """
    doc = read_json(manifest_path, DatasetError)
    pairs = isinstance(doc, dict) and doc.get("kind") == "pairs"
    path_keys = ("iq", "fft") if pairs else ("path",)
    classes, checked = _check_samples(manifest_path, doc, path_keys)
    shape = doc.get("shape")
    if shape is not None:
        if not (isinstance(shape, list) and len(shape) == 3 and all(type(v) is int and v > 0 for v in shape)):
            raise DatasetError(f"{manifest_path}: 'shape' must be three positive integers")
        shape = tuple(shape)
    if not checked:
        raise DatasetError(f"{manifest_path}: manifest lists no samples")
    root = os.path.dirname(os.path.abspath(manifest_path))

    def read(i, shape):
        raw, class_index, distance_tag, split_hint = checked[i]
        cubes = []
        for key in path_keys:
            full = os.path.join(root, raw[key])
            if not os.path.exists(full):
                raise DatasetError(f"{manifest_path}: samples[{i}]: file not found: {full}")
            cube = read_rfc1(full)
            shape = shape or cube.shape
            if cube.shape != shape:
                raise DatasetError(
                    f"{manifest_path}: samples[{i}]: {raw[key]}: shape {cube.shape} "
                    f"does not match expected {shape}"
                )
            cubes.append(cube)
        return tuple(cubes), class_index, distance_tag, split_hint == "unseen"

    # sample 0 fixes the shape, so each later sample fails or reads on its own
    first = read(0, shape)
    shape = first[0][0].shape
    parts = halves(len(checked) - 1, lambda a, e: [read(i, shape) for i in range(a + 1, e + 1)],
                   16 * len(path_keys) * (len(checked) - 1) * math.prod(shape))
    return classes, [first, *(sample for part in parts for sample in part)]


def write_manifest(path, classes, entries, shape=None):
    """Write the manifest load_samples reads: a pairs manifest ("kind": "pairs")
    if the entries' paths are (iq, fft) pairs, else a cube manifest."""
    pairs = bool(entries) and isinstance(entries[0].path, tuple)
    doc = {
        "version": MANIFEST_VERSION,
        **({"kind": "pairs"} if pairs else {}),
        "classes": list(classes),
        "samples": [
            {
                **(dict(zip(("iq", "fft"), e.path)) if pairs else {"path": e.path}),
                "class": e.class_index,
                "distance_tag": e.distance_tag,
                "split_hint": e.split_hint,
            }
            for e in entries
        ],
    }
    if shape is not None:
        doc["shape"] = list(shape)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
