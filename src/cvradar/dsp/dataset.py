"""Dataset manifests, sample loading, and the stratified train/test split."""

import json
import os
from dataclasses import dataclass

import numpy as np

from .cube import read_rfc1

__all__ = [
    "DatasetError",
    "ManifestEntry",
    "DatasetManifest",
    "LoadedSample",
    "Dataset",
    "Split",
    "load_manifest",
    "write_manifest",
    "load_dataset",
    "split_dataset",
]

MANIFEST_VERSION = 1
_SPLIT_HINTS = ("auto", "unseen")


class DatasetError(ValueError):
    """Manifest or sample validation failure; the message names the entry."""


@dataclass(frozen=True)
class ManifestEntry:
    path: str
    class_index: int
    distance_tag: str
    split_hint: str


@dataclass(frozen=True)
class DatasetManifest:
    classes: tuple
    samples: tuple
    shape: tuple  # expected cube shape, or None to infer from the first sample


@dataclass(frozen=True)
class LoadedSample:
    data: object  # ComplexTensor (X, Y, N)
    label: int
    distance_tag: str
    unseen: bool
    path: str


@dataclass(frozen=True)
class Dataset:
    classes: tuple
    samples: tuple

    def __len__(self):
        return len(self.samples)


@dataclass(frozen=True)
class Split:
    train: tuple
    test: tuple
    unseen: tuple


def _read_json(path):
    """The JSON document in the file at path; DatasetError naming it if it does not parse."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as e:
            raise DatasetError(f"{path}: not valid JSON: {e}") from e


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


def _manifest(path, doc):
    classes, samples = _check_samples(path, doc, ("path",))
    shape = doc.get("shape")
    if shape is not None:
        if not (isinstance(shape, list) and len(shape) == 3 and all(type(v) is int and v > 0 for v in shape)):
            raise DatasetError(f"{path}: 'shape' must be three positive integers")
        shape = tuple(shape)
    entries = tuple(ManifestEntry(raw["path"], *fields) for raw, *fields in samples)
    return DatasetManifest(classes, entries, shape)


def load_manifest(path):
    return _manifest(path, _read_json(path))


def write_manifest(path, classes, entries, shape=None):
    doc = {
        "version": MANIFEST_VERSION,
        "classes": list(classes),
        "samples": [
            {
                "path": e.path,
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


def load_dataset(manifest_path):
    """Load every sample in manifest order, validating shape and existence."""
    return _dataset(manifest_path, _read_json(manifest_path))


def _dataset(manifest_path, doc):
    manifest = _manifest(manifest_path, doc)
    root = os.path.dirname(os.path.abspath(manifest_path))
    expected_shape = manifest.shape
    samples = []
    for i, entry in enumerate(manifest.samples):
        full = os.path.join(root, entry.path)
        if not os.path.exists(full):
            raise DatasetError(f"{manifest_path}: samples[{i}]: file not found: {full}")
        data = read_rfc1(full)
        if expected_shape is None:
            expected_shape = data.shape
        if data.shape != expected_shape:
            raise DatasetError(
                f"{manifest_path}: samples[{i}] ({entry.path}): shape {data.shape} "
                f"does not match expected {expected_shape}"
            )
        samples.append(
            LoadedSample(
                data=data,
                label=entry.class_index,
                distance_tag=entry.distance_tag,
                unseen=entry.split_hint == "unseen",
                path=full,
            )
        )
    return Dataset(classes=manifest.classes, samples=tuple(samples))


def split_dataset(dataset, ratio, seed):
    """Seeded per-class stratified split of the eligible (non-unseen) samples.

    Unseen-distance samples go to a third set untouched by the shuffle.
    Each class keeps at least one sample on both sides.
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"ratio must be in (0, 1), got {ratio}")
    unseen_idx = [i for i, s in enumerate(dataset.samples) if s.unseen]
    eligible_idx = [i for i, s in enumerate(dataset.samples) if not s.unseen]
    by_class = {}
    for i in eligible_idx:
        by_class.setdefault(dataset.samples[i].label, []).append(i)
    rng = np.random.default_rng(seed)
    train_idx, test_idx = [], []
    for label in sorted(by_class):
        members = by_class[label]
        if len(members) < 2:
            raise DatasetError(
                f"class {label} ({dataset.classes[label]}) has only {len(members)} "
                "eligible samples; need at least 2 to split"
            )
        perm = rng.permutation(len(members))
        n_train = int(len(members) * ratio + 0.5)
        n_train = min(max(n_train, 1), len(members) - 1)
        train_idx.extend(members[j] for j in perm[:n_train])
        test_idx.extend(members[j] for j in perm[n_train:])
    pick = lambda idxs: tuple(dataset.samples[i] for i in sorted(idxs))
    return Split(train=pick(train_idx), test=pick(test_idx), unseen=pick(unseen_idx))
