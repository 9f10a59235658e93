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
    version: int
    classes: tuple
    samples: tuple
    shape: tuple  # expected cube shape, or None to infer from the first sample
    root: str  # directory relative sample paths resolve against

    def resolve(self, entry):
        if os.path.isabs(entry.path):
            return entry.path
        return os.path.join(self.root, entry.path)


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


def load_manifest(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as e:
            raise DatasetError(f"{path}: not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise DatasetError(f"{path}: manifest must be a JSON object")
    version = doc.get("version")
    if version != MANIFEST_VERSION:
        raise DatasetError(f"{path}: unsupported manifest version {version!r}")
    classes = doc.get("classes")
    if not isinstance(classes, list) or not classes or not all(isinstance(c, str) for c in classes):
        raise DatasetError(f"{path}: 'classes' must be a non-empty array of strings")
    raw_samples = doc.get("samples")
    if not isinstance(raw_samples, list):
        raise DatasetError(f"{path}: 'samples' must be an array")
    shape = doc.get("shape")
    if shape is not None:
        if not (isinstance(shape, list) and len(shape) == 3 and all(isinstance(v, int) and v > 0 for v in shape)):
            raise DatasetError(f"{path}: 'shape' must be three positive integers")
        shape = tuple(shape)
    entries = []
    for i, raw in enumerate(raw_samples):
        where = f"{path}: samples[{i}]"
        if not isinstance(raw, dict):
            raise DatasetError(f"{where}: must be an object")
        sample_path = raw.get("path")
        if not isinstance(sample_path, str) or not sample_path:
            raise DatasetError(f"{where}: missing 'path'")
        class_index = raw.get("class")
        if type(class_index) is not int or not 0 <= class_index < len(classes):
            raise DatasetError(
                f"{where} ({sample_path}): class index {class_index!r} outside [0, {len(classes)})"
            )
        distance_tag = raw.get("distance_tag", "")
        if not isinstance(distance_tag, str):
            raise DatasetError(f"{where} ({sample_path}): 'distance_tag' must be a string")
        split_hint = raw.get("split_hint", "auto")
        if split_hint not in _SPLIT_HINTS:
            raise DatasetError(
                f"{where} ({sample_path}): split_hint {split_hint!r} not in {_SPLIT_HINTS}"
            )
        entries.append(ManifestEntry(sample_path, class_index, distance_tag, split_hint))
    root = os.path.dirname(os.path.abspath(path))
    return DatasetManifest(version, tuple(classes), tuple(entries), shape, root)


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
    manifest = load_manifest(manifest_path)
    expected_shape = manifest.shape
    samples = []
    for i, entry in enumerate(manifest.samples):
        full = manifest.resolve(entry)
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
