"""Sample pipeline: cube manifests to (time-domain, spectrum) training pairs.

Two manifest kinds are accepted. A raw cube manifest (the dsp format) lists
one RFC1 file per sample and the spectrum is computed here on load. A pairs
manifest, produced by preprocess_dataset, lists two RFC1 files per sample so
the transform cost is paid once; note RFC1 payloads are 32-bit floats, so
cached spectra are quantized exactly like every other stored cube.
"""

import json
import os
from dataclasses import dataclass

from ..ctensor import ComplexTensor
from ..dsp import (
    Dataset,
    DatasetError,
    fft3d_array,
    flatten_channels,
    load_dataset,
    read_rfc1,
    split_dataset,
    write_rfc1,
)

__all__ = ["SamplePair", "load_pairs", "split_pairs", "preprocess_dataset"]

SPLIT_RATIO = 0.8  # conventional 80/20 train/test split


@dataclass(frozen=True)
class SamplePair:
    iq: ComplexTensor  # (X*Y, N) flattened time-domain matrix
    fft: ComplexTensor  # (X*Y, N) flattened spectrum matrix
    label: int
    distance_tag: str
    unseen: bool


def _spectrum(cube_tensor):
    spec = fft3d_array(cube_tensor.to_complex())
    return ComplexTensor(spec.real, spec.imag)


def _pair_from_cube(cube_tensor, label, distance_tag, unseen):
    return SamplePair(
        iq=flatten_channels(cube_tensor),
        fft=flatten_channels(_spectrum(cube_tensor)),
        label=label,
        distance_tag=distance_tag,
        unseen=unseen,
    )


def _load_pairs_manifest(path, doc):
    classes = doc.get("classes")
    if not isinstance(classes, list) or not all(isinstance(c, str) and c for c in classes):
        raise DatasetError(f"{path}: 'classes' must be a non-empty array of names")
    root = os.path.dirname(os.path.abspath(path))
    samples = doc.get("samples", [])
    if not isinstance(samples, list):
        raise DatasetError(f"{path}: 'samples' must be an array")
    pairs = []
    shape = None
    for i, raw in enumerate(samples):
        where = f"{path}: samples[{i}]"
        if not isinstance(raw, dict) or not all(
            isinstance(raw.get(key), str) and raw[key] for key in ("iq", "fft")
        ):
            raise DatasetError(f"{where}: needs 'iq' and 'fft' cube path strings")
        label = raw.get("class")
        if type(label) is not int or not 0 <= label < len(classes):
            raise DatasetError(f"{where}: bad class index {label!r}")
        cubes = {}
        for key in ("iq", "fft"):
            full = raw[key] if os.path.isabs(raw[key]) else os.path.join(root, raw[key])
            if not os.path.exists(full):
                raise DatasetError(f"{where}: file not found: {full}")
            cubes[key] = read_rfc1(full)
            if shape is None:
                shape = cubes[key].shape
            if cubes[key].shape != shape:
                raise DatasetError(
                    f"{where}: cube shape {cubes[key].shape} does not match expected {shape}"
                )
        pairs.append(
            SamplePair(
                iq=flatten_channels(cubes["iq"]),
                fft=flatten_channels(cubes["fft"]),
                label=label,
                distance_tag=str(raw.get("distance_tag", "")),
                unseen=raw.get("split_hint", "auto") == "unseen",
            )
        )
    if not pairs:
        raise DatasetError(f"{path}: manifest lists no samples")
    return tuple(classes), tuple(pairs)


def load_pairs(manifest_path):
    """(classes, pairs, input_hw) from either manifest kind."""
    with open(manifest_path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as e:
            raise DatasetError(f"{manifest_path}: not valid JSON: {e}") from e
    if isinstance(doc, dict) and doc.get("kind") == "pairs":
        if doc.get("version") != 1:
            raise DatasetError(f"{manifest_path}: unsupported pairs manifest version")
        classes, pairs = _load_pairs_manifest(manifest_path, doc)
    else:
        ds = load_dataset(manifest_path)
        if not ds.samples:
            raise DatasetError(f"{manifest_path}: manifest lists no samples")
        classes = ds.classes
        pairs = tuple(
            _pair_from_cube(s.data, s.label, s.distance_tag, s.unseen) for s in ds.samples
        )
    return classes, pairs, pairs[0].iq.shape


def split_pairs(classes, pairs, seed, ratio=SPLIT_RATIO):
    """Seeded stratified split; reuses the dataset splitter's contract."""
    return split_dataset(Dataset(classes=tuple(classes), samples=tuple(pairs)), ratio, seed)


def preprocess_dataset(manifest_path, out_dir):
    """Cache both representations of every sample; returns the new manifest path."""
    ds = load_dataset(manifest_path)
    if not ds.samples:
        raise DatasetError(f"{manifest_path}: manifest lists no samples")
    os.makedirs(out_dir, exist_ok=True)
    samples = []
    for i, s in enumerate(ds.samples):
        iq_name = f"sample_{i:05d}.iq.rfc1"
        fft_name = f"sample_{i:05d}.fft.rfc1"
        write_rfc1(os.path.join(out_dir, iq_name), s.data)
        write_rfc1(os.path.join(out_dir, fft_name), _spectrum(s.data))
        samples.append(
            {
                "iq": iq_name,
                "fft": fft_name,
                "class": s.label,
                "distance_tag": s.distance_tag,
                "split_hint": "unseen" if s.unseen else "auto",
            }
        )
    out_manifest = os.path.join(out_dir, "manifest.json")
    doc = {"version": 1, "kind": "pairs", "classes": list(ds.classes), "samples": samples}
    with open(out_manifest, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return out_manifest
