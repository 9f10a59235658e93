"""Sample pipeline: cube manifests to (time-domain, spectrum) training pairs.

Two manifest kinds are accepted. A raw cube manifest (the dsp format) lists
one RFC1 file per sample and the spectrum is computed here on load. A pairs
manifest, produced by preprocess_dataset, lists two RFC1 files per sample so
the transform cost is paid once; note RFC1 payloads are 32-bit floats, so
cached spectra are quantized exactly like every other stored cube.

Both kinds are read once and validated by dsp.dataset's sample-list check,
the one that scene files also pass: `classes`, and each sample's `class`,
`distance_tag` and `split_hint`. A pairs manifest carries the cube paths
under `iq` and `fft`; a cube manifest under `path`.
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
from ..dsp.dataset import _check_samples, _dataset, _read_json

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


def load_pairs(manifest_path):
    """(classes, pairs, input_hw) from either manifest kind."""
    doc = _read_json(manifest_path)
    if isinstance(doc, dict) and doc.get("kind") == "pairs":
        classes, samples = _check_samples(manifest_path, doc, ("iq", "fft"))
        root = os.path.dirname(os.path.abspath(manifest_path))
        pairs, shape = [], None
        for i, (raw, label, distance_tag, split_hint) in enumerate(samples):
            where = f"{manifest_path}: samples[{i}]"
            cubes = []
            for key in ("iq", "fft"):
                full = os.path.join(root, raw[key])
                if not os.path.exists(full):
                    raise DatasetError(f"{where}: file not found: {full}")
                cube = read_rfc1(full)
                shape = shape or cube.shape
                if cube.shape != shape:
                    raise DatasetError(f"{where}: cube shape {cube.shape} does not match expected {shape}")
                cubes.append(flatten_channels(cube))
            pairs.append(SamplePair(*cubes, label, distance_tag, split_hint == "unseen"))
    else:
        ds = _dataset(manifest_path, doc)
        classes = ds.classes
        pairs = [_pair_from_cube(s.data, s.label, s.distance_tag, s.unseen) for s in ds.samples]
    if not pairs:
        raise DatasetError(f"{manifest_path}: manifest lists no samples")
    return classes, tuple(pairs), pairs[0].iq.shape


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
