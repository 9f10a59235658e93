"""Sample pipeline: manifests to (time-domain, spectrum) training pairs, and the split.

Two manifest kinds are accepted, and dsp.load_samples reads both in one
loop. A raw cube manifest (the dsp format) lists one RFC1 file per sample
and the spectrum is computed here on load. A pairs manifest, produced by
preprocess_dataset, lists two RFC1 files per sample so the transform cost
is paid once; note RFC1 payloads are 32-bit floats, so cached spectra are
quantized exactly like every other stored cube. Each cube reaches its
SamplePair as a flattened view, never a copy.
"""

import json
import os
from dataclasses import dataclass

import numpy as np

from ..ctensor import ComplexTensor
from ..dsp import (
    DatasetError,
    fft3d_array,
    flatten_channels,
    load_samples,
    read_rfc1,  # unused here; the benchmark's tracer patches this name
    write_rfc1,
)

__all__ = ["SamplePair", "Split", "load_pairs", "stack_pairs", "split_pairs", "preprocess_dataset"]

SPLIT_RATIO = 0.8  # conventional 80/20 train/test split


@dataclass(frozen=True)
class SamplePair:
    iq: ComplexTensor  # (X*Y, N) flattened time-domain matrix
    fft: ComplexTensor  # (X*Y, N) flattened spectrum matrix
    label: int
    distance_tag: str
    unseen: bool


@dataclass(frozen=True)
class Split:
    train: tuple
    test: tuple
    unseen: tuple


def _iq_and_spectrum(cubes):
    """A sample's (iq, spectrum) cubes: both read from a pairs manifest, or the spectrum computed."""
    if len(cubes) == 2:
        return cubes
    spec = fft3d_array(cubes[0].to_complex())
    return cubes[0], ComplexTensor(spec.real, spec.imag)


def load_pairs(manifest_path):
    """(classes, pairs, input_hw) from either manifest kind."""
    classes, samples = load_samples(manifest_path)
    pairs = tuple(
        SamplePair(*map(flatten_channels, _iq_and_spectrum(cubes)), label, distance_tag, unseen)
        for cubes, label, distance_tag, unseen in samples
    )
    return classes, pairs, pairs[0].iq.shape


def stack_pairs(pairs, attr):
    """One representation ("iq" or "fft") of a pair list as a (B, 1, H, W) batch, copied once."""
    planes = [getattr(p, attr) for p in pairs]
    return ComplexTensor([t.re[None] for t in planes], [t.im[None] for t in planes])


def split_pairs(classes, samples, seed, ratio=SPLIT_RATIO):
    """Seeded per-class stratified split of the eligible (non-unseen) samples.

    samples is a sequence of objects with `.label` and `.unseen`. Unseen
    samples go to a third set untouched by the shuffle. Each class keeps at
    least one sample on both sides; every set keeps manifest order.
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"ratio must be in (0, 1), got {ratio}")
    unseen_idx = [i for i, s in enumerate(samples) if s.unseen]
    by_class = {}
    for i, s in enumerate(samples):
        if not s.unseen:
            by_class.setdefault(s.label, []).append(i)
    rng = np.random.default_rng(seed)
    train_idx, test_idx = [], []
    for label in sorted(by_class):
        members = by_class[label]
        if len(members) < 2:
            raise DatasetError(
                f"class {label} ({classes[label]}) has only {len(members)} "
                "eligible samples; need at least 2 to split"
            )
        perm = rng.permutation(len(members))
        n_train = int(len(members) * ratio + 0.5)
        n_train = min(max(n_train, 1), len(members) - 1)
        train_idx.extend(members[j] for j in perm[:n_train])
        test_idx.extend(members[j] for j in perm[n_train:])
    pick = lambda idxs: tuple(samples[i] for i in sorted(idxs))
    return Split(train=pick(train_idx), test=pick(test_idx), unseen=pick(unseen_idx))


def preprocess_dataset(manifest_path, out_dir):
    """Cache both representations of every sample; returns the new manifest path."""
    classes, samples = load_samples(manifest_path)
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    for i, (cubes, label, distance_tag, unseen) in enumerate(samples):
        iq, fft = _iq_and_spectrum(cubes)
        iq_name = f"sample_{i:05d}.iq.rfc1"
        fft_name = f"sample_{i:05d}.fft.rfc1"
        write_rfc1(os.path.join(out_dir, iq_name), iq)
        write_rfc1(os.path.join(out_dir, fft_name), fft)
        entries.append(
            {
                "iq": iq_name,
                "fft": fft_name,
                "class": label,
                "distance_tag": distance_tag,
                "split_hint": "unseen" if unseen else "auto",
            }
        )
    out_manifest = os.path.join(out_dir, "manifest.json")
    doc = {"version": 1, "kind": "pairs", "classes": list(classes), "samples": entries}
    with open(out_manifest, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return out_manifest
