"""Sample pipeline: manifests to (time-domain, spectrum) training pairs, and the split.

Two manifest kinds are accepted, and dsp.load_samples reads both in one
loop. A raw cube manifest (the dsp format) lists one RFC1 file per sample
and the spectrum is computed here on load. A pairs manifest, produced by
preprocess_dataset, lists two RFC1 files per sample so the transform cost
is paid once; note RFC1 payloads are 32-bit floats, so cached spectra are
quantized exactly like every other stored cube. Each cube reaches its
SamplePair as a flattened view, never a copy.
"""

import os
from dataclasses import dataclass

import numpy as np

from ..ctensor import ComplexTensor, halves, ops
from ..dsp import (
    DatasetError,
    ManifestEntry,
    fft3d_array,
    flatten_channels,
    load_samples,
    read_rfc1,  # unused here; the benchmark's tracer patches this name
    write_manifest,
    write_rfc1,
)

__all__ = ["load_pairs", "split_pairs", "preprocess_dataset"]

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
    """One representation ("iq" or "fft") of a pair list as a (B, 1, H, W) batch:
    a view of a single pair's planes, else copied once."""
    planes = [getattr(p, attr) for p in pairs]
    if len(planes) == 1:
        return ops.reshape(planes[0], (1, 1) + planes[0].shape)
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
    """Cache both representations of every sample; returns the new manifest path.

    The samples are transformed and written as one ctensor.halves job of the
    bytes written: two cubes per sample, 16 bytes per complex element. The
    manifest is written in sample order once the job has ended, and not at all
    if a sample failed. An out_dir whose manifest.json is the input manifest is
    refused before anything is written.
    """
    out_manifest = os.path.join(out_dir, "manifest.json")
    if os.path.exists(out_manifest) and os.path.samefile(manifest_path, out_manifest):
        raise DatasetError(
            f"{manifest_path}: preprocess would overwrite this input manifest with {out_manifest}"
        )
    classes, samples = load_samples(manifest_path)
    os.makedirs(out_dir, exist_ok=True)
    names = [(f"sample_{i:05d}.iq.rfc1", f"sample_{i:05d}.fft.rfc1") for i in range(len(samples))]

    def cache(a, e):
        for i in range(a, e):
            for name, cube in zip(names[i], _iq_and_spectrum(samples[i][0])):
                write_rfc1(os.path.join(out_dir, name), cube)

    halves(len(samples), cache, 32 * len(samples) * samples[0][0][0].size)
    entries = [ManifestEntry(pair, label, distance_tag, "unseen" if unseen else "auto")
               for pair, (_, label, distance_tag, unseen) in zip(names, samples)]
    write_manifest(out_manifest, classes, entries)
    return out_manifest
