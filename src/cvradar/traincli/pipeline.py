"""Sample pipeline: manifests to (time-domain, spectrum) training pairs, and the split.

Two manifest kinds are accepted, and dsp.load_samples reads both in one
loop. A raw cube manifest (the dsp format) lists one RFC1 file per sample
and the spectrum is computed here on load. A pairs manifest, produced by
preprocess_dataset, lists two RFC1 files per sample so the transform cost
is paid once; note RFC1 payloads are 32-bit floats, so cached spectra are
quantized exactly like every other stored cube. Each cube reaches its
SamplePair as a flattened view, never a copy. A caller reads only the samples
it uses: train its training split, eval the split it scores, and
preprocess_dataset reads, transforms and writes one sample at a time.
"""

import os
from dataclasses import dataclass

import numpy as np

from ..ctensor import ComplexTensor, ops
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


def load_pairs(manifest_path, choose=None):
    """(classes, pairs, input_hw) from either manifest kind.

    Only the samples choose picks are read (see dsp.load_samples); without
    choose, every sample is. The pairs keep manifest order. choose gets
    cube-free samples carrying .label, .unseen and .distance_tag, so it can
    pass them to split_pairs. The pairs are made once every cube is read, on
    this thread: per-sample Python work on both threads at once contends for
    the interpreter lock.
    """
    classes, samples = load_samples(manifest_path, lambda t, cubes: (t, cubes), choose)
    pairs = tuple(
        SamplePair(*map(flatten_channels, _iq_and_spectrum(cubes)), t.label, t.distance_tag, t.unseen)
        for t, cubes in samples
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

    Each sample is read, transformed and written in one step, so no more than
    one raw sample per thread is held; the steps run as dsp.load_samples' one
    ctensor.halves job. The manifest is written in sample order once every
    sample has been cached, and not at all if one failed, though the files of
    samples cached before the failure stay. An out_dir whose manifest.json is
    the input manifest is refused before anything is written.
    """
    out_manifest = os.path.join(out_dir, "manifest.json")
    if os.path.exists(out_manifest) and os.path.samefile(manifest_path, out_manifest):
        raise DatasetError(
            f"{manifest_path}: preprocess would overwrite this input manifest with {out_manifest}"
        )

    def cache(t, cubes):
        os.makedirs(out_dir, exist_ok=True)  # here, so an invalid manifest makes no directory
        names = (f"sample_{t.index:05d}.iq.rfc1", f"sample_{t.index:05d}.fft.rfc1")
        for name, cube in zip(names, _iq_and_spectrum(cubes)):
            write_rfc1(os.path.join(out_dir, name), cube)
        return ManifestEntry(names, t.label, t.distance_tag, "unseen" if t.unseen else "auto")

    classes, entries = load_samples(manifest_path, cache)
    write_manifest(out_manifest, classes, entries)
    return out_manifest
