"""Synthetic FMCW scene generator: point reflectors plus complex Gaussian noise.

Phase model per reflector at (range R, azimuth az, elevation el) with
reflectivity alpha, for antenna indices (x, y) and fast-time sample n:

    s(x,y,n) += alpha * exp(+j*2*pi*(nu_az*x + nu_el*y + nu_rng*n))

    nu_az  = sin(az)/2          half-wavelength element spacing
    nu_el  = sin(el)/2
    nu_rng = 2*B*R / (c*N)      de-chirped beat frequency in cycles/sample

so the transform of a single on-grid reflector peaks at bins
(l, m, k) = (X*nu_az mod X, Y*nu_el mod Y, N*nu_rng mod N).

The phase is linear in each index, so each term factors into per-axis
phasors, alpha*exp(j*2*pi*nu_az*x) * exp(j*2*pi*nu_el*y) * exp(j*2*pi*nu_rng*n):
X + Y + N exponentials per reflector instead of X*Y*N, and the sum over
reflectors is one (X, R) @ (R, Y*N) complex product.
"""

import math
from dataclasses import dataclass

import numpy as np

from ..ctensor import ComplexTensor
from .cube import RadarConfig, _SPEED_OF_LIGHT
from .dataset import DatasetError, _check_samples, json_float, json_int, read_json

__all__ = [
    "SyntheticScene",
    "synth_fmcw_cube",
    "range_bin_width",
    "class_scene",
    "parse_scene_file",
]


@dataclass(frozen=True)
class SyntheticScene:
    """reflectors: tuple of (range_m, azimuth_rad, elevation_rad, reflectivity).

    seed is the noise seed; parse_scene_file leaves it None for the caller to set.
    """

    reflectors: tuple
    noise_level: float
    seed: int

    def __post_init__(self):
        if self.noise_level < 0:
            raise ValueError(f"noise_level must be >= 0, got {self.noise_level}")


def range_bin_width(config):
    """Meters of range per fast-time frequency bin."""
    return _SPEED_OF_LIGHT / (2.0 * config.bandwidth)


def synth_fmcw_cube(scene, config):
    """The scene's (X, Y, N) cube as a ComplexTensor; scene.seed fixes its noise.

    With R reflectors, A is (X, R) with columns alpha*exp(j*2*pi*nu_az*x) and
    B is (R, Y*N) with rows the flattened outer product of exp(j*2*pi*nu_el*y)
    and exp(j*2*pi*nu_rng*n); the noise-free cube is (A @ B).reshape(X, Y, N).
    Noise adds sigma times one standard_normal((X, Y, N)) draw to the real
    plane, then sigma times a second draw to the imaginary plane.
    """
    x, y, n = config.shape
    two_pi_j = 2j * np.pi
    count = len(scene.reflectors)
    a = np.empty((x, count), dtype=np.complex128)
    b = np.empty((count, y, n), dtype=np.complex128)
    for idx, (r, az, el, alpha) in enumerate(scene.reflectors):
        if not 0.0 < r < config.unambiguous_range:
            raise ValueError(
                f"reflector {idx}: range {r} m outside (0, {config.unambiguous_range:.3f}) m"
            )
        nu_az = 0.5 * np.sin(az)
        nu_el = 0.5 * np.sin(el)
        nu_rng = 2.0 * config.bandwidth * r / (_SPEED_OF_LIGHT * n)
        a[:, idx] = complex(alpha) * np.exp(two_pi_j * nu_az * np.arange(x))
        np.multiply(
            np.exp(two_pi_j * nu_el * np.arange(y))[:, None],
            np.exp(two_pi_j * nu_rng * np.arange(n)),
            out=b[idx],
        )
    acc = (a @ b.reshape(count, y * n)).reshape(x, y, n)
    re, im = acc.real, acc.imag
    if scene.noise_level > 0.0:
        if scene.seed is None:  # default_rng(None) would draw fresh OS entropy
            raise ValueError("a scene with noise needs a seed")
        rng = np.random.default_rng(scene.seed)
        if count:
            scale = float(np.sqrt(np.mean(np.abs(acc) ** 2)))
        else:
            scale = 1.0
        sigma = scene.noise_level * scale / np.sqrt(2.0)
        re += sigma * rng.standard_normal((x, y, n))
        im += sigma * rng.standard_normal((x, y, n))
    return ComplexTensor(re, im)


def class_scene(class_index, distance_m, sample_seed, config, noise_level=0.05, n_reflectors=3):
    """Scene whose reflector geometry is a fixed signature of the class.

    Angles and relative range offsets depend only on class_index; absolute
    distance, per-sample reflectivity jitter, and noise vary per sample. Used
    by the overfit and distance-shift benchmarks.
    """
    sig = np.random.default_rng(905_311 + class_index)
    bin_m = range_bin_width(config)
    angles = sig.uniform(-0.6, 0.6, size=(n_reflectors, 2))
    offsets = sig.uniform(0.0, 3.0, size=n_reflectors) * bin_m
    per_sample = np.random.default_rng(sample_seed)
    reflectors = []
    for i in range(n_reflectors):
        amp = per_sample.uniform(0.8, 1.2)
        phase = per_sample.uniform(0.0, 2.0 * np.pi)
        reflectors.append(
            (
                distance_m + offsets[i],
                angles[i, 0],
                angles[i, 1],
                amp * np.exp(1j * phase),
            )
        )
    return SyntheticScene(tuple(reflectors), noise_level, sample_seed)


def _finite_floats(values, where):
    """Each value as a float, or DatasetError naming `where` unless all are finite numbers."""
    try:
        out = tuple(json_float(v, "value") for v in values)
    except TypeError:
        raise DatasetError(f"{where}: expected numbers, got {values!r}") from None
    if not all(math.isfinite(v) for v in out):
        raise DatasetError(f"{where}: non-finite value in {values!r}")
    return out


def parse_scene_file(path):
    """Parse a scene-set JSON document.

    Layout: {"version": 1, "config": {RadarConfig fields}, "classes": [...],
    "scenes": [{"class": idx, "reflectors": [[r, az, el, re, im], ...],
    "noise_level": x, "distance_tag": str, "split_hint": str}]}.
    Returns (config, classes, entries) where each entry is
    (scene, class_index, distance_tag, split_hint); an empty scene list is
    refused, since no manifest may list no samples. A scene file carries no
    noise seed: each scene's seed is None, for the caller to set (cvradar
    synth derives one per scene from --seed). Unknown keys are ignored.
    """
    doc = read_json(path, DatasetError)
    classes, samples = _check_samples(path, doc, (), "scenes")
    if not samples:
        raise DatasetError(f"{path}: 'scenes' lists no scenes")
    cfg = doc.get("config")
    if not isinstance(cfg, dict):
        raise DatasetError(f"{path}: missing 'config' object")
    try:
        config = RadarConfig(
            center_frequency=json_float(cfg["center_frequency"], "'center_frequency'"),
            bandwidth=json_float(cfg["bandwidth"], "'bandwidth'"),
            eirp=json_float(cfg.get("eirp", 0.0), "'eirp'"),
            n_tx=json_int(cfg["n_tx"], "'n_tx'"),
            n_rx=json_int(cfg["n_rx"], "'n_rx'"),
            fast_time_samples=json_int(cfg["fast_time_samples"], "'fast_time_samples'"),
        )
    except KeyError as missing:
        raise DatasetError(f"{path}: config missing field {missing}") from None
    except (TypeError, ValueError) as e:
        raise DatasetError(f"{path}: bad config: {e}") from None
    if not all(math.isfinite(v) for v in (config.center_frequency, config.bandwidth, config.eirp)):
        raise DatasetError(f"{path}: config frequencies and eirp must be finite")
    entries = []
    for i, (raw, class_index, distance_tag, split_hint) in enumerate(samples):
        where = f"{path}: scenes[{i}]"
        raw_reflectors = raw.get("reflectors", [])
        if not isinstance(raw_reflectors, list):
            raise DatasetError(f"{where}: 'reflectors' must be an array")
        reflectors = []
        for j, refl in enumerate(raw_reflectors):
            if not (isinstance(refl, list) and len(refl) == 5):
                raise DatasetError(f"{where}: reflectors[{j}] must be [r, az, el, re, im]")
            r, az, el, re_a, im_a = _finite_floats(refl, f"{where}: reflectors[{j}]")
            if not 0.0 < r < config.unambiguous_range:
                raise DatasetError(
                    f"{where}: reflectors[{j}]: range {r} m outside "
                    f"(0, {config.unambiguous_range:.3f}) m"
                )
            reflectors.append((r, az, el, complex(re_a, im_a)))
        (noise_level,) = _finite_floats([raw.get("noise_level", 0.0)], f"{where}: noise_level")
        try:
            scene = SyntheticScene(tuple(reflectors), noise_level, None)
        except ValueError as e:
            raise DatasetError(f"{where}: {e}") from None
        entries.append((scene, class_index, distance_tag, split_hint))
    return config, classes, tuple(entries)
