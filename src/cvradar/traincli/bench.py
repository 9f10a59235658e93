"""Synthetic benchmarks: the overfit sanity set and the distance-shift trend.

Both use the scene generator's per-class reflector signatures with small
radar geometry (8x8 antennas, 32 fast-time samples) so the full pipeline
trains in seconds on a CPU. The distance-shift benchmark trains at one band
of sensor-to-target distances and evaluates at a disjoint farther band,
probing whether a model's features survive a range shift.
"""

import os
import statistics
from dataclasses import dataclass

import numpy as np

from ..cnn import BranchConfig, ConvSpec
from ..dsp import RadarConfig, class_scene
from .cli import write_cubes
from .config import TrainConfig
from .metrics import evaluate_pairs
from .pipeline import load_pairs
from .train import train

__all__ = [
    "TrendReport",
    "bench_radar_config",
    "bench_branch_config",
    "bench_train_config",
    "build_shift_benchmark",
    "build_overfit_benchmark",
    "benchmark_trend",
    "render_trend",
]

def bench_radar_config():
    return RadarConfig(
        center_frequency=64e9,
        bandwidth=4e9,
        eirp=-5.0,
        n_tx=8,
        n_rx=8,
        fast_time_samples=32,
    )


def bench_branch_config():
    """Branch for (64, 32) inputs: 16 channels, 2 attention tokens.

    Kernels span both axes: the flattened-channel axis carries the angle
    phase ramps, which the post-conv mean would cancel if no kernel ever
    mixed neighboring rows.
    """
    return BranchConfig(
        input_hw=(64, 32),
        convs=(
            ConvSpec(8, (4, 5), (2, 2)),
            ConvSpec(12, (3, 3), (2, 2)),
            ConvSpec(16, (3, 3), (1, 1)),
        ),
        pool_window=2,
    )


def bench_train_config(manifest, seed, epochs, batch_size=8):
    return TrainConfig(
        manifest=manifest,
        batch_size=batch_size,
        epochs=epochs,
        seed=seed,
        branch=bench_branch_config(),
        embed_dim=16,
        heads=2,
    )


def _emit(out_dir, radar, specs, classes, data_seed, noise_level):
    """specs: list of (class_index, n, distance band, split_hint). Each cube draws
    its distance, then its sample seed, from data_seed; cli.write_cubes writes the set."""
    rng = np.random.default_rng(data_seed)
    scenes = []
    for class_index, count, (lo, hi), hint in specs:
        for _ in range(count):
            distance = float(rng.uniform(lo, hi))
            scene = class_scene(class_index, distance, sample_seed=int(rng.integers(2**31)),
                                config=radar, noise_level=noise_level)
            scenes.append((scene, class_index, f"{distance:.3f}m", hint))
    return write_cubes(out_dir, radar, classes, scenes)


def build_shift_benchmark(out_dir, n_classes=2, per_class_train=25, per_class_shifted=15):
    """Training cubes at 0.30-0.70 m plus cubes at 0.75-0.90 m marked unseen."""
    radar = bench_radar_config()
    classes = tuple(f"class_{c}" for c in range(n_classes))
    specs = [(c, per_class_train, (0.30, 0.70), "auto") for c in range(n_classes)]
    specs += [(c, per_class_shifted, (0.75, 0.90), "unseen") for c in range(n_classes)]
    return _emit(out_dir, radar, specs, classes, data_seed=1, noise_level=0.1)


def build_overfit_benchmark(out_dir, per_class=20, held_out_per_class=10, data_seed=3):
    """40 training and 20 held-out cubes, 2 classes, one distance band."""
    radar = bench_radar_config()
    classes = ("class_0", "class_1")
    band = (0.30, 0.70)
    specs = [(c, per_class, band, "auto") for c in range(2)]
    specs += [(c, held_out_per_class, band, "unseen") for c in range(2)]
    return _emit(out_dir, radar, specs, classes, data_seed, noise_level=0.05)


@dataclass(frozen=True)
class TrendReport:
    seeds: tuple
    kinds: tuple  # two model-kind labels
    accuracies: tuple  # two tuples, one accuracy per seed each
    n_eval: int

    def __post_init__(self):
        if len(self.kinds) != 2 or len(self.accuracies) != 2:
            raise ValueError("trend report pairs exactly two model kinds")
        if any(len(a) != len(self.seeds) for a in self.accuracies):
            raise ValueError("one accuracy per seed per kind required")

    @property
    def medians(self):
        """One median accuracy per kind."""
        return tuple(statistics.median(a) for a in self.accuracies)

    @property
    def noise_bound(self):
        """Half an accuracy step (1/n on n samples): two runs on the same split
        whose accuracies differ by less are equal."""
        return 1.0 / (2.0 * self.n_eval)

    @property
    def gap(self):
        """median(second kind) - median(first kind)."""
        return self.medians[1] - self.medians[0]


def benchmark_trend(
    seeds,
    work_dir,
    kinds=("baseline", "fusenet"),
    epochs=12,
    manifest=None,
):
    """Train both kinds per seed on the shift benchmark; evaluate far-band."""
    seeds = tuple(int(s) for s in seeds)
    if len(seeds) < 3:
        raise ValueError(f"need at least 3 seeds, got {len(seeds)}")
    if len(kinds) != 2:
        raise ValueError(f"exactly two model kinds are compared, got {len(kinds)}")
    if manifest is None:
        manifest = build_shift_benchmark(os.path.join(work_dir, "shift_data"))
    classes, pairs, _ = load_pairs(manifest)
    shifted = tuple(p for p in pairs if p.unseen)
    if not shifted:
        raise ValueError("benchmark manifest has no unseen-distance samples")
    accuracies = []
    for kind in kinds:
        per_seed = []
        for seed in seeds:
            config = bench_train_config(manifest, seed=seed, epochs=epochs)
            model, _ = train(config, kind, track_accuracy=False)
            report = evaluate_pairs(model, kind, shifted, tag="unseen")
            per_seed.append(report.accuracy)
        accuracies.append(tuple(per_seed))
    return TrendReport(
        seeds=seeds,
        kinds=tuple(kinds),
        accuracies=tuple(accuracies),
        n_eval=len(shifted),
    )


def render_trend(report):
    lines = [
        f"distance-shift benchmark: {report.n_eval} far-band samples, "
        f"seeds {list(report.seeds)}",
        f"run-to-run noise bound: {report.noise_bound:.4f}",
    ]
    for kind, accs, med in zip(report.kinds, report.accuracies, report.medians):
        cells = "  ".join(f"{a:.4f}" for a in accs)
        lines.append(f"{kind:<9} per-seed [{cells}]  median {med:.4f}")
    lines.append(f"median gap ({report.kinds[1]} - {report.kinds[0]}): {report.gap:+.4f}")
    return "\n".join(lines)
