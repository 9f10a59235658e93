"""The three workloads: their geometry, their inputs and one closed-loop round each.

Every round drives the package through its command-line entry point,
``cvradar.traincli.cli.main``, exactly as a user would run ``cvradar train``,
``cvradar eval``, ``cvradar synth`` and ``cvradar preprocess``.
"""

import contextlib
import io
import json
import os
import shutil
from dataclasses import dataclass, replace
from types import SimpleNamespace
from time import perf_counter

import numpy as np

CLASSES = ("class_0", "class_1")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "train" or "prep-eval"
    geometry: str  # "paper": 20x20x100 cubes; "bench": 8x8x32 cubes
    per_class: int  # cubes per class in the 80/20 train/test pool
    unseen_per_class: int  # cubes per class marked unseen: held out of training, evaluated
    batch_size: int = 8
    epochs: int = 1
    tiny: tuple = ()  # (per_class, unseen_per_class) for the smoke test

    def sized(self, tiny):
        if not tiny:
            return self
        per_class, unseen = self.tiny
        return replace(self, per_class=per_class, unseen_per_class=unseen)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "train-paper",
            "fusenet at paper geometry, batch 4: the cconv2d backward and batch norm dominate a step",
            "train", "paper", per_class=10, unseen_per_class=4, batch_size=4, epochs=1,
            tiny=(4, 1),
        ),
        Workload(
            "train-bench",
            "fusenet at test geometry, batch 8, then eval: per-op overhead and per-sample attention show",
            "train", "bench", per_class=40, unseen_per_class=8, batch_size=8, epochs=2,
            tiny=(8, 2),
        ),
        Workload(
            "prep-eval-paper",
            "scenes to cubes to cached pairs, then forward-only eval at paper geometry: times dsp, no tape",
            "prep-eval", "paper", per_class=10, unseen_per_class=0,
            tiny=(2, 0),
        ),
    )
}


def radar_config(geometry):
    from cvradar.dsp import OCCLUDED_CONFIG
    from cvradar.traincli import bench_radar_config

    return OCCLUDED_CONFIG if geometry == "paper" else bench_radar_config()


def train_config(w, manifest, seed):
    from cvradar.cnn import default_branch_config
    from cvradar.traincli import TrainConfig, bench_branch_config

    if w.geometry == "paper":
        branch, embed_dim, heads = default_branch_config((400, 100)), 256, 16
    else:
        branch, embed_dim, heads = bench_branch_config(), 16, 2
    return TrainConfig(
        manifest=manifest, batch_size=w.batch_size, epochs=w.epochs, seed=seed,
        branch=branch, embed_dim=embed_dim, heads=heads,
    )


class Paths:
    def __init__(self, data_dir):
        self.scenes = os.path.join(data_dir, "scenes.json")
        self.cubes = os.path.join(data_dir, "cubes")
        self.cube_manifest = os.path.join(self.cubes, "manifest.json")
        self.cache = os.path.join(data_dir, "cache")
        self.cache_manifest = os.path.join(self.cache, "manifest.json")
        self.config = os.path.join(data_dir, "train.json")
        self.run = os.path.join(data_dir, "run")
        self.weights = os.path.join(data_dir, "weights.ckpt")


def cvradar(*argv):
    """Run one cvradar command in-process; its stdout is discarded."""
    from cvradar.traincli import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


def _scene_file(w, seed, path):
    """Two classes of seeded point-reflector scenes, written as a scene file."""
    from cvradar.dsp import class_scene

    radar = radar_config(w.geometry)
    rng = np.random.default_rng(seed)
    scenes = []
    for hint, count in (("auto", w.per_class), ("unseen", w.unseen_per_class)):
        for class_index in range(len(CLASSES)):
            for _ in range(count):
                distance = float(rng.uniform(0.30, 0.70))
                scene = class_scene(class_index, distance, int(rng.integers(2**31)), radar)
                scenes.append(
                    {
                        "class": class_index,
                        "reflectors": [
                            [r, az, el, complex(a).real, complex(a).imag]
                            for r, az, el, a in scene.reflectors
                        ],
                        "noise_level": scene.noise_level,
                        "seed": scene.seed,
                        "distance_tag": f"{distance:.3f}m",
                        "split_hint": hint,
                    }
                )
    doc = {
        "version": 1,
        "config": {
            "center_frequency": radar.center_frequency,
            "bandwidth": radar.bandwidth,
            "eirp": radar.eirp,
            "n_tx": radar.n_tx,
            "n_rx": radar.n_rx,
            "fast_time_samples": radar.fast_time_samples,
        },
        "classes": list(CLASSES),
        "scenes": scenes,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def generate(w, seed, data_dir):
    """Every input of a workload, made from the seed alone (runs untimed)."""
    from cvradar.traincli import init_model, save_checkpoint, write_train_config
    from cvradar.traincli.pipeline import SPLIT_RATIO

    p = Paths(data_dir)
    os.makedirs(data_dir, exist_ok=True)
    _scene_file(w, seed, p.scenes)
    if w.kind == "train":
        for argv in (
            ("synth", "--scenes", p.scenes, "--out", p.cubes, "--seed", seed),
            ("preprocess", "--manifest", p.cube_manifest, "--out", p.cache),
        ):
            if cvradar(*argv) != 0:
                raise RuntimeError(f"cvradar {argv[0]} failed while generating inputs")
        write_train_config(p.config, train_config(w, os.path.relpath(p.cache_manifest, data_dir), seed))
    else:
        config = train_config(w, p.cache_manifest, seed)
        model = init_model(config, len(CLASSES), "fusenet")
        save_checkpoint(p.weights, model, "fusenet", meta={"seed": seed, "split_ratio": SPLIT_RATIO})


def setup(w, data_dir):
    """What a command does before its first unit of work; returns units per round."""
    p = Paths(data_dir)
    if w.kind == "train":
        from cvradar.traincli import (
            epoch_batches, init_model, load_pairs, load_train_config, split_pairs,
        )

        config = load_train_config(p.config)
        classes, pairs, _ = load_pairs(config.manifest)
        split = split_pairs(classes, pairs, config.seed)
        init_model(config, len(classes), "fusenet")
        batches = epoch_batches(len(split.train), config.batch_size, np.random.default_rng(0))
        return {
            "train": len(split.train) * config.epochs,
            "steps": len(batches) * config.epochs,
            "eval": len(split.unseen),
        }
    from cvradar.dsp import parse_scene_file
    from cvradar.traincli import load_checkpoint, split_pairs

    _, classes, entries = parse_scene_file(p.scenes)
    _, _, meta = load_checkpoint(p.weights)
    labels = [SimpleNamespace(label=e[1], unseen=e[3] == "unseen") for e in entries]
    test = split_pairs(classes, labels, meta["seed"], meta["split_ratio"]).test
    return {"cubes": len(entries), "eval": len(test)}


def units_per_round(units):
    """Operations one round attempts: steps or cubes, plus eval samples."""
    return units.get("steps", 0) + units.get("cubes", 0) + units["eval"]


class Tally:
    """What the rounds of one measured child did, for the end-to-end metrics."""

    def __init__(self):
        self.rounds = 0
        self.failed_rounds = 0
        self.timed_s = []  # per good round: seconds in `train`, or in `synth` + `preprocess`
        self.round_evals = []  # per good round: slice of the eval calls it made
        self.final_losses = []
        self.loss_curves_finite = True
        self.errors = []


def run_round(w, data_dir, seed):
    """One closed-loop round, each command waiting for the previous one.

    Returns (seconds of the timed commands, final training loss or None).
    Every round writes its outputs to new files: rewriting a file in place
    can make the filesystem flush it to disk on close, which would time the
    disk instead of the program.
    """
    p = Paths(data_dir)
    loss = None
    if w.kind == "train":
        shutil.rmtree(p.run, ignore_errors=True)
        t0 = perf_counter()
        rc = cvradar("train", "--config", p.config, "--model", "fusenet", "--out", p.run)
        timed = perf_counter() - t0
        if rc != 0:
            raise RuntimeError(f"cvradar train exited {rc}")
        with open(os.path.join(p.run, "metrics.json"), encoding="utf-8") as fh:
            loss = json.load(fh)[-1]["loss_curve"]
        rc = cvradar("eval", "--weights", os.path.join(p.run, "final.ckpt"),
                     "--manifest", p.cache_manifest, "--split", "unseen")
    else:
        shutil.rmtree(p.cubes, ignore_errors=True)
        shutil.rmtree(p.cache, ignore_errors=True)
        t0 = perf_counter()
        rc = cvradar("synth", "--scenes", p.scenes, "--out", p.cubes, "--seed", seed)
        if rc == 0:
            rc = cvradar("preprocess", "--manifest", p.cube_manifest, "--out", p.cache)
        timed = perf_counter() - t0
        if rc != 0:
            raise RuntimeError(f"cvradar synth/preprocess exited {rc}")
        rc = cvradar("eval", "--weights", p.weights, "--manifest", p.cache_manifest,
                     "--split", "test")
    if rc != 0:
        raise RuntimeError(f"cvradar eval exited {rc}")
    return timed, loss


def fft_check(data_dir, seed, n=3):
    """Cached spectra of a seeded sample of pairs against np.fft.fftn of their IQ cubes."""
    from cvradar.dsp import read_rfc1

    p = Paths(data_dir)
    with open(p.cache_manifest, encoding="utf-8") as fh:
        samples = json.load(fh)["samples"]
    pick = np.random.default_rng(seed).choice(len(samples), size=min(n, len(samples)), replace=False)
    bad = []
    for i in sorted(int(i) for i in pick):
        iq = read_rfc1(os.path.join(p.cache, samples[i]["iq"])).to_complex()
        fft = read_rfc1(os.path.join(p.cache, samples[i]["fft"])).to_complex()
        ref = np.fft.fftn(iq)
        # Spectra are stored as float32: allow a few float32 roundings of the largest bin.
        tol = 4 * np.finfo(np.float32).eps * float(np.abs(ref).max())
        if not np.allclose(fft, ref, rtol=0.0, atol=tol):
            bad.append(samples[i]["fft"])
    return bad
