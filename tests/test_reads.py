"""What each command reads: eval and train read only their split's cubes,
preprocess reads each raw cube once and holds one sample at a time, and eval
refuses what it can before reading any cube.

Reads are recorded by wrapping read_rfc1 where dsp.load_samples looks it up.
"""

import json
import os
import shutil
import threading
import tracemalloc
from collections import Counter
from types import SimpleNamespace

import pytest

from cvradar.dsp import dataset
from cvradar.traincli import (
    build_overfit_benchmark,
    bench_train_config,
    init_model,
    preprocess_dataset,
    save_checkpoint,
    split_pairs,
    write_train_config,
)
from cvradar.traincli.cli import main

SEED = 5


@pytest.fixture
def reads(monkeypatch):
    """The cube paths read_rfc1 is called with, in any order; the lane worker's reads too."""
    paths, lock = [], threading.Lock()
    read = dataset.read_rfc1

    def recording(path):
        with lock:
            paths.append(os.path.abspath(path))
        return read(path)

    monkeypatch.setattr(dataset, "read_rfc1", recording)
    return paths


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    """A bench-geometry pairs manifest (12 seen and 6 unseen samples) and the raw one it caches."""
    root = tmp_path_factory.mktemp("reads")
    raw = build_overfit_benchmark(str(root / "raw"), per_class=6, held_out_per_class=3)
    preprocess_dataset(raw, str(root / "cache"))
    return root


def _copy(dataset_dir, tmp_path):
    """A private copy of the pairs cache, its manifest path and its sample list."""
    shutil.copytree(dataset_dir / "cache", tmp_path / "cache")
    manifest = tmp_path / "cache" / "manifest.json"
    return str(manifest), json.loads(manifest.read_text())


def _split(doc, name):
    """The manifest indices of one split, by split_pairs on the sample tags."""
    tags = [SimpleNamespace(index=i, label=s["class"], unseen=s["split_hint"] == "unseen")
            for i, s in enumerate(doc["samples"])]
    split = split_pairs(doc["classes"], tags, SEED)
    return [t.index for t in getattr(split, name)]


def _files(manifest, doc, indices):
    root = os.path.dirname(manifest)
    return sorted(os.path.join(root, doc["samples"][i][key])
                  for i in indices for key in ("iq", "fft"))


def _train(manifest, out):
    config = os.path.join(os.path.dirname(out), "config.json")
    write_train_config(config, bench_train_config(manifest, seed=SEED, epochs=1, batch_size=4))
    assert main(["train", "--config", config, "--model", "baseline", "--out", out]) == 0
    return os.path.join(out, "final.ckpt")


def _keep_only(manifest, doc, indices):
    """Delete the cubes of every sample outside indices."""
    outside = set(range(len(doc["samples"]))) - set(indices)
    for path in _files(manifest, doc, outside):
        os.remove(path)


@pytest.fixture(scope="module")
def weights(dataset_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("weights")
    return _train(str(dataset_dir / "cache" / "manifest.json"), str(out / "run"))


class TestWhatEachCommandReads:
    @pytest.mark.parametrize("split", ["test", "unseen"])
    def test_eval_reads_its_split_only(self, dataset_dir, weights, tmp_path, reads, split, capsys):
        manifest, doc = _copy(dataset_dir, tmp_path)
        chosen = _split(doc, split)
        assert chosen and len(chosen) < len(doc["samples"])
        assert main(["eval", "--weights", weights, "--manifest", manifest, "--split", split]) == 0
        assert sorted(reads) == _files(manifest, doc, chosen)
        assert len(reads) == 2 * len(chosen)

    def test_train_reads_its_split_only(self, dataset_dir, tmp_path, reads):
        manifest, doc = _copy(dataset_dir, tmp_path)
        _train(manifest, str(tmp_path / "run"))
        assert sorted(reads) == _files(manifest, doc, _split(doc, "train"))

    def test_preprocess_reads_each_raw_cube_once(self, dataset_dir, tmp_path, reads):
        raw = dataset_dir / "raw"
        doc = json.loads((raw / "manifest.json").read_text())
        preprocess_dataset(str(raw / "manifest.json"), str(tmp_path / "cache"))
        assert Counter(reads) == Counter(str(raw / s["path"]) for s in doc["samples"])

    def test_train_needs_no_cube_outside_its_split(self, dataset_dir, tmp_path):
        full, doc = _copy(dataset_dir, tmp_path / "full")
        part, _ = _copy(dataset_dir, tmp_path / "part")
        _keep_only(part, doc, _split(doc, "train"))
        runs = [tmp_path / side / "run" for side in ("full", "part")]
        _train(full, str(runs[0]))
        _train(part, str(runs[1]))
        for name in ("final.ckpt", "metrics.json"):
            assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name

    def test_eval_unseen_needs_no_cube_outside_its_split(self, dataset_dir, weights, tmp_path,
                                                          capsys):
        full, doc = _copy(dataset_dir, tmp_path / "full")
        part, _ = _copy(dataset_dir, tmp_path / "part")
        _keep_only(part, doc, _split(doc, "unseen"))
        outs = []
        for manifest in (full, part):
            assert main(["eval", "--weights", weights, "--manifest", manifest,
                         "--split", "unseen"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] and '"accuracy"' in outs[0]

    def test_missing_chosen_cube_names_its_manifest_index(self, dataset_dir, weights, tmp_path,
                                                          capsys):
        manifest, doc = _copy(dataset_dir, tmp_path)
        unseen = _split(doc, "unseen")
        assert unseen[0] > 0  # a manifest index, not a position in the split
        for i in (unseen[-1], unseen[1]):
            os.remove(os.path.join(os.path.dirname(manifest), doc["samples"][i]["fft"]))
        assert main(["eval", "--weights", weights, "--manifest", manifest,
                     "--split", "unseen"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {manifest}: samples[{unseen[1]}]: file not found")
        assert err.count("\n") == 1

    def test_preprocess_holds_one_sample_at_a_time(self, tmp_path):
        """tracemalloc's peak over preprocess grows by less than one sample's
        bytes from 4 to 16 samples: no list of the raw cubes is held."""
        peaks = []
        for run, per_class in enumerate((2, 2, 8)):  # the first run warms caches up
            raw = build_overfit_benchmark(str(tmp_path / f"raw{run}"), per_class=per_class,
                                          held_out_per_class=0)
            tracemalloc.start()
            try:
                preprocess_dataset(raw, str(tmp_path / f"cache{run}"))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        x, y, n = json.loads((tmp_path / "raw0" / "manifest.json").read_text())["shape"]
        one_sample = 2 * 16 * x * y * n  # the iq and fft cubes as float64 planes
        assert peaks[2] - peaks[1] < one_sample, peaks


class TestEvalRefusesBeforeReading:
    """Refusals that need no cube come before the first read."""

    @pytest.mark.parametrize("fault", ["no-meta", "class-count", "empty-split"])
    def test_no_cube_is_read(self, dataset_dir, tmp_path, reads, capsys, fault):
        manifest = str(dataset_dir / "cache" / "manifest.json")
        if fault == "empty-split":
            manifest = preprocess_dataset(
                build_overfit_benchmark(str(tmp_path / "raw"), per_class=2, held_out_per_class=0),
                str(tmp_path / "cache"))
            reads.clear()
        n_classes = 3 if fault == "class-count" else 2
        model = init_model(bench_train_config(manifest, seed=0, epochs=1), n_classes, "baseline")
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, model, "baseline",
                        meta=None if fault == "no-meta" else {"seed": 0, "split_ratio": 0.8})
        split = "unseen" if fault == "empty-split" else "test"
        assert main(["eval", "--weights", str(ckpt), "--manifest", manifest, "--split", split]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert {"no-meta": "lacks 'seed' and 'split_ratio'", "class-count": "3 classes",
                "empty-split": "'unseen' is empty"}[fault] in err
        assert reads == []
