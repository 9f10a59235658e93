"""Optimizer, config, pipeline, checkpoint, training loop, and CLI tests."""

import json
import math
import os
import struct
import threading
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from cvradar.ctensor import ComplexTensor
from cvradar.cnn import (
    BranchConfig, ConvSpec, baseline_logits, chunk_size, default_branch_config, init_baseline,
)
from cvradar.dsp import (
    CubeFormatError,
    DatasetError,
    parse_scene_file,
    read_rfc1,
    write_rfc1,
)
from cvradar.traincli import (
    AdamState,
    CheckpointError,
    ConfigError,
    DivergenceError,
    MetricsReport,
    OptimizerError,
    TrainConfig,
    TrainingError,
    adam_step,
    bench_train_config,
    benchmark_trend,
    build_overfit_benchmark,
    build_shift_benchmark,
    config_from_dict,
    config_to_dict,
    epoch_batches,
    evaluate_pairs,
    init_adam_state,
    init_model,
    load_checkpoint,
    load_pairs,
    load_train_config,
    preprocess_dataset,
    render_report,
    render_trend,
    report_to_dict,
    save_checkpoint,
    split_pairs,
    toy_branch_config,
    train,
    write_train_config,
)
from cvradar.fusion import fusenet_logits_batch, init_fusenet
from cvradar.fusion import model as fusion_model
from cvradar.traincli import checkpoint as checkpoint_module
from cvradar.traincli.checkpoint import _all_tensors, _implied_values
from cvradar.traincli.cli import main


def adam_oracle(w0, grads, lr=0.001, b1=0.9, b2=0.999, eps=1e-8):
    """Independent textbook recurrence: bias-corrected Adam on one real array."""
    w = np.array(w0, dtype=np.float64)
    m = np.zeros_like(w)
    v = np.zeros_like(w)
    for t, g in enumerate(grads, start=1):
        g = np.asarray(g, dtype=np.float64)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        w = w - lr * m_hat / (np.sqrt(v_hat) + eps)
    return w


def grad_of(re=None, im=None):
    return SimpleNamespace(re=re, im=im)


def small_config(manifest="unused.json", **kw):
    kw.setdefault("branch", BranchConfig(
        input_hw=(4, 8),
        convs=(ConvSpec(2, (1, 3), (1, 1)), ConvSpec(3, (1, 3), (1, 1)), ConvSpec(2, (1, 2), (1, 1))),
        pool_window=1,
    ))
    kw.setdefault("embed_dim", 8)
    kw.setdefault("heads", 2)
    return TrainConfig(manifest=manifest, **kw)


class TestTrainConfig:
    def test_defaults(self):
        c = TrainConfig(manifest="m.json")
        assert c.learning_rate == 0.001
        assert c.batch_size == 16
        assert c.epochs == 15
        assert (c.beta1, c.beta2, c.eps) == (0.9, 0.999, 1e-8)
        assert c.embed_dim == 256
        assert c.heads == 16

    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(manifest="")
        with pytest.raises(ConfigError):
            TrainConfig(manifest="m", learning_rate=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(manifest="m", batch_size=1)
        with pytest.raises(ConfigError):
            TrainConfig(manifest="m", epochs=0)
        with pytest.raises(ConfigError):
            TrainConfig(manifest="m", beta1=1.0)
        with pytest.raises(ConfigError):
            TrainConfig(manifest="m", beta2=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(manifest="m", eps=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(manifest="m", embed_dim=10, heads=4)

    def test_dict_round_trip(self):
        c = small_config(seed=7, epochs=3, batch_size=4)
        assert config_from_dict(config_to_dict(c)) == c

    def test_json_file_round_trip(self, tmp_path):
        c = small_config(manifest=str(tmp_path / "m.json"), seed=2)
        path = tmp_path / "config.json"
        write_train_config(path, c)
        assert load_train_config(path) == c

    def test_relative_manifest_resolves_against_config_dir(self, tmp_path):
        c = small_config(manifest="data/m.json")
        path = tmp_path / "config.json"
        write_train_config(path, c)
        loaded = load_train_config(path)
        assert loaded.manifest == str(tmp_path / "data" / "m.json")

    def test_unknown_field_rejected(self):
        doc = config_to_dict(small_config())
        doc["momentum"] = 0.9
        with pytest.raises(ConfigError, match="momentum"):
            config_from_dict(doc)

    def test_removed_out_dim_rejected_with_path(self, tmp_path):
        doc = config_to_dict(small_config())
        doc["out_dim"] = 32
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="config.json.*out_dim"):
            load_train_config(path)

    @staticmethod
    def _bad_doc(field, value, doc):
        """doc with field set to value; a callable value maps the old one.

        Conv fields go to the first conv, convs and pool_window to the branch.
        """
        parent = doc
        if field in ("kernel", "out_channels"):
            parent = doc["branch"]["convs"][0]
        elif field in ("convs", "pool_window"):
            parent = doc["branch"]
        parent[field] = value(parent[field]) if callable(value) else value
        return doc

    @pytest.mark.parametrize("field, value", [
        pytest.param("learning_rate", float("nan"), id="lr-nan"),
        pytest.param("learning_rate", float("inf"), id="lr-inf"),
        pytest.param("eps", float("nan"), id="eps-nan"),
        pytest.param("convs", lambda convs: convs[:2], id="two-convs"),
        pytest.param("kernel", [99, 99], id="kernel-too-big"),
        pytest.param("out_channels", "x", id="channels-not-int"),
        # numbers are not cast: integer fields take JSON integers only,
        # float fields take int or float but not bool or string
        ("batch_size", 2.7), ("epochs", 1.9), ("embed_dim", 16.5), ("heads", 2.0),
        ("seed", True), ("batch_size", "8"), ("learning_rate", "0.01"),
        ("learning_rate", True), ("eps", "1e-8"), ("pool_window", "1"), ("out_channels", True),
        pytest.param("kernel", [1.0, 3.0], id="kernel-floats"),
        pytest.param("learning_rate", 10**400, id="lr-beyond-float-range"),
    ])
    def test_bad_value_names_path(self, tmp_path, field, value):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(self._bad_doc(field, value, config_to_dict(small_config()))))
        with pytest.raises(ConfigError) as info:
            load_train_config(path)
        assert str(path) in str(info.value)
        # two-convs is reported as a layer count; every other case names its field
        assert field in str(info.value) or field == "convs"

    def test_undecodable_file_names_path(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_bytes(b'{"manifest": "\xff"}')
        with pytest.raises(ConfigError, match="not valid JSON") as info:
            load_train_config(path)
        assert str(path) in str(info.value)


class TestAdam:
    def _params(self, re, im=None):
        t = ComplexTensor(np.array(re, dtype=np.float64), None if im is None else np.array(im, dtype=np.float64))
        return [("w", t)]

    def test_zero_gradient_zero_state_unchanged(self):
        params = self._params([1.0, -2.0], [0.5, 0.5])
        grads = {"w": grad_of(np.zeros(2), np.zeros(2))}
        updated, state = adam_step(params, grads, init_adam_state(), small_config())
        assert np.array_equal(updated[0][1].re, params[0][1].re)
        assert np.array_equal(updated[0][1].im, params[0][1].im)
        assert state.step == 1

    def test_zero_gradient_nonzero_state_unchanged(self):
        # the skip rule holds regardless of accumulated momentum
        params = self._params([1.0, -2.0])
        state = init_adam_state()
        updated, state = adam_step(params, {"w": grad_of(np.array([0.3, -0.4]), None)}, state, small_config())
        moved = updated[0][1]
        updated2, _ = adam_step(updated, {"w": grad_of(np.zeros(2), None)}, state, small_config())
        assert np.array_equal(updated2[0][1].re, moved.re)
        assert np.array_equal(updated2[0][1].im, moved.im)

    def test_absent_gradient_unchanged(self):
        params = self._params([3.0])
        updated, _ = adam_step(params, {}, init_adam_state(), small_config())
        assert updated[0][1] is params[0][1]

    def test_first_step_magnitude_is_lr(self):
        # step 1: m_hat/sqrt(v_hat) = sign(g) up to eps, so |delta| = lr
        cfg = small_config()
        params = self._params([0.0])
        updated, _ = adam_step(params, {"w": grad_of(np.array([0.37]), None)}, init_adam_state(), cfg)
        delta = float(updated[0][1].re[0])
        assert delta < 0  # moves against the gradient
        assert abs(abs(delta) - cfg.learning_rate) <= cfg.learning_rate * 1e-6

    def test_ten_step_quadratic_matches_oracle(self):
        # grad of 0.5*w^2 is w itself, evaluated at the current iterate
        cfg = small_config(learning_rate=0.05)
        params = self._params([1.0, -0.7, 0.3])
        state = init_adam_state()
        grads_seen = []
        for _ in range(10):
            g = params[0][1].re.copy()
            grads_seen.append(g)
            params, state = adam_step(params, {"w": grad_of(g, None)}, state, cfg)
        expected = adam_oracle([1.0, -0.7, 0.3], grads_seen, lr=0.05)
        assert np.max(np.abs(params[0][1].re - expected)) <= 1e-10
        assert state.step == 10

    def test_imaginary_plane_stays_exactly_zero(self):
        params = self._params([1.0, 2.0])
        state = init_adam_state()
        for _ in range(3):
            g = grad_of(params[0][1].re * 0.1, None)
            params, state = adam_step(params, {"w": g}, state, small_config())
        assert np.array_equal(params[0][1].im, np.zeros(2))

    def test_planes_update_independently(self):
        params = self._params([1.0], [1.0])
        updated, _ = adam_step(
            params, {"w": grad_of(np.array([0.5]), np.zeros(1))}, init_adam_state(), small_config()
        )
        assert updated[0][1].re[0] != 1.0
        assert updated[0][1].im[0] == 1.0

    def test_nonfinite_gradient_names_parameter(self):
        params = self._params([1.0])
        with pytest.raises(OptimizerError, match="head.w"):
            adam_step(
                [("head.w", params[0][1])],
                {"head.w": grad_of(np.array([np.nan]), None)},
                init_adam_state(),
                small_config(),
            )

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            AdamState(step=-1, moments={})


class TestEpochBatches:
    def test_partition_and_sizes(self):
        rng = np.random.default_rng(3)
        batches = epoch_batches(33, 16, rng)
        assert [len(b) for b in batches] == [16, 17]  # trailing singleton folded
        seen = sorted(int(i) for b in batches for i in b)
        assert seen == list(range(33))

    def test_exact_multiple(self):
        batches = epoch_batches(32, 16, np.random.default_rng(0))
        assert [len(b) for b in batches] == [16, 16]

    def test_short_final_batch_kept(self):
        batches = epoch_batches(21, 8, np.random.default_rng(1))
        assert [len(b) for b in batches] == [8, 8, 5]

    def test_deterministic_given_seed(self):
        a = epoch_batches(20, 8, np.random.default_rng(5))
        b = epoch_batches(20, 8, np.random.default_rng(5))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_epochs_shuffle_differently(self):
        a = epoch_batches(20, 8, np.random.default_rng(5))
        b = epoch_batches(20, 8, np.random.default_rng(6))
        assert any(not np.array_equal(x, y) for x, y in zip(a, b))


@pytest.fixture(scope="module")
def tiny_manifest(tmp_path_factory):
    root = tmp_path_factory.mktemp("tinyset")
    return build_overfit_benchmark(str(root), per_class=6, held_out_per_class=3)


class TestPipeline:
    def test_load_pairs_shapes(self, tiny_manifest):
        classes, pairs, hw = load_pairs(tiny_manifest)
        assert classes == ("class_0", "class_1")
        assert hw == (64, 32)  # 8*8 channels, 32 fast-time samples
        assert len(pairs) == 18
        assert all(p.iq.shape == (64, 32) and p.fft.shape == (64, 32) for p in pairs)

    def test_unseen_flag_from_hint(self, tiny_manifest):
        _, pairs, _ = load_pairs(tiny_manifest)
        assert sum(p.unseen for p in pairs) == 6

    def test_preprocess_cache_matches(self, tiny_manifest, tmp_path):
        cached_manifest = preprocess_dataset(tiny_manifest, str(tmp_path / "cache"))
        classes_a, pairs_a, _ = load_pairs(tiny_manifest)
        classes_b, pairs_b, _ = load_pairs(cached_manifest)
        assert classes_a == classes_b
        assert len(pairs_a) == len(pairs_b)
        scale = max(np.max(np.abs(p.fft.re)) for p in pairs_a)
        for a, b in zip(pairs_a, pairs_b):
            # raw cubes are stored 32-bit, so the time-domain side is exact
            assert np.array_equal(a.iq.re, b.iq.re)
            assert np.array_equal(a.iq.im, b.iq.im)
            # the cached spectrum is quantized to 32-bit on write
            assert np.max(np.abs(a.fft.re - b.fft.re)) <= 1e-6 * scale
            assert a.label == b.label and a.unseen == b.unseen

    def test_split_pairs_partition(self, tiny_manifest):
        classes, pairs, _ = load_pairs(tiny_manifest)
        split = split_pairs(classes, pairs, seed=3)
        assert len(split.train) + len(split.test) == 12
        assert len(split.unseen) == 6
        # 80/20 of 6 eligible per class: 5 train, 1 test
        assert len(split.train) == 10
        train_ids = {id(p) for p in split.train}
        assert all(id(p) not in train_ids for p in split.test)

    def test_pairs_manifest_errors(self, tmp_path):
        path = tmp_path / "pairs.json"
        doc = {"version": 1, "kind": "pairs", "classes": ["a", "b"],
               "samples": [{"iq": "x.rfc1", "class": 0}]}
        path.write_text(json.dumps(doc))
        with pytest.raises(Exception, match=r"samples\[0\]"):
            load_pairs(str(path))

    _PAIRS = {"version": 1, "kind": "pairs", "classes": ["a", "b"]}
    _SCENE_CONFIG = {"center_frequency": 64e9, "bandwidth": 4e9,
                     "n_tx": 2, "n_rx": 2, "fast_time_samples": 16}

    @pytest.mark.parametrize("loader, doc, match", [
        (load_pairs, "{not json", "not valid JSON"),
        (load_pairs, "{not json", "not valid JSON"),
        (load_pairs, {**_PAIRS, "samples": 5}, "'samples' must be an array"),
        (load_pairs, {**_PAIRS, "samples": [{"iq": 5, "fft": "f.rfc1", "class": 0}]},
         "needs 'iq' and 'fft' cube path strings"),
        (load_pairs, {**_PAIRS, "samples": [{"iq": "i.rfc1", "fft": ["f"], "class": 0}]},
         "needs 'iq' and 'fft' cube path strings"),
        (load_pairs, {**_PAIRS, "samples": [{"iq": "i.rfc1", "fft": "f.rfc1", "class": True}]},
         "class index True"),
        (load_pairs, {"version": 1, "classes": ["a", "b"],
                      "samples": [{"path": "s.rfc1", "class": True}]}, "class index True"),
        (parse_scene_file, {"version": 1, "config": _SCENE_CONFIG, "classes": ["a", "b"],
                            "scenes": [{"class": True}]}, "class index True"),
        (load_pairs, {**_PAIRS, "samples": [{"iq": "i.rfc1", "fft": "f.rfc1", "class": 0,
                                             "split_hint": "unsen"}]},
         r"samples\[0\]: split_hint 'unsen'"),
        (load_pairs, {**_PAIRS, "samples": [{"iq": "i.rfc1", "fft": "f.rfc1", "class": 0,
                                             "distance_tag": 5}]},
         r"samples\[0\]: 'distance_tag' must be a string"),
        (parse_scene_file, {"version": 1, "config": _SCENE_CONFIG, "classes": ["a"],
                            "scenes": [{"class": 0, "distance_tag": [1, 2]}]},
         r"scenes\[0\]: 'distance_tag' must be a string"),
        (parse_scene_file, {"version": 1, "config": _SCENE_CONFIG, "classes": ["a"],
                            "scenes": [{"class": 0, "distance_tag": None}]},
         r"scenes\[0\]: 'distance_tag' must be a string"),
        (parse_scene_file, {"version": 1, "config": _SCENE_CONFIG, "classes": [1, 2],
                            "scenes": []}, "'classes' must be"),
        (load_pairs, {"version": 1, "classes": ["a", ""], "samples": []}, "'classes' must be"),
        (load_pairs, {"version": 1, "classes": ["a"], "shape": [True, 2, 3], "samples": []},
         "'shape' must be three positive integers"),
        (load_pairs, {"version": True, "classes": ["a"], "samples": []},
         "unsupported version True"),
    ], ids=["pairs-json", "manifest-json", "pairs-samples-int", "pairs-iq-int",
            "pairs-fft-list", "pairs-class-bool", "manifest-class-bool", "scenes-class-bool",
            "pairs-hint-typo", "pairs-tag-int", "scenes-tag-list", "scenes-tag-null",
            "scenes-classes-int", "manifest-class-empty", "manifest-shape-bool",
            "manifest-version-bool"])
    def test_malformed_manifest_names_path(self, tmp_path, loader, doc, match):
        path = tmp_path / "doc.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        with pytest.raises(DatasetError, match=match) as info:
            loader(str(path))
        assert str(path) in str(info.value)

    def test_malformed_scene_file_names_path(self, tmp_path):
        # json.dumps writes math.nan and math.inf as the NaN and Infinity tokens
        def scene_doc(config=self._SCENE_CONFIG, reflector=(0.3, 0.1, 0.0, 1.0, 0.0),
                      scenes=None):
            if scenes is None:
                scenes = [{"class": 0, "reflectors": [list(reflector)]}]
            return json.dumps({"version": 1, "config": config, "classes": ["a"],
                               "scenes": scenes})

        cases = {
            "bad-json": ("{not json", "not valid JSON"),
            "scenes-int": (scene_doc(scenes=5), "'scenes' must be an array"),
            "n_tx-str": (scene_doc(config={**self._SCENE_CONFIG, "n_tx": "x"}), "bad config"),
            "reflector-str": (scene_doc(reflector=(0.3, "left", 0.0, 1.0, 0.0)),
                              r"scenes\[0\]: reflectors\[0\]: expected numbers"),
            "range-nan": (scene_doc(reflector=(math.nan, 0.1, 0.0, 1.0, 0.0)),
                          r"scenes\[0\]: reflectors\[0\]: non-finite"),
            "reflectors-int": (scene_doc(scenes=[{"class": 0, "reflectors": 5}]),
                               r"scenes\[0\]: 'reflectors' must be an array"),
            "noise-nan": (scene_doc(scenes=[{"class": 0, "noise_level": math.nan}]),
                          r"scenes\[0\]: noise_level: non-finite"),
            "bandwidth-inf": (scene_doc(config={**self._SCENE_CONFIG, "bandwidth": math.inf}),
                              "must be finite"),
            "range-huge-int": (scene_doc(reflector=(10**400, 0.1, 0.0, 1.0, 0.0)),
                               r"scenes\[0\]: reflectors\[0\]: non-finite"),
            "frequency-str": (scene_doc(config={**self._SCENE_CONFIG, "center_frequency": "64e9"}),
                              "'center_frequency' must be a number, got '64e9'"),
            "eirp-bool": (scene_doc(config={**self._SCENE_CONFIG, "eirp": True}),
                          "'eirp' must be a number, got True"),
            "reflector-bool-str": (scene_doc(reflector=(0.3, True, "0.1", 1.0, False)),
                                   r"scenes\[0\]: reflectors\[0\]: expected numbers"),
            "noise-bool": (scene_doc(scenes=[{"class": 0, "noise_level": True}]),
                           r"scenes\[0\]: noise_level: expected numbers"),
            "noise-str": (scene_doc(scenes=[{"class": 0, "noise_level": "0.1"}]),
                          r"scenes\[0\]: noise_level: expected numbers"),
            "range-beyond": (scene_doc(reflector=(5.0, 0.1, 0.0, 1.0, 0.0)),
                             r"scenes\[0\]: reflectors\[0\]: range 5.0 m outside"),
            "range-negative": (scene_doc(reflector=(-0.3, 0.1, 0.0, 1.0, 0.0)),
                               r"scenes\[0\]: reflectors\[0\]: range -0.3 m outside"),
            "n_tx-float": (scene_doc(config={**self._SCENE_CONFIG, "n_tx": 8.7}),
                           "'n_tx' must be an integer, got 8.7"),
            "n_rx-bool": (scene_doc(config={**self._SCENE_CONFIG, "n_rx": True}),
                          "'n_rx' must be an integer, got True"),
            "fast_time-str": (scene_doc(config={**self._SCENE_CONFIG, "fast_time_samples": "32"}),
                              "'fast_time_samples' must be an integer, got '32'"),
            "split-train": (scene_doc(scenes=[{"class": 0, "split_hint": "train"}]),
                            r"scenes\[0\]: split_hint 'train' not in"),
        }
        for name, (text, match) in cases.items():
            path = tmp_path / f"{name}.json"
            path.write_text(text)
            with pytest.raises(DatasetError, match=match) as info:
                parse_scene_file(str(path))
            assert str(path) in str(info.value), name

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_cube_names_path(self, tmp_path, bad):
        payload = np.arange(24, dtype="<f4")
        payload[7] = bad
        cube = tmp_path / "bad.rfc1"
        cube.write_bytes(b"RFC1" + struct.pack("<III", 2, 2, 3) + payload.tobytes())
        write_rfc1(tmp_path / "good.rfc1", ComplexTensor(np.ones((2, 2, 3)), np.ones((2, 2, 3))))
        manifest = tmp_path / "pairs.json"
        manifest.write_text(json.dumps({**self._PAIRS, "samples": [
            {"iq": "good.rfc1", "fft": "bad.rfc1", "class": 0}]}))
        for load, arg in ((read_rfc1, cube), (load_pairs, manifest)):
            with pytest.raises(CubeFormatError, match="non-finite") as info:
                load(str(arg))
            assert str(cube) in str(info.value)


class TestCheckpoint:
    def _model(self, kind, seed=4):
        cfg = small_config(seed=seed)
        return init_model(cfg, 2, kind)

    @pytest.mark.parametrize("kind", ["baseline", "fusenet"])
    def test_save_load_save_byte_identical(self, tmp_path, kind):
        model = self._model(kind)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, model, kind, meta={"seed": 4})
        loaded, kind2, meta = load_checkpoint(p1)
        assert kind2 == kind
        assert meta == {"seed": 4}
        save_checkpoint(p2, loaded, kind2, meta)
        assert p1.read_bytes() == p2.read_bytes()

    def test_values_quantized_to_f32(self, tmp_path):
        model = self._model("fusenet")
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, "fusenet")
        loaded, _, _ = load_checkpoint(path)
        for (name, a), (_, b) in zip(model.parameters(), loaded.parameters()):
            assert np.array_equal(b.re, a.re.astype("<f4").astype(np.float64)), name
            assert np.array_equal(b.im, a.im.astype("<f4").astype(np.float64)), name

    def test_running_stats_round_trip(self, tmp_path):
        model = self._model("fusenet")
        stats = dict(model.state())
        bumped = {n: ComplexTensor(t.re + 0.25, t.im - 0.125) for n, t in stats.items()}
        model = model.with_tensors(bumped)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, "fusenet")
        loaded, _, _ = load_checkpoint(path)
        for (name, a), (_, b) in zip(model.state(), loaded.state()):
            assert np.array_equal(a.re, b.re), name

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        model = self._model("baseline")
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, "baseline")
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 10])
        with pytest.raises(CheckpointError, match="truncated|trailing"):
            load_checkpoint(path)

    def test_header_with_null_out_dim_loads(self, tmp_path):
        # earlier releases wrote "out_dim": null into every fusenet header
        model = self._model("fusenet")
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, "fusenet", meta={"seed": 4})
        blob = path.read_bytes()
        (n,) = struct.unpack("<I", blob[4:8])
        header = json.loads(blob[8 : 8 + n])
        header["out_dim"] = None
        old = json.dumps(header, sort_keys=True).encode("utf-8")
        path.write_bytes(blob[:4] + struct.pack("<I", len(old)) + old + blob[8 + n :])
        loaded, kind, meta = load_checkpoint(path)
        assert kind == "fusenet" and meta == {"seed": 4}
        for (name, a), (_, b) in zip(model.parameters(), loaded.parameters()):
            assert np.array_equal(b.re, a.re.astype("<f4").astype(np.float64)), name

    @staticmethod
    def _fault(name, header, body):
        if name == "header-list":
            return [header], body
        if name in ("no-kind", "no-n_classes"):
            del header[name[3:]]
        if name == "bad-branch":
            header["branch"] = {"convs": "xyz"}
        if name == "zero-heads":
            header["heads"] = 0
        if name == "meta-list":
            header["meta"] = [4]
        if name == "float-kernel":
            header["branch"]["convs"][0]["kernel"] = [1.0, 3.0]
        if name == "huge-rank":
            body = struct.pack("<I", 2**30) + body[4:]
        if name == "extents-past-end":
            body = body[:10]  # the first rank word, then half an extent
        return header, body

    @pytest.mark.parametrize("fault", [
        "header-list", "meta-list", "no-kind", "no-n_classes", "bad-branch", "zero-heads",
        "huge-rank", "extents-past-end", "float-kernel",
    ])
    def test_malformed_file_names_path(self, tmp_path, fault):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, self._model("fusenet"), "fusenet")
        blob = path.read_bytes()
        (n,) = struct.unpack("<I", blob[4:8])
        header, body = self._fault(fault, json.loads(blob[8 : 8 + n]), blob[8 + n :])
        text = json.dumps(header).encode("utf-8")
        path.write_bytes(blob[:4] + struct.pack("<I", len(text)) + text + body)
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("kind", ["baseline", "fusenet"])
    def test_conv_bias_checkpoint_names_path(self, tmp_path, monkeypatch, kind):
        """A file written when the branch convs still had a bias (the old
        manifest: each conv's kernels followed by its bias) is refused."""
        def with_conv_biases(model):
            pairs = []
            for name, t in _all_tensors(model):
                pairs.append((name, t))
                if name.endswith(".kernels"):
                    zeros = np.zeros(t.shape[0])
                    pairs.append((name[: -len("kernels")] + "bias", ComplexTensor(zeros, zeros)))
            return pairs

        path = tmp_path / "old.ckpt"
        with monkeypatch.context() as patch:
            patch.setattr(checkpoint_module, "_all_tensors", with_conv_biases)
            save_checkpoint(path, self._model(kind), kind)
        blob = path.read_bytes()
        (n,) = struct.unpack("<I", blob[4:8])
        assert sum(name.endswith(".bias") for name in json.loads(blob[8 : 8 + n])["tensors"]) \
            == (6 if kind == "fusenet" else 3)
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("kind", ["baseline", "fusenet"])
    @pytest.mark.parametrize("geometry", ["toy", "bench"])
    def test_implied_values_match_model(self, kind, geometry):
        cfg = small_config() if geometry == "toy" else bench_train_config("m.json", 0, 1)
        model = init_model(cfg, 3, kind)
        total = sum(t.size for _, t in _all_tensors(model))
        assert _implied_values(kind, cfg.branch, 3, cfg.embed_dim) == total

    @pytest.mark.parametrize("kind, field", [
        ("fusenet", "embed_dim"), ("baseline", "n_classes"), ("fusenet", "n_classes"),
        ("fusenet", "out_channels"),
    ])
    def test_oversized_header_rejected_before_allocating(self, tmp_path, kind, field):
        # a header alone, with no tensors, declaring a model of tens of MB
        cfg = bench_train_config("m.json", 0, 1)
        header = {
            "version": 1, "kind": kind, "n_classes": 2, "tensors": [], "meta": {},
            "branch": config_to_dict(cfg)["branch"],
        }
        if kind == "fusenet":
            header.update(embed_dim=cfg.embed_dim, heads=1)
        if field == "out_channels":
            header["branch"]["convs"][2]["out_channels"] = 8192
        else:
            header[field] = 8192
        text = json.dumps(header).encode("utf-8")
        path = tmp_path / "big.ckpt"
        path.write_bytes(b"CVW1" + struct.pack("<I", len(text)) + text)
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError) as info:
                load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert str(path) in str(info.value)
        assert peak < 2 * 2**20

    @pytest.mark.parametrize("value", [np.inf, np.nan, 1e39], ids=["inf", "nan", "beyond-f32"])
    def test_non_finite_tensor_refused_on_save(self, tmp_path, value):
        model = self._model("fusenet")
        var = model.branch_iq.bns[0].running_var
        model = model.with_tensors(
            {"iq.bn0.running_var": ComplexTensor(np.full(var.shape, value), var.im)})
        path = tmp_path / "m.ckpt"
        with pytest.raises(CheckpointError, match="'iq.bn0.running_var'") as info:
            save_checkpoint(path, model, "fusenet")
        assert str(path) in str(info.value)
        assert not path.exists()

    def test_non_finite_payload_refused_on_load(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, self._model("fusenet"), "fusenet")
        blob = bytearray(path.read_bytes())
        blob[-4:] = struct.pack("<f", np.inf)  # the last value of the last tensor
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="'fft.bn2.running_var'") as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)

    def test_negative_running_var_refused_on_load(self, tmp_path):
        path = tmp_path / "m.ckpt"
        model = init_model(bench_train_config("m.json", 0, 1), 2, "fusenet")
        save_checkpoint(path, model, "fusenet")
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0x80  # the sign bit of the last value of the last tensor
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="'fft.bn2.running_var'.*negative") as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)

    def test_tensor_layout_pinned(self):
        """The checkpoint's tensor names and their order, as the README lists them."""
        rng = np.random.default_rng(0)
        baseline = init_baseline(toy_branch_config(), 2, rng)
        fusenet = init_fusenet(toy_branch_config(), 2, rng, embed_dim=4, heads=2)
        assert [name for name, _ in _all_tensors(baseline)] == [
            "branch.conv0.kernels", "branch.bn0.gamma", "branch.bn0.beta",
            "branch.conv1.kernels", "branch.bn1.gamma", "branch.bn1.beta",
            "branch.conv2.kernels", "branch.bn2.gamma", "branch.bn2.beta",
            "head.w", "head.b",
            "branch.bn0.running_mean", "branch.bn0.running_var",
            "branch.bn1.running_mean", "branch.bn1.running_var",
            "branch.bn2.running_mean", "branch.bn2.running_var",
        ]
        assert [name for name, _ in _all_tensors(fusenet)] == [
            "iq.conv0.kernels", "iq.bn0.gamma", "iq.bn0.beta",
            "iq.conv1.kernels", "iq.bn1.gamma", "iq.bn1.beta",
            "iq.conv2.kernels", "iq.bn2.gamma", "iq.bn2.beta",
            "fft.conv0.kernels", "fft.bn0.gamma", "fft.bn0.beta",
            "fft.conv1.kernels", "fft.bn1.gamma", "fft.bn1.beta",
            "fft.conv2.kernels", "fft.bn2.gamma", "fft.bn2.beta",
            "attn.wq1", "attn.wk1", "attn.wv1", "attn.wq2", "attn.wk2", "attn.wv2",
            "head.w", "head.b",
            "iq.bn0.running_mean", "iq.bn0.running_var",
            "iq.bn1.running_mean", "iq.bn1.running_var",
            "iq.bn2.running_mean", "iq.bn2.running_var",
            "fft.bn0.running_mean", "fft.bn0.running_var",
            "fft.bn1.running_mean", "fft.bn1.running_var",
            "fft.bn2.running_mean", "fft.bn2.running_var",
        ]

    def test_bad_kind_rejected_on_save(self, tmp_path):
        with pytest.raises(ValueError, match="kind"):
            save_checkpoint(tmp_path / "m.ckpt", self._model("baseline"), "resnet")


class TestMetricsReport:
    def test_accuracy_consistency_enforced(self):
        with pytest.raises(ValueError, match="trace/total"):
            MetricsReport(accuracy=0.9, per_class=(1.0, 0.0), confusion=((1, 0), (1, 0)),
                          loss_curve=(), tag="test")

    def test_square_confusion_enforced(self):
        with pytest.raises(ValueError, match="square"):
            MetricsReport(accuracy=1.0, per_class=(1.0,), confusion=((1, 0),),
                          loss_curve=(), tag="test")

    def test_dict_round_trip(self):
        r = MetricsReport(accuracy=0.75, per_class=(1.0, 0.5), confusion=((2, 0), (1, 1)),
                          loss_curve=(0.9, 0.4), tag="test")
        assert json.loads(json.dumps(report_to_dict(r))) == {
            "accuracy": 0.75, "per_class": [1.0, 0.5], "confusion": [[2, 0], [1, 1]],
            "loss_curve": [0.9, 0.4], "tag": "test", "total": 4,
        }

    def test_render_contains_summary(self):
        r = MetricsReport(accuracy=0.75, per_class=(1.0, 0.5), confusion=((2, 0), (1, 1)),
                          loss_curve=(), tag="unseen")
        text = render_report(r, classes=("foam", "steel"))
        assert "0.7500" in text and "foam" in text and "unseen" in text


class TestTrainLoop:
    def _config(self, manifest, **kw):
        kw.setdefault("epochs", 2)
        kw.setdefault("batch_size", 4)
        kw.setdefault("seed", 5)
        return bench_train_config(manifest, **kw)

    def test_deterministic_checkpoints_and_metrics(self, tiny_manifest, tmp_path):
        cfg = self._config(tiny_manifest)
        _, reports1 = train(cfg, "fusenet", out_dir=str(tmp_path / "r1"))
        _, reports2 = train(cfg, "fusenet", out_dir=str(tmp_path / "r2"))
        assert reports1 == reports2
        for name in ("epoch_000.ckpt", "epoch_001.ckpt", "final.ckpt"):
            a = (tmp_path / "r1" / name).read_bytes()
            b = (tmp_path / "r2" / name).read_bytes()
            assert a == b, name

    def test_fresh_loss_near_log_c(self, tiny_manifest):
        # near-zero fresh logits make the first recorded loss about ln(2)
        cfg = self._config(tiny_manifest, epochs=1, batch_size=16)
        _, reports = train(cfg, "fusenet")
        assert abs(reports[0].loss_curve[0] - math.log(2)) <= 0.2 * math.log(2)

    def test_reports_one_per_epoch(self, tiny_manifest):
        cfg = self._config(tiny_manifest, epochs=3)
        _, reports = train(cfg, "baseline")
        assert len(reports) == 3
        assert all(len(r.loss_curve) == i + 1 for i, r in enumerate(reports))
        assert all(r.total == 10 for r in reports)  # train split size

    def test_loss_only_mode(self, tiny_manifest):
        cfg = self._config(tiny_manifest, epochs=1)
        _, reports = train(cfg, "fusenet", track_accuracy=False)
        assert reports[0].tag == "train[loss-only]"
        assert reports[0].total == 0

    def test_geometry_mismatch_names_shapes(self, tiny_manifest):
        cfg = TrainConfig(manifest=tiny_manifest, seed=1)  # default 400x100 branch
        with pytest.raises(Exception, match=r"\(64, 32\)"):
            train(cfg, "fusenet")

    def test_divergence_keeps_last_checkpoint(self, tiny_manifest, tmp_path, monkeypatch):
        import importlib

        train_mod = importlib.import_module("cvradar.traincli.train")
        real = train_mod._batch_loss
        calls = {"n": 0}

        def poisoned(*args, **kw):
            calls["n"] += 1
            if calls["n"] > 3:  # epoch 0 has 3 batches of the 10-sample split
                return ComplexTensor(np.array(np.nan))
            return real(*args, **kw)

        monkeypatch.setattr(train_mod, "_batch_loss", poisoned)
        cfg = self._config(tiny_manifest, epochs=3)
        out = tmp_path / "run"
        with pytest.raises(DivergenceError) as info:
            train(cfg, "fusenet", out_dir=str(out))
        assert info.value.last_checkpoint == str(out / "epoch_000.ckpt")
        assert os.path.exists(info.value.last_checkpoint)
        assert not os.path.exists(out / "final.ckpt")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the weights overflow on purpose
    @pytest.mark.parametrize("learning_rate, error, message", [
        (1e150, DivergenceError, "loss became non-finite at epoch 0, step 1"),
        (1e30, CheckpointError, "epoch_000.ckpt: tensor"),
    ])
    def test_real_divergence_names_error(self, tmp_path, capsys, learning_rate, error, message):
        """At learning rate 1e150 the first Adam step drives the second batch's
        logits non-finite and the loss check reports it. At 1e30 the loss stays
        finite, but the weights leave float32 range and the first checkpoint
        refuses them. train() raises; the CLI prints the error and returns 1."""
        manifest = build_overfit_benchmark(str(tmp_path / "data"), per_class=4,
                                           held_out_per_class=2)
        cfg = replace(bench_train_config(manifest, seed=1, epochs=1, batch_size=4),
                      learning_rate=learning_rate)
        with pytest.raises(error, match=message):
            train(cfg, "fusenet", out_dir=str(tmp_path / "lib"))
        config_path = tmp_path / "train.json"
        write_train_config(config_path, cfg)
        argv = ["train", "--config", str(config_path), "--model", "fusenet",
                "--out", str(tmp_path / "run")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_training_split_under_two_fails_up_front(self, tiny_manifest, tmp_path, capsys,
                                                      monkeypatch):
        import importlib

        # one class of two cubes splits 1/1; one sample cannot form a batch-norm batch
        with open(tiny_manifest, encoding="utf-8") as fh:
            doc = json.load(fh)
        root = os.path.dirname(tiny_manifest)
        samples = [dict(s, path=os.path.join(root, s["path"]))
                   for s in doc["samples"] if s["class"] == 0][:2]
        manifest = tmp_path / "one_class.json"
        manifest.write_text(json.dumps({**doc, "classes": ["class_0"], "samples": samples}))
        built = []
        monkeypatch.setattr(importlib.import_module("cvradar.traincli.train"), "init_model",
                            lambda *a: built.append(a))
        cfg = self._config(str(manifest))
        with pytest.raises(TrainingError, match="training split has 1 sample") as info:
            train(cfg, "fusenet")
        assert str(manifest) in str(info.value)
        assert not built
        config_path = tmp_path / "train.json"
        write_train_config(config_path, cfg)
        argv = ["train", "--config", str(config_path), "--model", "fusenet",
                "--out", str(tmp_path / "run")]
        assert main(argv) == 1
        assert f"error: {manifest}: training split has 1 sample" in capsys.readouterr().err

    def test_constant_predictor_balanced_half(self, tiny_manifest):
        # zeroed head emits all-zero logits; argmax ties to class 0
        classes, pairs, _ = load_pairs(tiny_manifest)
        cfg = self._config(tiny_manifest)
        model = init_model(cfg, len(classes), "fusenet")
        zero_w = ComplexTensor(np.zeros(model.head_w.shape), np.zeros(model.head_w.shape))
        zero_b = ComplexTensor(np.zeros(2), np.zeros(2))
        model = model.with_tensors({"head.w": zero_w, "head.b": zero_b})
        held = [p for p in pairs if p.unseen]
        report = evaluate_pairs(model, "fusenet", held, tag="unseen")
        assert report.accuracy == 0.5
        assert report.confusion == ((3, 0), (3, 0))

    def test_accuracy_invariant_to_logit_shift(self, tiny_manifest):
        classes, pairs, _ = load_pairs(tiny_manifest)
        cfg = self._config(tiny_manifest)
        model, _ = train(cfg, "fusenet")
        shifted = model.with_tensors(
            {"head.b": ComplexTensor(model.head_b.re + 7.5, model.head_b.im)}
        )
        held = [p for p in pairs if p.unseen]
        a = evaluate_pairs(model, "fusenet", held, tag="unseen")
        b = evaluate_pairs(shifted, "fusenet", held, tag="unseen")
        assert a.confusion == b.confusion

    @pytest.mark.parametrize("kind", ["fusenet", "baseline"])
    def test_chunked_eval_matches_per_sample_loop(self, tiny_manifest, kind):
        # 17 pairs at chunk 8: two full chunks and a single-sample tail
        _, pairs, _ = load_pairs(tiny_manifest)
        pairs = pairs[:17]
        cfg = self._config(tiny_manifest)
        assert chunk_size(cfg.branch) == 8
        model, _ = train(cfg, kind, track_accuracy=False)
        want = np.zeros((2, 2), dtype=np.int64)
        for p in pairs:
            fft = ComplexTensor(p.fft.re[None, None], p.fft.im[None, None])
            if kind == "fusenet":
                iq = ComplexTensor(p.iq.re[None, None], p.iq.im[None, None])
                logits = fusenet_logits_batch(iq, fft, model, "eval")
            else:
                logits = baseline_logits(fft, model, "eval")
            want[p.label, int(np.argmax(logits.re[0]))] += 1
        report = evaluate_pairs(model, kind, pairs, tag="all")
        assert report.confusion == tuple(tuple(int(v) for v in row) for row in want)
        assert all(sum(col) for col in zip(*report.confusion))  # both classes predicted

    def test_bench_step_and_eval_start_no_thread(self, tiny_manifest, monkeypatch):
        """At bench geometry a batch of 8 fits one chunk and every eval chunk
        does at any geometry, so neither runs the branches on lanes."""
        def no_lanes(*thunks):
            raise AssertionError("branches ran on lanes")

        monkeypatch.setattr(fusion_model, "parallel", no_lanes)
        threads = threading.active_count()
        _, pairs, _ = load_pairs(tiny_manifest)
        cfg = self._config(tiny_manifest, batch_size=8, epochs=1)
        assert chunk_size(cfg.branch) == 8
        model, _ = train(cfg, "fusenet")
        evaluate_pairs(model, "fusenet", pairs, tag="all")
        paper = default_branch_config((400, 100))
        model = init_fusenet(paper, 2, np.random.default_rng(0), embed_dim=8, heads=2)
        rng = np.random.default_rng(1)
        big = [SimpleNamespace(iq=ComplexTensor(*rng.standard_normal((2, 400, 100))),
                               fft=ComplexTensor(*rng.standard_normal((2, 400, 100))), label=c)
               for c in (0, 1)]
        evaluate_pairs(model, "fusenet", big, tag="paper")
        assert threading.active_count() == threads

    def test_zero_head_baseline_ties_to_class_zero(self, tiny_manifest):
        _, pairs, _ = load_pairs(tiny_manifest)
        cfg = self._config(tiny_manifest)
        model = init_model(cfg, 2, "baseline")
        zero_w = ComplexTensor(np.zeros(model.head_w.shape), np.zeros(model.head_w.shape))
        zero_b = ComplexTensor(np.zeros(2), np.zeros(2))
        model = model.with_tensors({"head.w": zero_w, "head.b": zero_b})
        report = evaluate_pairs(model, "baseline", pairs, tag="all")
        assert report.confusion == ((9, 0), (9, 0))

    def test_bad_kind_rejected_for_empty_list(self, tiny_manifest):
        model = init_model(self._config(tiny_manifest), 2, "fusenet")
        with pytest.raises(ValueError, match="kind"):
            evaluate_pairs(model, "bogus", [], tag="none")

    def test_confusion_rows_count_samples(self, tiny_manifest):
        classes, pairs, _ = load_pairs(tiny_manifest)
        cfg = self._config(tiny_manifest)
        model = init_model(cfg, len(classes), "baseline")
        report = evaluate_pairs(model, "baseline", pairs, tag="all")
        row_sums = [sum(row) for row in report.confusion]
        assert row_sums == [9, 9]

    def test_checkpoint_eval_matches_memory(self, tiny_manifest, tmp_path):
        cfg = self._config(tiny_manifest)
        model, _ = train(cfg, "fusenet", out_dir=str(tmp_path / "run"))
        loaded, kind, _ = load_checkpoint(tmp_path / "run" / "final.ckpt")
        _, pairs, _ = load_pairs(tiny_manifest)
        held = [p for p in pairs if p.unseen]
        a = evaluate_pairs(model, "fusenet", held, tag="unseen")
        b = evaluate_pairs(loaded, kind, held, tag="unseen")
        assert a == b


class TestTrendBenchmark:
    def test_structure_and_self_comparison(self, tmp_path):
        manifest = build_shift_benchmark(
            str(tmp_path / "data"), per_class_train=4, per_class_shifted=3
        )
        report = benchmark_trend(
            (1, 2, 3), str(tmp_path), kinds=("fusenet", "fusenet"), epochs=1,
            manifest=manifest,
        )
        # 2 * |seeds| accuracies plus two medians
        assert len(report.accuracies[0]) == 3 and len(report.accuracies[1]) == 3
        assert len(report.medians) == 2
        assert report.n_eval == 6
        assert report.noise_bound == 1.0 / 12.0
        # identical kind and seeds: the paired runs are bit-identical
        assert report.accuracies[0] == report.accuracies[1]
        assert abs(report.medians[0] - report.medians[1]) <= report.noise_bound

    def test_needs_three_seeds(self, tmp_path):
        with pytest.raises(ValueError, match="3 seeds"):
            benchmark_trend((1, 2), str(tmp_path))

    def test_render_names_kinds(self):
        from cvradar.traincli import TrendReport

        r = TrendReport(seeds=(1, 2, 3), kinds=("baseline", "fusenet"),
                        accuracies=((0.5, 0.6, 0.7), (0.6, 0.7, 0.8)),
                        medians=(0.6, 0.7), noise_bound=0.05, n_eval=10)
        text = render_trend(r)
        assert "baseline" in text and "fusenet" in text
        assert "+0.1000" in text


class TestCli:
    def test_gradcheck_module(self, capsys):
        assert main(["gradcheck", "--module", "primitives"]) == 0
        out = capsys.readouterr().out
        assert "ok" in out and "FAIL" not in out

    def test_fftcheck_ok(self, capsys):
        assert main(["fftcheck", "--size", "4x3x5", "--trials", "2"]) == 0
        assert "ok" in capsys.readouterr().out

    def test_fftcheck_bad_size(self, capsys):
        assert main(["fftcheck", "--size", "4x3", "--trials", "2"]) == 2

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["explode"])

    def test_train_eval_round_trip(self, tiny_manifest, tmp_path, capsys):
        cfg = bench_train_config(tiny_manifest, seed=5, epochs=1, batch_size=4)
        cfg_path = tmp_path / "config.json"
        write_train_config(cfg_path, cfg)
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg_path), "--model", "baseline",
                     "--out", str(out)]) == 0
        assert (out / "final.ckpt").exists()
        assert (out / "metrics.json").exists()
        assert main(["eval", "--weights", str(out / "final.ckpt"),
                     "--manifest", tiny_manifest, "--split", "test"]) == 0
        text = capsys.readouterr().out
        assert '"accuracy"' in text and "class_0" in text

    def test_eval_class_count_mismatch(self, tiny_manifest, tmp_path, capsys):
        manifest3 = build_shift_benchmark(
            str(tmp_path / "d3"), n_classes=3, per_class_train=3, per_class_shifted=2
        )
        cfg = bench_train_config(tiny_manifest, seed=5, epochs=1, batch_size=4)
        out = tmp_path / "run"
        model, _ = train(cfg, "baseline", out_dir=str(out))
        assert main(["eval", "--weights", str(out / "final.ckpt"),
                     "--manifest", manifest3, "--split", "unseen"]) == 1
        assert "classes" in capsys.readouterr().err

    def test_eval_geometry_mismatch_names_both_files(self, tiny_manifest, tmp_path, capsys):
        # a toy-geometry (4, 8) checkpoint against the (64, 32) tiny manifest
        ckpt = tmp_path / "toy.ckpt"
        save_checkpoint(ckpt, init_model(small_config(), 2, "fusenet"), "fusenet")
        assert main(["eval", "--weights", str(ckpt), "--manifest", tiny_manifest,
                     "--split", "unseen"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert str(ckpt) in err and tiny_manifest in err
        assert "(4, 8)" in err and "(64, 32)" in err

    def test_preprocess_then_train(self, tiny_manifest, tmp_path):
        assert main(["preprocess", "--manifest", tiny_manifest,
                     "--out", str(tmp_path / "cache")]) == 0
        cached = tmp_path / "cache" / "manifest.json"
        cfg = bench_train_config(str(cached), seed=5, epochs=1, batch_size=4)
        cfg_path = tmp_path / "config.json"
        write_train_config(cfg_path, cfg)
        assert main(["train", "--config", str(cfg_path), "--model", "fusenet",
                     "--out", str(tmp_path / "run")]) == 0

    def test_synth_command(self, tmp_path):
        doc = {
            "version": 1,
            "config": {"center_frequency": 64e9, "bandwidth": 4e9, "eirp": -5,
                       "n_tx": 4, "n_rx": 4, "fast_time_samples": 16},
            "classes": ["foam", "steel"],
            "scenes": [
                {"class": 0, "reflectors": [[0.4, 0.1, -0.2, 1.0, 0.0]],
                 "noise_level": 0.05, "seed": 1, "distance_tag": "0.4m"},
                {"class": 1, "reflectors": [[0.45, -0.3, 0.1, 0.8, 0.3]],
                 "noise_level": 0.05, "seed": 2, "split_hint": "unseen"},
            ],
        }
        scenes = tmp_path / "scenes.json"
        scenes.write_text(json.dumps(doc))
        assert main(["synth", "--scenes", str(scenes), "--out", str(tmp_path / "a"),
                     "--seed", "7"]) == 0
        assert main(["synth", "--scenes", str(scenes), "--out", str(tmp_path / "b"),
                     "--seed", "7"]) == 0
        a = (tmp_path / "a" / "cube_00000.rfc1").read_bytes()
        b = (tmp_path / "b" / "cube_00000.rfc1").read_bytes()
        assert a == b  # same global seed reproduces the cubes
        classes, pairs, _ = load_pairs(str(tmp_path / "a" / "manifest.json"))
        assert classes == ("foam", "steel")
        assert [p.unseen for p in pairs] == [False, True]

    def test_synth_rejects_bad_classes_before_writing(self, tmp_path, capsys):
        scenes = tmp_path / "scenes.json"
        scenes.write_text(json.dumps({
            "version": 1, "config": TestPipeline._SCENE_CONFIG, "classes": [1, 2],
            "scenes": [{"class": 0, "reflectors": [[0.3, 0.1, 0.0, 1.0, 0.0]]}],
        }))
        out = tmp_path / "cubes"
        assert main(["synth", "--scenes", str(scenes), "--out", str(out), "--seed", "0"]) == 1
        assert "'classes'" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.rfc1"))

    def test_eval_garbage_weights_is_one_error_line(self, tiny_manifest, tmp_path, capsys):
        weights = tmp_path / "garbage.ckpt"
        weights.write_text("garbage")
        assert main(["eval", "--weights", str(weights), "--manifest", tiny_manifest,
                     "--split", "test"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(weights) in err and "magic" in err

    def test_preprocess_malformed_manifest_is_one_error_line(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text('{"version": 1, "samples": []}')
        assert main(["preprocess", "--manifest", str(manifest),
                     "--out", str(tmp_path / "cache")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(manifest) in err

    def test_train_bad_config_is_one_error_line(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**config_to_dict(small_config()), "batch_size": 2.5}))
        assert main(["train", "--config", str(config), "--model", "fusenet",
                     "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "batch_size" in err
