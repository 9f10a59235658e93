"""Transform oracle, cube I/O, dataset loading and split, and scene generator tests."""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from cvradar.ctensor import ComplexTensor, ShapeError
from cvradar.dsp import (
    CubeFormatError,
    DatasetError,
    ManifestEntry,
    OCCLUDED_CONFIG,
    RadarConfig,
    SyntheticScene,
    class_scene,
    dft3d_direct,
    fft3d_array,
    flatten_channels,
    predicted_bins,
    range_bin_width,
    read_rfc1,
    synth_fmcw_cube,
    write_manifest,
    write_rfc1,
)
from cvradar.traincli import load_pairs, split_pairs


def loop_dft3d(values):
    """Literal triple-sum evaluation of the transform; the oracle's oracle."""
    X, Y, N = values.shape
    out = np.zeros((X, Y, N), dtype=np.complex128)
    for l in range(X):
        for m in range(Y):
            for k in range(N):
                acc = 0j
                for x in range(X):
                    for y in range(Y):
                        for n in range(N):
                            acc += values[x, y, n] * np.exp(
                                -2j * np.pi * (l * x / X + m * y / Y + k * n / N)
                            )
                out[l, m, k] = acc
    return out


class TestTransformOracle:
    def test_oracle_matches_literal_loops(self):
        rng = np.random.default_rng(0)
        values = rng.standard_normal((2, 3, 2)) + 1j * rng.standard_normal((2, 3, 2))
        assert np.max(np.abs(dft3d_direct(values) - loop_dft3d(values))) <= 1e-12

    def test_dc_cube(self):
        spectrum = fft3d_array(np.ones((2, 2, 4), dtype=np.complex128))
        assert spectrum[0, 0, 0] == pytest.approx(16 + 0j, abs=1e-12)
        spectrum[0, 0, 0] = 0
        assert np.max(np.abs(spectrum)) <= 1e-12

    def test_pure_tone(self):
        n = np.arange(4)
        values = np.exp(2j * np.pi * n / 4).reshape(1, 1, 4)
        spectrum = fft3d_array(values)
        assert abs(spectrum[0, 0, 1]) == pytest.approx(4.0, abs=1e-12)
        spectrum[0, 0, 1] = 0
        assert np.max(np.abs(spectrum)) <= 1e-12

    @pytest.mark.parametrize("shape", [(4, 4, 8), (5, 3, 7), (6, 10, 9), (1, 1, 1)])
    def test_fft_matches_oracle(self, shape):
        rng = np.random.default_rng(hash(shape) % 2**32)
        values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert np.max(np.abs(fft3d_array(values) - dft3d_direct(values))) <= 1e-6

    def test_full_size_cube(self):
        rng = np.random.default_rng(42)
        values = rng.standard_normal((20, 20, 100)) + 1j * rng.standard_normal((20, 20, 100))
        assert np.max(np.abs(fft3d_array(values) - dft3d_direct(values))) <= 1e-6

    def test_parseval(self):
        rng = np.random.default_rng(1)
        values = rng.standard_normal((5, 4, 12)) + 1j * rng.standard_normal((5, 4, 12))
        spectrum = fft3d_array(values)
        lhs = np.sum(np.abs(spectrum) ** 2)
        rhs = values.size * np.sum(np.abs(values) ** 2)
        assert abs(lhs - rhs) / rhs <= 1e-9

    def test_linear(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((3, 4, 5)) + 1j * rng.standard_normal((3, 4, 5))
        b = rng.standard_normal((3, 4, 5)) + 1j * rng.standard_normal((3, 4, 5))
        alpha, beta = 1.3 - 0.2j, -0.7 + 2.1j
        lhs = fft3d_array(alpha * a + beta * b)
        rhs = alpha * fft3d_array(a) + beta * fft3d_array(b)
        assert np.max(np.abs(lhs - rhs)) / np.max(np.abs(rhs)) <= 1e-9

    @pytest.mark.parametrize("shape", [(4, 8), (2, 2, 2, 2)])
    @pytest.mark.parametrize(
        "transform", [fft3d_array, dft3d_direct], ids=["fft3d_array", "dft3d_direct"]
    )
    def test_rank_checked(self, transform, shape):
        with pytest.raises(ValueError, match="3-dimensional"):
            transform(np.zeros(shape, dtype=np.complex128))


class TestFlatten:
    def test_shape(self):
        t = ComplexTensor(np.zeros((20, 20, 100)), np.zeros((20, 20, 100)))
        assert flatten_channels(t).shape == (400, 100)

    def test_row_order(self):
        x, y, n = 3, 4, 5
        re = np.empty((x, y, n))
        for xi in range(x):
            for yi in range(y):
                re[xi, yi, :] = xi * y + yi
        flat = flatten_channels(ComplexTensor(re, np.zeros_like(re)))
        for r in range(x * y):
            assert np.array_equal(flat.re[r], np.full(n, r))

    def test_rank_errors(self):
        with pytest.raises(ShapeError):
            flatten_channels(ComplexTensor(np.zeros((2, 2))))


class TestRfc1:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        for i in range(10):
            shape = tuple(rng.integers(1, 6, size=3))
            values = rng.standard_normal(shape).astype(np.float32).astype(np.float64)
            t = ComplexTensor(values, (values * 2).astype(np.float32).astype(np.float64))
            p = tmp_path / f"cube{i}.rfc1"
            write_rfc1(p, t)
            back = read_rfc1(p)
            assert np.array_equal(back.re, t.re) and np.array_equal(back.im, t.im)
            p2 = tmp_path / f"cube{i}b.rfc1"
            write_rfc1(p2, back)
            assert p.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("value", [1e39, -1e39, np.nan, np.inf], ids=["over", "neg-over", "nan", "inf"])
    @pytest.mark.parametrize("plane", ["re", "im"])
    def test_unwritable_payload_rejected(self, tmp_path, plane, value):
        """A value read_rfc1 would reject fails at write time and no file is made."""
        planes = {"re": np.ones((2, 2, 2)), "im": np.zeros((2, 2, 2))}
        planes[plane][1, 0, 1] = value
        p = tmp_path / "bad.rfc1"
        with pytest.raises(CubeFormatError, match="bad.rfc1"):
            write_rfc1(p, ComplexTensor(planes["re"], planes["im"]))
        assert not p.exists()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.rfc1"
        p.write_bytes(b"NOPE" + b"\x00" * 12)
        with pytest.raises(CubeFormatError):
            read_rfc1(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "short.rfc1"
        t = ComplexTensor(np.ones((2, 2, 2)), np.zeros((2, 2, 2)))
        write_rfc1(p, t)
        p.write_bytes(p.read_bytes()[:-4])
        with pytest.raises(CubeFormatError):
            read_rfc1(p)

    def test_zero_extent_header(self, tmp_path):
        import struct

        p = tmp_path / "zero.rfc1"
        p.write_bytes(b"RFC1" + struct.pack("<III", 2, 0, 2))
        with pytest.raises(CubeFormatError):
            read_rfc1(p)


def _write_sample(tmp_path, name, shape, seed):
    rng = np.random.default_rng(seed)
    t = ComplexTensor(
        rng.standard_normal(shape).astype(np.float32).astype(np.float64),
        rng.standard_normal(shape).astype(np.float32).astype(np.float64),
    )
    write_rfc1(tmp_path / name, t)
    return name


def _make_manifest(tmp_path, entries, classes=("a", "b"), shape=None):
    path = tmp_path / "manifest.json"
    write_manifest(path, classes, entries, shape=shape)
    return path


class TestDataset:
    """Manifests are read by the one sample loader, through load_pairs; the
    split is split_pairs, which needs only `.label` and `.unseen`."""

    def test_load_order_preserved(self, tmp_path):
        entries = []
        for i in range(3):
            name = _write_sample(tmp_path, f"s{i}.rfc1", (2, 2, 4), seed=i)
            entries.append(ManifestEntry(name, i % 2, "d1", "auto"))
        _, pairs, _ = load_pairs(_make_manifest(tmp_path, entries))
        assert len(pairs) == 3
        assert [p.label for p in pairs] == [0, 1, 0]
        for i, p in enumerate(pairs):
            cube = read_rfc1(tmp_path / f"s{i}.rfc1")
            assert np.array_equal(p.iq.re, flatten_channels(cube).re)

    def test_missing_file_named(self, tmp_path):
        entries = [ManifestEntry("ghost.rfc1", 0, "d1", "auto")]
        with pytest.raises(DatasetError, match="ghost.rfc1"):
            load_pairs(_make_manifest(tmp_path, entries))

    def test_class_index_out_of_range(self, tmp_path):
        name = _write_sample(tmp_path, "s.rfc1", (2, 2, 4), seed=0)
        path = tmp_path / "manifest.json"
        doc = {
            "version": 1,
            "classes": ["a", "b"],
            "samples": [{"path": name, "class": 2, "distance_tag": "", "split_hint": "auto"}],
        }
        path.write_text(json.dumps(doc))
        with pytest.raises(DatasetError, match="class index"):
            load_pairs(path)

    def test_shape_mismatch_named(self, tmp_path):
        n0 = _write_sample(tmp_path, "s0.rfc1", (2, 2, 4), seed=0)
        n1 = _write_sample(tmp_path, "s1.rfc1", (2, 2, 5), seed=1)
        entries = [ManifestEntry(n0, 0, "", "auto"), ManifestEntry(n1, 1, "", "auto")]
        with pytest.raises(DatasetError, match="s1.rfc1"):
            load_pairs(_make_manifest(tmp_path, entries))

    def test_bad_version(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text('{"version": 9, "classes": ["a"], "samples": []}')
        with pytest.raises(DatasetError, match="version"):
            load_pairs(path)

    @staticmethod
    def _samples(per_class=(50, 50), unseen=0):
        samples = [SimpleNamespace(label=label, unseen=False)
                   for label, count in enumerate(per_class) for _ in range(count)]
        samples += [SimpleNamespace(label=i % len(per_class), unseen=True) for i in range(unseen)]
        return samples

    def test_split_80_20(self):
        split = split_pairs(("a", "b"), self._samples(), seed=0, ratio=0.8)
        assert len(split.train) == 80 and len(split.test) == 20
        for label in (0, 1):
            assert sum(1 for s in split.train if s.label == label) == 40

    def test_split_deterministic(self):
        samples = self._samples(per_class=(7, 9))
        a = split_pairs(("a", "b"), samples, seed=3, ratio=0.8)
        b = split_pairs(("a", "b"), samples, seed=3, ratio=0.8)
        assert [id(s) for s in a.train] == [id(s) for s in b.train]
        assert [id(s) for s in a.test] == [id(s) for s in b.test]

    def test_split_partition(self):
        samples = self._samples(per_class=(7, 9), unseen=4)
        split = split_pairs(("a", "b"), samples, seed=1, ratio=0.75)
        train_ids = {id(s) for s in split.train}
        test_ids = {id(s) for s in split.test}
        unseen_ids = {id(s) for s in split.unseen}
        assert not train_ids & test_ids
        assert not train_ids & unseen_ids
        assert len(split.unseen) == 4
        eligible = {id(s) for s in samples if not s.unseen}
        assert train_ids | test_ids == eligible

    def test_split_order_pinned(self):
        """Each set keeps input order, and the draws are those split_pairs has always made."""
        samples = self._samples(per_class=(3, 4), unseen=4)
        split = split_pairs(("a", "b"), samples, seed=0, ratio=0.8)
        index = {id(s): i for i, s in enumerate(samples)}
        assert [index[id(s)] for s in split.train] == [0, 2, 4, 5, 6]
        assert [index[id(s)] for s in split.test] == [1, 3]
        assert [index[id(s)] for s in split.unseen] == [7, 8, 9, 10]

    def test_split_small_class_rejected(self):
        with pytest.raises(DatasetError, match="class 0"):
            split_pairs(("a", "b"), self._samples(per_class=(1, 5)), seed=0, ratio=0.8)

    def test_split_bad_ratio(self):
        with pytest.raises(ValueError):
            split_pairs(("a", "b"), self._samples(per_class=(3, 3)), seed=0, ratio=1.0)


def exp_per_sample_cube(scene, config):
    """The cube as one exponential of the summed phase per sample and reflector."""
    x, y, n = config.shape
    xi = np.arange(x, dtype=np.float64)[:, None, None]
    yi = np.arange(y, dtype=np.float64)[None, :, None]
    ni = np.arange(n, dtype=np.float64)[None, None, :]
    acc = np.zeros((x, y, n), dtype=np.complex128)
    for r, az, el, alpha in scene.reflectors:
        nu_az = 0.5 * np.sin(az)
        nu_el = 0.5 * np.sin(el)
        nu_rng = 2.0 * config.bandwidth * r / (299_792_458.0 * n)
        acc += complex(alpha) * np.exp(2j * np.pi * (nu_az * xi + nu_el * yi + nu_rng * ni))
    if scene.noise_level > 0.0:
        rng = np.random.default_rng(scene.seed)
        scale = float(np.sqrt(np.mean(np.abs(acc) ** 2))) if scene.reflectors else 1.0
        sigma = scene.noise_level * scale / np.sqrt(2.0)
        acc = acc + sigma * (rng.standard_normal((x, y, n)) + 1j * rng.standard_normal((x, y, n)))
    return acc


class TestScenes:
    CONFIG = RadarConfig(65.5e9, 5.0e9, -5.0, 8, 8, 32)

    @pytest.mark.parametrize("noise", [0.0, 0.1])
    @pytest.mark.parametrize("n_reflectors", [0, 1, 3])
    @pytest.mark.parametrize("config", [CONFIG, OCCLUDED_CONFIG], ids=["8x8x32", "20x20x100"])
    def test_matches_exp_per_sample_oracle(self, config, n_reflectors, noise):
        scene = class_scene(
            2, 0.4 * config.unambiguous_range, sample_seed=17, config=config,
            noise_level=noise, n_reflectors=n_reflectors,
        )
        want = exp_per_sample_cube(scene, config)
        got = synth_fmcw_cube(scene, config)
        for g, w in ((got.re, want.real), (got.im, want.imag)):
            assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()

    def test_empty_scene_noise_is_the_rng_stream(self):
        scene = SyntheticScene((), 0.1, seed=23)
        cube = synth_fmcw_cube(scene, self.CONFIG)
        rng = np.random.default_rng(23)
        sigma = 0.1 / np.sqrt(2.0)
        assert np.array_equal(cube.re, sigma * rng.standard_normal((8, 8, 32)))
        assert np.array_equal(cube.im, sigma * rng.standard_normal((8, 8, 32)))

    def test_empty_scene_zero_noise(self):
        cube = synth_fmcw_cube(SyntheticScene((), 0.0, seed=0), self.CONFIG)
        assert np.array_equal(cube.re, np.zeros((8, 8, 32)))
        assert np.array_equal(cube.im, np.zeros((8, 8, 32)))

    def test_noisy_scene_needs_seed(self):
        with pytest.raises(ValueError, match="needs a seed"):
            synth_fmcw_cube(SyntheticScene((), 0.1, seed=None), self.CONFIG)
        cube = synth_fmcw_cube(SyntheticScene((), 0.0, seed=None), self.CONFIG)
        assert np.array_equal(cube.re, np.zeros((8, 8, 32)))

    def test_deterministic(self):
        scene = class_scene(0, 0.3, sample_seed=5, config=self.CONFIG, noise_level=0.1)
        a = synth_fmcw_cube(scene, self.CONFIG)
        b = synth_fmcw_cube(scene, self.CONFIG)
        assert np.array_equal(a.re, b.re)
        assert np.array_equal(a.im, b.im)

    def test_peak_at_predicted_bins(self):
        bin_m = range_bin_width(self.CONFIG)
        reflector = (10 * bin_m, np.arcsin(0.5), np.arcsin(0.25), 1.0 + 0j)
        scene = SyntheticScene((reflector,), 0.0, seed=0)
        spectrum = fft3d_array(synth_fmcw_cube(scene, self.CONFIG).to_complex())
        peak = np.unravel_index(np.argmax(np.abs(spectrum)), spectrum.shape)
        assert peak == predicted_bins(reflector, self.CONFIG)
        assert peak == (2, 1, 10)

    def test_negative_angle_wraps(self):
        bin_m = range_bin_width(self.CONFIG)
        reflector = (5 * bin_m, -np.arcsin(0.5), 0.0, 1.0 + 0j)
        scene = SyntheticScene((reflector,), 0.0, seed=0)
        spectrum = fft3d_array(synth_fmcw_cube(scene, self.CONFIG).to_complex())
        peak = np.unravel_index(np.argmax(np.abs(spectrum)), spectrum.shape)
        assert peak == predicted_bins(reflector, self.CONFIG) == (6, 0, 5)

    def test_range_limit(self):
        scene = SyntheticScene(((self.CONFIG.unambiguous_range * 1.5, 0.0, 0.0, 1.0),), 0.0, 0)
        with pytest.raises(ValueError, match="range"):
            synth_fmcw_cube(scene, self.CONFIG)

    def test_class_signature_fixed(self):
        a = class_scene(1, 0.3, sample_seed=1, config=self.CONFIG)
        b = class_scene(1, 0.3, sample_seed=2, config=self.CONFIG)
        for ra, rb in zip(a.reflectors, b.reflectors):
            assert ra[0] == rb[0] and ra[1] == rb[1] and ra[2] == rb[2]
            assert ra[3] != rb[3]
