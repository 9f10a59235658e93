"""The benchmark's instrumentation still finds every name it patches.

perfbench/instrument.py wraps package functions by (module, attribute) and
every tape op by name. A refactor that renames or drops one of them breaks
the benchmark; this test makes it break here first. The hooks patch module
globals and GradTape itself, so they are installed in a child process.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CHILD = """
import importlib
import sys
from types import SimpleNamespace
sys.path[:0] = [{perfbench!r}, {src!r}]
import numpy as np
import instrument
from cvradar.ctensor import ComplexTensor, GradTape
from cvradar.cnn import chunk_size, default_branch_config
from cvradar.traincli import init_model, evaluate_pairs, toy_branch_config
from cvradar.traincli.config import TrainConfig
train = importlib.import_module("cvradar.traincli.train")

probes = instrument.Probes()
probes.install()
tracer = instrument.Tracer()
tracer.install()

# one train-step loss and one eval through the patched names
config = TrainConfig(manifest="unused", branch=toy_branch_config(), embed_dim=8, heads=2)
model = init_model(config, 2, "fusenet")
rng = np.random.default_rng(0)

def rep():
    return ComplexTensor(rng.standard_normal((4, 8)), rng.standard_normal((4, 8)))

pairs = [SimpleNamespace(iq=rep(), fft=rep(), label=c) for c in (0, 1)]
with GradTape() as tape:
    for _, t in model.parameters():
        tape.watch(t)
    tape.backward(train._batch_loss(model, "fusenet", pairs, [0, 1], 2))
evaluate_pairs(model, "fusenet", pairs, tag="hooks")

fusion = {{s for _, _, s in instrument.TRACED_CALLS if s.startswith(("fusion.", "cnn."))}}
recorded = {{tracer.names[i] for i in tracer.name}}
missing = sorted(fusion - recorded)
assert not missing, f"traced calls never reached: {{missing}}"
# the loss call site looks the traced op up at call time, so the step's one
# loss op is recorded; an import alias would bypass the op's wrapper
assert "ctensor.fwd.cross_entropy_logits" in recorded
assert tracer.counts.get("calls.cross_entropy_logits") == 1
# the probe times one fusenet_forward per eval chunk: both toy pairs fit one
assert len(probes.sample_times) == 1
# prep-eval-paper's unit_p50_s is one sample per timed forward at paper geometry
assert chunk_size(default_branch_config((400, 100))) == 1

# a tiny synth -> preprocess -> load_pairs through the patched names, with the
# lane rule giving each a second core and the split threshold at 0, so halves on
# the worker are traced too
import contextlib, io, json, os, tempfile
from cvradar.ctensor import tape
cli = importlib.import_module("cvradar.traincli.cli")
pipeline = importlib.import_module("cvradar.traincli.pipeline")
os.sched_getaffinity = lambda pid: {{0, 1}}
tape._blas_threads = lambda: 1
tape.CHUNK_BYTES = 0
scenes = [{{"class": i % 2, "reflectors": [[0.3 + 0.02 * i, 0.1, 0.0, 1.0, 0.0]]}}
          for i in range(3)]
with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
    with open(os.path.join(tmp, "scenes.json"), "w", encoding="utf-8") as fh:
        json.dump({{"version": 1, "classes": ["a", "b"], "scenes": scenes,
                   "config": {{"center_frequency": 64e9, "bandwidth": 4e9, "n_tx": 2,
                              "n_rx": 2, "fast_time_samples": 16}}}}, fh)
    cubes, cache = os.path.join(tmp, "cubes"), os.path.join(tmp, "cache")
    assert cli.main(["synth", "--scenes", fh.name, "--out", cubes, "--seed", "1"]) == 0
    assert cli.main(["preprocess", "--manifest", os.path.join(cubes, "manifest.json"),
                     "--out", cache]) == 0
    pipeline.load_pairs(os.path.join(cache, "manifest.json"))
dsp = [tracer.names[i] for i in tracer.name if tracer.names[i].startswith("dsp.")]
# synth writes 3 cubes; preprocess reads them and writes 3 pairs; load_pairs reads the pairs
assert dsp.count("dsp.synth") == 3, dsp
assert dsp.count("dsp.fft3d") == 3, dsp
assert dsp.count("dsp.write_rfc1") == 3 + 6, dsp
assert dsp.count("dsp.read_rfc1") == 3 + 6, dsp
assert tracer.counts.get("dsp.write_rfc1_bytes", 0) > 0
print("ok")
"""


def test_instrumentation_installs_and_reaches_the_model():
    code = CHILD.format(perfbench=str(ROOT / "perfbench"), src=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
