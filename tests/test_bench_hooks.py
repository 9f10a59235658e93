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
# the probe times one fusenet_forward per eval chunk: both toy pairs fit one
assert len(probes.sample_times) == 1
# prep-eval-paper's unit_p50_s is one sample per timed forward at paper geometry
assert chunk_size(default_branch_config((400, 100))) == 1
print("ok")
"""


def test_instrumentation_installs_and_reaches_the_model():
    code = CHILD.format(perfbench=str(ROOT / "perfbench"), src=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
