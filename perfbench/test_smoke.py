"""Smoke test of the benchmark at tiny size.

    python3 perfbench/test_smoke.py        (or: python3 -m pytest perfbench)

For every workload it checks that an untraced run reports each end-to-end
metric of BENCHMARK.json by name and unit, that a traced run reports exactly
the per-layer metrics of BENCHMARK.json, that the traced training step is at
least 90% covered by named stages, and that every output check passed.
Takes about 40 s on one core.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402


def _run(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def _expected(key):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[key]}


def test_every_workload_reports_its_metrics():
    end_to_end, per_layer = _expected("end_to_end"), _expected("per_layer")
    for workload, w in WORKLOADS.items():
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            result = _run(workload, trace)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == expected, (workload, trace, set(got) ^ set(expected))
            assert result["correct"] and result["failed"] == 0, (workload, trace, result)
            assert result["attempted"] >= 1
            if trace and w.kind == "train":
                coverage = result["metrics"]["traincli.step_coverage"]["value"]
                assert coverage >= 0.9, (workload, coverage)


if __name__ == "__main__":
    test_every_workload_reports_its_metrics()
    print("smoke test passed")
