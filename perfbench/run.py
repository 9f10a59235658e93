"""cvradar benchmark: closed-loop train, eval and preprocessing workloads.

    python3 perfbench/run.py --workload train-bench --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. Inputs are made from the seed in an
untimed child; set-up is timed over several cold starts; then one measured
child runs the workload for the given seconds. ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced child
(half the window each for an untraced and a traced child). ``--workload all``
runs every workload in turn. The last line of stdout is the JSON result; the
per-run record (host, environment, raw numbers) goes to
``.perfbench_work/<workload>-trace<t>/record.json``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

COLD_STARTS = 9  # setup_s is the median of this many fresh processes
RUN_LIMIT_S = 170  # every child of one workload's run must end within this
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def _child_env():
    env = dict(os.environ)
    env.update(THREAD_ENV)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _child(args, env, deadline):
    """Run one child to completion; returns its wall start (monotonic clock)."""
    t_spawn = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), *map(str, args)],
        env=env, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=max(deadline - t_spawn, 1.0),
    )
    if proc.returncode != 0:
        raise BenchError(f"child {args[0]} {args[1]} exited {proc.returncode}")
    return t_spawn


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _steal():
    """(steal, total) jiffies of all CPUs, or None where /proc/stat is unreadable."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields[:8])


def _filesystem(path):
    """Filesystem type of the mount that holds path, from /proc/self/mountinfo."""
    try:
        with open("/proc/self/mountinfo", encoding="utf-8") as fh:
            mounts = [line.split(" - ") for line in fh]
    except OSError:
        return None
    best, fstype = "", None
    for head, tail in mounts:
        point = head.split()[4]
        if (path == point or path.startswith(point.rstrip("/") + "/")) and len(point) > len(best):
            best, fstype = point, tail.split()[0]
    return fstype


def _host(work, env):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: env.get(k) for k in THREAD_ENV},
        "work_dir_fs": _filesystem(work),
        "loadavg_start": os.getloadavg(),
    }


def _p(values, q):
    """q-quantile (0 < q < 1) by the inclusive method, or None without 10 samples beyond it."""
    if len(values) * min(q, 1 - q) < 10:
        return None
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def _throughput(w, r):
    """Units of one round over the median round's time in the timed commands."""
    per_round = r["units"]["train"] if w.kind == "train" else r["units"]["cubes"]
    return per_round / statistics.median(r["timed_s"])


def _eval_rate(r):
    """Samples per second of the median evaluate_pairs call."""
    return statistics.median(n / t for n, t in r["eval_calls"])


def _end_to_end(w, r, setup_samples):
    throughput = _throughput(w, r)
    units = r["step_times"] if w.kind == "train" else r["sample_times"]
    return {
        "throughput_per_s": (throughput, "1/s"),
        "unit_p50_s": (statistics.median(units), "s"),
        "eval_samples_per_s": (_eval_rate(r), "1/s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (r["peak_rss_mb"], "MB"),
    }


def _named(w, r, setup_samples):
    """The same run under the names of the metric table in perfbench/README.md."""
    named = {
        "eval_samples_per_s": _eval_rate(r),
        "setup_s": statistics.median(setup_samples) if setup_samples else None,
        "peak_rss_mb": r["peak_rss_mb"],
        "error_rate": r["failed"] / r["attempted"],
    }
    if w.kind == "train":
        named.update(
            train_samples_per_s=_throughput(w, r),
            train_step_p50_s=statistics.median(r["step_times"]),
            train_step_p90_s=_p(r["step_times"], 0.9),
            train_step_samples=len(r["step_times"]),
            final_loss=r["final_losses"][-1] if r["final_losses"] else None,
        )
    else:
        named.update(
            prep_cubes_per_s=_throughput(w, r),
            eval_sample_p50_s=statistics.median(r["sample_times"]),
            eval_sample_p90_s=_p(r["sample_times"], 0.9),
            eval_sample_samples=len(r["sample_times"]),
        )
    return named


def run_workload(name, seed, seconds, trace, tiny):
    w = WORKLOADS[name]
    deadline = time.monotonic() + RUN_LIMIT_S
    work = os.path.join(ROOT, ".perfbench_work", f"{name}-trace{trace}")
    data = os.path.join(work, "data")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = _child_env()
    extra = ["--tiny"] if tiny else []
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "tiny": tiny,
        "settings": {"closed_loop": True, "cold_starts": COLD_STARTS, "work_dir": work},
        "host": _host(work, env),
    }
    steal_start = _steal()
    _child(["gen", name, seed, data, *extra], env, deadline)

    def measured(window, traced, label):
        out = os.path.join(work, f"{label}.json")
        t_spawn = _child(["run", name, seed, data, out, window, traced, *extra], env, deadline)
        r = _read(out)
        return r, r["ready"] - t_spawn

    if trace:
        plain, _ = measured(seconds / 2, 0, "untraced")
        traced, _ = measured(seconds / 2, 1, "traced")
        runs = [plain, traced]
        unit = "step_times" if w.kind == "train" else "sample_times"
        metrics = dict(traced["per_layer"])
        metrics["trace.overhead_ratio"] = (
            statistics.median(traced[unit]) / statistics.median(plain[unit])
        )
        metrics = {k: (v, _layer_unit(k)) for k, v in metrics.items()}
        loss_mismatch = int(plain["final_losses"][-1:] != traced["final_losses"][-1:])
        record["checks"] = {
            "untraced": plain["checks"], "traced": traced["checks"],
            "final_loss_differs_traced_vs_untraced": loss_mismatch,
        }
        named = _named(w, plain, None)
    else:
        setup_samples = []
        for i in range(COLD_STARTS - 1):
            out = os.path.join(work, f"setup{i}.json")
            t_spawn = _child(["setup", name, seed, data, out, *extra], env, deadline)
            setup_samples.append(_read(out)["ready"] - t_spawn)
        r, ready = measured(seconds, 0, "untraced")
        setup_samples.append(ready)
        runs = [r]
        metrics = _end_to_end(w, r, setup_samples)
        loss_mismatch = 0
        record["checks"] = r["checks"]
        record["setup_samples_s"] = setup_samples
        named = _named(w, r, setup_samples)

    steal_end = _steal()
    if steal_start and steal_end:
        record["host"]["steal_jiffies"] = steal_end[0] - steal_start[0]
        record["host"]["steal_share"] = (steal_end[0] - steal_start[0]) / max(
            steal_end[1] - steal_start[1], 1
        )
    record["host"]["loadavg_end"] = os.getloadavg()
    attempted = sum(r["attempted"] for r in runs)
    failed = min(sum(r["failed"] for r in runs) + loss_mismatch, attempted)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record["named_metrics"] = named
    record["runs"] = runs
    record["result"] = result
    with open(os.path.join(work, "record.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    shutil.rmtree(data, ignore_errors=True)
    return result, record


def _layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_mb_per_step"):
        return "MB"
    if name.endswith("gflop_per_step"):
        return "GFLOP"
    if name.endswith("gflops"):
        return "GFLOP/s"
    if "calls." in name or name.endswith("nodes_per_step"):
        return "count"
    return "ratio"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "cvradar", "__init__.py")):
        print(f"error: no cvradar sources under {ROOT}/src", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            result, record = run_workload(name, args.seed, args.seconds, args.trace, args.tiny)
            results[name] = result
            print(f"# {name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
            for metric, m in result["metrics"].items():
                print(f"#   {metric:<36} {m['value']:>14.6g} {m['unit']}")
            print(f"# named {json.dumps(record['named_metrics'])}")
            print(f"# checks {json.dumps(record['checks'])}")
            print(f"# host {json.dumps(record['host'], default=str)}")
    except (BenchError, subprocess.TimeoutExpired, OSError, KeyError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
