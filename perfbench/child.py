"""One benchmark child process: input generation, a cold start, or a measured window.

    python3 perfbench/child.py gen   <workload> <seed> <data_dir> [--tiny]
    python3 perfbench/child.py setup <workload> <seed> <data_dir> <result.json> [--tiny]
    python3 perfbench/child.py run   <workload> <seed> <data_dir> <result.json> <window_s> <traced> [--tiny]

Every child runs one BLAS thread (the parent sets the environment) and exits
after writing its result file. ``run`` is a closed loop: rounds of cvradar
commands, each started only after the previous one returned, until the window
is spent.
"""

import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from time import perf_counter

from workloads import WORKLOADS, Tally, fft_check, generate, run_round, setup, units_per_round


def _measure(w, seed, data_dir, units, window, traced):
    import instrument

    tracer = None
    if traced:
        tracer = instrument.Tracer()
        tracer.install()
    probes = instrument.Probes()
    probes.install()

    tally = Tally()
    per_round = units_per_round(units)
    round_s = []
    t_start = perf_counter()
    while True:
        t0 = perf_counter()
        tally.rounds += 1
        first_eval = len(probes.evals)
        try:
            timed, curve = run_round(w, data_dir, seed)
            tally.timed_s.append(timed)
            tally.round_evals.append(slice(first_eval, len(probes.evals)))
            if curve is not None:
                tally.loss_curves_finite &= all(math.isfinite(v) for v in curve)
                tally.final_losses.append(curve[-1])
        except Exception:  # a failed round is counted, reported, and the loop goes on
            tally.failed_rounds += 1
            tally.errors.append(traceback.format_exc(limit=3))
            traceback.print_exc(file=sys.stderr)
        round_s.append(perf_counter() - t0)
        # Stop when another round would more likely end past the window than before it.
        if perf_counter() - t_start + statistics.median(round_s) / 2 >= window:
            break
    window_s = perf_counter() - t_start

    checks = _checks(seed, data_dir, tally, probes)
    result = {
        "window_s": window_s,
        "rounds": tally.rounds,
        "attempted": tally.rounds * per_round,
        "failed": min(tally.failed_rounds * per_round + sum(checks.values()), tally.rounds * per_round),
        "checks": checks,
        "errors": tally.errors,
        "timed_s": tally.timed_s,
        "steps": len(probes.steps),
        "step_times": [b - a for a, b in probes.steps],
        "sample_times": probes.sample_times,
        "eval_calls": [(e[2], e[1] - e[0]) for e in probes.evals],
        "final_losses": tally.final_losses,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        if w.kind == "train":
            per_unit = per_cube = max(len(probes.steps), 1)
            intervals = probes.steps
            stages = instrument.STEP_STAGES
        else:
            per_unit = max(len(probes.sample_times), 1)
            per_cube = max(len(tally.timed_s) * units["cubes"], 1)
            name, start, end, _ = tracer.arrays()
            forward = name == tracer.names.index("fusion.forward")
            intervals = list(zip(start[forward], end[forward]))
            stages = instrument.SAMPLE_STAGES
        result["per_layer"] = instrument.per_layer(tracer, per_unit, per_cube, intervals, stages)
        tracer.save(os.path.join(os.path.dirname(data_dir), "spans.npz"))
    return result


def _checks(seed, data_dir, tally, probes):
    """Failed output checks, each counted as one failed operation."""
    losses = tally.final_losses
    confusions = [[e[3].confusion for e in probes.evals[sl]] for sl in tally.round_evals]
    try:
        fft_bad = len(fft_check(data_dir, seed))
    except (OSError, ValueError, KeyError):  # no cache left by a failed round
        traceback.print_exc(file=sys.stderr)
        fft_bad = 1
    return {
        "loss_not_finite": int(not tally.loss_curves_finite),
        "final_loss_differs_between_rounds": sum(x != losses[0] for x in losses[1:]),
        "eval_total_differs_from_submitted": sum(e[2] != e[3].total for e in probes.evals),
        "eval_confusion_differs_between_rounds": sum(c != confusions[0] for c in confusions[1:]),
        "fft_differs_from_numpy": fft_bad,
    }


def main(argv):
    tiny = "--tiny" in argv
    argv = [a for a in argv if a != "--tiny"]
    mode, name, seed, data_dir = argv[0], argv[1], int(argv[2]), argv[3]
    w = WORKLOADS[name].sized(tiny)
    if mode == "gen":
        generate(w, seed, data_dir)
        return 0
    units = setup(w, data_dir)
    result = {"ready": time.monotonic(), "units": units}
    if mode == "run":
        result.update(_measure(w, seed, data_dir, units, float(argv[5]), argv[6] == "1"))
    with open(argv[4], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
