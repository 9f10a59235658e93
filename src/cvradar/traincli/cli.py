"""Command-line surface: preprocess, train, eval, synth, gradcheck, fftcheck."""

import argparse
import json
import os
import sys

import numpy as np

from ..ctensor import halves
from ..dsp import (
    CubeFormatError, DatasetError, ManifestEntry, SyntheticScene,
    parse_scene_file, synth_fmcw_cube, write_manifest, write_rfc1,
)
from .adam import OptimizerError
from .checkpoint import MODEL_KINDS, CheckpointError, load_checkpoint
from .checks import GRAD_SUITES, fft_check, run_grad_suites
from .config import ConfigError, load_train_config
from .metrics import evaluate_pairs, render_report, report_json, report_to_dict
from .pipeline import load_pairs, preprocess_dataset, split_pairs
from .train import TrainingError, train

__all__ = ["main", "build_parser", "write_cubes"]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cvradar",
        description="Complex-valued radar classification pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="cache both signal representations per sample")
    p.add_argument("--manifest", required=True, help="dataset manifest of raw RFC1 cubes")
    p.add_argument("--out", required=True, help="output directory for the cached pairs")

    p = sub.add_parser("train", help="train a model and write per-epoch checkpoints")
    p.add_argument("--config", required=True, help="JSON training configuration")
    p.add_argument("--model", required=True, choices=tuple(MODEL_KINDS))
    p.add_argument("--out", required=True, help="output directory for checkpoints and metrics")

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset split")
    p.add_argument("--weights", required=True, help="checkpoint file")
    p.add_argument("--manifest", required=True, help="dataset manifest")
    p.add_argument("--split", required=True, choices=("test", "unseen"))

    p = sub.add_parser("synth", help="generate RFC1 cubes from a scene file")
    p.add_argument("--scenes", required=True, help="scene-set JSON document")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", required=True, type=int, help="global noise seed")

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--module", choices=tuple(sorted(GRAD_SUITES)), default=None)

    p = sub.add_parser("fftcheck", help="fast transform vs direct-sum comparison")
    p.add_argument("--size", required=True, help="cube extents as XxYxN, e.g. 20x20x100")
    p.add_argument("--trials", required=True, type=int)
    return parser


def _usage_error(message):
    """A refused argument: one `error:` line, exit status 2."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def _cmd_preprocess(args):
    out_manifest = preprocess_dataset(args.manifest, args.out)
    print(f"wrote {out_manifest}")
    return 0


def _cmd_train(args):
    config = load_train_config(args.config)

    def progress(epoch, report):
        line = f"epoch {epoch:3d}  loss {report.loss_curve[-1]:.6f}"
        if report.total:
            line += f"  train-accuracy {report.accuracy:.4f}"
        print(line)

    _, reports = train(config, args.model, out_dir=args.out, progress=progress)
    metrics_path = os.path.join(args.out, "metrics.json")
    with open(metrics_path, "w", encoding="utf-8") as fh:
        json.dump([report_to_dict(r) for r in reports], fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"final checkpoint: {os.path.join(args.out, 'final.ckpt')}")
    print(f"metrics: {metrics_path}")
    return 0


def _cmd_eval(args):
    model, kind, meta = load_checkpoint(args.weights)

    def eval_split(classes, samples):
        # every refusal that needs no cube comes before any is read
        if len(classes) != model.n_classes:
            raise DatasetError(
                f"checkpoint {args.weights} expects {model.n_classes} classes "
                f"but manifest {args.manifest} declares {len(classes)} classes"
            )
        if args.split == "unseen":
            chosen = [s for s in samples if s.unseen]
        else:
            if missing := [key for key in ("seed", "split_ratio") if key not in meta]:
                raise CheckpointError(
                    f"{args.weights}: checkpoint meta lacks {' and '.join(map(repr, missing))}; "
                    "only --split unseen is possible with it"
                )
            chosen = split_pairs(classes, samples, meta["seed"], meta["split_ratio"]).test
        if not chosen:
            raise DatasetError(f"{args.manifest}: split {args.split!r} is empty in this manifest")
        return chosen

    classes, chosen, input_hw = load_pairs(args.manifest, eval_split)
    want = (model.n_classes, tuple(model.config.input_hw))
    got = (len(classes), tuple(input_hw))
    if got != want:
        raise DatasetError(
            f"checkpoint {args.weights} expects {want[0]} classes of {want[1]} "
            f"samples but manifest {args.manifest} declares {got[0]} classes of {got[1]}"
        )
    report = evaluate_pairs(model, kind, chosen, tag=args.split)
    print(report_json(report))
    print()
    print(render_report(report, classes))
    return 0


def write_cubes(out_dir, config, classes, scenes):
    """Write scene i of the seeded (scene, class_index, distance_tag, split_hint)
    tuples to out_dir/cube_{i:05d}.rfc1, as one ctensor.halves job of 16 bytes per
    complex element, then their manifest; returns its path. synth_fmcw_cube and
    write_rfc1 are looked up here at call time, where perfbench's tracer wraps them."""
    os.makedirs(out_dir, exist_ok=True)
    entries = [ManifestEntry(f"cube_{i:05d}.rfc1", *tags) for i, (_, *tags) in enumerate(scenes)]

    def write(a, e):
        for (scene, *_), entry in zip(scenes[a:e], entries[a:e]):
            write_rfc1(os.path.join(out_dir, entry.path), synth_fmcw_cube(scene, config))

    halves(len(scenes), write, 16 * len(scenes) * np.prod(config.shape))
    manifest_path = os.path.join(out_dir, "manifest.json")
    write_manifest(manifest_path, classes, entries, shape=config.shape)
    return manifest_path


def _cmd_synth(args):
    if args.seed < 0:
        return _usage_error(f"--seed must be a non-negative integer, got {args.seed}")
    config, classes, entries = parse_scene_file(args.scenes)
    scenes = []
    for i, (scene, *tags) in enumerate(entries):
        seed = int(np.random.SeedSequence([args.seed, i]).generate_state(1)[0])
        scenes.append((SyntheticScene(scene.reflectors, scene.noise_level, seed), *tags))
    manifest_path = write_cubes(args.out, config, classes, scenes)
    print(f"wrote {len(scenes)} cubes and {manifest_path}")
    return 0


def _cmd_gradcheck(args):
    results = run_grad_suites(args.module)
    failed = 0
    for r in results:
        status = "ok  " if r.ok else "FAIL"
        print(f"{status} {r.suite:<11} {r.name:<28} error {r.error:.3e}  tol {r.tolerance:.0e}")
        failed += 0 if r.ok else 1
    if failed:
        print(f"{failed} check(s) failed", file=sys.stderr)
        return 1
    return 0


def _cmd_fftcheck(args):
    parts = args.size.lower().split("x")
    # isdecimal, not isdigit: int() refuses digits such as '²' that isdigit accepts
    if len(parts) != 3 or not all(p.isdecimal() and int(p) > 0 for p in parts):
        return _usage_error(f"--size must look like 20x20x100, got {args.size!r}")
    if args.trials < 1:
        return _usage_error(f"--trials must be a positive integer, got {args.trials}")
    result = fft_check(tuple(int(p) for p in parts), args.trials)
    status = "ok  " if result.ok else "FAIL"
    print(
        f"{status} fft {result.name}: max |fast - direct| = {result.error:.3e} "
        f"over {args.trials} trial(s), tol {result.tolerance:.0e}"
    )
    return 0 if result.ok else 1


_COMMANDS = {
    "preprocess": _cmd_preprocess,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "synth": _cmd_synth,
    "gradcheck": _cmd_gradcheck,
    "fftcheck": _cmd_fftcheck,
}


# The package's named input and run errors, and unreadable files (OSError names
# the path); each becomes one `error:` line.
_ERRORS = (ConfigError, DatasetError, CubeFormatError, CheckpointError, TrainingError,
           OptimizerError, OSError)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:  # sizes the config or arguments allow but memory does not
        print(f"error: {args.command} ran out of memory: {str(e) or 'no detail'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
