"""Deterministic mini-batch training for both model kinds.

Every random choice is pinned to the config seed: model initialization uses
it directly, the 80/20 split uses it, and each epoch's shuffle draws from a
sequence keyed on (seed, epoch). Repeating an invocation therefore yields
bit-identical checkpoints and metrics.
"""

import math
import os

import numpy as np

from ..ctensor import GradTape, ops
from ..cnn import baseline_logits, init_baseline
from ..fusion import fusenet_logits_batch, init_fusenet
from .adam import adam_step, init_adam_state
from .checkpoint import save_checkpoint
from .metrics import MetricsReport, evaluate_pairs
from .pipeline import SPLIT_RATIO, load_pairs, split_pairs, stack_pairs

__all__ = ["TrainingError", "DivergenceError", "train", "epoch_batches"]


class TrainingError(RuntimeError):
    """Raised when training cannot proceed (bad geometry, a training split under 2)."""


class DivergenceError(TrainingError):
    """Raised when the loss leaves the finite range mid-training."""

    def __init__(self, message, last_checkpoint=None):
        super().__init__(message)
        self.last_checkpoint = last_checkpoint


def epoch_batches(n, batch_size, rng):
    """Shuffled index batches; a trailing singleton is folded into its
    predecessor so every batch holds >= 2 samples for batch norm."""
    order = rng.permutation(n)
    batches = [order[i : i + batch_size] for i in range(0, n, batch_size)]
    if len(batches) > 1 and len(batches[-1]) == 1:
        batches[-2] = np.concatenate([batches[-2], batches[-1]])
        batches.pop()
    return batches


# perfbench's tracer patches this name. It looks the op up at call time, so the
# traced op is the one that runs; an import alias would bypass that wrapper.
def cross_entropy_from_logits(logits, targets):
    return ops.cross_entropy_logits(logits, targets)


def _batch_loss(model, kind, pairs, idx, n_classes):
    """Mean cross-entropy over one batch: one loss op on the (B, C) logits."""
    batch = [pairs[i] for i in idx]
    x_fft = stack_pairs(batch, "fft")
    if kind == "fusenet":
        logits = fusenet_logits_batch(stack_pairs(batch, "iq"), x_fft, model, "train")
    else:
        logits = baseline_logits(x_fft, model, "train")
    targets = np.eye(n_classes)[[p.label for p in batch]]
    return cross_entropy_from_logits(logits, targets)


def init_model(config, n_classes, kind):
    rng = np.random.default_rng(config.seed)
    if kind == "baseline":
        return init_baseline(config.branch, n_classes, rng)
    if kind == "fusenet":
        return init_fusenet(
            config.branch,
            n_classes,
            rng,
            embed_dim=config.embed_dim,
            heads=config.heads,
        )
    raise ValueError(f"kind must be 'baseline' or 'fusenet', got {kind!r}")


def train(config, kind, out_dir=None, track_accuracy=True, progress=None):
    """Returns (trained model, per-epoch MetricsReport tuple).

    With out_dir set, writes epoch_NNN.ckpt after each epoch plus final.ckpt;
    a non-finite loss aborts with the last completed epoch's file retained.
    With track_accuracy, each report carries train-split accuracy (eval-mode
    normalization); otherwise reports carry the loss curve only.
    """
    classes, all_pairs, input_hw = load_pairs(config.manifest)
    if tuple(input_hw) != tuple(config.branch.input_hw):
        raise TrainingError(
            f"manifest samples are {tuple(input_hw)} but the branch config "
            f"expects {tuple(config.branch.input_hw)}"
        )
    split = split_pairs(classes, all_pairs, config.seed)
    if len(split.train) < 2:
        # train-mode batch norm needs at least 2 samples in every batch
        raise TrainingError(
            f"{config.manifest}: training split has {len(split.train)} sample(s), need at least 2"
        )
    n_classes = len(classes)
    model = init_model(config, n_classes, kind)
    state = init_adam_state()
    meta = {"seed": config.seed, "split_ratio": SPLIT_RATIO, "classes": list(classes)}

    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    last_ckpt = None
    loss_curve = []
    reports = []
    for epoch in range(config.epochs):
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, epoch]))
        loss_sum = 0.0
        seen = 0
        for step, idx in enumerate(epoch_batches(len(split.train), config.batch_size, rng)):
            params = model.parameters()
            with GradTape() as tape:
                for _, t in params:
                    tape.watch(t)
                loss = _batch_loss(model, kind, split.train, idx, n_classes)
                value = float(loss.re)
                if not math.isfinite(value):
                    raise DivergenceError(
                        f"loss became non-finite at epoch {epoch}, step {step}; "
                        f"last good checkpoint: {last_ckpt or 'none written'}",
                        last_checkpoint=last_ckpt,
                    )
                grads = tape.backward(loss)
            named = {name: grads[t] for name, t in params}
            updated, state = adam_step(params, named, state, config)
            model = model.with_tensors(dict(updated))
            loss_sum += value * len(idx)
            seen += len(idx)
        loss_curve.append(loss_sum / seen)
        if track_accuracy:
            report = evaluate_pairs(
                model, kind, split.train, tag="train", loss_curve=loss_curve
            )
        else:
            zeros = tuple((0,) * n_classes for _ in range(n_classes))
            report = MetricsReport(
                accuracy=0.0,
                per_class=(0.0,) * n_classes,
                confusion=zeros,
                loss_curve=tuple(loss_curve),
                tag="train[loss-only]",
            )
        reports.append(report)
        if out_dir:
            last_ckpt = os.path.join(out_dir, f"epoch_{epoch:03d}.ckpt")
            save_checkpoint(last_ckpt, model, kind, meta={**meta, "epoch": epoch})
        if progress is not None:
            progress(epoch, report)
    if out_dir:
        save_checkpoint(
            os.path.join(out_dir, "final.ckpt"),
            model,
            kind,
            meta={**meta, "epoch": config.epochs - 1},
        )
    return model, tuple(reports)
