"""Classification metrics: confusion matrix, accuracies, and report rendering."""

import json
from dataclasses import dataclass

import numpy as np

from ..cnn import baseline_logits, chunk_size
from ..fusion import fusenet_forward
from .pipeline import stack_pairs

__all__ = [
    "MetricsReport",
    "evaluate_pairs",
    "report_to_dict",
    "render_report",
    "report_json",
]


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float
    per_class: tuple  # accuracy fraction per class; 0.0 for classes absent from the split
    confusion: tuple  # rows = true class, columns = predicted class, integer counts
    loss_curve: tuple  # mean training loss per completed epoch; empty for pure evaluation
    tag: str

    def __post_init__(self):
        c = len(self.confusion)
        if any(len(row) != c for row in self.confusion):
            raise ValueError("confusion matrix must be square")
        if len(self.per_class) != c:
            raise ValueError(f"per_class has {len(self.per_class)} entries for {c} classes")
        total = sum(sum(row) for row in self.confusion)
        trace = sum(self.confusion[i][i] for i in range(c))
        if total > 0 and self.accuracy != trace / total:
            raise ValueError(
                f"accuracy {self.accuracy} does not equal trace/total = {trace}/{total}"
            )

    @property
    def total(self):
        return sum(sum(row) for row in self.confusion)


def _confusion_report(confusion, loss_curve, tag):
    confusion = np.asarray(confusion, dtype=np.int64)
    total = int(confusion.sum())
    trace = int(np.trace(confusion))
    row_sums = confusion.sum(axis=1)
    per_class = tuple(
        float(confusion[i, i] / row_sums[i]) if row_sums[i] else 0.0
        for i in range(confusion.shape[0])
    )
    return MetricsReport(
        accuracy=float(trace / total) if total else 0.0,
        per_class=per_class,
        confusion=tuple(tuple(int(v) for v in row) for row in confusion),
        loss_curve=tuple(float(v) for v in loss_curve),
        tag=tag,
    )


def evaluate_pairs(model, kind, pairs, tag, loss_curve=()):
    """Argmax predictions over a pair list, normalization in eval mode.

    The baseline consumes only the spectrum representation; the fusion model
    consumes both. Consecutive chunks of cnn.chunk_size pairs run through
    the batched forward. Ties break toward the lowest class index.
    """
    if kind not in ("baseline", "fusenet"):
        raise ValueError(f"kind must be 'baseline' or 'fusenet', got {kind!r}")
    c = model.n_classes
    for p in pairs:
        if not 0 <= p.label < c:
            raise ValueError(f"sample label {p.label} out of range for {c} classes")
    confusion = np.zeros((c, c), dtype=np.int64)
    chunk = chunk_size(model.config)
    for start in range(0, len(pairs), chunk):
        batch = pairs[start : start + chunk]
        x_fft = stack_pairs(batch, "fft")
        if kind == "fusenet":
            logits = fusenet_forward(stack_pairs(batch, "iq"), x_fft, model)
        else:
            logits = baseline_logits(x_fft, model, "eval")
        np.add.at(confusion, ([p.label for p in batch], np.argmax(logits.re, axis=1)), 1)
    return _confusion_report(confusion, loss_curve, tag)


def report_to_dict(report):
    return {
        "accuracy": report.accuracy,
        "per_class": list(report.per_class),
        "confusion": [list(row) for row in report.confusion],
        "loss_curve": list(report.loss_curve),
        "tag": report.tag,
        "total": report.total,
    }


def render_report(report, classes=None):
    """Human-readable table; classes supplies row labels when given."""
    c = len(report.confusion)
    names = list(classes) if classes else [f"class {i}" for i in range(c)]
    width = max(len(n) for n in names) + 2
    counts = max(len(str(v)) for row in report.confusion for v in row) if c else 1
    cell = max(6, counts + 2, max(len(n) for n in names) + 2)
    lines = [
        f"split: {report.tag}   samples: {report.total}   "
        f"accuracy: {report.accuracy:.4f}",
        "",
        " " * width + "".join(f"{n:>{cell}}" for n in names) + "   per-class",
    ]
    for i, row in enumerate(report.confusion):
        cells = "".join(f"{v:>{cell}}" for v in row)
        lines.append(f"{names[i]:<{width}}{cells}   {report.per_class[i]:.4f}")
    return "\n".join(lines)


def report_json(report):
    return json.dumps(report_to_dict(report), indent=2, sort_keys=True)
