"""Classification metrics: confusion matrix, accuracies, and report rendering."""

import json
from dataclasses import dataclass

import numpy as np

from ..cnn import baseline_logits, chunk_size
from ..fusion import fusenet_forward
from .checkpoint import model_kind
from .pipeline import stack_pairs

__all__ = [
    "MetricsReport",
    "evaluate_pairs",
    "report_to_dict",
    "render_report",
]


@dataclass(frozen=True)
class MetricsReport:
    confusion: tuple  # rows = true class, columns = predicted class, integer counts
    loss_curve: tuple  # mean training loss per completed epoch; empty for pure evaluation
    tag: str

    def __post_init__(self):
        c = len(self.confusion)
        if any(len(row) != c for row in self.confusion):
            raise ValueError("confusion matrix must be square")

    @property
    def total(self):
        return sum(sum(row) for row in self.confusion)

    @property
    def accuracy(self):
        """trace / total; 0.0 for an empty split."""
        total = self.total
        return sum(row[i] for i, row in enumerate(self.confusion)) / total if total else 0.0

    @property
    def per_class(self):
        """Accuracy fraction per class; 0.0 for classes absent from the split."""
        return tuple(row[i] / sum(row) if sum(row) else 0.0 for i, row in enumerate(self.confusion))


def evaluate_pairs(model, kind, pairs, tag, loss_curve=()):
    """Argmax predictions over a pair list, normalization in eval mode.

    The baseline consumes only the spectrum representation; the fusion model
    consumes both. Consecutive chunks of cnn.chunk_size pairs run through
    the batched forward. Ties break toward the lowest class index.
    """
    model_kind(kind)
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
    return MetricsReport(tuple(tuple(int(v) for v in row) for row in confusion),
                         tuple(float(v) for v in loss_curve), tag)


def report_to_dict(report):
    return {
        "accuracy": report.accuracy,
        "per_class": list(report.per_class),
        "confusion": [list(row) for row in report.confusion],
        "loss_curve": list(report.loss_curve),
        "tag": report.tag,
        "total": report.total,
    }


def render_report(report, classes):
    """Human-readable table, rows and columns labelled with the class names."""
    c = len(report.confusion)
    names = list(classes)
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
