"""Complex tensor arithmetic and the reverse-mode gradient engine."""

from .tensor import ComplexTensor, ShapeError
from .tape import GradTape, TapeError, active_tape, halves, parallel
from .gradcheck import GradCheckError, grad_check, grad_check_multi
from . import ops

__all__ = [
    "ComplexTensor", "ShapeError",
    "GradTape", "TapeError", "active_tape", "halves", "parallel",
    "GradCheckError", "grad_check", "grad_check_multi",
    "ops",
]
