"""Complex tensor arithmetic and the reverse-mode gradient engine."""

from .tensor import *
from .tape import *
from . import ops
