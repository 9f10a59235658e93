"""Cross-attention fusion and the classification head; the loss op is in ctensor.ops."""

from .attention import *
from .model import *
