"""Complex-valued convolutional layers and the single-branch models."""

from .layers import *
from .branch import *
from .baseline import *
