"""Training loop, optimizer, metrics, checkpoints, benchmarks, and the CLI."""

from .adam import *
from .bench import *
from .checkpoint import *
from .checks import *
from .config import *
from .metrics import *
from .pipeline import *
from .train import *
