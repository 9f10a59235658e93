"""Signal pre-processing, cube file I/O, sample-list files, and scene synthesis."""

from .fft import *
from .cube import *
from .dataset import *
from .scenes import *
