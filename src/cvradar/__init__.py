"""cvradar: complex-valued radar IQ/FFT classification with fused features.

Subpackages:
  ctensor  - complex tensors, the reverse-mode gradient engine, the loss op
  dsp      - 3D spectra, cube file I/O, sample-list files, synthetic scenes
  cnn      - complex-valued layers and the single-branch feature extractor
  fusion   - realified features, bidirectional cross-attention, head
  traincli - training pairs and splits, Adam, training loop, metrics,
             checkpoints, command line

Each subpackage exports exactly the names its modules list in __all__
(``from .module import *``); ctensor also exports its ops module. Other
module-level names are imported by module path.
"""

__version__ = "0.1.0"
