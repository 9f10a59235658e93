"""cvradar: complex-valued radar IQ/FFT classification with fused features.

Subpackages:
  ctensor  - complex tensors and the reverse-mode gradient engine
  dsp      - 3D spectra, cube file I/O, sample-list files, synthetic scenes
  cnn      - complex-valued layers and the single-branch feature extractor
  fusion   - realified features, bidirectional cross-attention, loss
  traincli - training pairs and splits, Adam, training loop, metrics,
             checkpoints, command line
"""

__version__ = "0.1.0"
