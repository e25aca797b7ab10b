"""Binaural rendering from compact microphone arrays.

Signal-matching filter design, parametric direct/reverberant decomposition,
an image-method shoebox simulator and an NMSE evaluator, glued together by
a config-driven CLI (see bsmrender.cli).
"""

__version__ = "0.1.0"

from .geometry import ArrayGeometry, Direction, sph_to_cart
from .solvers import BsmFilterBank, CovarianceModel, SolverConfig
from .stft import Spectrogram, StftConfig

__all__ = [
    "ArrayGeometry",
    "BsmFilterBank",
    "CovarianceModel",
    "Direction",
    "SolverConfig",
    "Spectrogram",
    "StftConfig",
    "__version__",
]
