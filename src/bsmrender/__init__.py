"""Binaural rendering from compact microphone arrays.

Signal-matching filter design, parametric direct/reverberant decomposition,
an image-method shoebox simulator and an NMSE evaluator, glued together by
a config-driven CLI (see bsmrender.cli).
"""

__version__ = "0.1.0"

from .geometry import ArrayGeometry
from .solvers import CovarianceModel, SolverConfig
from .stft import StftConfig

__all__ = [
    "ArrayGeometry",
    "CovarianceModel",
    "SolverConfig",
    "StftConfig",
    "__version__",
]
