"""Rationally extended quantum (an)isotropic oscillators.

Construct perturbed oscillator potentials (real or imaginary linear and
quadratic couplings in 1D/2D/3D), decouple them by complex-orthogonal
coordinate maps, extend them rationally, evaluate closed-form
eigenfunctions and energy ladders, and verify everything numerically.
"""
from .model import Eigenstate, OscillatorSpec, REConfig, SpectrumTable
from .transform import CouplingValue, DecoupledSystem

__version__ = "0.1.0"

# The kernels have one implementation, in NumPy.
BACKEND = "numpy"

__all__ = [
    "BACKEND",
    "CouplingValue",
    "DecoupledSystem",
    "Eigenstate",
    "OscillatorSpec",
    "REConfig",
    "SpectrumTable",
    "__version__",
]
