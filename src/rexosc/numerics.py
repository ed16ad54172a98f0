"""Validated front ends to the numerical kernels: grids, quadrature, the
second-derivative stencil and a symmetric tridiagonal eigensolver.

All functions are pure. The arithmetic lives in ``_kernels``; in particular
the 8th-order stencil has one n-D implementation there, which the pointwise
``second_derivative`` applies to its 9-point window.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import BoundaryError, DomainError, NumericalFailureError, ShapeError

STENCIL_REACH = 4  # interior margin of the 8th-order second-derivative stencil


@dataclass(frozen=True)
class Grid:
    """Uniform 1D grid of ``n_points`` over [center-half_width, center+half_width].

    Parameters
    ----------
    center : float
        Midpoint of the grid.
    half_width : float
        Half the span; must be positive.
    n_points : int
        Number of points; at least 9 so the stencil has an interior.
    """

    center: float
    half_width: float
    n_points: int

    def __post_init__(self):
        if self.n_points < 9:
            raise DomainError("grid needs at least 9 points")
        if not self.half_width > 0:
            raise DomainError("half_width must be positive")
        if not np.isfinite([self.center, self.half_width]).all():
            raise DomainError("grid center and half_width must be finite")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / (self.n_points - 1)

    @property
    def points(self) -> np.ndarray:
        return np.linspace(self.center - self.half_width,
                           self.center + self.half_width, self.n_points)


@dataclass(frozen=True)
class TridiagonalMatrix:
    """Symmetric tridiagonal matrix stored as diagonal + off-diagonal."""

    diagonal: np.ndarray
    off_diagonal: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.diagonal, dtype=float)
        e = np.asarray(self.off_diagonal, dtype=float)
        if e.shape[0] != d.shape[0] - 1:
            raise ShapeError("off-diagonal length must be n-1")
        object.__setattr__(self, "diagonal", d)
        object.__setattr__(self, "off_diagonal", e)

    @property
    def dimension(self) -> int:
        return self.diagonal.shape[0]


def second_derivative(samples, grid: Grid, index: int) -> complex:
    """8th-order central-difference estimate of f'' at one grid point.

    Parameters
    ----------
    samples : sequence of complex
        Function values on ``grid``.
    grid : Grid
    index : int
        Evaluation index; must sit at least 4 points from both ends.
    """
    f = np.asarray(samples)
    if f.shape[0] != grid.n_points:
        raise ShapeError("samples length must equal grid.n_points")
    if index < STENCIL_REACH or index > grid.n_points - 1 - STENCIL_REACH:
        raise BoundaryError("index too close to grid boundary for the stencil")
    window = f[index - STENCIL_REACH:index + STENCIL_REACH + 1]
    return complex(second_derivative_profile(window, grid.spacing)[0])


def second_derivative_profile(samples, spacing: float, axis: int = 0) -> np.ndarray:
    """f'' along ``axis`` on its interior (4 points trimmed per side), as
    complex values; the stencil runs on their float64 (re, im) view."""
    return _kernels.second_derivative_profile(
        np.ascontiguousarray(samples, dtype=complex), float(spacing), axis)


def integrate(samples, grid: Grid) -> complex:
    """Composite Simpson estimate of the integral of f over the grid span."""
    f = np.asarray(samples)
    if f.shape[0] != grid.n_points:
        raise ShapeError("samples length must equal grid.n_points")
    return _kernels.simpson(np.ascontiguousarray(f, dtype=complex), grid.spacing)


def integrate_samples(samples, spacing: float) -> complex:
    """Simpson integral of raw uniformly spaced samples."""
    return _kernels.simpson(np.ascontiguousarray(samples, dtype=complex), float(spacing))


def lowest_eigenvalues(matrix: TridiagonalMatrix, k: int) -> np.ndarray:
    """k smallest eigenvalues of a symmetric tridiagonal matrix, ascending."""
    if not 1 <= k <= matrix.dimension:
        raise DomainError("k must satisfy 1 <= k <= dimension")
    if not (np.isfinite(matrix.diagonal).all() and np.isfinite(matrix.off_diagonal).all()):
        raise DomainError("matrix entries must be finite")
    try:
        vals = _kernels.tridiagonal_smallest(matrix.diagonal, matrix.off_diagonal, k)
    except RuntimeError as exc:
        raise NumericalFailureError(str(exc)) from exc
    return np.asarray(vals, dtype=float)


def default_half_width(omega_min: float) -> float:
    """Box size placing Gaussian eigenfunction tails below 1e-30."""
    if not omega_min > 0:
        raise DomainError(f"the box needs a positive frequency, got {float(omega_min):g}")
    return 12.0 / np.sqrt(omega_min)
