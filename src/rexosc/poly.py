"""Hermite-family polynomials with exact integer construction.

Builds the physicists' Hermite polynomials H_n by their recurrence, their
nodeless companions obtained by the imaginary-argument substitution (even
index), and the composite polynomials that appear in the numerators of
extended-oscillator eigenfunctions. The real roots of H_m are the
Gauss-Hermite nodes, the eigenvalues of the Jacobi matrix of the recurrence
(Golub & Welsch, Math. Comp. 23, 221 (1969)); the zeros of the pseudo
companions follow from them.

The integer-exact constructions and the zeros of the pseudo companions are
cached: a ``Polynomial`` is frozen and the zeros are returned read-only, so
no caller can change a cached value.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermgauss

from . import _kernels
from .errors import DomainError

# Construction stays integer-exact well past this; the guard leaves a wide
# margin over the co-dimensions the package is used with (m <= 12 in tests).
_MAX_INDEX = 64


@dataclass(frozen=True)
class Polynomial:
    """Dense univariate polynomial, complex coefficients in ascending order."""

    coefficients: tuple

    def __post_init__(self):
        coeffs = tuple(complex(c) for c in self.coefficients)
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        if not coeffs:
            coeffs = (0j,)
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, z):
        return evaluate(self, z)


def evaluate(p: Polynomial, z):
    """Horner evaluation at a scalar or array argument."""
    if np.isscalar(z) or isinstance(z, (int, float, complex)):
        out = _kernels.horner(np.array(p.coefficients), np.array([z], dtype=complex))
        return complex(out[0])
    return _kernels.horner(np.array(p.coefficients), np.asarray(z, dtype=complex))


def derivative(p: Polynomial) -> Polynomial:
    """Formal derivative."""
    c = p.coefficients
    if len(c) == 1:
        return Polynomial((0j,))
    return Polynomial(tuple(k * c[k] for k in range(1, len(c))))


# -- integer-exact constructions --------------------------------------------

def _check_index(n: int) -> None:
    if n < 0:
        raise DomainError("index must be non-negative")
    if n > _MAX_INDEX:
        raise DomainError(f"index {n} exceeds integer-exact construction limit")


def _int_hermite(n: int) -> list:
    _check_index(n)
    a = [1]
    if n == 0:
        return a
    b = [0, 2]
    for k in range(1, n):
        c = [0] + [2 * x for x in b]  # 2x * H_k
        for i, x in enumerate(a):
            c[i] -= 2 * k * x
        a, b = b, c
    return b


def _int_pseudo_hermite(m: int) -> list:
    h = _int_hermite(m)
    out = [0] * len(h)
    for k in range(m % 2, len(h), 2):
        # k <= m: a non-negative exponent keeps the sign an integer
        out[k] = h[k] * (-1) ** ((m - k) // 2)
    return out


def _int_mul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _int_add(a: list, b: list) -> list:
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] += x
    return out


# The constructions below are cached. An index above _MAX_INDEX raises and
# is not cached, so pseudo_hermite holds at most 65 entries;
# exceptional_hermite's bound covers every valid (m, j).
@functools.lru_cache(maxsize=None)
def pseudo_hermite(m: int) -> Polynomial:
    """Nodeless Hermite companion: substitute an imaginary argument into H_m
    and strip the overall phase.  Real coefficients; strictly positive on the
    real line for even m, a single real zero at the origin for odd m."""
    return Polynomial(tuple(_int_pseudo_hermite(m)))


@functools.lru_cache(maxsize=(_MAX_INDEX + 1) ** 2)
def exceptional_hermite(m: int, j: int) -> Polynomial:
    """Numerator polynomial of the extended-oscillator eigenfunctions.

    Index j = 0 is the constant 1 (ground level); j = n + 1 >= 1 combines
    the pseudo companion of index m with H_{n+1} and H_n.
    """
    if j < 0:
        raise DomainError("index must be non-negative")
    if j == 0:
        return Polynomial((1,))
    pm = _int_pseudo_hermite(m)
    dpm = [k * pm[k] for k in range(1, len(pm))] or [0]
    out = _int_add(_int_mul(pm, _int_hermite(j)), _int_mul(_int_hermite(j - 1), dpm))
    return Polynomial(tuple(out))


def pseudo_hermite_zeros(m: int) -> np.ndarray:
    """Complex zeros of the index-m pseudo companion (all purely imaginary),
    computed once per m and returned read-only."""
    return _pseudo_hermite_zeros(m)


# the cache sits behind the public function, which stays a plain function so
# that the benchmark's span recorder still counts its calls
@functools.lru_cache(maxsize=None)
def _pseudo_hermite_zeros(m: int) -> np.ndarray:
    zeros = -1j * hermite_real_roots(m)
    zeros.flags.writeable = False
    return zeros


def hermite_real_roots(m: int) -> np.ndarray:
    """All real roots of H_m, ascending (simple roots, |x| < sqrt(2m+1)):
    the m-point Gauss-Hermite nodes."""
    _check_index(m)
    if m == 0:
        return np.array([])
    return hermgauss(m)[0]
