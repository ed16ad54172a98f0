"""The Hermite family, evaluated by its three-term recurrences.

``ladder`` runs P_{k+1} = 2u P_k -+ 2k P_{k-1} from P_0 = 1: the minus sign
gives the physicists' Hermite polynomials H_n, the plus sign their nodeless
companions p_m(u) = i^-m H_m(iu) obtained by the imaginary-argument
substitution. The numerators of the extended-oscillator eigenfunctions are
built from both (``model``). No monomial coefficients are formed: they grow
like n!, and a sum of them cancels heavily. The real roots of H_m are the
Gauss-Hermite nodes, the eigenvalues of the Jacobi matrix of the recurrence
(Golub & Welsch, Math. Comp. 23, 221 (1969)); the zeros of the pseudo
companions follow from them.

The zeros of the pseudo companions are cached and returned read-only, so no
caller can change a cached value.
"""
from __future__ import annotations

import functools

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .errors import DomainError

# Largest index of the family; a wide margin over the co-dimensions the
# package is used with (m <= 12 in tests) and the levels its residual and
# accuracy tests cover (up to 64).
_MAX_INDEX = 64


def _check_index(n: int) -> None:
    if n < 0:
        raise DomainError("index must be non-negative")
    if n > _MAX_INDEX:
        raise DomainError(f"Hermite-family index {n} exceeds the limit of {_MAX_INDEX}")


def ladder(n: int, u, sign: int) -> tuple:
    """(P_n(u), P_{n-1}(u)) at every u, for P_{k+1} = 2u P_k + sign*2k P_{k-1}
    with P_0 = 1 (and P_{-1} = 0): ``sign`` -1 gives the Hermite polynomials
    H_n, +1 the pseudo companions p_n. Complex arrays of u's shape.

    Each product is formed out of place or by a real scalar, so a value does
    not depend on how many points are evaluated with it (see ``_kernels``).
    """
    _check_index(n)
    u = np.asarray(u, dtype=complex)
    if n == 0:
        return np.ones(u.shape, complex), np.zeros(u.shape, complex)
    two_u = np.multiply(u, 2.0)
    if n == 1:
        return two_u, np.ones(u.shape, complex)
    # P_2 = (2u)^2 + sign*2, then the loop from k = 2 with P_1 in its own buffer
    cur = np.multiply(two_u, two_u)
    cur += sign * 2.0
    if n == 2:
        return cur, two_u
    prev, term = two_u.copy(), np.empty(u.shape, complex)
    combine = np.add if sign > 0 else np.subtract
    for k in range(2, n):
        np.multiply(two_u, cur, out=term)
        prev *= 2.0 * k
        combine(term, prev, out=prev)
        prev, cur = cur, prev
    return cur, prev


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
