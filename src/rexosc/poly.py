"""Hermite-family polynomials with exact integer construction.

Provides the physicists' Hermite polynomials H_n, their nodeless companions
obtained by the imaginary-argument substitution (even index), and the
composite polynomials that appear in the numerators of extended-oscillator
eigenfunctions.  Also supplies Sturm-sequence real-root isolation used by
regularity scans.

The integer-exact constructions and the zeros of the pseudo companions are
cached: a ``Polynomial`` is frozen and the zeros are returned read-only, so
no caller can change a cached value. Sturm chains are built on Python
floats (a pole scan's chain members have at most 11 coefficients, too few for
array calls to pay), and root isolation evaluates its probes on arrays.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DomainError

# Construction stays integer-exact well past this; the guard leaves a wide
# margin over the co-dimensions the package is used with (m <= 12 in tests).
_MAX_INDEX = 64

_REAL_TOL = 1e-12

# A multisection sweep of root isolation splits each interval into at most
# 2**_SPLIT_BITS parts, that is at most 63 interior probes.
_SPLIT_BITS = 6
# interior probes of a split into 2**bits parts, as fractions of the interval
_FRACTIONS = [np.arange(1, 2**bits) / 2**bits for bits in range(_SPLIT_BITS + 1)]


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


def multiply(p: Polynomial, q: Polynomial) -> Polynomial:
    out = np.convolve(np.array(p.coefficients), np.array(q.coefficients))
    return Polynomial(tuple(out))


def _trimmed(c: np.ndarray) -> np.ndarray:
    """Ascending coefficients without trailing zeros, as ``Polynomial`` keeps
    them (one coefficient at least)."""
    k = c.shape[0]
    while k > 1 and c[k - 1] == 0:
        k -= 1
    return c[:k]


def compose_linear(p: Polynomial, alpha: complex, beta: complex) -> Polynomial:
    """Coefficients of p(alpha*t + beta) as a polynomial in t, by Horner's
    rule on coefficient arrays."""
    lin = _trimmed(np.array([beta, alpha], dtype=complex))
    out = np.zeros(1, dtype=complex)
    for c in reversed(p.coefficients):
        # 0j + ...: a coefficient-wise sum from 0j, which turns a zero part
        # -0.0 into 0.0
        out = _trimmed(np.convolve(out, lin)) + 0j
        out[0] += c
        out = _trimmed(out)
    return Polynomial(tuple(out.tolist()))


def conjugate_coefficients(p: Polynomial) -> Polynomial:
    """Polynomial with conjugated coefficients (equals conj(p(conj(t))))."""
    return Polynomial(tuple(complex(c).conjugate() for c in p.coefficients))


# -- integer-exact constructions --------------------------------------------

def _int_hermite(n: int) -> list:
    if n < 0:
        raise DomainError("index must be non-negative")
    if n > _MAX_INDEX:
        raise DomainError(f"index {n} exceeds integer-exact construction limit")
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
        out[k] = h[k] * (-1) ** ((k - m) // 2)
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
# is not cached, so hermite and pseudo_hermite hold at most 65 entries each;
# exceptional_hermite's bound covers every valid (m, j).
@functools.lru_cache(maxsize=None)
def hermite(n: int) -> Polynomial:
    """Physicists' Hermite polynomial H_n via the three-term recurrence."""
    return Polynomial(tuple(_int_hermite(n)))


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
    """All real roots of H_m, ascending (simple roots, |x| < sqrt(2m+1))."""
    if m == 0:
        return np.array([])
    bound = float(np.sqrt(2.0 * m + 1.0)) + 1.0
    return np.array(isolate_real_roots(hermite(m), -bound, bound))


# -- Sturm sequences ---------------------------------------------------------

def _real_coeffs(p: Polynomial) -> list:
    c = p.coefficients
    scale = max(abs(x) for x in c) or 1.0
    if max(abs(x.imag) for x in c) > _REAL_TOL * scale:
        raise DomainError("polynomial coefficients are not real")
    return [x.real for x in c]


def _trim(c: list, tol: float) -> list:
    scale = max(map(abs, c), default=0.0)
    if scale == 0.0:
        return [0.0]
    k = len(c)
    while k > 1 and abs(c[k - 1]) <= tol * scale:
        k -= 1
    return c[:k]


def _poly_rem(a: list, b: list, tol: float) -> list:
    """Remainder of a / b on float coefficients with degree truncation."""
    r = a
    db = len(b) - 1
    lead = b[-1]
    while len(r) - 1 >= db and len(r) > 1:
        k = len(r) - 1 - db
        q = r[-1] / lead
        r = r[:-1]
        if q != 0.0:
            r[k:k + db] = [x - q * y for x, y in zip(r[k:k + db], b)]
        r = _trim(r, tol)
        if r == [0.0]:
            break
    return r


def _sturm_chain(c: list, tol: float) -> list:
    chain = [_trim(c, tol)]
    if len(chain[0]) > 1:
        chain.append(_trim([k * c[k] for k in range(1, len(c))], tol))
    while len(chain[-1]) > 1:
        r = _poly_rem(chain[-2], chain[-1], tol)
        if r == [0.0]:
            break
        chain.append([-x for x in r])
    if len(chain[-1]) > 1:
        # p has a repeated root: every member shares the factor chain[-1] and
        # would vanish at that root, so divide the factor out of the chain
        g = np.array(chain[-1][::-1])
        chain = [np.polydiv(np.array(c[::-1]), g)[0][::-1].tolist() for c in chain]
    return chain


def _sturm_table(p: Polynomial):
    """Sturm chain of p as (columns, degree, scale): the chain padded into an
    (L, D) ascending coefficient array and split into its D columns, with
    each member's degree and coefficient scale as (L, 1) arrays. None when p
    is constant."""
    chain = _sturm_chain(_real_coeffs(p), _REAL_TOL)
    if len(chain[0]) == 1:
        return None
    width = max(map(len, chain))
    coeffs = np.array([c + [0.0] * (width - len(c)) for c in chain])
    degree = np.array([[len(c) - 1] for c in chain])
    scale = np.array([[max(map(abs, c))] for c in chain])
    return list(coeffs.T[:, :, None]), degree, scale


def _variations(table, x: np.ndarray) -> np.ndarray:
    """Sign variations of the Sturm chain at each probe in x.

    Members with |value| <= 1e-14 * scale * max(1, |x|)^degree count as zero
    and are skipped, so a root of p at a probe is counted as left of it.
    """
    columns, degree, scale = table
    vals = np.empty((degree.shape[0], x.size))
    vals[:] = columns[-1]
    for c in columns[-2::-1]:
        vals *= x
        vals += c
    kept = np.abs(vals) > 1e-14 * (scale * np.maximum(1.0, np.abs(x)) ** degree)
    if kept.all():
        negative = vals < 0.0
        return (negative[1:] != negative[:-1]).sum(axis=0)
    # a skipped member takes the sign of the last kept one above it
    sign = np.sign(vals) * kept
    rows = np.where(kept, np.arange(sign.shape[0])[:, None], 0)
    sign = sign[np.maximum.accumulate(rows, axis=0), np.arange(x.size)]
    return np.count_nonzero(sign[1:] * sign[:-1] < 0.0, axis=0)


def _finite_interval(lo: float, hi: float) -> tuple:
    lo, hi = float(lo), float(hi)
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise DomainError("need finite lo < hi")
    return lo, hi


def isolate_real_roots(p: Polynomial, lo: float, hi: float) -> list:
    """Locate the distinct real roots of p in (lo, hi] by Sturm multisection.

    Each sweep splits every interval that still holds a root into up to 64
    equal parts, whose end points are counted in one vectorized call. An
    interval narrower than 1e-12 * max(1, |a|, |b|) yields one root at its
    midpoint. A sweep never splits past the first level at which a part
    could be that narrow, so roots closer than that merge as under plain
    bisection.
    """
    lo, hi = _finite_interval(lo, hi)
    table = _sturm_table(p)
    if table is None:
        return []
    v_lo, v_hi = _variations(table, np.array([lo, hi])).tolist()
    # intervals (a, b] holding roots, with the variation counts V(a) > V(b)
    intervals = [(lo, hi, v_lo, v_hi)] if v_lo > v_hi else []
    roots = []
    while intervals:
        split, ratio = [], math.inf
        for a, b, v_a, v_b in intervals:
            room = 1e-12 * max(1.0, abs(a), abs(b))
            if b - a <= room:
                roots.append(0.5 * (a + b))
            else:
                split.append((a, b, v_a, v_b))
                ratio = min(ratio, (b - a) / room)
        if not split:
            break
        bits = min(max(math.ceil(math.log2(ratio) - 1e-9), 1), _SPLIT_BITS)
        a, b, v_a, v_b = np.array(split).T[:, :, None]
        probes = a + (b - a) * _FRACTIONS[bits]
        v_x = _variations(table, probes.ravel()).reshape(probes.shape)
        edges = np.concatenate([a, probes, b], axis=1)
        counts = np.concatenate([v_a, v_x, v_b], axis=1)
        # zero-filtered counts can wobble near a repeated root; keep them
        # non-increasing so no part holds a negative number of roots
        counts = np.maximum(np.minimum.accumulate(counts, axis=1), v_b)
        row, col = np.nonzero(counts[:, :-1] > counts[:, 1:])
        intervals = list(zip(edges[row, col].tolist(), edges[row, col + 1].tolist(),
                             counts[row, col].tolist(), counts[row, col + 1].tolist()))
    return sorted(roots)
