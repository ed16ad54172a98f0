"""Hot numerical kernels, in NumPy: the 8th-order stencil and the slab
Laplacian built on it (both on complex samples), Simpson quadrature, Horner
evaluation and a multisection Sturm eigensolver for symmetric tridiagonal
matrices, whose pivots are counted in blocks of rows.

Bit-exactness. Code that works in chunks or slabs (the Laplacian here, psi,
V and the mesh residual) returns what the whole-array expressions it
replaces return, bit for bit, under these rules:

- An elementwise operation split into chunks is exact: each element meets the
  same operation on the same operands, whatever chunk it falls in. A chunk
  of one element is the exception: NumPy runs an in-place complex product
  (``x *= y``, ``x **= 2``, ``np.multiply(x, y, out=x)``) on a one-element
  array through another loop, which rounds differently for about half of
  random operands, so no chunk of a complex array is one element long.
- Operand order is kept. NumPy's complex product rounds a*b and b*a
  differently in the last bit for about a third of random operand pairs (its
  vector loop fuses a multiply-add into one of the two terms), so each
  product is written with the operands in the order of the expression it
  replaces, and an in-place ``np.multiply(x, y, out=x)`` keeps (x, y).
- NumPy's temporary elision runs ``scalar * temp`` as ``temp *= scalar`` when
  the temporary holds at least 256 KiB, and leaves a smaller one alone. The
  two orders agree for a real scalar but not for a complex one with a
  nonzero imaginary part, so such a product is written ``temp * scalar``,
  the order a large array gets, and a result does not depend on how many
  points are evaluated at once.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "any_abs_below",
    "horner",
    "laplacian",
    "second_derivative_profile",
    "simpson",
    "tridiagonal_smallest",
]

# 9-point central stencil for f'', truncation error O(h^8).
STENCIL8 = np.array(
    [-1.0 / 560, 8.0 / 315, -1.0 / 5, 8.0 / 5, -205.0 / 72,
     8.0 / 5, -1.0 / 5, 8.0 / 315, -1.0 / 560]
)


# Input bytes per slab of ``laplacian``: a few axis-0 planes of a 3D mesh, so
# that the 9 shifted reads of each plane and the slab's buffers stay in cache.
_SLAB_BYTES = 2**19


def _real_view(f: np.ndarray) -> np.ndarray:
    """A complex128 array as float64 with a trailing (re, im) axis, for any
    strides of ``f``."""
    return np.lib.stride_tricks.as_strided(f.real, f.shape + (2,), f.strides + (8,))


def _stencil(f: np.ndarray, spacing: float, axis: int, out: np.ndarray,
             term: np.ndarray) -> None:
    """The 9-tap loop: f'' along ``axis`` of the (re, im) view ``f`` into
    ``out``, with ``term`` as a work buffer (both of the trimmed shape)."""
    n = f.shape[axis]
    window = [slice(None)] * f.ndim
    for j, c in enumerate(STENCIL8):
        window[axis] = slice(j, n - 8 + j)
        if j == 0:
            np.multiply(c, f[tuple(window)], out=out)
        else:
            np.multiply(c, f[tuple(window)], out=term)
            out += term
    # numpy divides a complex number by a real one as a product with the
    # reciprocal, so the (re, im) view is scaled the same way
    out *= 1.0 / spacing**2


def second_derivative_profile(samples: np.ndarray, spacing: float,
                              axis: int = 0) -> np.ndarray:
    """Second derivative along ``axis`` at all interior points of that axis
    (4 trimmed per side; the other axes keep their length), as complex
    values; the stencil runs on their float64 (re, im) view."""
    f = np.asarray(samples, dtype=complex)
    axis = range(f.ndim)[axis]
    if f.shape[axis] < 9:
        raise ValueError("need at least 9 samples for the 8th-order stencil")
    shape = list(f.shape)
    shape[axis] -= 8
    out = np.empty(shape, complex)
    dst = _real_view(out)
    _stencil(_real_view(f), spacing, axis, dst, np.empty_like(dst))
    return out


def laplacian(samples: np.ndarray, spacings) -> np.ndarray:
    """Sum over the axes of ``second_derivative_profile`` on the common
    interior (4 trimmed per side of every axis), bit for bit.

    The sum is built slab by slab along axis 0, each slab about
    ``_SLAB_BYTES`` of input; every axis's stencil reads only the interior
    of the other axes.
    """
    f = np.asarray(samples, dtype=complex)
    if len(spacings) != f.ndim:
        raise ValueError("one spacing per axis required")
    if min(f.shape) < 9:
        raise ValueError("need at least 9 samples for the 8th-order stencil")
    out = np.empty([n - 8 for n in f.shape], complex)
    src, dst = _real_view(f), _real_view(out)
    interior = [slice(4, n - 4) for n in f.shape]
    rows = min(max(1, _SLAB_BYTES // f[0].nbytes), out.shape[0])
    profile = np.empty((rows,) + dst.shape[1:])
    term = np.empty_like(profile)
    for start in range(0, out.shape[0], rows):
        stop = min(start + rows, out.shape[0])
        block = dst[start:stop]
        k = stop - start
        _stencil(src[(slice(start, stop + 8), *interior[1:])], spacings[0], 0,
                 block, term[:k])
        for axis in range(1, f.ndim):
            window = [slice(start + 4, stop + 4), *interior[1:]]
            window[axis] = slice(None)
            _stencil(src[tuple(window)], spacings[axis], axis, profile[:k], term[:k])
            block += profile[:k]
    return out


def any_abs_below(values, bound: float) -> bool:
    """Whether |v| < bound anywhere in ``values``, checked a slab of about
    ``_SLAB_BYTES`` at a time: no temporary the size of ``values``."""
    flat = np.reshape(values, -1)
    step = max(1, _SLAB_BYTES // flat.itemsize)
    return any(np.any(np.abs(flat[i:i + step]) < bound) for i in range(0, flat.size, step))


def simpson(samples: np.ndarray, spacing: float) -> complex:
    """Composite Simpson rule over uniformly spaced samples.

    Even sample counts are handled by Simpson on the leading run plus a
    3/8 rule on the last three intervals.
    """
    f = np.asarray(samples, dtype=complex)
    n = f.shape[0]
    if n < 2:
        return 0j
    if n == 2:
        return complex(spacing * (f[0] + f[1]) / 2.0)
    if n % 2 == 1:
        core, tail = f, 0j
    else:
        core = f[:n - 3]
        tail = spacing * 3.0 / 8.0 * (f[n - 4] + 3.0 * f[n - 3] + 3.0 * f[n - 2] + f[n - 1])
    s = core[0] + core[-1] + 4.0 * core[1:-1:2].sum() + 2.0 * core[2:-2:2].sum()
    return complex(spacing * s / 3.0 + tail)


def horner(coefficients: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Evaluate a dense polynomial (ascending coefficients) at many points."""
    c = np.asarray(coefficients, dtype=complex)
    z = np.asarray(points, dtype=complex)
    out = np.full(z.shape, c[-1], dtype=complex)
    for k in range(c.shape[0] - 2, -1, -1):
        out *= z
        out += c[k]
    return out


# Interior probes per bracket and sweep: each sweep shrinks a bracket
# (PROBES + 1)-fold, so about 10 sweeps replace about 70 bisection steps.
PROBES = 63
_MAX_SWEEPS = 200  # covers any finite Gershgorin span down to 4 eps
_ROW_BLOCK = 256   # matrix rows whose pivots are held before counting


def _guarded_rows(rows, q: np.ndarray, pivmin: float, probes: np.ndarray,
                  negative: np.ndarray) -> np.ndarray:
    """LAPACK ``dlaebz`` pivot loop over ``rows`` (d_i, e_{i-1}^2), starting
    from the pivot ``q`` of the row above: each row's sign goes into
    ``negative`` and the last pivot is returned.

    A pivot no larger in magnitude than pivmin is replaced by -pivmin before
    it is counted and propagated, so a probe that lands exactly on a pivot
    counts as negative and e^2/pivot stays finite.
    """
    small = np.empty(probes.shape, dtype=bool)
    for (d_i, e2_i), neg in zip(rows, negative):
        q = d_i - e2_i / q - probes
        np.less_equal(np.abs(q), pivmin, out=small)
        np.copyto(q, -pivmin, where=small)
        np.less(q, 0.0, out=neg)
    return q


def _sturm_count(diag, off2, pivmin: float, probes: np.ndarray) -> np.ndarray:
    """Number of negative LDL^T pivots of T - x at each probe x: the number
    of eigenvalues below x (one that x hits exactly may count too).

    Pivots are counted in blocks of ``_ROW_BLOCK`` rows, as in LAPACK
    ``dlaneg`` (Marques, Riedy & Voemel, SIAM J. Sci. Comput. 28(5), 2006):
    a block runs without the pivot guard and is checked once at its end. A
    block holding a pivot no larger in magnitude than pivmin is redone by
    ``_guarded_rows``. Up to the first such pivot the unguarded pivots equal
    the guarded ones, and a pivot larger than pivmin cannot make e^2/pivot
    overflow, so the counts are ``dlaebz``'s exactly.
    """
    count = np.zeros(probes.shape, dtype=np.int64)
    pivots = np.empty((_ROW_BLOCK,) + probes.shape)
    negative = np.empty(pivots.shape, dtype=bool)
    q = np.ones(probes.shape)
    # row 0 has no coupling above; NumPy scalars enter a ufunc faster than floats
    rows = list(zip(np.asarray(diag, dtype=float),
                    np.concatenate(([0.0], np.asarray(off2, dtype=float)))))
    for start in range(0, len(rows), _ROW_BLOCK):
        block = rows[start:start + _ROW_BLOCK]
        piv, neg = pivots[:len(block)], negative[:len(block)]
        prev = q
        # d_i - e2_i / q - probes, the guarded loop's operations in its order;
        # a zero pivot divides by zero, and its block is redone below
        with np.errstate(divide="ignore", invalid="ignore"):
            for (d_i, e2_i), p in zip(block, piv):
                np.divide(e2_i, prev, out=p)
                np.subtract(d_i, p, out=p)
                np.subtract(p, probes, out=p)
                prev = p
            redo = (np.abs(piv) <= pivmin).any()
        if redo:
            q = _guarded_rows(block, q, pivmin, probes, neg)
        else:
            q = piv[-1].copy()  # the next block writes over ``pivots``
            np.less(piv, 0.0, out=neg)
        count += np.count_nonzero(neg, axis=0)
    return count


def tridiagonal_smallest(diag: np.ndarray, off: np.ndarray, k: int) -> np.ndarray:
    """k smallest eigenvalues of a symmetric tridiagonal matrix, ascending.

    Multisection on Sturm counts (Lo, Philippe & Sameh 1987): every sweep
    probes each distinct open bracket at PROBES interior points in one
    vectorized recurrence, starting from the Gershgorin interval. A bracket
    is done at width 4 eps max(1, |lambda|). The recurrence runs in blocks of
    rows without the pivot guard, and a block is redone with the guard only
    when it meets a tiny pivot (``_sturm_count``), so the eigenvalues are
    those of the guarded recurrence bit for bit.
    """
    d = np.asarray(diag, dtype=float)
    e = np.asarray(off, dtype=float)
    n = d.shape[0]
    if e.shape[0] != n - 1:
        raise ValueError("off-diagonal must have length n-1")
    if not 1 <= k <= n:
        raise ValueError("k out of range")
    radius = np.zeros(n)
    radius[:-1] += np.abs(e)
    radius[1:] += np.abs(e)
    off2 = e * e
    pivmin = np.finfo(float).tiny * max(1.0, float(np.max(off2, initial=0.0)))
    glo, ghi = np.min(d - radius), np.max(d + radius)
    if not np.isfinite([glo, ghi, pivmin]).all():
        raise RuntimeError("tridiagonal entries are not finite or too large")
    lo = np.full(k, glo)
    hi = np.full(k, ghi)
    targets = np.arange(k)
    frac = np.arange(1, PROBES + 1) / (PROBES + 1)
    eps = np.finfo(float).eps
    for _ in range(_MAX_SWEEPS):
        open_ = hi - lo > 4.0 * eps * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
        if not open_.any():
            return 0.5 * (lo + hi)
        # targets still sharing a bracket share its probes
        brackets, which = np.unique(np.stack([lo[open_], hi[open_]], axis=1),
                                    axis=0, return_inverse=True)
        which = which.ravel()
        a, b = brackets[:, :1], brackets[:, 1:]
        probes = a + (b - a) * frac
        counts = _sturm_count(d, off2, pivmin, probes)[which]
        edges = np.concatenate([a, probes, b], axis=1)[which]
        # new bracket: from the last probe counting <= t to the first above t
        above = counts > targets[open_, None]
        first = np.where(above.any(axis=1), above.argmax(axis=1), PROBES)
        row = np.arange(first.size)
        lo[open_] = edges[row, first]
        hi[open_] = edges[row, first + 1]
    raise RuntimeError("tridiagonal eigensolver did not converge")
