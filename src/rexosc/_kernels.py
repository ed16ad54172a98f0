"""Hot numerical kernels, in NumPy: the 8th-order stencil, Simpson
quadrature, Horner evaluation and a multisection Sturm eigensolver for
symmetric tridiagonal matrices.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "horner",
    "second_derivative_profile",
    "simpson",
    "tridiagonal_smallest",
]

# 9-point central stencil for f'', truncation error O(h^8).
STENCIL8 = np.array(
    [-1.0 / 560, 8.0 / 315, -1.0 / 5, 8.0 / 5, -205.0 / 72,
     8.0 / 5, -1.0 / 5, 8.0 / 315, -1.0 / 560]
)


def second_derivative_profile(samples: np.ndarray, spacing: float,
                              axis: int = 0) -> np.ndarray:
    """Second derivative along ``axis`` at all interior points of that axis
    (4 trimmed per side; the other axes keep their length)."""
    f = np.asarray(samples)
    n = f.shape[axis]
    if n < 9:
        raise ValueError("need at least 9 samples for the 8th-order stencil")
    window = [slice(None)] * f.ndim
    out = None
    for j, c in enumerate(STENCIL8):
        window[axis] = slice(j, n - 8 + j)
        term = c * f[tuple(window)]
        out = term if out is None else out + term
    return out / spacing**2


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
        out = out * z + c[k]
    return out


# Interior probes per bracket and sweep: each sweep shrinks a bracket
# (PROBES + 1)-fold, so about 10 sweeps replace about 70 bisection steps.
PROBES = 63
_MAX_SWEEPS = 200  # covers any finite Gershgorin span down to 4 eps
_ROW_BLOCK = 256   # matrix rows whose pivot signs are held before counting


def _sturm_count(diag: list, off2: list, pivmin: float, probes: np.ndarray) -> np.ndarray:
    """Number of negative LDL^T pivots of T - x at each probe x: the number
    of eigenvalues below x (one that x hits exactly may count too).

    LAPACK ``dlaebz`` pivot rule: a pivot no larger in magnitude than pivmin is
    replaced by -pivmin before it is counted and propagated, so a probe that
    lands exactly on a pivot counts as negative and e^2/pivot stays finite.
    """
    count = np.zeros(probes.shape, dtype=np.int64)
    neg = np.empty((_ROW_BLOCK,) + probes.shape, dtype=bool)
    small = np.empty(probes.shape, dtype=bool)
    q = np.ones(probes.shape)
    rows = list(zip(diag, [0.0] + list(off2)))  # row 0 has no coupling above
    for start in range(0, len(rows), _ROW_BLOCK):
        block = neg[:len(rows) - start]
        for (d_i, e2_i), negative in zip(rows[start:start + _ROW_BLOCK], block):
            q = d_i - e2_i / q - probes
            np.less_equal(np.abs(q), pivmin, out=small)
            np.copyto(q, -pivmin, where=small)
            np.less(q, 0.0, out=negative)
        count += np.count_nonzero(block, axis=0)
    return count


def tridiagonal_smallest(diag: np.ndarray, off: np.ndarray, k: int) -> np.ndarray:
    """k smallest eigenvalues of a symmetric tridiagonal matrix, ascending.

    Multisection on Sturm counts (Lo, Philippe & Sameh 1987): every sweep
    probes each distinct open bracket at PROBES interior points in one
    vectorized recurrence, starting from the Gershgorin interval. A bracket
    is done at width 4 eps max(1, |lambda|).
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
    dl, e2l = d.tolist(), off2.tolist()
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
        counts = _sturm_count(dl, e2l, pivmin, probes)[which]
        edges = np.concatenate([a, probes, b], axis=1)[which]
        # new bracket: from the last probe counting <= t to the first above t
        above = counts > targets[open_, None]
        first = np.where(above.any(axis=1), above.argmax(axis=1), PROBES)
        row = np.arange(first.size)
        lo[open_] = edges[row, first]
        hi[open_] = edges[row, first + 1]
    raise RuntimeError("tridiagonal eigensolver did not converge")
