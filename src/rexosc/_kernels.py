"""Hot numerical kernels, in NumPy: the 8th-order stencil, one loop over its
symmetric tap pairs on the float view of complex samples, which serves the
second-derivative profile and the fused slab residual V·f - lap(f) - E·f
(the stencil's centre taps and E folded into V); Simpson quadrature; a
multisection Sturm eigensolver for symmetric tridiagonal matrices, whose
pivots are counted in blocks of rows; and ``map_slabs``, which runs
independent slabs of a mesh on threads.

Bit-exactness. Code that works in chunks or slabs (psi, V and the residual
of a ``verify`` mesh) returns what the whole-array expressions it replaces
return, bit for bit, under these rules:

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
- Slabs run on several threads (``map_slabs``) are exact too: each slab meets
  the serial loop's operations, writes its own rows and returns its own
  values, and what is combined across slabs is a maximum, which does not
  depend on order, or the sums of whole axis-0 planes, added in plane order
  (the parity-time fit).
"""
from __future__ import annotations

import os
import threading

import numpy as np

__all__ = [
    "laplacian_residual",
    "second_derivative_profile",
    "simpson",
    "tridiagonal_smallest",
]

# 9-point central stencil for f'', truncation error O(h^8).
STENCIL8 = np.array(
    [-1.0 / 560, 8.0 / 315, -1.0 / 5, 8.0 / 5, -205.0 / 72,
     8.0 / 5, -1.0 / 5, 8.0 / 315, -1.0 / 560]
)


def _real_view(f: np.ndarray) -> np.ndarray:
    """A complex128 array as float64 with a trailing (re, im) axis, for any
    strides of ``f``."""
    return np.lib.stride_tricks.as_strided(f.real, f.shape + (2,), f.strides + (8,))


def _taps(f: np.ndarray, axis: int, step: int = 1) -> list:
    """The 9 windows of ``f`` along ``axis`` that the stencil's taps read:
    tap j starts j*``step`` elements in, and all are equally long."""
    n = f.shape[axis]
    window = [slice(None)] * f.ndim
    taps = []
    for j in range(9):
        window[axis] = slice(j * step, n - (8 - j) * step)
        taps.append(f[tuple(window)])
    return taps


def _pairs(taps, spacing: float, acc: np.ndarray, term: np.ndarray, accumulate) -> None:
    """The one stencil loop: the symmetric pairs of f'' at spacing h,
    sum_{j<4} (c_j/h^2)(f_j + f_{8-j}) of the float windows ``taps``
    (``_taps``), added into ``acc`` (``accumulate`` is ``np.add``) or
    subtracted from it (``np.subtract``), with ``term`` as a work buffer.
    The centre tap c_4/h^2 f_4 is the caller's."""
    for j in range(4):
        np.add(taps[j], taps[8 - j], out=term)
        term *= STENCIL8[j] / spacing**2
        accumulate(acc, term, out=acc)


def second_derivative_profile(samples: np.ndarray, spacing: float,
                              axis: int = 0) -> np.ndarray:
    """Second derivative along ``axis`` at all interior points of that axis
    (4 trimmed per side; the other axes keep their length), as complex
    values: the centre tap, then the symmetric pairs (``_pairs``) on their
    float64 (re, im) view."""
    f = np.asarray(samples, dtype=complex)
    axis = range(f.ndim)[axis]
    if f.shape[axis] < 9:
        raise ValueError("need at least 9 samples for the 8th-order stencil")
    shape = list(f.shape)
    shape[axis] -= 8
    out = np.empty(shape, complex)
    dst = _real_view(out)
    taps = _taps(_real_view(f), axis)
    np.multiply(STENCIL8[4] / spacing**2, taps[4], out=dst)
    _pairs(taps, spacing, dst, np.empty_like(dst), np.add)
    return out


def laplacian_residual(samples: np.ndarray, spacings, potential, energy) -> np.ndarray:
    """V·f - lap(f) - E·f on the common interior of ``samples`` (1 to 3
    axes; 4 points trimmed per side of every axis), given V there
    (``potential``) and the scalar E (``energy``). Given a slab of axis-0
    rows plus a halo of 4 rows per side, it is the residual on those rows.

    The stencil's centre taps and E fold into V: with C = c_4 sum_a h_a^-2,
    the residual is

        (V - (E + C)) · f - sum_a sum_{j<4} (c_j/h_a^2)(f_j + f_{8-j}),

    its product in this operand order and its pairs subtracted axis by axis
    (``_pairs``) on the float (re, im) view. On two or more axes it
    accumulates with its last axis whole, so that every pass runs along
    whole rows of the samples, and the last axis's pairs are shifts of the
    flattened rows; the 4 points at each end of that axis are scratch, and
    the return value is a view without them.
    """
    f = np.ascontiguousarray(samples, dtype=complex)
    if len(spacings) != f.ndim:
        raise ValueError("one spacing per axis required")
    if not 1 <= f.ndim <= 3:
        raise ValueError("samples of 1 to 3 axes required")
    if min(f.shape) < 9:
        raise ValueError("need at least 9 samples for the 8th-order stencil")
    inner = tuple(n - 8 for n in f.shape)
    v = np.asarray(potential, dtype=complex)
    if v.shape != inner:
        raise ValueError(f"the potential must have the interior shape {inner}")
    edge = 0 if f.ndim == 1 else 4  # scratch points at each end of the last axis
    out = np.empty(inner[:-1] + (inner[-1] + 2 * edge,), complex)
    last = slice(edge, edge + inner[-1])
    interior = tuple(slice(4, n - 4) for n in f.shape)
    shift = energy + STENCIL8[4] * sum(1.0 / h**2 for h in spacings)
    np.multiply(v - shift, f[interior], out=out[..., last])
    out[..., :edge] = 0
    out[..., last.stop:] = 0
    src, acc = f.view(float), out.view(float)
    term = np.empty_like(acc)
    # every axis but the last, on whole rows of the last
    for axis in range(f.ndim - 1):
        window = [*interior[:-1], slice(None)]
        window[axis] = slice(None)
        _pairs(_taps(src[tuple(window)], axis), spacings[axis], acc, term, np.subtract)
    # the last axis: shifts by whole (re, im) pairs along each axis-0 row's
    # flattened interior rows (in 1D, along the samples)
    block = src[interior[:-1]].reshape(inner[0] if f.ndim > 1 else 1, -1)
    m = block.shape[1] - 16
    _pairs(_taps(block, 1, 2), spacings[-1],
           acc.reshape(block.shape[0], -1)[:, 2 * edge:2 * edge + m],
           term.reshape(block.shape[0], -1)[:, 2 * edge:2 * edge + m], np.subtract)
    return out[..., last]


# Most threads a ``map_slabs`` call runs, the calling one included. Two, on a
# 2-vCPU VM, is measured; more than 2 is unmeasured.
_MAX_WORKERS = 4


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


class _Helper:
    """A helper thread of ``map_slabs``, started on first use and then kept,
    idle between calls, for the life of the process. glibc gives each thread
    its own malloc arena, which keeps its peak resident; a thread started
    per call takes a new arena whenever the last call's helper has not yet
    exited, and peak RSS then grows by an arena at a time."""

    def __init__(self):
        self._task = None
        self._go, self._done = threading.Semaphore(0), threading.Semaphore(0)
        threading.Thread(target=self._serve, name="rexosc-slabs", daemon=True).start()

    def _serve(self) -> None:
        while True:
            self._go.acquire()
            try:
                self._task()
            finally:
                self._task = None
                self._done.release()

    def start(self, task) -> None:
        """Run ``task``, which must not raise, on this helper's thread."""
        self._task = task
        self._go.release()

    def join(self) -> None:
        """Wait for the task to end."""
        self._done.acquire()


_idle_helpers = []  # helpers not running a task, for any thread's map_slabs
_helpers_lock = threading.Lock()


def _forget_helpers() -> None:
    """A forked child has none of its parent's helper threads."""
    global _helpers_lock
    _idle_helpers.clear()
    _helpers_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helpers)


def map_slabs(fn, items) -> list:
    """``[fn(item) for item in items]``, the items shared among up to
    ``_MAX_WORKERS`` threads, one per CPU the process may use: the calling
    thread, which claims the first item, and helper threads (``_Helper``).
    ``fn`` must only read shared arrays and write rows of its own item.

    Workers claim items in increasing order and enter the caller's NumPy
    error state. After an item raises, no further item is claimed; the items
    already claimed finish, and the exception of the lowest item is raised,
    the one the serial loop raises. With one item or one CPU no helper runs.
    """
    items = list(items)
    workers = min(_cpus(), len(items), _MAX_WORKERS)
    if workers <= 1:
        return [fn(item) for item in items]
    results = [None] * len(items)
    errors = {}
    claimed = 0
    lock = threading.Lock()
    errstate = np.geterr()  # a thread does not share the caller's NumPy error state

    def claim():
        nonlocal claimed
        with lock:
            if errors or claimed == len(items):
                return None
            claimed += 1
            return claimed - 1

    def work(i):
        with np.errstate(**errstate):
            while i is not None:
                try:
                    results[i] = fn(items[i])
                except BaseException as exc:  # raised by the calling thread, below
                    with lock:
                        errors[i] = exc
                i = claim()

    first = claim()  # the calling thread's, before any helper claims
    with _helpers_lock:
        helpers = [_idle_helpers.pop() for _ in range(min(workers - 1, len(_idle_helpers)))]
    helpers += [_Helper() for _ in range(workers - 1 - len(helpers))]
    for helper in helpers:
        helper.start(lambda: work(claim()))
    try:
        work(first)
    finally:
        for helper in helpers:
            helper.join()
        with _helpers_lock:
            _idle_helpers.extend(helpers)
    if errors:
        raise errors[min(errors)]
    return results


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
