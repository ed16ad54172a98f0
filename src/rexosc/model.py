"""Oscillator specifications, rationally extended potentials, closed-form
eigenfunctions, energy ladders, co-dimension admissibility, PT
classification, and degeneracy-grouped spectrum tables.

``Plan`` is the one evaluator of the closed-form eigenfunctions, at a stack
of points or on an open mesh, slab by slab: ``verify`` runs it on a mesh's
slabs, ``eigenfunction`` and the CLI's ``table`` and ``plotdata`` as one
slab.

``CASES`` is the one place that knows the perturbation cases: for each it
names the couplings and CLI flags, the decoupling, reality and degeneracy
functions of ``transform``, the potential's terms and the parity operators
paired with time reversal. ``pt_classification`` and ``pt_deviation`` read
it beside ``base_potential``.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from . import _kernels, poly, transform
from .errors import DomainError, NumericalFailureError, ShapeError, SingularityError
from .transform import CouplingValue, DecoupledSystem

EVEN_ONLY = "even_only"
EVEN_AND_ODD = "even_and_odd"

_DIMENSION_WORDS = {1: "one", 2: "two", 3: "three"}


@dataclass(frozen=True)
class Case:
    """Everything the package knows about one perturbation case.

    ``decouple``, ``reality`` and ``mixing`` take (frequencies, couplings);
    each of ``terms`` takes (couplings, point) and is added, left to right,
    to the oscillator sum of the base potential. ``degeneracy`` takes
    (ratio, frequencies, given couplings, flavor) and returns the coupling
    reaching the ratio with the tilde frequencies of the pair it sets.
    """

    dimension: int | None               # None: any dimension
    decouple: Callable
    couplings: tuple = ()
    flags: tuple = ()                   # CLI flag each coupling is read from
    alias: str | None = None            # --case value; None: implied by --dim
    required_flags: bool = False        # else an unset or zero flag reads as real zero
    equal_xy: bool = False              # x and y frequencies must be equal
    real_couplings: tuple = ()          # couplings that must not be imaginary
    terms: tuple = ()
    odd_axis: int | None = None         # axis where an imaginary lambda0 allows odd m
    # nonzero imaginary couplings (in ``couplings`` order) -> parity operators
    # paired with time reversal; an unlisted set keeps the listed operators
    # whose ``pt_deviation`` vanishes
    parities: dict = field(default_factory=dict)
    reality: Callable | None = None     # None: read off the tilde frequencies
    mixing: Callable | None = None      # the 2D mixing factor k
    degeneracy: Callable | None = None


def _unperturbed(w, c) -> DecoupledSystem:
    n = len(w)
    cmap = transform.CoordinateMap(np.eye(n, dtype=complex), np.zeros(n, dtype=complex))
    return DecoupledSystem(tuple(complex(x) for x in w), 0j, cmap)


def _degeneracy_2d(ratio, w, c, flavor):
    lam = transform.degeneracy_coupling_2d(ratio, w[0], w[1], flavor=flavor)
    return lam, transform.tilde_frequencies_2d(w[0], w[1], lam)


def _degeneracy_q2(ratio, w, c, flavor):
    l1 = c["lambda1"].magnitude if "lambda1" in c else None
    lam = transform.degeneracy_coupling_3d("q2", ratio, omega=w[0], omega3=w[2],
                                           lambda1=l1, flavor=flavor)
    return lam, transform.tilde_frequencies_q2(w[0], w[2], l1, lam)[1:]


CASES = {
    "none": Case(None, _unperturbed),
    "linear": Case(
        1, lambda w, c: transform.shift_map_1d(w[0], c["lambda0"]),
        couplings=("lambda0",), flags=("linear",),
        terms=(lambda c, p: c["lambda0"].value * p[0],),
        odd_axis=0, parities={("lambda0",): ("inversion",)}),
    "quadratic2d": Case(
        2, lambda w, c: transform.rotate_map_2d(w[0], w[1], c["lam"]),
        couplings=("lam",), flags=("coupling",),
        terms=(lambda c, p: 0.5 * c["lam"].value * p[0] * p[1],),
        parities={("lam",): ("P1", "P2")},
        reality=lambda w, c: transform.spectral_reality_2d(w[0], w[1], c["lam"]),
        mixing=lambda w, c: transform.mixing_factor_2d(w[0], w[1], c["lam"]),
        degeneracy=_degeneracy_2d),
    "lq3d": Case(
        3, lambda w, c: transform.decouple_3d_lq(w[0], w[1], w[2], c["lambda0"], c["lam"]),
        couplings=("lambda0", "lam"), flags=("linear", "coupling"), alias="lq",
        terms=(lambda c, p: c["lambda0"].value * p[2],
               lambda c, p: 0.5 * c["lam"].value * p[0] * p[1]),
        odd_axis=2,
        parities={("lambda0", "lam"): ("P4",), ("lambda0",): ("P2",),
                  ("lam",): ("P1", "P3")},
        reality=lambda w, c: transform.spectral_reality_lq(
            w[0], w[1], w[2], c["lambda0"], c["lam"])),
    "q1_3d": Case(
        3, lambda w, c: transform.decouple_3d_q1(w[0], w[2], c["lambda2"], c["lambda3"]),
        couplings=("lambda2", "lambda3"), flags=("lambda2", "lambda3"), alias="q1",
        required_flags=True, equal_xy=True,
        terms=(lambda c, p: 0.5 * (c["lambda2"].value * p[1] * p[2]
                                   + c["lambda3"].value * p[2] * p[0]),),
        parities={("lambda2", "lambda3"): ("P2",), ("lambda2",): ("P3",),
                  ("lambda3",): ("P1",)},
        reality=lambda w, c: transform.spectral_reality_q1(
            w[0], w[2], c["lambda2"], c["lambda3"]),
        # the rotated pair is the 2D pair (omega, omega3) at the combined coupling
        degeneracy=lambda r, w, c, f: _degeneracy_2d(r, (w[0], w[2]), c, f)),
    "q2_3d": Case(
        3, lambda w, c: transform.decouple_3d_q2(w[0], w[2], c["lambda1"].magnitude,
                                                 c["lam"]),
        couplings=("lambda1", "lam"), flags=("lambda1", "coupling"), alias="q2",
        required_flags=True, equal_xy=True, real_couplings=("lambda1",),
        terms=(lambda c, p: 0.5 * c["lambda1"].value * p[0] * p[1],
               # the sum first: a complex scalar goes on the right of a
               # temporary (see ``_kernels``)
               lambda c, p: (p[1] * p[2] + p[2] * p[0]) * (0.5 * c["lam"].value)),
        parities={("lam",): ("P2",)},
        reality=lambda w, c: transform.spectral_reality_q2(
            w[0], w[2], c["lambda1"].magnitude, c["lam"]),
        degeneracy=_degeneracy_q2),
}


def check_case(name: str, frequencies, couplings: dict) -> tuple:
    """The frequencies as floats, once they and ``couplings`` (all of case
    ``name``'s couplings or some of them) meet what the case requires:
    positive finite frequencies, equal x and y frequencies where the case
    says so, and no nonzero imaginary coupling that the case needs real."""
    freqs = tuple(float(w) for w in frequencies)
    if any(w <= 0 for w in freqs):
        raise DomainError("need one positive frequency per axis")
    # V holds omega**2 / 4, and a linear shift divides by omega**2
    if not all(0 < w * w < math.inf for w in freqs):
        raise DomainError("frequencies must be finite, and so must their squares, "
                          "which must not underflow to 0")
    record = CASES[name]
    if record.equal_xy and freqs[0] != freqs[1]:
        raise DomainError(f"{name} requires equal x and y frequencies")
    if any(couplings[c].is_imaginary and couplings[c]
           for c in record.real_couplings if c in couplings):
        raise DomainError("the xy coupling must be real in this case")
    return freqs


@dataclass(frozen=True)
class OscillatorSpec:
    """Dimension, per-axis frequencies, and a tagged perturbation case."""

    dimension: int
    frequencies: tuple
    case: str = "none"
    couplings: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.dimension not in (1, 2, 3):
            raise DomainError("dimension must be 1, 2, or 3")
        if len(self.frequencies) != self.dimension:
            raise DomainError("need one positive frequency per axis")
        if self.case not in CASES:
            raise DomainError(f"unknown perturbation case {self.case!r}")
        record = CASES[self.case]
        if set(self.couplings) != set(record.couplings):
            raise DomainError(
                f"case {self.case!r} needs couplings {sorted(record.couplings)}")
        if record.dimension not in (None, self.dimension):
            raise DomainError(f"{self.case} case is "
                              f"{_DIMENSION_WORDS[record.dimension]}-dimensional")
        object.__setattr__(self, "frequencies",
                           check_case(self.case, self.frequencies, self.couplings))

    # convenience constructors -------------------------------------------
    @classmethod
    def oscillator(cls, *frequencies: float) -> "OscillatorSpec":
        return cls(len(frequencies), tuple(frequencies))

    @classmethod
    def linear_1d(cls, omega: float, lambda0: CouplingValue) -> "OscillatorSpec":
        return cls(1, (omega,), "linear", {"lambda0": lambda0})

    @classmethod
    def quadratic_2d(cls, omega1: float, omega2: float,
                     lam: CouplingValue) -> "OscillatorSpec":
        return cls(2, (omega1, omega2), "quadratic2d", {"lam": lam})

    @classmethod
    def lq_3d(cls, omega1: float, omega2: float, omega3: float,
              lambda0: CouplingValue, lam: CouplingValue) -> "OscillatorSpec":
        return cls(3, (omega1, omega2, omega3), "lq3d",
                   {"lambda0": lambda0, "lam": lam})

    @classmethod
    def q1_3d(cls, omega: float, omega3: float, lambda2: CouplingValue,
              lambda3: CouplingValue) -> "OscillatorSpec":
        return cls(3, (omega, omega, omega3), "q1_3d",
                   {"lambda2": lambda2, "lambda3": lambda3})

    @classmethod
    def q2_3d(cls, omega: float, omega3: float, lambda1: CouplingValue,
              lam: CouplingValue) -> "OscillatorSpec":
        return cls(3, (omega, omega, omega3), "q2_3d",
                   {"lambda1": lambda1, "lam": lam})

    @property
    def imaginary_couplings(self) -> tuple:
        """Names of the nonzero imaginary couplings, in the case's order."""
        return tuple(n for n in CASES[self.case].couplings
                     if self.couplings[n].is_imaginary and self.couplings[n])

    @property
    def is_hermitian(self) -> bool:
        return not self.imaginary_couplings

    @cached_property
    def system(self) -> DecoupledSystem:
        """Coordinate map and tilde frequencies, decoupled once, on first access."""
        return CASES[self.case].decouple(self.frequencies, self.couplings)


@dataclass(frozen=True)
class REConfig:
    """Per-tilde-axis co-dimensions of the rational extension."""

    codimensions: tuple

    def __post_init__(self):
        ms = tuple(int(m) for m in self.codimensions)
        if any(m < 0 for m in ms):
            raise DomainError("co-dimensions must be non-negative")
        object.__setattr__(self, "codimensions", ms)


@dataclass(frozen=True)
class Eigenstate:
    """Per-axis level: None marks the ground level, n >= 0 the (n+1)-th
    rung of the excited ladder (energy contribution (n + m + 1) per axis)."""

    levels: tuple

    def __post_init__(self):
        lv = tuple(None if x is None else int(x) for x in self.levels)
        if any(x is not None and x < 0 for x in lv):
            raise DomainError("excited indices must be non-negative")
        object.__setattr__(self, "levels", lv)

    @classmethod
    def ground(cls, dimension: int) -> "Eigenstate":
        return cls((None,) * dimension)

    def label(self) -> str:
        return ",".join("g" if x is None else str(x) for x in self.levels)


@dataclass(frozen=True)
class SpectrumEntry:
    energy: float
    multiplicity: int
    states: tuple


@dataclass(frozen=True)
class SpectrumTable:
    entries: tuple
    frequencies_real: bool = True


def decouple(spec: OscillatorSpec) -> DecoupledSystem:
    """Coordinate map and tilde frequencies for any supported spec."""
    return spec.system


def base_potential(spec: OscillatorSpec, point):
    """The perturbed quadratic potential, literally as written, at a stack of
    points (coordinate index first) or at per-axis arrays that broadcast
    together, such as an open mesh."""
    p = [np.asarray(x, dtype=complex) for x in point]
    if len(p) != spec.dimension:
        raise ShapeError("point dimension mismatch")
    v = sum(0.25 * w**2 * p[i] ** 2 for i, w in enumerate(spec.frequencies))
    for term in CASES[spec.case].terms:
        v = v + term(spec.couplings, p)
    return v


def pt_classification(spec: OscillatorSpec) -> list:
    """Parity operators paired with time reversal for the given spec.

    A non-Hermitian flavor combination that the spec's case lists returns
    its assigned operators; any other spec, purely real couplings included,
    keeps the listed operators under which the potential is PT-invariant
    (``pt_deviation`` at most 1e-10).
    """
    dim = spec.dimension
    ops = transform.parity_operators(dim) if dim > 1 else [transform.space_inversion(1)]
    names = CASES[spec.case].parities.get(spec.imaginary_couplings)
    if names is None:
        return [op for op in ops if pt_deviation(spec, op) <= 1e-10]
    named = {op.name: op for op in ops}
    return [named[n] for n in names]


def pt_deviation(spec: OscillatorSpec, operator) -> float:
    """max |conj V(M p) - V(p)| / (1 + |V(p)|) over p in {0, +-e_i, e_i + e_j
    (i < j)}, V being the base potential and M the matrix of ``operator`` (a
    ``ParityOperator``, an ``EtaMetric`` or a d x d array).

    V has degree <= 2, so conj V(M p) - V(p) is a quadratic in real p, and
    these 1 + d + d(d+1)/2 points fix every coefficient of a quadratic; one
    that vanishes on them vanishes everywhere. The check is exact, not
    sampled: 0 means V is invariant under M combined with complex
    conjugation at every real point.
    """
    mat = np.asarray(getattr(operator, "matrix", operator), dtype=complex)
    dim = spec.dimension
    if mat.shape != (dim, dim):
        raise ShapeError(f"the operator must be a {dim}x{dim} matrix")
    eye = np.eye(dim)
    pts = np.column_stack([np.zeros(dim), *eye, *-eye,
                           *(eye[i] + eye[j] for i in range(dim) for j in range(i + 1, dim))])
    v, w = np.split(base_potential(spec, np.hstack([pts, mat @ pts])), 2)
    return float(np.max(np.abs(np.conj(w) - v) / (1 + np.abs(v))))


_TINY = 1e-300
MAX_STATES = 100_000  # spectrum refuses to enumerate more ladder combinations


def rational_term_1d(omega, m: int, xt):
    """Rational extension term of co-dimension m along one tilde axis.

    Derivatives act on the composite of the pseudo companion with the scaled
    argument sqrt(omega/2)*xt, which is the reading that reproduces the
    closed forms of the shifted potentials exactly.
    """
    return _rational_term(omega, m, np.sqrt(complex(omega) / 2)
                          * np.asarray(xt, dtype=complex))


def _rational_term(omega, m: int, u, r=None):
    """The rational term at the scaled parameter u = sqrt(omega/2)*xt.

    With p = p_m(u) and r = p'/p = 2m p_{m-1}/p (``_log_derivative``), the ODE
    p'' = 2m p - 2u p' folds both derivatives into r: the term
    -omega (p''/p - r**2 + 1) is -omega (2m + 1 - r (2u + r)). ``r`` is
    given when the caller has evaluated it and checked the denominator."""
    if r is None:
        r = _log_derivative(m, u, "rational term")
    out = np.multiply(u, 2.0)
    out += r
    out *= r
    out -= 2 * m + 1
    out *= complex(omega)
    return out


def admissible_codimensions(spec: OscillatorSpec) -> tuple:
    """Per-tilde-axis rule: odd co-dimensions are regular only on a shift
    axis whose linear coupling is imaginary and nonzero."""
    rules = [EVEN_ONLY] * spec.dimension
    axis = CASES[spec.case].odd_axis
    if axis is not None and "lambda0" in spec.imaginary_couplings:
        rules[axis] = EVEN_AND_ODD
    return tuple(rules)


def validate_config(spec: OscillatorSpec, config: REConfig) -> None:
    if len(config.codimensions) != spec.dimension:
        raise DomainError("one co-dimension per axis required")
    rules = admissible_codimensions(spec)
    for i, (m, rule) in enumerate(zip(config.codimensions, rules)):
        if m % 2 == 1 and rule == EVEN_ONLY:
            raise DomainError(
                f"odd co-dimension {m} on axis {i} makes the potential singular")


def _check_axes(spec: OscillatorSpec, config: REConfig, validate: bool) -> None:
    """The admissibility gate, or with ``validate=False`` only the axis count,
    so that a singular configuration can still be sampled off its poles."""
    if validate:
        validate_config(spec, config)
    elif len(config.codimensions) != spec.dimension:
        raise DomainError("one co-dimension per axis required")


def _shape(points) -> tuple:
    """The shape of a set of points: a stack's, coordinate index first, or
    the broadcast shape of per-axis arrays (an open mesh)."""
    if isinstance(points, (list, tuple)):
        return np.broadcast_shapes(*map(np.shape, points))
    return np.shape(points)[1:]


def _on_rows(points, rows: slice):
    """A set of points (a stack, or per-axis arrays such as an open mesh or
    the terms of a sub-mesh) on ``rows`` of axis 0 of its shape; an array of
    length 1 there, or without axes, is a broadcast array and is kept whole."""
    if not isinstance(points, (list, tuple)):
        return points[:, rows]
    return [x if np.ndim(x) == 0 or np.shape(x)[0] == 1 else x[rows] for x in points]


def _two_copies(points):
    """A set of one point as a stack of two copies of it, and the shape of
    the given set; any other set as given, and None.

    NumPy multiplies a one-element complex array in place through another
    loop (see ``_kernels``), so a point evaluated alone would differ in the
    last bit from the same point evaluated among others.
    """
    shape = _shape(points)
    if math.prod(shape) != 1:
        return points, None
    one = np.array([np.reshape(x, -1)[0] for x in points], dtype=complex)
    return np.repeat(one[:, None], 2, axis=1), shape


def _first(values, shape):
    """What ``_two_copies`` gives back: ``values`` at the first copy, in the
    shape of the given set (a scalar for one point without axes)."""
    return values if shape is None else values[:1].reshape(shape)[()]


def re_potential(spec: OscillatorSpec, config: REConfig, point,
                 validate: bool = True):
    """Rationally extended potential in the original coordinates.

    ``validate=False`` skips the admissibility gate so the closed form of a
    singular configuration can still be sampled off its poles.
    """
    _check_axes(spec, config, validate)
    point, shape = _two_copies(point)
    sys = spec.system
    # V literally: the base potential on the original points plus, per tilde
    # axis in order, the rational term at the scaled parameter u_i
    v = base_potential(spec, point)
    for w, m, t in zip(sys.tilde_frequencies, config.codimensions,
                       sys.coordinate_map.forward(point)):
        v = _rational_term(w, m, scaled_parameter(w, t)) + v
    return _first(v, shape)


def scaled_parameter(omega, t, out=None):
    """The scaled parameter u = sqrt(omega/2)*t of one tilde axis, into
    ``out`` if given (``t`` itself, to scale it in place)."""
    return np.multiply(np.sqrt(complex(omega) / 2), t, out=out)


def _times(acc, factor):
    """acc * factor (``factor`` when acc is None), in place once ``acc`` has
    the shape of the product."""
    if acc is None:
        return factor
    if acc.shape == np.broadcast_shapes(acc.shape, factor.shape):
        acc *= factor
        return acc
    return np.multiply(acc, factor)


def _gaussian(omega, t):
    """exp(-omega * t**2 / 4) at every t."""
    # t**2 on the left of the complex product at any size (see ``_kernels``),
    # so psi at a point does not depend on how many points are evaluated with it
    gauss = t**2
    gauss *= -complex(omega)
    gauss /= 4
    return np.exp(gauss, out=gauss if gauss.ndim else None)


class _PairGaussian:
    """exp(-omega * t**2 / 4) of a tilde axis t = sum_j L_j x_j + s that
    depends on all three coordinates of an open mesh, with exp on 2D
    sub-meshes only.

    With y_j = L_j x_j + s/3, t**2 is the sum over the pairs (j, k) of
    2 y_j y_k + (y_j**2 + y_k**2)/2, so the Gaussian is the broadcast product
    of one factor per pair, each formed on the 2D sub-mesh of its pair. Each
    tilde axis keeps its own product: exponents summed across axes could
    cancel one axis's overflow against another's decay. The three factors
    are formed once, here, and serve any rows of mesh axis 0 (``verify``'s
    slabs): an element of a factor does not depend on the rows it is formed
    with.
    """

    _PAIRS = ((0, 1), (0, 2), (1, 2))

    def __init__(self, omega, row, shift, mesh):
        scale, third = -complex(omega) / 4, shift / 3
        self.factors = []
        for pair in self._PAIRS:
            yj, yk = (row[j] * mesh[j] + third for j in pair)
            e = yj * yk
            e *= 2
            e += yj**2 / 2
            e += yk**2 / 2
            e *= scale
            self.factors.append(np.exp(e, out=e))

    def __call__(self, rows=slice(None)):
        """The Gaussian on the open mesh it was built on, or on ``rows`` of
        that mesh's axis 0."""
        first, second, third = (f if f.shape[0] == 1 else f[rows] for f in self.factors)
        return _times(np.multiply(first, second), third)


def _pair_gaussians(system: DecoupledSystem, points) -> list:
    """Per tilde axis, a ``_PairGaussian`` when ``points`` is a 3D open mesh
    and the axis depends on all three of its coordinates, else None: the
    Gaussian of an axis on a sub-mesh, or of a stack of points, is formed
    from t directly."""
    cmap = system.coordinate_map
    if not isinstance(points, (list, tuple)) or len(points) != 3:
        return [None] * system.dimension
    return [_PairGaussian(w, row, s, points) if np.count_nonzero(row) == 3 else None
            for w, row, s in zip(system.tilde_frequencies, cmap.linear, cmap.shift)]


# Points per chunk of the numerator's two ladders (``_chunks``): a slab's
# psi holds its u, Gaussian and numerator beside their work arrays, which
# stay small against them (64 KiB each). The denominator's ladder alone (in
# a plan build, and in psi on a ground axis) runs on chunks 4 times as
# long: the slab threads then make a quarter of the NumPy calls, each of
# which releases and retakes the interpreter lock (verify3d's build ran
# about 10% slower on 4096-point chunks).
_CHUNK = 4096


def _chunks(size: int, points: int = _CHUNK) -> list:
    """Slices of a flattened array of ``size`` points, ``points`` at a time;
    a last chunk of one point joins the one before it (see ``_kernels``)."""
    starts = list(range(0, size, points))
    if len(starts) > 1 and size - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [size])]


def _log_derivative(m: int, u, what: str, gauss=None):
    """The logarithmic derivative r = p_m'/p_m = 2m p_{m-1}/p_m of the pseudo
    companion at every u, by the ladder in chunks of the flattened u;
    ``gauss`` (a C-contiguous array of u's shape), if given, is divided by
    the denominator h = p_m(u) in place. A zero of h raises, naming ``what``
    was evaluated."""
    flat = np.reshape(u, -1)
    r = np.empty(flat.shape, complex)
    g = None if gauss is None else gauss.reshape(-1)
    for s in _chunks(flat.size, 4 * _CHUNK):
        h, q = poly.ladder(m, flat[s], 1)
        if np.abs(h).min() < _TINY:
            raise SingularityError(f"{what} evaluated at a denominator zero")
        np.divide(q, h, out=r[s])
        if g is not None:
            g[s] /= h
        del h, q  # before the next chunk's ladder runs
    r *= 2.0 * m
    return r.reshape(np.shape(u))


# i^m with unsigned zeros: (1j)**3 is -0-1j, whose negative zero would show
# in the sign of zero parts of psi
_PHASES = (complex(1, 0), complex(0, 1), complex(-1, 0), complex(0, -1))


def _numerator(m: int, level, u):
    """The state-dependent factor of one tilde axis: the phase i^m on the
    ground level (so that parity-time eigenvalues of imaginary-shift
    configurations come out +1 there), else on level n the exceptional
    Hermite numerator N = p_m H_j + p_m' H_{j-1} with j = n + 1 and
    p_m' = 2m p_{m-1}, its ladders run in chunks of the flattened u."""
    if level is None:
        return _PHASES[m % 4]
    flat = np.reshape(u, -1)
    out = np.empty(flat.shape, complex)
    for s in _chunks(flat.size):
        _numerator_from(m, level, flat[s], *poly.ladder(m, flat[s], 1), out[s])
    return out.reshape(np.shape(u))


def _numerator_from(m: int, level: int, u, p, q, out) -> None:
    """The numerator p_m H_j + 2m p_{m-1} H_{j-1} (j = level + 1) at u, into
    ``out``, given p = p_m(u) and q = p_{m-1}(u); q is scaled in place."""
    hj, hj1 = poly.ladder(level + 1, u, -1)
    np.multiply(p, hj, out=out)
    q *= 2.0 * m
    np.multiply(q, hj1, out=hj)
    out += hj


def _ratio_and_numerator(m: int, level, u, gauss, what: str | None):
    """(gauss/h, ``_numerator(m, level, u)``) with h = p_m(u), from one
    ladder of the pseudo companion per chunk of the flattened u: its p_m is
    both h and the numerator's. gauss/h is formed in ``gauss``, a
    C-contiguous array of u's shape. With ``what``, a zero of h raises as in
    ``_log_derivative``; without, the caller has checked h."""
    flat, g = np.reshape(u, -1), gauss.reshape(-1)
    out = None if level is None else np.empty(flat.shape, complex)
    # a ground axis runs one ladder, on the denominator's longer chunks
    for s in _chunks(flat.size, 4 * _CHUNK if out is None else _CHUNK):
        p, q = poly.ladder(m, flat[s], 1)
        if what is not None and np.abs(p).min() < _TINY:
            raise SingularityError(f"{what} evaluated at a denominator zero")
        g[s] /= p
        if out is not None:
            _numerator_from(m, level, flat[s], p, q, out[s])
        del p, q  # before the next chunk's ladders run
    return gauss, _PHASES[m % 4] if out is None else out.reshape(np.shape(u))


def axis_eigenfunction(omega, m: int, level, t):
    """One tilde-axis factor (unnormalized): gauss/h times the numerator."""
    t = np.array(t, dtype=complex)  # a copy, which u is written over
    gauss = np.asarray(_gaussian(omega, t))  # an array even at one point without axes
    u = scaled_parameter(omega, t, t if t.ndim else None)
    ratio, numerator = _ratio_and_numerator(m, level, u, gauss, "eigenfunction")
    return np.multiply(ratio, numerator)


class Plan:
    """The closed-form eigenfunctions at a fixed set of points (a stack,
    coordinate index first, or an open mesh; see ``CoordinateMap.forward``),
    formed slab by slab: ``slabs`` are slices of axis 0 of the points' shape
    that partition it (``verify._slabs`` for a mesh; one slab by default).
    ``plan(spec, config, points)`` builds one after the admissibility gate.
    One point is evaluated as two copies of it (``_two_copies``).

    Per tilde axis the points map to t_i under the spec's decoupling
    ``spec.system``, and u_i = sqrt(omega_i/2)*t_i is written over t_i.
    ``psi(state)`` forms the prefactor prod_i gauss_i/h_i slab by slab and
    tilde axis by tilde axis, straight into the rows of the plan's one psi
    buffer, then multiplies in the numerators; besides the points and that
    buffer the plan keeps no array of the points' shape. An axis that runs
    its p_m ladder in psi runs it once per slab for both h_i and its
    numerator (``_ratio_and_numerator``).
    On an open mesh each t_i lives on the sub-mesh of the mesh axes it
    depends on. An axis whose sub-mesh leaves out a mesh axis (at most n^2
    points of an n^3 mesh) has its u_i, gauss_i/h_i and h_i'/h_i formed
    there once, by the build, with h_i checked for zeros, and its numerator
    once per psi; each slab reads their rows. An axis that depends on all
    three axes of a 3D mesh forms gauss_i from 2D pair factors
    (``_PairGaussian``), formed once, so no exp runs on the full mesh.

    Each point meets the same operations in the same operand order,
    ((r_0 r_1) r_2) N_0 N_1 N_2 with r_i = gauss_i/h_i, whatever the slabs,
    so psi does not depend on them, bit for bit. Where the prefactor is not
    finite on a slab whose Gaussians come from pair factors, it is formed
    with the direct Gaussian instead (``_finite``); a prefactor that
    overflows all the same raises from ``psi``. psi checks the other axes'
    h_i for zeros unless the build has (``verify.MeshPlan``'s does). psi's
    slabs run on ``_kernels.map_slabs``'s threads.
    """

    # whether the build evaluates every denominator h_i and checks it for
    # zeros; where it does not, it checks those of the axes on sub-meshes,
    # and psi those of the others
    _checks_denominators = False

    def __init__(self, spec: OscillatorSpec, config: REConfig, points,
                 slabs=(slice(None),)):
        self.spec, self.config = spec, config
        self.points, self._one = _two_copies(points)
        self.shape = _shape(self.points)
        self.slabs = list(slabs)
        self._psi = self._max = None
        with np.errstate(over="ignore", invalid="ignore"):
            self._gaussians = _pair_gaussians(spec.system, self.points)
            self._sub_meshes = [self._sub_mesh_terms(axis) for axis in range(spec.dimension)]

    def _terms(self, axis: int, points):
        """(u_i, gauss_i/h_i, h_i'/h_i) of tilde axis ``axis`` at ``points``,
        its Gaussian formed from t_i directly, with h_i checked for zeros."""
        sys = self.spec.system
        w = sys.tilde_frequencies[axis]
        t = sys.coordinate_map.forward_axis(axis, points)
        gauss = _gaussian(w, t)
        u = scaled_parameter(w, t, out=t)
        return u, gauss, _log_derivative(self.config.codimensions[axis], u, "eigenfunction", gauss)

    def _sub_mesh_terms(self, axis: int):
        """``_terms`` of tilde axis ``axis`` on the sub-mesh of the open-mesh
        axes it depends on, formed once for every slab when that leaves out a
        mesh axis; None for an axis on every mesh axis, or at a stack of
        points, which psi forms slab by slab."""
        row = self.spec.system.coordinate_map.linear[axis]
        if (not isinstance(self.points, (list, tuple))
                or np.count_nonzero(row) == len(self.points)):
            return None
        return self._terms(axis, self.points)

    def _finite(self, points, prefactor) -> bool:
        """Whether ``prefactor`` at ``points`` is finite, once formed with the
        direct Gaussian where a pair factor passes exp's range and the whole
        Gaussian does not (``_PairGaussian``)."""
        finite = np.isfinite(prefactor)
        if not finite.all() and any(g is not None for g in self._gaussians):
            direct = None
            for axis in range(len(self._gaussians)):
                direct = _times(direct, self._terms(axis, points)[1])
            np.copyto(prefactor, direct, where=~finite)
            finite = np.isfinite(prefactor)
        return bool(finite.all())

    def psi(self, state: Eigenstate):
        """Closed-form eigenfunction (unnormalized) of ``state`` at the
        points, in the plan's one psi buffer, which the next call writes
        over."""
        if len(state.levels) != len(self.config.codimensions):
            raise DomainError("one level per axis required")
        if self._psi is None:
            self._psi = np.empty(self.shape, complex)
        # an axis on a sub-mesh takes its numerator there, once
        fixed = [None if terms is None else (terms[1], _numerator(m, lv, terms[0]))
                 for terms, m, lv in zip(self._sub_meshes, self.config.codimensions,
                                         state.levels)]
        tops = _kernels.map_slabs(lambda rows: self._slab_psi(state, fixed, rows), self.slabs)
        # checked after the last slab: a denominator zero in any slab is
        # reported first
        if any(top is None for top in tops):
            raise NumericalFailureError("the eigenfunction prefactor overflows on the mesh")
        self._max = np.max(tops)
        return _first(self._psi, self._one)

    def _slab_psi(self, state: Eigenstate, fixed, rows: slice):
        """psi on ``rows``, in psi's rows; return max |psi| there, or None
        where the prefactor is not finite. ``fixed`` holds (gauss_i/h_i,
        numerator) of each axis on a sub-mesh, None for the others.

        A product with a non-finite factor is not finite, so where max |psi|
        is finite the prefactor was finite at every point of the slab; only
        where it is not is the prefactor formed again and checked
        (``_finite``), and the numerators multiplied in outside the ignored
        floating-point errors."""
        out, slab = self._psi[rows], _on_rows(self.points, rows)
        with np.errstate(over="ignore", invalid="ignore"):
            for numerator in self._form_prefactor(state, fixed, slab, rows, out):
                np.multiply(out, numerator, out=out)
            top = np.max(np.abs(out))
            if math.isfinite(top):
                return top
            numerators = self._form_prefactor(state, fixed, slab, rows, out)
            if not self._finite(slab, out):
                return None
        for numerator in numerators:
            np.multiply(out, numerator, out=out)
        return np.max(np.abs(out))

    def _form_prefactor(self, state: Eigenstate, fixed, slab, rows: slice, out) -> list:
        """Form the prefactor at the points ``slab``, on ``rows``, in ``out``,
        tilde axis by tilde axis, and return each axis's numerator of
        ``state`` (its phase on the ground level), in axis order: rows of
        ``fixed`` where it has them, else formed here."""
        sys, numerators, prefactor, owned = self.spec.system, [], None, False
        for axis, (gaussian, m, lv, terms) in enumerate(zip(
                self._gaussians, self.config.codimensions, state.levels, fixed)):
            if terms is not None:
                ratio, numerator = _on_rows(terms, rows)
            else:
                w = sys.tilde_frequencies[axis]
                t = sys.coordinate_map.forward_axis(axis, slab)
                gauss = _gaussian(w, t) if gaussian is None else gaussian(rows)
                u = scaled_parameter(w, t, out=t)
                ratio, numerator = _ratio_and_numerator(
                    m, lv, u, gauss, None if self._checks_denominators else "eigenfunction")
                del t, u, gauss
            # each product on the sub-mesh its factors span, as ``_times``
            # forms it, in place only in an array of this slab's; the first
            # that spans the slab goes into ``out``
            if prefactor is None:
                prefactor, owned = ratio, terms is None
            else:
                shape = np.broadcast_shapes(prefactor.shape, ratio.shape)
                if shape == out.shape and prefactor is not out:
                    prefactor = np.multiply(prefactor, ratio, out=out)
                elif shape == prefactor.shape and owned:
                    prefactor *= ratio
                else:
                    prefactor = np.multiply(prefactor, ratio)
                owned = True
            del ratio  # before the next axis's temporaries are formed
            numerators.append(numerator)
        if prefactor is not out:
            out[...] = prefactor
        return numerators

    def psi_max(self):
        """max |psi| over the points, of the last ``psi``, taken in its slab
        pass."""
        return self._max


def plan(spec: OscillatorSpec, config: REConfig, points,
         validate: bool = True) -> Plan:
    """The eigenfunction plan at ``points`` (see ``Plan``), after the
    admissibility gate unless ``validate`` is False."""
    _check_axes(spec, config, validate)
    return Plan(spec, config, points)


def eigenfunction(spec: OscillatorSpec, config: REConfig, state: Eigenstate,
                  point, validate: bool = True):
    """Closed-form eigenfunction (unnormalized) in the original coordinates."""
    return plan(spec, config, point, validate).psi(state)


def relative_energy(config: REConfig, state: Eigenstate,
                    sys: DecoupledSystem) -> complex:
    """Energy above the joint ground level: sum of (n + m + 1) * omega_tilde
    over excited axes (ground axes contribute zero)."""
    if len(state.levels) != len(config.codimensions):
        raise DomainError("state and config must cover the same axes")
    total = 0j
    for w, m, lv in zip(sys.tilde_frequencies, config.codimensions, state.levels):
        if lv is not None:
            total += (lv + m + 1) * complex(w)
    return total


def ground_energy(spec: OscillatorSpec, config: REConfig) -> complex:
    """Absolute energy of the joint ground level: the completing-the-square
    constant minus sum of (m + 1/2) * omega_tilde over the axes. A state's
    energy is this plus its ``relative_energy``."""
    if len(config.codimensions) != spec.dimension:
        raise DomainError("one co-dimension per axis required")
    sys = spec.system
    return sys.potential_constant - sum(
        (m + 0.5) * complex(w) for m, w in zip(config.codimensions, sys.tilde_frequencies))


def unextended_energy(spec: OscillatorSpec, state: tuple) -> complex:
    """Eigenvalue of the unextended perturbed oscillator in the state with
    quantum numbers ``state`` (a tuple, one per axis): sum of
    (n + 1/2) * omega_tilde plus the completing-the-square constant."""
    ns = tuple(state)
    if len(ns) != spec.dimension:
        raise DomainError("one quantum number per axis required")
    if any(n is None for n in ns):
        raise DomainError("unextended states use plain quantum numbers")
    sys = spec.system
    return sum((n + 0.5) * complex(w)
               for n, w in zip(ns, sys.tilde_frequencies)) + sys.potential_constant


def spectrum(spec: OscillatorSpec, config: REConfig,
             energy_cutoff: float) -> SpectrumTable:
    """All states with relative energy <= cutoff, grouped into degenerate
    levels.

    One pass over the states in energy order: a level takes every state
    within 1e-9 (relative, absolute below 1) of its lowest energy, lists
    them in product order and reports the energy of the first of those.
    The cost is a sort of the states, O(N log N) for N states.
    """
    if not math.isfinite(energy_cutoff):
        raise DomainError("the energy cutoff must be finite")
    validate_config(spec, config)
    if energy_cutoff + 1e-12 >= 0:  # a ladder of zero spacing would never end
        spec.system.require_bound_states()
    freqs = [complex(w) for w in spec.system.tilde_frequencies]
    real = spec.system.is_real
    axis_levels = []
    count = 1
    for w, m in zip(freqs, config.codimensions):
        levels = [None]
        n = 0
        while (n + m + 1) * w.real <= energy_cutoff + 1e-12:
            if count * (len(levels) + 1) > MAX_STATES:
                raise DomainError(f"more than {MAX_STATES} states below the cutoff")
            levels.append(n)
            n += 1
        axis_levels.append(levels)
        count *= len(levels)

    members = []  # (energy, state) in product order
    for combo in itertools.product(*axis_levels):
        state = Eigenstate(combo)
        e = relative_energy(config, state, spec.system).real
        if e <= energy_cutoff + 1e-12:
            members.append((e, state))

    order = sorted(range(len(members)), key=lambda i: members[i][0])
    entries = []
    start = 0
    while start < len(order):
        lowest = members[order[start]][0]
        stop = start + 1
        while (stop < len(order) and members[order[stop]][0] - lowest
               <= 1e-9 * max(1.0, abs(lowest))):
            stop += 1
        level = [members[i] for i in sorted(order[start:stop])]
        entries.append(SpectrumEntry(level[0][0], len(level),
                                     tuple(st for _, st in level)))
        start = stop
    return SpectrumTable(tuple(entries), frequencies_real=real)
