"""Oscillator specifications, rationally extended potentials, closed-form
eigenfunctions, energy ladders, co-dimension admissibility, and
degeneracy-grouped spectrum tables.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable

import numpy as np

from . import poly, transform
from .errors import DomainError, ShapeError, SingularityError
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
    # paired with time reversal; an unlisted set is classified by sampling
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


def _degeneracy_q1(ratio, w, c, flavor):
    lam = transform.degeneracy_coupling_3d("q1", ratio, omega=w[0], omega3=w[2],
                                           flavor=flavor)
    sys = transform.decouple_3d_q1(w[0], w[2], lam, CouplingValue.zero())
    return lam, sys.tilde_frequencies[1:]


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
        reality=lambda w, c: transform.spectral_reality_3d(
            "lq", omega1=w[0], omega2=w[1], omega3=w[2], lambda0=c["lambda0"],
            lam=c["lam"])),
    "q1_3d": Case(
        3, lambda w, c: transform.decouple_3d_q1(w[0], w[2], c["lambda2"], c["lambda3"]),
        couplings=("lambda2", "lambda3"), flags=("lambda2", "lambda3"), alias="q1",
        required_flags=True, equal_xy=True,
        terms=(lambda c, p: 0.5 * (c["lambda2"].value * p[1] * p[2]
                                   + c["lambda3"].value * p[2] * p[0]),),
        parities={("lambda2", "lambda3"): ("P2",), ("lambda2",): ("P3",),
                  ("lambda3",): ("P1",)},
        reality=lambda w, c: transform.spectral_reality_3d(
            "q1", omega=w[0], omega3=w[2], lambda2=c["lambda2"], lambda3=c["lambda3"]),
        degeneracy=_degeneracy_q1),
    "q2_3d": Case(
        3, lambda w, c: transform.decouple_3d_q2(w[0], w[2], c["lambda1"].magnitude,
                                                 c["lam"]),
        couplings=("lambda1", "lam"), flags=("lambda1", "coupling"), alias="q2",
        required_flags=True, equal_xy=True, real_couplings=("lambda1",),
        terms=(lambda c, p: 0.5 * c["lambda1"].value * p[0] * p[1],
               lambda c, p: 0.5 * c["lam"].value * (p[1] * p[2] + p[2] * p[0])),
        parities={("lam",): ("P2",)},
        reality=lambda w, c: transform.spectral_reality_3d(
            "q2", omega=w[0], omega3=w[2], lambda1=c["lambda1"].magnitude, lam=c["lam"]),
        degeneracy=_degeneracy_q2),
}


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
        freqs = tuple(float(w) for w in self.frequencies)
        if len(freqs) != self.dimension or any(w <= 0 for w in freqs):
            raise DomainError("need one positive frequency per axis")
        if not all(math.isfinite(w) for w in freqs):
            raise DomainError("frequencies must be finite")
        object.__setattr__(self, "frequencies", freqs)
        if self.case not in CASES:
            raise DomainError(f"unknown perturbation case {self.case!r}")
        record = CASES[self.case]
        if set(self.couplings) != set(record.couplings):
            raise DomainError(
                f"case {self.case!r} needs couplings {sorted(record.couplings)}")
        if record.dimension not in (None, self.dimension):
            raise DomainError(f"{self.case} case is "
                              f"{_DIMENSION_WORDS[record.dimension]}-dimensional")
        if record.equal_xy and freqs[0] != freqs[1]:
            raise DomainError(f"{self.case} requires equal x and y frequencies")
        if set(record.real_couplings) & set(self.imaginary_couplings):
            raise DomainError("the xy coupling must be real in this case")

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

    @classmethod
    def excited(cls, *ns: int) -> "Eigenstate":
        return cls(tuple(ns))

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


def _rational_term(omega, m: int, u):
    """The rational term at the scaled parameter u = sqrt(omega/2)*xt."""
    pm = poly.pseudo_hermite(m)
    s = np.sqrt(complex(omega) / 2)
    h = poly.evaluate(pm, u)
    if np.any(np.abs(h) < _TINY):
        raise SingularityError("rational term evaluated at a denominator zero")
    d1 = poly.evaluate(poly.derivative(pm), u) * s
    d2 = poly.evaluate(poly.derivative(poly.derivative(pm)), u) * s * s
    return -2.0 * (d2 / h - (d1 / h) ** 2 + complex(omega) / 2)


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


def _potential(spec: OscillatorSpec, config: REConfig, points, scaled):
    """V literally: the base potential on the original points plus, per tilde
    axis, the rational term at the scaled parameter u_i."""
    v = base_potential(spec, points)
    for w, m, u in zip(spec.system.tilde_frequencies, config.codimensions, scaled):
        # summed into the term's fresh buffer, not into v: the same sum, but
        # a 1D residual scan then takes about half as many page faults
        v = _rational_term(w, m, u) + v
    return v


def re_potential(spec: OscillatorSpec, config: REConfig, point,
                 validate: bool = True):
    """Rationally extended potential in the original coordinates.

    ``validate=False`` skips the admissibility gate so the closed form of a
    singular configuration can still be sampled off its poles.
    """
    _check_axes(spec, config, validate)
    t = spec.system.coordinate_map.forward(point)
    return _potential(spec, config, point, [np.sqrt(complex(w) / 2) * ti for w, ti
                                            in zip(spec.system.tilde_frequencies, t)])


def _axis_factor(omega, m: int, t, in_place: bool = False):
    """(u, gauss/h) of one tilde axis: the scaled parameter u = sqrt(omega/2)*t
    and the state-independent factor, h being the pseudo-Hermite denominator.
    ``in_place`` scales an array t into u in place."""
    t = np.asarray(t, dtype=complex)
    gauss = np.exp(-complex(omega) * t**2 / 4)
    u = np.multiply(np.sqrt(complex(omega) / 2), t, out=t if in_place and t.ndim else None)
    h = poly.evaluate(poly.pseudo_hermite(m), u)
    if np.any(np.abs(h) < _TINY):
        raise SingularityError("eigenfunction evaluated at a denominator zero")
    gauss /= h
    return u, gauss


# i^m with unsigned zeros: (1j)**3 is -0-1j, whose negative zero would show
# in the sign of zero parts of psi
_PHASES = (complex(1, 0), complex(0, 1), complex(-1, 0), complex(0, -1))


def _numerator(m: int, level, u):
    """The state-dependent factor of one tilde axis: the phase i^m on the
    ground level (so that parity-time eigenvalues of imaginary-shift
    configurations come out +1 there), else the exceptional Hermite
    polynomial at u."""
    if level is None:
        return _PHASES[m % 4]
    return poly.evaluate(poly.exceptional_hermite(m, level + 1), u)


def axis_eigenfunction(omega, m: int, level, t):
    """One tilde-axis factor (unnormalized): gauss/h times the numerator."""
    u, ratio = _axis_factor(omega, m, t)
    return np.multiply(ratio, _numerator(m, level, u))


class Plan:
    """The state-independent part of the closed-form eigenfunctions at a
    fixed set of points; ``plan(spec, config, points)`` builds one.

    The constructor takes the tilde coordinates of the points under the
    spec's decoupling ``spec.system``, one array per axis, and keeps the
    scaled parameters u_i = sqrt(omega_i/2)*t_i, written over ``tilde`` in
    place, and the prefactor prod_i gauss_i/h_i. On an open mesh each t_i,
    and so u_i, gauss_i/h_i, the numerators and the rational terms, lives on
    the sub-mesh of the grid axes it depends on; only the prefactor, psi and
    V take the full shape. ``psi(state)`` then only multiplies the prefactor
    by the ground phases and the numerators of the excited axes;
    ``potential(points)`` reuses the u_i for the rational terms. A built
    plan is never modified, so threads may share it.
    """

    def __init__(self, spec: OscillatorSpec, config: REConfig, tilde: np.ndarray):
        self.spec, self.config = spec, config
        self.scaled = []
        self.prefactor = None
        for w, m, t in zip(spec.system.tilde_frequencies, config.codimensions, tilde):
            u, ratio = _axis_factor(w, m, t, in_place=True)
            self.scaled.append(u)
            if self.prefactor is None:
                self.prefactor = ratio
            elif self.prefactor.shape == np.broadcast_shapes(self.prefactor.shape,
                                                              ratio.shape):
                self.prefactor *= ratio
            else:
                self.prefactor = np.multiply(self.prefactor, ratio)

    def psi(self, state: Eigenstate):
        """Closed-form eigenfunction (unnormalized) of ``state`` at the points."""
        if len(state.levels) != len(self.scaled):
            raise DomainError("one level per axis required")
        out = self.prefactor
        for u, m, lv in zip(self.scaled, self.config.codimensions, state.levels):
            # not ``out * ...``: numpy would reuse the temporary right operand
            # of a large product and compute it as numerator * out, whose
            # complex rounding differs
            out = np.multiply(out, _numerator(m, lv, u))
        return out

    def potential(self, points):
        """V at the plan's points, given again in the original coordinates."""
        return _potential(self.spec, self.config, points, self.scaled)


def plan(spec: OscillatorSpec, config: REConfig, points,
         validate: bool = True) -> Plan:
    """The eigenfunction plan at ``points`` (a stack, coordinate index first,
    or an open mesh; see ``CoordinateMap.forward``), mapped to the tilde
    axes once."""
    _check_axes(spec, config, validate)
    return Plan(spec, config, spec.system.coordinate_map.forward(points))


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


def unextended_energy(spec: OscillatorSpec, state) -> complex:
    """Eigenvalue of the unextended perturbed oscillator: sum of
    (n + 1/2) * omega_tilde plus the completing-the-square constant."""
    ns = state.levels if isinstance(state, Eigenstate) else tuple(state)
    if len(ns) != spec.dimension:
        raise DomainError("one quantum number per axis required")
    if any(n is None for n in ns):
        raise DomainError("unextended states use plain quantum numbers")
    sys = spec.system
    return sum((n + 0.5) * complex(w)
               for n, w in zip(ns, sys.tilde_frequencies)) + sys.potential_constant


def _rational_weights(freqs, tol: float = 1e-9):
    """Integer weights W_i with omega_i proportional to W_i, or None."""
    base = min(f.real for f in freqs)
    if not base > 0:  # a zero frequency has no ratio
        return None
    fracs = []
    for f in freqs:
        if abs(f.imag) > tol * abs(f):
            return None
        frac = Fraction(f.real / base).limit_denominator(64)
        if abs(f.real / base - float(frac)) > tol * max(1.0, f.real / base):
            return None
        fracs.append(frac)
    den = math.lcm(*(fr.denominator for fr in fracs))
    return [fr.numerator * (den // fr.denominator) for fr in fracs], base / den


def spectrum(spec: OscillatorSpec, config: REConfig,
             energy_cutoff: float, tolerance: float = 1e-9) -> SpectrumTable:
    """All states with relative energy <= cutoff, grouped into degenerate
    levels.

    Rational tilde-frequency ratios are detected and grouped with exact
    integer arithmetic; otherwise levels closer than ``tolerance`` merge.
    """
    if not math.isfinite(energy_cutoff):
        raise DomainError("the energy cutoff must be finite")
    validate_config(spec, config)
    freqs = [complex(w) for w in spec.system.tilde_frequencies]
    real = all(abs(w.imag) <= 1e-12 * max(1.0, abs(w)) for w in freqs)
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

    weights = _rational_weights(freqs) if real else None
    groups: dict = {}
    for combo in itertools.product(*axis_levels):
        state = Eigenstate(combo)
        e = relative_energy(config, state, spec.system).real
        if e > energy_cutoff + 1e-12:
            continue
        if weights is not None:
            ws, unit = weights
            key = sum((lv + m + 1) * wt for lv, m, wt
                      in zip(combo, config.codimensions, ws) if lv is not None)
            groups.setdefault(key, []).append((e, state))
        else:
            for key in groups:
                if abs(key - e) <= tolerance * max(1.0, abs(key)):
                    groups[key].append((e, state))
                    break
            else:
                groups.setdefault(e, []).append((e, state))

    entries = []
    for key, members in groups.items():
        energy = members[0][0]
        states = tuple(st for _, st in members)
        entries.append(SpectrumEntry(energy, len(states), states))
    entries.sort(key=lambda s: s.energy)
    return SpectrumTable(tuple(entries), frequencies_real=real)
