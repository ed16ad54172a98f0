"""Decoupling coordinate maps, tilde frequencies, spectral-reality conditions,
degeneracy couplings, parity operators, and the eta metric.

Every transform is a complex-orthogonal linear map plus a (possibly complex)
shift, so the Laplacian is invariant and the perturbed quadratic potential
separates into independent 1D oscillators in the tilde coordinates.

Every coupled pair of axes (the 2D rotation, and the rotated pair of each 3D
case) decouples through ``_coupled_pair``: it alone takes the square root of
the pair's discriminant, forms the pair's tilde frequencies, refuses an
exceptional point (``DegenerateTransformError``) and refuses a discriminant
or frequency sum past the float range (``NumericalFailureError``).

This module is the algebra alone and imports nothing from ``model``:
``model.CASES`` picks the decoupling, reality and degeneracy functions here
for each perturbation case, and ``model.pt_classification`` pairs the parity
operators listed here with time reversal.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    DegenerateDirectionError,
    DegenerateTransformError,
    DomainError,
    FlavorError,
    NumericalFailureError,
)

REAL = "real"
IMAGINARY = "imaginary"


@dataclass(frozen=True)
class CouplingValue:
    """Perturbation coupling tagged real or imaginary.

    The complex value is ``magnitude`` for real flavor and ``1j*magnitude``
    for imaginary flavor.
    """

    magnitude: float
    flavor: str = REAL

    def __post_init__(self):
        if self.flavor not in (REAL, IMAGINARY):
            raise DomainError(f"unknown coupling flavor {self.flavor!r}")
        object.__setattr__(self, "magnitude", float(self.magnitude))
        if not np.isfinite(self.magnitude):
            raise DomainError("coupling magnitude must be finite")

    @property
    def value(self) -> complex:
        return complex(self.magnitude) if self.flavor == REAL else 1j * self.magnitude

    @property
    def is_imaginary(self) -> bool:
        return self.flavor == IMAGINARY

    def __bool__(self) -> bool:
        return self.magnitude != 0.0

    @classmethod
    def real(cls, magnitude: float) -> "CouplingValue":
        return cls(magnitude, REAL)

    @classmethod
    def imaginary(cls, magnitude: float) -> "CouplingValue":
        return cls(magnitude, IMAGINARY)

    @classmethod
    def zero(cls) -> "CouplingValue":
        return cls(0.0, REAL)

    @classmethod
    def parse(cls, text: str) -> "CouplingValue":
        """Parse 'real:1.5' / 'imaginary:0.3' (bare numbers default to real)."""
        flavor, _, mag = text.partition(":") if ":" in text else (REAL, "", text)
        try:
            magnitude = float(mag)
        except ValueError:
            raise DomainError(f"cannot parse coupling {text!r}") from None
        return cls(magnitude, flavor.strip())


def _coordinates(point):
    """The per-axis arrays of an open mesh as given, or a stack as complex."""
    return point if isinstance(point, (list, tuple)) else np.asarray(point, dtype=complex)


@dataclass(frozen=True)
class CoordinateMap:
    """x_tilde = linear @ x + shift, with complex-orthogonal linear part."""

    linear: np.ndarray
    shift: np.ndarray

    def __post_init__(self):
        lin = np.atleast_2d(np.asarray(self.linear, dtype=complex))
        sh = np.atleast_1d(np.asarray(self.shift, dtype=complex))
        if lin.shape[0] != lin.shape[1] or sh.shape[0] != lin.shape[0]:
            raise DomainError("linear part must be square and match the shift")
        object.__setattr__(self, "linear", lin)
        object.__setattr__(self, "shift", sh)

    @property
    def dimension(self) -> int:
        return self.linear.shape[0]

    def forward(self, point):
        """Old coordinates -> tilde coordinates, one array per tilde axis.

        ``point`` is a stack with the coordinate index first, or a sequence of
        per-axis arrays that broadcast together (an open mesh). Each
        t_i = s_i + sum_j L_ij x_j sums only the nonzero L_ij, so t_i has the
        broadcast shape of the coordinates it depends on.
        """
        x = _coordinates(point)
        return [self._row(i, x) for i in range(self.dimension)]

    def forward_axis(self, axis: int, point):
        """t_axis alone, as ``forward`` forms it."""
        return self._row(axis, _coordinates(point))

    def _row(self, axis: int, x):
        t = None
        for lij, xj in zip(self.linear[axis], x):
            if lij != 0:
                t = lij * xj if t is None else t + lij * xj
        t += self.shift[axis]
        return t

    def orthogonality_defect(self) -> float:
        """max |L^T L - I| under the non-conjugated bilinear form."""
        g = self.linear.T @ self.linear
        return float(np.max(np.abs(g - np.eye(self.dimension))))


@dataclass(frozen=True)
class DecoupledSystem:
    """Tilde frequencies, additive potential constant, and the coordinate map."""

    tilde_frequencies: tuple
    potential_constant: complex
    coordinate_map: CoordinateMap

    @property
    def dimension(self) -> int:
        return len(self.tilde_frequencies)

    @property
    def is_real(self) -> bool:
        return all(abs(complex(w).imag) <= 1e-12 * max(1.0, abs(w))
                   for w in self.tilde_frequencies)

    def require_bound_states(self) -> None:
        """Raise DomainError naming the first tilde axis whose frequency has
        no positive real part: its eigenfunctions do not decay and its ladder
        of states never ends."""
        for axis, w in enumerate(self.tilde_frequencies):
            w = complex(w)
            if not w.real > 0:
                text = f"{w.real:g}" + (f"{w.imag:+g}i" if w.imag else "")
                raise DomainError(f"tilde axis {axis} needs a positive frequency, "
                                  f"got {text}: it has no bound states")


@dataclass(frozen=True)
class ParityOperator:
    """Reflection (determinant -1) represented by a signed 0/1 matrix."""

    matrix: np.ndarray
    name: str = "P"

    def __post_init__(self):
        object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=float))


@dataclass(frozen=True)
class EtaMetric:
    """2x2 pseudo-hermiticity metric built from the mixing factor."""

    matrix: np.ndarray


def _principal_sqrt(z) -> complex:
    return complex(np.sqrt(complex(z)))


def _coupled_pair(delta, total, disc, lam=None):
    """The decoupling of one coupled pair of axes.

    ``delta`` is the difference and ``total`` the sum of the pair's squared
    frequencies (each shifted by any in-pair coupling), and ``disc`` is
    delta^2 plus four times the squared pair coupling, each as its caller
    writes it. Returns s = sqrt(disc), the pair's tilde frequencies
    sqrt((total -+ s)/2) and, when the pair coupling ``lam`` is given, the
    (a, b) of the rotation [[a, -b], [b, a]]; else None.

    b is fixed by a*b = lam/s, which is the branch that actually cancels the
    cross term; it coincides with the principal root of (1+k)/2, k = delta/s,
    whenever the coupling magnitude is non-negative. At disc = 0, an
    exceptional point, the frequencies coincide and the rotation is
    undefined.
    """
    if not (cmath.isfinite(disc) and cmath.isfinite(total)):
        raise NumericalFailureError(
            "a coupled pair's discriminant or frequency sum overflows the float range")
    s = _principal_sqrt(disc)
    freqs = (_principal_sqrt((total - s) / 2), _principal_sqrt((total + s) / 2))
    if lam is None:
        return s, freqs, None
    if disc == 0:
        raise DegenerateTransformError(
            "exceptional point: rotation undefined while tilde frequencies "
            f"coincide at {freqs[0]:.6g}")
    k = delta / s
    a = _principal_sqrt((1 - k) / 2)
    if lam != 0 and a != 0:
        b = lam / (s * a)
    else:
        b = _principal_sqrt((1 + k) / 2)
    return s, freqs, (a, b)


def shift_map_1d(omega1: float, lambda0: CouplingValue) -> DecoupledSystem:
    """Absorb a linear perturbation by the complex shift 2*lambda0/omega1^2."""
    if not (omega1 > 0 and 0 < omega1 * omega1 < math.inf):
        raise DomainError("omega1 must be positive, with a finite nonzero square")
    l0 = lambda0.value
    shift = 2.0 * l0 / omega1**2
    const = -(l0 * l0) / omega1**2
    cmap = CoordinateMap(np.eye(1, dtype=complex), np.array([shift]))
    return DecoupledSystem((complex(omega1),), complex(const), cmap)


def tilde_frequencies_2d(omega1: float, omega2: float, lam: CouplingValue):
    """Decoupled frequencies of the 2-axis quadratic coupling (no map needed)."""
    d = omega1**2 - omega2**2
    return _coupled_pair(d, omega1**2 + omega2**2, 4 * lam.value**2 + d * d)[1]


def rotate_map_2d(omega1: float, omega2: float, lam: CouplingValue) -> DecoupledSystem:
    """Decouple 1/4(w1^2 x^2 + w2^2 y^2) + lam/2 xy by a complex rotation."""
    if not (omega1 > 0 and omega2 > 0):
        raise DomainError("frequencies must be positive")
    d = omega1**2 - omega2**2
    lv = lam.value
    _, freqs, (a, b) = _coupled_pair(d, omega1**2 + omega2**2, 4 * lv * lv + d * d, lv)
    lin = np.array([[a, -b], [b, a]], dtype=complex)
    cmap = CoordinateMap(lin, np.zeros(2, dtype=complex))
    return DecoupledSystem(freqs, 0j, cmap)


def mixing_factor_2d(omega1: float, omega2: float, lam: CouplingValue) -> complex:
    """k = (w1^2 - w2^2) / sqrt(4 lam^2 + (w1^2 - w2^2)^2)."""
    d = omega1**2 - omega2**2
    lv = lam.value
    s, _, _ = _coupled_pair(d, omega1**2 + omega2**2, 4 * lv**2 + d * d, lv)
    return complex(d / s)


def spectral_reality_2d(omega1: float, omega2: float, lam: CouplingValue) -> bool:
    """Real flavor: |lam| <= w1 w2 (non-strict).
    Imaginary flavor: |gamma| < |w1^2 - w2^2|/2 (strict)."""
    if not (omega1 > 0 and omega2 > 0):
        raise DomainError("frequencies must be positive")
    if lam.is_imaginary:
        return abs(lam.magnitude) < 0.5 * abs(omega1**2 - omega2**2)
    return abs(lam.magnitude) <= omega1 * omega2


def eta_metric_2d(mixing: complex) -> EtaMetric:
    """Metric rows [-k, -sqrt(1-k^2)], [sqrt(1-k^2), -k] (principal root)."""
    k = complex(mixing)
    w = _principal_sqrt(1 - k * k)
    return EtaMetric(np.array([[-k, -w], [w, -k]], dtype=complex))


def _ratio_coupling(r_tilde, r: float, scale: float) -> CouplingValue:
    rt = float(Fraction(r_tilde)) if isinstance(r_tilde, (str, Fraction)) else float(r_tilde)
    if not rt > 0:
        raise DomainError("target frequency ratio must be positive")
    radicand = (rt**4 + 1) - (rt / r) ** 2 * (r**4 + 1)
    magnitude = np.sqrt(abs(radicand)) * scale / (rt**2 + 1)
    return CouplingValue(magnitude, REAL if radicand >= 0 else IMAGINARY)


def degeneracy_coupling_2d(r_tilde, omega1: float, omega2: float,
                           flavor: str | None = None) -> CouplingValue:
    """Coupling that makes the tilde-frequency ratio equal r_tilde.

    A negative radicand means no real coupling can reach the ratio; the
    result then carries imaginary flavor.  ``flavor`` forces a check.
    """
    if not (omega1 > 0 and omega2 > 0):
        raise DomainError("frequencies must be positive")
    out = _ratio_coupling(r_tilde, omega1 / omega2, omega1 * omega2)
    if flavor is not None and out.magnitude != 0 and out.flavor != flavor:
        raise FlavorError(f"ratio requires {out.flavor} coupling, not {flavor}")
    return out


def decouple_3d_lq(omega1: float, omega2: float, omega3: float,
                   lambda0: CouplingValue, lam: CouplingValue) -> DecoupledSystem:
    """Linear z-perturbation plus quadratic xy-coupling: rotation block on
    (x, y) composed with the z shift."""
    if not omega3 > 0:
        raise DomainError("omega3 must be positive")
    block = rotate_map_2d(omega1, omega2, lam)
    zmap = shift_map_1d(omega3, lambda0)
    lin = np.eye(3, dtype=complex)
    lin[:2, :2] = block.coordinate_map.linear
    shift = np.zeros(3, dtype=complex)
    shift[2] = zmap.coordinate_map.shift[0]
    cmap = CoordinateMap(lin, shift)
    freqs = block.tilde_frequencies + (complex(omega3),)
    return DecoupledSystem(freqs, zmap.potential_constant, cmap)


def decouple_3d_q1(omega: float, omega3: float,
                   lambda2: CouplingValue, lambda3: CouplingValue) -> DecoupledSystem:
    """Equal x/y frequencies with yz and zx couplings.

    The coupling vector (lambda2, lambda3) fixes an in-plane direction
    (c, d); the orthogonal direction decouples with frequency omega and the
    remaining pair rotates like the 2-axis case with combined coupling
    sqrt(lambda2^2 + lambda3^2).
    """
    if not (omega > 0 and omega3 > 0):
        raise DomainError("frequencies must be positive")
    l2, l3 = lambda2.value, lambda3.value
    L2 = l2 * l2 + l3 * l3
    if L2 == 0:
        raise DegenerateDirectionError(
            "lambda2^2 + lambda3^2 vanishes: coupling direction undefined")
    L = _principal_sqrt(L2)
    c, d = l2 / L, l3 / L
    delta = omega**2 - omega3**2
    _, freqs, (a, b) = _coupled_pair(delta, omega**2 + omega3**2,
                                     4 * L2 + delta * delta, L)
    lin = np.array([
        [-c, d, 0],
        [a * d, a * c, -b],
        [b * d, b * c, a],
    ], dtype=complex)
    return DecoupledSystem((complex(omega),) + freqs, 0j,
                           CoordinateMap(lin, np.zeros(3, dtype=complex)))


def tilde_frequencies_q2(omega: float, omega3: float, lambda1: float,
                         lam: CouplingValue):
    """Decoupled frequencies for the xy + (yz+zx) coupling case (no map)."""
    A = omega**2 - omega3**2 + lambda1
    _, pair, _ = _coupled_pair(A, omega**2 + omega3**2 + lambda1, 8 * lam.value**2 + A * A)
    return (_principal_sqrt(omega**2 - lambda1),) + pair


def decouple_3d_q2(omega: float, omega3: float, lambda1: float,
                   lam: CouplingValue) -> DecoupledSystem:
    """Equal x/y frequencies with xy coupling lambda1 (real) and symmetric
    yz + zx coupling lam.

    The antisymmetric combination (y - x)/sqrt2 decouples immediately; the
    symmetric combination pairs with z in a 2-axis rotation of effective
    coupling sqrt2 * lam.  A complex first frequency (lambda1 > omega^2) is
    returned as-is; reality is reported downstream.
    """
    if not (omega > 0 and omega3 > 0):
        raise DomainError("frequencies must be positive")
    A = omega**2 - omega3**2 + lambda1
    lv = lam.value
    with np.errstate(over="ignore"):  # _coupled_pair refuses the overflowing disc
        lam_pair = np.sqrt(2) * lv
    _, pair, (a, b) = _coupled_pair(A, omega**2 + omega3**2 + lambda1,
                                    8 * lv * lv + A * A, lam_pair)
    r2 = 1.0 / np.sqrt(2)
    lin = np.array([
        [-r2, r2, 0],
        [a * r2, a * r2, -b],
        [b * r2, b * r2, a],
    ], dtype=complex)
    freqs = (_principal_sqrt(omega**2 - lambda1),) + pair
    return DecoupledSystem(freqs, 0j, CoordinateMap(lin, np.zeros(3, dtype=complex)))


@dataclass(frozen=True)
class RealityVerdict:
    """Spectral-reality decision plus the name of any violated inequality."""

    real: bool
    certificate: str

    def __bool__(self) -> bool:
        return self.real


def spectral_reality_lq(omega1, omega2, omega3, lambda0: CouplingValue,
                        lam: CouplingValue) -> RealityVerdict:
    """Reality of the lq case: the linear z-term never breaks it, for either
    flavor, so the (x, y) block decides."""
    if not omega3 > 0:
        raise DomainError("omega3 must be positive")
    if spectral_reality_2d(omega1, omega2, lam):
        return RealityVerdict(True, "all conditions hold")
    return RealityVerdict(False, "violated: |gamma| >= |omega1^2 - omega2^2|/2"
                          if lam.is_imaginary else "violated: |lambda| > omega1*omega2")


def spectral_reality_q1(omega, omega3, lambda2: CouplingValue,
                        lambda3: CouplingValue) -> RealityVerdict:
    """Reality of the q1 case, for each flavor combination of the couplings."""
    quarter = 0.25 * (omega**2 - omega3**2) ** 2
    upper = omega**2 * omega3**2
    combined = (lambda2.value**2 + lambda3.value**2).real
    if not lambda2.is_imaginary and not lambda3.is_imaginary:
        if combined > upper:
            return RealityVerdict(False, "violated: lambda2^2+lambda3^2 > omega^2*omega3^2")
        return RealityVerdict(True, "all conditions hold")
    if lambda2.is_imaginary and lambda3.is_imaginary:
        if -combined > quarter:
            return RealityVerdict(False,
                                  "violated: gamma2^2+gamma3^2 > (omega^2-omega3^2)^2/4")
        return RealityVerdict(True, "all conditions hold")
    # mixed flavor: -1/4 (omega^2-omega3^2)^2 <= lambda^2 - gamma^2 <= omega^2 omega3^2
    if combined < -quarter:
        return RealityVerdict(False,
                              "violated: real^2 - imag^2 < -(omega^2-omega3^2)^2/4")
    if combined > upper:
        return RealityVerdict(False, "violated: real^2 - imag^2 > omega^2*omega3^2")
    return RealityVerdict(True, "all conditions hold")


def spectral_reality_q2(omega, omega3, lambda1: float,
                        lam: CouplingValue) -> RealityVerdict:
    """Reality of the q2 case; lambda1 is the (real) xy coupling."""
    if not -omega**2 <= lambda1 <= omega**2:
        return RealityVerdict(False, "violated: |lambda1| > omega^2")
    if lam.is_imaginary:
        bound = (omega**2 - omega3**2 + lambda1) ** 2 / 8.0
        if lam.magnitude**2 > bound:
            return RealityVerdict(False,
                                  "violated: gamma^2 > (omega^2-omega3^2+lambda1)^2/8")
        return RealityVerdict(True, "all conditions hold")
    bound = (omega**2 + lambda1) * omega3**2 / 2.0
    if lam.magnitude**2 > bound:
        return RealityVerdict(False,
                              "violated: lambda^2 > (omega^2+lambda1)*omega3^2/2")
    return RealityVerdict(True, "all conditions hold")


def degeneracy_coupling_3d(case: str, u_tilde, *, omega: float, omega3: float,
                           lambda1: float | None = None,
                           flavor: str | None = None) -> CouplingValue:
    """Coupling magnitude that makes the rotated-pair tilde ratio u_tilde.

    q1 returns the combined magnitude sqrt(lambda2^2 + lambda3^2); q2 returns
    the symmetric coupling for the given real lambda1.
    """
    ut = float(Fraction(u_tilde)) if isinstance(u_tilde, (str, Fraction)) else float(u_tilde)
    if not ut > 0:
        raise DomainError("target frequency ratio must be positive")
    if case == "q1":
        out = _ratio_coupling(ut, omega / omega3, omega * omega3)
    elif case == "q2":
        if lambda1 is None:
            raise DomainError("q2 needs lambda1")
        total = omega**2 + omega3**2 + lambda1
        target = abs(1 - ut**2) / (1 + ut**2) * total
        radicand = target**2 - (omega**2 - omega3**2 + lambda1) ** 2
        magnitude = np.sqrt(abs(radicand)) / (2 * np.sqrt(2))
        out = CouplingValue(magnitude, REAL if radicand >= 0 else IMAGINARY)
    else:
        raise DomainError(f"unknown case {case!r}")
    if flavor is not None and out.magnitude != 0 and out.flavor != flavor:
        raise FlavorError(f"ratio requires {out.flavor} coupling, not {flavor}")
    return out


def parity_operators(dimension: int) -> list:
    """The listed reflection set (all with determinant -1)."""
    if dimension == 2:
        mats = [np.diag([-1, 1]), np.diag([1, -1]),
                np.array([[0, 1], [1, 0]]), np.array([[0, -1], [-1, 0]])]
    elif dimension == 3:
        mats = [np.diag([-1, 1, 1]), np.diag([1, 1, -1]),
                np.diag([1, -1, 1]), np.diag([-1, -1, -1])]
    else:
        raise DomainError("parity listing is defined for dimensions 2 and 3")
    return [ParityOperator(m, name=f"P{i+1}") for i, m in enumerate(mats)]


def space_inversion(dimension: int) -> ParityOperator:
    """x -> -x in any dimension (a reflection only in odd dimensions)."""
    return ParityOperator(-np.eye(dimension), name="inversion")
