"""Decoupling coordinate maps, tilde frequencies, spectral-reality conditions,
degeneracy couplings, parity operators, and the eta metric.

Every transform is a complex-orthogonal linear map plus a (possibly complex)
shift, so the Laplacian is invariant and the perturbed quadratic potential
separates into independent 1D oscillators in the tilde coordinates.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    DegenerateDirectionError,
    DegenerateTransformError,
    DomainError,
    FlavorError,
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
        """Old coordinates -> tilde coordinates (accepts trailing-axis stacks)."""
        p = np.asarray(point, dtype=complex)
        t = np.tensordot(self.linear, p, axes=(1, 0))
        t += self.shift.reshape((-1,) + (1,) * (p.ndim - 1))
        return t

    def inverse(self, point):
        """Tilde coordinates -> old coordinates (transpose, not conjugate)."""
        p = np.asarray(point, dtype=complex)
        t = p - self.shift.reshape((-1,) + (1,) * (p.ndim - 1))
        return np.tensordot(self.linear.T, t, axes=(1, 0))

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


@dataclass(frozen=True)
class ParityOperator:
    """Reflection (determinant -1) represented by a signed 0/1 matrix."""

    matrix: np.ndarray
    name: str = "P"

    def __post_init__(self):
        object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=float))

    @property
    def determinant(self) -> float:
        return float(np.linalg.det(self.matrix))

    def apply(self, point):
        p = np.asarray(point, dtype=complex)
        return np.tensordot(self.matrix, p, axes=(1, 0))


@dataclass(frozen=True)
class EtaMetric:
    """2x2 pseudo-hermiticity metric built from the mixing factor."""

    matrix: np.ndarray


def _principal_sqrt(z) -> complex:
    return complex(np.sqrt(complex(z)))


def _rotation_block(delta: complex, s: complex, lam: complex):
    """Mixing factor and the (a, b) pair of a 2-axis decoupling rotation.

    b is fixed by a*b = lam/s, which is the branch that actually cancels the
    cross term; it coincides with the principal root of (1+k)/2 whenever the
    coupling magnitude is non-negative.
    """
    k = delta / s
    a = _principal_sqrt((1 - k) / 2)
    if lam != 0 and a != 0:
        b = lam / (s * a)
    else:
        b = _principal_sqrt((1 + k) / 2)
    return k, a, b


def shift_map_1d(omega1: float, lambda0: CouplingValue) -> DecoupledSystem:
    """Absorb a linear perturbation by the complex shift 2*lambda0/omega1^2."""
    if not omega1 > 0:
        raise DomainError("omega1 must be positive")
    l0 = lambda0.value
    shift = 2.0 * l0 / omega1**2
    const = -(l0 * l0) / omega1**2
    cmap = CoordinateMap(np.eye(1, dtype=complex), np.array([shift]))
    return DecoupledSystem((complex(omega1),), complex(const), cmap)


def tilde_frequencies_2d(omega1: float, omega2: float, lam: CouplingValue):
    """Decoupled frequencies of the 2-axis quadratic coupling (no map needed)."""
    d = omega1**2 - omega2**2
    s = _principal_sqrt(4 * lam.value**2 + d * d)
    total = omega1**2 + omega2**2
    return (_principal_sqrt((total - s) / 2), _principal_sqrt((total + s) / 2))


def rotate_map_2d(omega1: float, omega2: float, lam: CouplingValue) -> DecoupledSystem:
    """Decouple 1/4(w1^2 x^2 + w2^2 y^2) + lam/2 xy by a complex rotation."""
    if not (omega1 > 0 and omega2 > 0):
        raise DomainError("frequencies must be positive")
    d = omega1**2 - omega2**2
    lv = lam.value
    disc = 4 * lv * lv + d * d
    if disc == 0:
        raise DegenerateTransformError(
            "4*lambda^2 + (omega1^2-omega2^2)^2 vanishes: rotation undefined")
    s = _principal_sqrt(disc)
    _, a, b = _rotation_block(d, s, lv)
    lin = np.array([[a, -b], [b, a]], dtype=complex)
    cmap = CoordinateMap(lin, np.zeros(2, dtype=complex))
    return DecoupledSystem(tilde_frequencies_2d(omega1, omega2, lam), 0j, cmap)


def mixing_factor_2d(omega1: float, omega2: float, lam: CouplingValue) -> complex:
    """k = (w1^2 - w2^2) / sqrt(4 lam^2 + (w1^2 - w2^2)^2)."""
    d = omega1**2 - omega2**2
    disc = 4 * lam.value**2 + d * d
    if disc == 0:
        raise DegenerateTransformError("mixing factor undefined at zero discriminant")
    return complex(d / _principal_sqrt(disc))


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
    disc = 4 * L2 + delta * delta
    if disc == 0:
        raise DegenerateTransformError("zero discriminant in the (w, z) rotation")
    s = _principal_sqrt(disc)
    _, a, b = _rotation_block(delta, s, L)
    lin = np.array([
        [-c, d, 0],
        [a * d, a * c, -b],
        [b * d, b * c, a],
    ], dtype=complex)
    total = omega**2 + omega3**2
    freqs = (complex(omega),
             _principal_sqrt((total - s) / 2),
             _principal_sqrt((total + s) / 2))
    return DecoupledSystem(freqs, 0j, CoordinateMap(lin, np.zeros(3, dtype=complex)))


def tilde_frequencies_q2(omega: float, omega3: float, lambda1: float,
                         lam: CouplingValue):
    """Decoupled frequencies for the xy + (yz+zx) coupling case (no map)."""
    A = omega**2 - omega3**2 + lambda1
    s = _principal_sqrt(8 * lam.value**2 + A * A)
    total = omega**2 + omega3**2 + lambda1
    return (_principal_sqrt(omega**2 - lambda1),
            _principal_sqrt((total - s) / 2),
            _principal_sqrt((total + s) / 2))


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
    if isinstance(lambda1, CouplingValue):
        if lambda1.is_imaginary and lambda1.magnitude != 0:
            raise DomainError("the xy coupling must be real in this case")
        lambda1 = lambda1.magnitude
    lambda1 = float(lambda1)
    A = omega**2 - omega3**2 + lambda1
    lv = lam.value
    disc = 8 * lv * lv + A * A
    if disc == 0:
        freqs = tilde_frequencies_q2(omega, omega3, lambda1, lam)
        raise DegenerateTransformError(
            "exceptional point: rotation undefined while tilde frequencies "
            f"coincide at {freqs[1]:.6g}")
    s = _principal_sqrt(disc)
    _, a, b = _rotation_block(A, s, np.sqrt(2) * lv)
    r2 = 1.0 / np.sqrt(2)
    lin = np.array([
        [-r2, r2, 0],
        [a * r2, a * r2, -b],
        [b * r2, b * r2, a],
    ], dtype=complex)
    freqs = tilde_frequencies_q2(omega, omega3, lambda1, lam)
    return DecoupledSystem(freqs, 0j, CoordinateMap(lin, np.zeros(3, dtype=complex)))


@dataclass(frozen=True)
class RealityVerdict:
    """Spectral-reality decision plus the name of any violated inequality."""

    real: bool
    certificate: str

    def __bool__(self) -> bool:
        return self.real


def spectral_reality_3d(case: str, **params) -> RealityVerdict:
    """Exact reality inequalities for the three 3D perturbation cases.

    lq: omega1, omega2, omega3, lambda0, lam
    q1: omega, omega3, lambda2, lambda3
    q2: omega, omega3, lambda1 (real), lam
    """
    if case == "lq":
        return _reality_lq(**params)
    if case == "q1":
        return _reality_q1(**params)
    if case == "q2":
        return _reality_q2(**params)
    raise DomainError(f"unknown case {case!r}")


def _reality_lq(omega1, omega2, omega3, lambda0: CouplingValue,
                lam: CouplingValue) -> RealityVerdict:
    if not omega3 > 0:
        raise DomainError("omega3 must be positive")
    # the linear z-term never breaks reality for either flavor
    if lam.is_imaginary:
        ok = abs(lam.magnitude) < 0.5 * abs(omega1**2 - omega2**2)
        cert = ("all conditions hold" if ok else
                "violated: |gamma| >= |omega1^2 - omega2^2|/2")
    else:
        ok = abs(lam.magnitude) <= omega1 * omega2
        cert = ("all conditions hold" if ok else
                "violated: |lambda| > omega1*omega2")
    return RealityVerdict(ok, cert)


def _reality_q1(omega, omega3, lambda2: CouplingValue,
                lambda3: CouplingValue) -> RealityVerdict:
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


def _reality_q2(omega, omega3, lambda1, lam: CouplingValue) -> RealityVerdict:
    if isinstance(lambda1, CouplingValue):
        if lambda1.is_imaginary and lambda1.magnitude != 0:
            raise DomainError("the xy coupling must be real in this case")
        lambda1 = lambda1.magnitude
    lambda1 = float(lambda1)
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


def pt_classification(spec) -> list:
    """Parity operators paired with time reversal for the given spec.

    A non-Hermitian flavor combination that the spec's case lists returns
    its assigned operators; any other spec, purely real couplings included,
    falls back to sampling plain parity invariance of the potential.
    """
    from . import model  # local import to avoid a module cycle

    dim = spec.dimension
    ops = parity_operators(dim) if dim > 1 else [space_inversion(1)]
    names = model.CASES[spec.case].parities.get(spec.imaginary_couplings)
    if names is None:
        return _sample_parity_invariance(spec, ops)
    named = {op.name: op for op in ops}
    return [named[n] for n in names]


def _sample_parity_invariance(spec, candidates, n_samples: int = 100,
                              tol: float = 1e-10) -> list:
    from . import model  # local import to avoid a module cycle

    rng = np.random.default_rng(17)
    pts = rng.normal(size=(n_samples, spec.dimension))
    kept = []
    for op in candidates:
        ok = True
        for p in pts:
            v = model.base_potential(spec, p)
            w = model.base_potential(spec, op.apply(p))
            if abs(np.conj(w) - v) > tol * (1 + abs(v)):
                ok = False
                break
        if ok:
            kept.append(op)
    return kept
