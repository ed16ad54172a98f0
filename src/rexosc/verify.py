"""Independent numerical verification of the closed-form constructions:
Schrodinger residuals, Rayleigh quotients, parity-time eigenvalue
measurement, orthogonality Gram matrices, real-pole scans, a
grid-diagonalization oracle, and pseudo-hermiticity sampling.

Everything here avoids the closed-form energy formulas: energies are either
fitted from pointwise residuals, computed as quadrature quotients, or read
off a discretized Hamiltonian, so agreement with the model module is a real
check rather than a tautology.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import model, numerics, poly
from .errors import (
    DomainError,
    IndeterminateError,
    ShapeError,
    SingularityError,
)
from .model import Eigenstate, OscillatorSpec, REConfig
from .numerics import Grid, STENCIL_REACH, TridiagonalMatrix

_POLE_GUARD = 0.35   # exclusion radius around denominator zeros (scaled units)
_GUARD_POINTS = 5    # extra guard band, in grid spacings, past the stencil reach


@dataclass(frozen=True)
class PoleHit:
    """Real zero of one axis denominator, in that axis's tilde parameter."""

    axis: int
    coordinate: float


@dataclass
class VerificationReport:
    """Aggregated verification output for one (spec, config, state)."""

    max_residual: float = float("nan")
    fitted_offset: complex = complex("nan")
    pole_list: list = field(default_factory=list)
    pt_eigenvalue: object = None
    gram: object = None
    notes: list = field(default_factory=list)


# -------------------------------------------------------------- grid helpers

def decay_quadratic_form(spec: OscillatorSpec) -> np.ndarray:
    """Diagonal of the real quadratic form governing |psi|^2 decay in the
    original coordinates (reduces to the tilde frequency on a plain axis)."""
    return _decay_diagonal(model.decouple(spec))


def _decay_diagonal(sys) -> np.ndarray:
    lin = sys.coordinate_map.linear
    w = np.array([complex(x).real for x in sys.tilde_frequencies])
    q = np.real(lin.T @ np.diag(w) @ lin)
    return np.diag(q).copy()


def suggest_grids(spec: OscillatorSpec, n_points: int = 2001,
                  spacing: float | None = None) -> list:
    """Per-axis grids covering the eigenfunction support (tails < 1e-30 in
    probability), centered on the real part of any coordinate shift."""
    sys = model.decouple(spec)
    q = _decay_diagonal(sys)
    grids = []
    for i in range(spec.dimension):
        hw = 12.0 / np.sqrt(q[i])
        center = -float(np.real(sys.coordinate_map.shift[i]))
        n = n_points
        if spacing is not None:
            n = int(np.ceil(2 * hw / spacing)) | 1
        grids.append(Grid(center, hw, n))
    return grids


def _interior(f: np.ndarray) -> np.ndarray:
    sl = tuple(slice(STENCIL_REACH, n - STENCIL_REACH) for n in f.shape)
    return f[sl]


def _mesh(grids) -> np.ndarray:
    axes = [g.points for g in grids]
    return np.stack(np.meshgrid(*axes, indexing="ij")).astype(complex)


def _pole_mask(spec, config, grids, pole_guard: float) -> np.ndarray:
    """Boolean mask of interior points too close to a denominator zero,
    dilated by the stencil footprint plus a guard band."""
    sys = model.decouple(spec)
    pts = _mesh(grids)
    t = sys.coordinate_map.forward(pts)
    shape = tuple(g.n_points - 2 * STENCIL_REACH for g in grids)
    bad = np.zeros(shape, dtype=bool)
    for i, (w, m) in enumerate(zip(sys.tilde_frequencies, config.codimensions)):
        if m == 0:
            continue
        u = _interior(np.sqrt(complex(w) / 2) * t[i])
        for z in poly.pseudo_hermite_zeros(m):
            bad |= np.abs(u - z) < pole_guard
    if not bad.any():
        return bad
    reach = STENCIL_REACH + _GUARD_POINTS
    for axis in range(bad.ndim):
        acc = bad.copy()
        for shift in range(1, reach + 1):
            acc |= np.roll(bad, shift, axis=axis)
            acc |= np.roll(bad, -shift, axis=axis)
        bad = acc
    return bad


# ---------------------------------------------------------------- residuals

def residual_scan(spec: OscillatorSpec, config: REConfig, state: Eigenstate,
                  grids, pole_guard: float = _POLE_GUARD):
    """Pointwise Schrodinger residual of the closed-form eigenfunction.

    Computes r = -lap(psi) + V*psi on the grid interior, fits the constant
    c minimizing max|r - (E_rel + c) psi| (three reweighted least-squares
    passes), and returns (max_residual, fitted_offset) with the residual
    normalized by max|psi| * (|E_rel| + max tilde frequency).
    """
    if isinstance(grids, Grid):
        grids = [grids]
    if len(grids) != spec.dimension:
        raise ShapeError("one grid per axis required")
    model.validate_config(spec, config)
    sys = model.decouple(spec)
    pts = _mesh(grids)
    psi = model.eigenfunction(spec, config, state, pts)
    v = model.re_potential(spec, config, pts)

    lap = None
    for axis in range(spec.dimension):
        d2 = numerics.second_derivative_profile(psi, grids[axis].spacing, axis)
        # trim the remaining axes to the common interior
        sl = tuple(slice(None) if a == axis else
                   slice(STENCIL_REACH, psi.shape[a] - STENCIL_REACH)
                   for a in range(spec.dimension))
        d2 = d2[sl]
        lap = d2 if lap is None else lap + d2
    psi_i = _interior(psi)
    r = -lap + _interior(v) * psi_i

    keep = ~_pole_mask(spec, config, grids, pole_guard)
    if not keep.any():
        raise SingularityError("no interior points survive the pole guard")
    pk = psi_i[keep]
    rk = r[keep]
    e_rel = model.relative_energy(config, state, sys)

    weights = np.ones(pk.shape[0])
    c = 0j
    for _ in range(3):
        num = np.sum(weights * np.conj(pk) * (rk - e_rel * pk))
        den = np.sum(weights * np.abs(pk) ** 2)
        c = num / den
        err = np.abs(rk - (e_rel + c) * pk)
        weights = err + 1e-30
    err = np.abs(rk - (e_rel + c) * pk)
    wmax = max(complex(w).real for w in sys.tilde_frequencies)
    scale = np.max(np.abs(pk)) * (abs(e_rel) + wmax)
    return float(np.max(err) / scale), complex(c)


# ------------------------------------------------------- Rayleigh quotients

def _axis_quadrature(omega, m: int, level, n_points: int, im_shift: float = 0.0):
    """1D ingredients (f, -f'' + V f, spacing) along one axis contour.

    The contour is the axis's natural line Im t = im_shift: the real tilde
    line for rotated axes, the displaced line of an imaginary coordinate
    shift (which keeps odd co-dimension denominators nodeless).
    """
    hw = 12.0 / np.sqrt(complex(omega).real)
    g = Grid(0.0, hw, n_points | 1)
    t = g.points.astype(complex) + 1j * im_shift
    f = model.axis_eigenfunction(omega, m, level, t)
    h = numerics.second_derivative_profile(f, g.spacing)
    vt = 0.25 * complex(omega) ** 2 * t**2 + model.rational_term_1d(omega, m, t)
    core = slice(STENCIL_REACH, g.n_points - STENCIL_REACH)
    return f[core], (-h + (vt * f)[core]), g.spacing


def rayleigh_energy(spec: OscillatorSpec, config: REConfig, state: Eigenstate,
                    n_points: int = 4001) -> complex:
    """Quadrature energy <psi|H|psi>/<psi|psi> on the decoupled axes.

    Hermitian specs use the conjugated inner product; parity-time symmetric
    specs use the non-conjugated bilinear pairing (the original-coordinate
    integral deforms to the real tilde line, where all factors decay).
    """
    model.validate_config(spec, config)
    sys = model.decouple(spec)
    if not sys.is_real:
        raise DomainError("broken spectral reality: Rayleigh quotient undefined")
    conjugate = spec.is_hermitian
    shifts = np.imag(sys.coordinate_map.shift)
    norms = []
    cross = []
    for i, (w, m, lv) in enumerate(zip(sys.tilde_frequencies,
                                       config.codimensions, state.levels)):
        f, hf, h = _axis_quadrature(w, m, lv, n_points, im_shift=shifts[i])
        left = np.conj(f) if conjugate else f
        norms.append(numerics.integrate_samples(left * f, h))
        cross.append(numerics.integrate_samples(left * hf, h))
    denom = np.prod(norms)
    if abs(denom) < 1e-280:
        raise IndeterminateError("vanishing norm in the Rayleigh quotient")
    total = 0j
    for i in range(len(norms)):
        total += cross[i] * np.prod([norms[j] for j in range(len(norms)) if j != i])
    return complex(total / denom + sys.potential_constant)


# ------------------------------------------------------------- PT eigenvalue

def pt_parity_eigenvalue(spec: OscillatorSpec, config: REConfig,
                         state: Eigenstate, parity, grids,
                         fit_tolerance: float = 1e-4) -> complex:
    """Least-squares scalar s with conj(psi(P p)) = s * psi(p) on the grid.

    Raises IndeterminateError when the fit residual exceeds the tolerance
    (broken symmetry or a parity the state does not respect).
    """
    if isinstance(grids, Grid):
        grids = [grids]
    model.validate_config(spec, config)
    pts = _mesh(grids)
    psi = model.eigenfunction(spec, config, state, pts)
    image = np.tensordot(np.asarray(parity.matrix, dtype=complex), pts, axes=(1, 0))
    psi_p = model.eigenfunction(spec, config, state, image)
    w = np.conj(psi_p)
    scale = np.max(np.abs(psi))
    keep = np.abs(psi) > 1e-8 * scale
    s = np.sum(np.conj(psi[keep]) * w[keep]) / np.sum(np.abs(psi[keep]) ** 2)
    resid = float(np.max(np.abs(w[keep] - s * psi[keep])) / scale)
    if resid > fit_tolerance:
        raise IndeterminateError(
            f"parity-time fit residual {resid:.3e} exceeds {fit_tolerance:.0e}")
    return complex(s)


# ------------------------------------------------------------------- Gram

def orthogonality_gram(spec: OscillatorSpec, config: REConfig, states,
                       n_points: int = 4001) -> np.ndarray:
    """Gram matrix of normalized eigenfunctions (Hermitian specs only)."""
    if not spec.is_hermitian:
        raise DomainError("Gram matrix needs a Hermitian spec; "
                          "use the bilinear pairing for PT cases")
    model.validate_config(spec, config)
    sys = model.decouple(spec)
    axis_values = []
    for w, m in zip(sys.tilde_frequencies, config.codimensions):
        hw = 12.0 / np.sqrt(complex(w).real)
        g = Grid(0.0, hw, n_points | 1)
        t = g.points.astype(complex)
        axis_values.append((g, t, w, m))
    fs = []
    for st in states:
        per_axis = []
        for (g, t, w, m), lv in zip(axis_values, st.levels):
            per_axis.append((model.axis_eigenfunction(w, m, lv, t), g.spacing))
        fs.append(per_axis)
    n = len(states)
    gram = np.zeros((n, n), dtype=complex)
    for a in range(n):
        for b in range(n):
            val = 1.0 + 0j
            for (fa, h), (fb, _) in zip(fs[a], fs[b]):
                val *= numerics.integrate_samples(np.conj(fa) * fb, h)
            gram[a, b] = val
    d = np.sqrt(np.real(np.diag(gram)))
    return gram / np.outer(d, d)


# ---------------------------------------------------------------- pole scan

def pole_scan(spec: OscillatorSpec, config: REConfig, box=None) -> list:
    """Real zeros of each axis denominator along that axis's real parameter.

    Each tilde axis is scanned as t -> |H(s(t + shift))|^2, a real
    polynomial whose Sturm-isolated roots are the poles: a real shift yields
    the induced real polynomial directly, while an imaginary shift bounds
    the denominator away from zero unless the shift hits a zero exactly.
    An empty list certifies regularity on the scan box.
    """
    if len(config.codimensions) != spec.dimension:
        raise DomainError("one co-dimension per axis required")
    sys = model.decouple(spec)
    if box is None:
        q = _decay_diagonal(sys)
        box = [(-12.0 / np.sqrt(qi) - 1.0, 12.0 / np.sqrt(qi) + 1.0) for qi in q]
    hits = []
    for i, (w, m) in enumerate(zip(sys.tilde_frequencies, config.codimensions)):
        if m == 0:
            continue
        s = complex(np.sqrt(complex(w) / 2))
        shift = complex(sys.coordinate_map.shift[i])
        base = poly.pseudo_hermite(m)
        p1 = poly.compose_linear(base, s, s * shift)
        if abs(shift.imag) <= 1e-14 * max(1.0, abs(shift)) and abs(s.imag) == 0.0:
            scan = p1  # induced real polynomial, simple roots
        else:
            scan = poly.multiply(p1, poly.conjugate_coefficients(p1))
        lo, hi = float(box[i][0]), float(box[i][1])
        for root in poly.isolate_real_roots(scan, lo, hi):
            hits.append(PoleHit(i, float(root)))
    return hits


# ----------------------------------------------------- discretization oracle

def grid_spectrum(spec: OscillatorSpec, config: REConfig, box, n_points: int,
                  k: int) -> np.ndarray:
    """Lowest k eigenvalues of the second-order discretized 1D Hamiltonian."""
    if spec.dimension != 1:
        raise DomainError("the diagonalization oracle is one-dimensional")
    if not spec.is_hermitian:
        raise DomainError("the diagonalization oracle needs a real potential")
    model.validate_config(spec, config)
    if isinstance(box, Grid):
        grid = box
    else:
        lo, hi = box
        grid = Grid((lo + hi) / 2.0, (hi - lo) / 2.0, n_points)
    if pole_scan(spec, config, [(grid.center - grid.half_width,
                                 grid.center + grid.half_width)]):
        raise SingularityError("potential has a pole inside the box")
    v = model.re_potential(spec, config, grid.points[None, :]).real
    h = grid.spacing
    mat = TridiagonalMatrix(2.0 / h**2 + v, np.full(grid.n_points - 1, -1.0 / h**2))
    return numerics.lowest_eigenvalues(mat, k)


# ----------------------------------------------------- sampled metric checks

def pseudo_hermiticity_check(spec: OscillatorSpec, eta, sample_count: int = 100,
                             seed: int = 5) -> float:
    """max over samples of |V(eta p)* - V(p)| / (1 + |V(p)|).

    A pointwise reading of the metric condition; reported, not asserted,
    since the operator statement need not hold coordinate-pointwise.
    """
    if spec.dimension != 2:
        raise DomainError("the metric check is two-dimensional")
    mat = np.asarray(eta.matrix if hasattr(eta, "matrix") else eta, dtype=complex)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(sample_count):
        p = rng.normal(size=2)
        v = model.base_potential(spec, p)
        w = model.base_potential(spec, mat @ p)
        worst = max(worst, abs(np.conj(w) - v) / (1 + abs(v)))
    return worst


def pt_pointwise_deviation(spec: OscillatorSpec, parity, sample_count: int = 100,
                           seed: int = 11) -> float:
    """max over samples of |V(P p)* - V(p)| / (1 + |V(p)|)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(sample_count):
        p = rng.normal(size=spec.dimension)
        v = model.base_potential(spec, p)
        w = model.base_potential(spec, parity.apply(p))
        worst = max(worst, abs(np.conj(w) - v) / (1 + abs(v)))
    return worst
