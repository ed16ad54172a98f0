"""Independent numerical verification of the closed-form constructions:
Schrodinger residuals, Rayleigh quotients, parity-time eigenvalue
measurement, orthogonality Gram matrices, real-pole scans, a
grid-diagonalization oracle, and pseudo-hermiticity sampling.

Everything here avoids the closed-form energy formulas: energies are either
fitted from pointwise residuals, computed as quadrature quotients, or read
off a discretized Hamiltonian, so agreement with the model module is a real
check rather than a tautology.

A verify job compiles its state-independent work once into a ``MeshPlan``
(the eigenfunction plan, V and the pole mask on its mesh); the residual
scan and the parity-time fits share each state's eigenfunction on it.
"""
from __future__ import annotations

import math
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
# Largest mesh the CLI builds: 161^3 fits, at roughly 250 B per point while
# a verify job runs.
MAX_MESH_POINTS = 2**22
PT_FIT_TOLERANCE = 1e-4  # largest accepted residual of a parity-time fit


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
    if spacing is not None and not (np.isfinite(spacing) and spacing > 0):
        raise DomainError(f"the grid spacing must be finite and positive, got {spacing!r}")
    sys = model.decouple(spec)
    q = _decay_diagonal(sys)
    grids = []
    for i in range(spec.dimension):
        hw = 12.0 / np.sqrt(q[i])
        center = -float(np.real(sys.coordinate_map.shift[i]))
        n = n_points
        if spacing is not None:
            span = 2 * float(hw) / spacing
            if not math.isfinite(span):
                raise DomainError(f"the grid spacing {spacing!r} is too small")
            n = math.ceil(span) | 1
        grids.append(Grid(center, hw, n))
    return grids


def _grid_list(grids) -> list:
    return [grids] if isinstance(grids, Grid) else list(grids)


def _interior(f: np.ndarray) -> np.ndarray:
    sl = tuple(slice(STENCIL_REACH, n - STENCIL_REACH) for n in f.shape)
    return f[sl]


def _mesh(grids) -> np.ndarray:
    """The complex mesh, coordinate index first, filled axis by axis: no real
    meshgrid copies, whose churn raised the peak RSS of a verify job."""
    shape = tuple(g.n_points for g in grids)
    mesh = np.empty((len(grids),) + shape, dtype=complex)
    for axis, g in enumerate(grids):
        mesh[axis] = g.points.reshape([-1 if a == axis else 1 for a in range(len(shape))])
    return mesh


def _pole_mask(plan: model.Plan, pole_guard: float) -> np.ndarray:
    """Boolean mask of interior points too close to a denominator zero,
    dilated by the stencil footprint plus a guard band."""
    bad = np.zeros(_interior(plan.prefactor).shape, dtype=bool)
    for u, m in zip(plan.scaled, plan.config.codimensions):
        if m == 0:
            continue
        u = _interior(u)
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


def _laplacian(psi: np.ndarray, grids) -> np.ndarray:
    """The stencil Laplacian of ``psi`` on the interior of the mesh."""
    lap = None
    for axis, grid in enumerate(grids):
        d2 = numerics.second_derivative_profile(psi, grid.spacing, axis)
        # trim the remaining axes to the common interior
        sl = tuple(slice(None) if a == axis else
                   slice(STENCIL_REACH, psi.shape[a] - STENCIL_REACH)
                   for a in range(psi.ndim))
        if lap is None:
            lap = d2[sl]
        else:
            lap += d2[sl]
    return lap


def image_plan(plan: model.Plan, grids, parity) -> model.Plan:
    """The eigenfunction plan of ``plan``'s job on the parity image P·mesh of
    ``grids``, reusing its decoupling; a verify job builds one per parity
    operator and shares it across its states."""
    tilde = plan.system.coordinate_map.forward(
        np.tensordot(np.asarray(parity.matrix, dtype=complex), _mesh(grids), axes=(1, 0)))
    return model.Plan(plan.spec, plan.config, plan.system, tilde)


class MeshPlan:
    """A verify job compiled once for its mesh: the eigenfunction plan
    (``model.Plan``), V on the interior and the pole-guard mask, which is
    built from the plan's scaled parameters. The mesh itself is not kept.

    Each state then costs one ``plan.psi``, which ``residual`` and the
    parity-time fits share: a fit takes the state's ``pt_reference`` of psi
    and psi on an ``image_plan``. Nothing here is modified after
    construction, so threads may share a plan.
    """

    def __init__(self, spec: OscillatorSpec, config: REConfig, grids,
                 pole_guard: float = _POLE_GUARD):
        self.grids = _grid_list(grids)
        if len(self.grids) != spec.dimension:
            raise ShapeError("one grid per axis required")
        mesh = _mesh(self.grids)
        self.plan = model.plan(spec, config, mesh)
        self.potential = _interior(self.plan.potential(mesh))
        del mesh
        self.keep = ~_pole_mask(self.plan, pole_guard)

    def residual(self, state: Eigenstate, psi: np.ndarray):
        """(max_residual, fitted_offset) of ``state``, whose eigenfunction on
        the mesh is ``psi``; see ``residual_scan``."""
        if not self.keep.any():
            raise SingularityError("no interior points survive the pole guard")
        r = self.potential * _interior(psi)
        r -= _laplacian(psi, self.grids)
        pk = _interior(psi)[self.keep]
        rk = r[self.keep]
        del r  # only the kept points are needed from here on
        sys = self.plan.system
        e_rel = model.relative_energy(self.plan.config, state, sys)

        weights = np.ones(pk.shape[0])
        for _ in range(3):
            num = np.sum(weights * np.conj(pk) * (rk - e_rel * pk))
            den = np.sum(weights * np.abs(pk) ** 2)
            c = num / den
            err = np.abs(rk - (e_rel + c) * pk)
            weights = err + 1e-30
        wmax = max(complex(w).real for w in sys.tilde_frequencies)
        scale = np.max(np.abs(pk)) * (abs(e_rel) + wmax)
        return float(np.max(err) / scale), complex(c)


# ---------------------------------------------------------------- residuals

def residual_scan(spec: OscillatorSpec, config: REConfig, state: Eigenstate,
                  grids, pole_guard: float = _POLE_GUARD):
    """Pointwise Schrodinger residual of the closed-form eigenfunction.

    Computes r = -lap(psi) + V*psi on the grid interior, fits the constant
    c minimizing max|r - (E_rel + c) psi| (three reweighted least-squares
    passes), and returns (max_residual, fitted_offset) with the residual
    normalized by max|psi| * (|E_rel| + max tilde frequency).
    """
    job = MeshPlan(spec, config, grids, pole_guard)
    return job.residual(state, job.plan.psi(state))


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
                         fit_tolerance: float = PT_FIT_TOLERANCE) -> complex:
    """Least-squares scalar s with conj(psi(P p)) = s * psi(p) on the grid.

    Raises IndeterminateError when the fit residual exceeds the tolerance
    (broken symmetry or a parity the state does not respect).
    """
    grids = _grid_list(grids)
    plan = model.plan(spec, config, _mesh(grids))
    return pt_fit(pt_reference(plan.psi(state)),
                  image_plan(plan, grids, parity).psi(state), fit_tolerance)


def pt_reference(psi: np.ndarray):
    """What a parity-time fit keeps of psi on the mesh: the mask of points
    where |psi| exceeds 1e-8 of its maximum, psi there, and that maximum.
    It is a small fraction of psi, so a job can hold one per state."""
    magnitude = np.abs(psi)
    scale = np.max(magnitude)
    keep = magnitude > 1e-8 * scale
    return keep, psi[keep], scale


def pt_fit(reference, psi_p: np.ndarray, fit_tolerance: float) -> complex:
    """The fit of ``pt_parity_eigenvalue`` from the ``pt_reference`` of psi
    and psi on the parity image of the mesh."""
    keep, pk, scale = reference
    w = np.conj(psi_p[keep])
    s = np.sum(np.conj(pk) * w) / np.sum(np.abs(pk) ** 2)
    resid = float(np.max(np.abs(w - s * pk)) / scale)
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
