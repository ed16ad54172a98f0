"""Independent numerical verification of the closed-form constructions:
Schrodinger residuals, Rayleigh quotients, parity-time eigenvalue
measurement, orthogonality Gram matrices, real-pole scans, a
grid-diagonalization oracle, and pseudo-hermiticity sampling.

Everything here avoids the closed-form energy formulas: energies are either
fitted from pointwise residuals, computed as quadrature quotients, or read
off a discretized Hamiltonian, so agreement with the model module is a real
check rather than a tautology.

Every check reads the spec's one decoupling, ``spec.system``. A verify job
compiles its state-independent work once into a ``MeshPlan`` (the
eigenfunction plan on its open mesh, V and the pole mask on the stencil
interior); the residual scan and the parity-time fits share each state's
eigenfunction on it. A parity operator that maps the grids onto themselves
reads psi on its image off the mesh psi by reversing and permuting axes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels, model, numerics, poly
from .errors import (
    DomainError,
    IndeterminateError,
    NumericalFailureError,
    ShapeError,
    SingularityError,
)
from .model import Eigenstate, OscillatorSpec, REConfig
from .numerics import Grid, STENCIL_REACH, TridiagonalMatrix

_POLE_GUARD = 0.35   # exclusion radius around denominator zeros (scaled units)
_GUARD_POINTS = 5    # extra guard band, in grid spacings, past the stencil reach
# Largest mesh the CLI builds: 161^3 fits, at about 120-160 B per point while
# a 3D verify job with two states runs (peak RSS above the interpreter's).
MAX_MESH_POINTS = 2**22
PT_FIT_TOLERANCE = 1e-4  # largest accepted residual of a parity-time fit


@dataclass(frozen=True)
class PoleHit:
    """Real zero of one axis denominator, in that axis's tilde parameter."""

    axis: int
    coordinate: float


# -------------------------------------------------------------- grid helpers

def _decay_diagonal(sys) -> np.ndarray:
    lin = sys.coordinate_map.linear
    w = np.array([complex(x).real for x in sys.tilde_frequencies])
    q = np.real(lin.T @ np.diag(w) @ lin)
    return np.diag(q).copy()


def suggest_grids(spec: OscillatorSpec, n_points: int = 2001,
                  spacing: float | None = None) -> list:
    """Per-axis grids covering the eigenfunction support (tails < 1e-30 in
    probability), centered on the real part of any coordinate shift. Axes
    whose decay values agree within 1e-12 relative get equal half-widths."""
    if spacing is not None and not (np.isfinite(spacing) and spacing > 0):
        raise DomainError(f"the grid spacing must be finite and positive, got {spacing!r}")
    q = _decay_diagonal(spec.system)
    # decay values equal but for rounding take the first such axis's value,
    # so that those axes get equal grids
    for i in range(len(q)):
        for j in range(i):
            if abs(q[i] - q[j]) <= 1e-12 * abs(q[j]):
                q[i] = q[j]
                break
    grids = []
    for i in range(spec.dimension):
        hw = numerics.default_half_width(q[i])
        center = -float(np.real(spec.system.coordinate_map.shift[i]))
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
    """The stencil interior of ``f``; an axis of length 1 is a broadcast axis
    and is kept whole (a grid has at least 9 points)."""
    sl = tuple(slice(None) if n == 1 else slice(STENCIL_REACH, n - STENCIL_REACH)
               for n in f.shape)
    return f[sl]


def _mesh(grids) -> list:
    """The open mesh: one array per axis holding that grid's points along its
    own axis and length 1 along the others (the ``np.ix_`` shape), so that
    the axes broadcast to the full mesh without it being built."""
    dim = len(grids)
    return [g.points.reshape([-1 if a == axis else 1 for a in range(dim)])
            for axis, g in enumerate(grids)]


def _signed_permutation(parity):
    """(perm, signs) with (P x)_i = signs[i] * x[perm[i]]."""
    mat = np.asarray(parity.matrix)
    perm = np.argmax(np.abs(mat), axis=1)
    signs = mat[np.arange(len(perm)), perm]
    if (sorted(perm) != list(range(len(perm))) or not np.all(np.abs(signs) == 1)
            or np.count_nonzero(mat) != len(perm)):
        raise DomainError(f"parity {parity.name} is not a signed permutation")
    return perm, signs


def _index_map(grids, parity):
    """How psi on the image P·mesh is read off psi on the mesh, or None.

    When P maps the grids onto themselves (grid i equals grid perm[i], and a
    flipped axis is centered on 0), the image of mesh point k is the mesh
    point whose index along axis i is k[perm[i]], reversed where P flips;
    the map is (flipped axes, axis order) for ``_on_image``."""
    perm, signs = _signed_permutation(parity)
    for i, (p, s) in enumerate(zip(perm, signs)):
        if grids[p] != grids[i] or (s < 0 and grids[i].center != 0):
            return None
    return tuple(np.flatnonzero(signs < 0)), tuple(np.argsort(perm))


def _on_image(psi: np.ndarray, index_map) -> np.ndarray:
    """psi on the parity image of the mesh, as a view of ``psi``."""
    flipped, order = index_map
    return np.transpose(np.flip(psi, axis=flipped), order)


def _pole_mask(plan: model.Plan, pole_guard: float) -> np.ndarray:
    """Boolean mask of interior points too close to a denominator zero,
    dilated by the stencil footprint plus a guard band, up to the mesh faces."""
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
        # contiguous along the shifted axis: ORs on a strided view run slower
        src = np.ascontiguousarray(np.moveaxis(bad, axis, 0))
        acc = src.copy()
        for shift in range(1, reach + 1):
            acc[shift:] |= src[:-shift]
            acc[:-shift] |= src[shift:]
        bad = np.moveaxis(acc, 0, axis)
    return bad


def _checked_plan(build, *args) -> model.Plan:
    """``build(*args)``, a ``model.Plan``, refused when its prefactor is not
    finite: an overflowing Gaussian would make psi NaN on the whole mesh."""
    with np.errstate(over="ignore", invalid="ignore"):
        plan = build(*args)
    if not np.isfinite(plan.prefactor).all():
        raise NumericalFailureError("the eigenfunction prefactor overflows on the mesh")
    return plan


def image_plan(plan: model.Plan, grids, parity) -> model.Plan:
    """The eigenfunction plan of ``plan``'s job on the parity image P·mesh of
    ``grids``: P permutes and flips the open mesh."""
    perm, signs = _signed_permutation(parity)
    cmap, mesh = plan.spec.system.coordinate_map, _mesh(grids)
    tilde = cmap.forward([s * mesh[p] for p, s in zip(perm, signs)])
    return _checked_plan(model.Plan, plan.spec, plan.config, tilde)


class ParityImage:
    """psi on the image P·mesh of a job's mesh, for one parity operator P.

    When P maps the grids onto themselves, psi there is psi on the mesh with
    its axes reversed and permuted (a view); only otherwise is an
    ``image_plan`` built, once, and shared by the job's states.
    """

    def __init__(self, plan: model.Plan, grids, parity):
        self.parity = parity
        self.index_map = _index_map(grids, parity)
        self.plan = image_plan(plan, grids, parity) if self.index_map is None else None

    def psi(self, state: Eigenstate, psi: np.ndarray) -> np.ndarray:
        """psi of ``state`` on the image, given ``psi`` on the mesh."""
        if self.plan is not None:
            return self.plan.psi(state)
        return _on_image(psi, self.index_map)


class MeshPlan:
    """A verify job compiled once for its open mesh: the eigenfunction plan
    (``model.Plan``), V on the interior and the pole-guard mask, which is
    built from the plan's scaled parameters.

    Each state then costs one ``plan.psi``, which ``residual`` and the
    parity-time fits (through a ``ParityImage`` per operator) share.
    Nothing here is modified after construction, so threads may share a
    plan.
    """

    def __init__(self, spec: OscillatorSpec, config: REConfig, grids,
                 pole_guard: float = _POLE_GUARD):
        self.grids = _grid_list(grids)
        if len(self.grids) != spec.dimension:
            raise ShapeError("one grid per axis required")
        mesh = _mesh(self.grids)
        self.plan = _checked_plan(model.plan, spec, config, mesh)
        # V on the interior only: the same per-point arithmetic as V on the
        # mesh, trimmed, without building it on the mesh
        self.potential = model._potential(spec, config, [_interior(x) for x in mesh],
                                          [_interior(u) for u in self.plan.scaled])
        self.keep = ~_pole_mask(self.plan, pole_guard)

    def residual(self, state: Eigenstate, psi: np.ndarray):
        """(max_residual, fitted_offset) of ``state``, whose eigenfunction on
        the mesh is ``psi``; see ``residual_scan``."""
        if not self.keep.any():
            raise SingularityError("no interior points survive the pole guard")
        r = _kernels.laplacian(psi, [g.spacing for g in self.grids])
        r = np.subtract(self.potential * _interior(psi), r, out=r)
        if self.keep.all():
            pk = _interior(psi).reshape(-1)
            rk = r.reshape(-1)
        else:
            pk = _interior(psi)[self.keep]
            rk = r[self.keep]
        del r  # only the kept points are needed from here on
        sys = self.plan.spec.system
        e_rel = model.relative_energy(self.plan.config, state, sys)

        # three reweighted least-squares passes; every product keeps its
        # operand order, so c and the residual round as written out per pass:
        # num = sum(w * conj(pk) * (rk - e_rel * pk)), den = sum(w * |pk|**2),
        # err = |rk - (e_rel + c) * pk|, w = err + 1e-30
        d = rk - e_rel * pk
        a = np.abs(pk)
        a **= 2
        buf = np.empty_like(pk)
        weights = np.ones(pk.shape[0])
        err = np.empty(pk.shape[0])
        for last in (False, False, True):
            np.conj(pk, out=buf)
            np.multiply(weights, buf, out=buf)
            num = np.sum(np.multiply(buf, d, out=buf))
            den = np.sum(np.multiply(weights, a, out=err))
            c = num / den
            np.multiply(e_rel + c, pk, out=buf)
            np.abs(np.subtract(rk, buf, out=buf), out=err)
            if not last:
                np.add(err, 1e-30, out=weights)
        wmax = max(complex(w).real for w in sys.tilde_frequencies)
        scale = np.max(np.abs(pk, out=a)) * (abs(e_rel) + wmax)
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

def _tilde_axis(omega, n_points: int, im_shift: float = 0.0):
    """The quadrature grid of one tilde axis, centered on 0 and as wide as
    its decay needs, and its contour t = grid point + i*im_shift."""
    g = Grid(0.0, numerics.default_half_width(complex(omega).real), n_points | 1)
    return g, g.points.astype(complex) + 1j * im_shift


def _axis_quadrature(omega, m: int, level, n_points: int, im_shift: float = 0.0):
    """1D ingredients (f, -f'' + V f, spacing) along one axis contour.

    The contour is the axis's natural line Im t = im_shift: the real tilde
    line for rotated axes, the displaced line of an imaginary coordinate
    shift (which keeps odd co-dimension denominators nodeless).
    """
    g, t = _tilde_axis(omega, n_points, im_shift)
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
    sys = spec.system
    if not sys.is_real:
        raise DomainError("broken spectral reality: Rayleigh quotient undefined")
    conjugate = spec.is_hermitian
    norms, cross = [], []
    for w, m, lv, shift in zip(sys.tilde_frequencies, config.codimensions, state.levels,
                               np.imag(sys.coordinate_map.shift)):
        f, hf, h = _axis_quadrature(w, m, lv, n_points, im_shift=shift)
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
    plan = _checked_plan(model.plan, spec, config, _mesh(grids))
    psi = plan.psi(state)
    image = ParityImage(plan, grids, parity)
    return pt_fit(pt_reference(psi), image.psi(state, psi), fit_tolerance)


def pt_reference(psi: np.ndarray):
    """What a parity-time fit keeps of psi on the mesh: the mask of points
    where |psi| exceeds 1e-8 of its maximum, psi there, and that maximum.
    The fits of one state under several operators share it."""
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
    axes = [(*_tilde_axis(w, n_points), w, m)
            for w, m in zip(spec.system.tilde_frequencies, config.codimensions)]
    fs = [[(model.axis_eigenfunction(w, m, lv, t), g.spacing)
           for (g, t, w, m), lv in zip(axes, st.levels)] for st in states]
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
    sys = spec.system
    if box is None:
        box = [(-hw - 1.0, hw + 1.0)
               for hw in map(numerics.default_half_width, _decay_diagonal(sys))]
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
