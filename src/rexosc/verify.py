"""Independent numerical verification of the closed-form constructions:
Schrodinger residuals, Rayleigh quotients, parity-time eigenvalue
measurement, orthogonality Gram matrices, real-pole scans and a
grid-diagonalization oracle. Which parity operators a spec's potential is
PT-invariant under is decided exactly in ``model.pt_deviation``.

The residual checks each state against its closed-form energy
(``model.ground_energy`` plus ``model.relative_energy``): a wrong energy, like
a wrong eigenfunction or potential, leaves a residual. The other energy checks
avoid the closed forms: energies are computed as quadrature quotients or read
off a discretized Hamiltonian, so agreement with the model module is a real
check rather than a tautology.

Every check reads the spec's one decoupling, ``spec.system``. A verify job
compiles its state-independent work once into a ``MeshPlan``, built a slab
of axis-0 planes at a time and a tilde axis at a time: it keeps the
eigenfunction prefactor on its open mesh, and V and the pole mask on the
stencil interior, never the mesh-sized scaled parameters u_i. Each axis's
denominator h_i serves its prefactor factor and its rational term of V, and
its Gaussian takes exp on 2D sub-meshes only (``model._PairGaussian``). The
residual scan and the parity-time fits share each state's eigenfunction on
it. A parity operator that maps the grids onto themselves reads psi on its
image off the mesh psi by reversing and permuting axes; any other gets a
``SlabPlan`` on the image mesh.

The slabs of the build, of each psi, of each residual and of each PT
reference are independent, and run on up to one thread per CPU
(``_kernels.map_slabs``), the calling thread included: every output and
every error is the serial loop's, bit for bit.
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
# Largest mesh the CLI builds: 161^3 fits, at about 55-60 B per point while
# a 3D verify job with two states runs (peak RSS above the interpreter's),
# plus a few MB per extra slab thread (one slab's temporaries at a time).
MAX_MESH_POINTS = 2**22
PT_FIT_TOLERANCE = 1e-4  # largest accepted residual of a parity-time fit
_QUADRATURE_POINTS = 4001  # points per tilde axis of the Rayleigh and Gram integrals


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
    whose decay values agree within 1e-12 relative get equal half-widths.
    A mesh above ``MAX_MESH_POINTS`` is refused before any grid is built."""
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
    half_widths = [numerics.default_half_width(x) for x in q]
    sizes = [n_points] * spec.dimension
    if spacing is not None:
        spans = [2 * float(hw) / spacing for hw in half_widths]
        if not all(map(math.isfinite, spans)):
            raise DomainError(f"the grid spacing {spacing!r} is too small")
        sizes = [math.ceil(span) | 1 for span in spans]
    points = math.prod(sizes)
    if points > MAX_MESH_POINTS:
        count = str(points) if points < 10**15 else f"about 1e{len(str(points)) - 1}"
        raise DomainError(f"a mesh of {count} points exceeds the limit of {MAX_MESH_POINTS}; "
                          + ("lower --points" if spacing is None else "raise --spacing"))
    return [Grid(-float(np.real(shift)), hw, n) for shift, hw, n
            in zip(spec.system.coordinate_map.shift, half_widths, sizes)]


def _grid_list(grids) -> list:
    return [grids] if isinstance(grids, Grid) else list(grids)


def _window(f: np.ndarray, rows: slice) -> np.ndarray:
    """``f`` on ``rows`` of axis 0 and the stencil interior of the other axes;
    an axis of length 1 is a broadcast axis and is kept whole (a grid has at
    least 9 points)."""
    return f[tuple(slice(None) if n == 1 else rows if axis == 0
                   else slice(STENCIL_REACH, n - STENCIL_REACH)
                   for axis, n in enumerate(f.shape))]


def _interior(f: np.ndarray) -> np.ndarray:
    """The stencil interior of ``f``."""
    return _window(f, slice(STENCIL_REACH, f.shape[0] - STENCIL_REACH))


def _slabs(shape) -> list:
    """Axis-0 slices of a complex array of ``shape``: the stencil interior in
    slabs of about ``_kernels._SLAB_BYTES``, the first and last widened to
    the mesh faces. Each holds two planes at least, of the mesh and of the
    interior, so that no slab of a sub-mesh array, V's included, is one
    element long (see ``_kernels``)."""
    n, reach = shape[0], STENCIL_REACH
    step = max(2, _kernels._SLAB_BYTES // (16 * math.prod(shape[1:])))
    starts = [0] + [i for i in range(reach + step, n - reach, step) if n - reach - i > 1]
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


def _on_rows(points, rows: slice) -> list:
    """Per-axis arrays of an open mesh on ``rows`` of axis 0."""
    return [x if x.shape[0] == 1 else x[rows] for x in points]


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


def _pole_hits(bad: np.ndarray, scaled, codimensions) -> None:
    """Mark in ``bad`` the points whose scaled parameters ``scaled`` (one per
    tilde axis, broadcasting to ``bad``) lie within the guard radius of a
    denominator zero.

    |u - z| >= |Im z| - |Im u|, so a zero z with |Im z| - max |Im u| at
    least the guard radius, plus a margin far above the rounding of
    |u - z|, marks no point and is skipped (the zeros of even co-dimension
    off the real line, for real u)."""
    for u, m in zip(scaled, codimensions):
        if m == 0:
            continue
        reach = None
        for z in poly.pseudo_hermite_zeros(m):
            if abs(z.imag) > _POLE_GUARD:
                if reach is None:
                    reach = max(np.max(u.imag, initial=0.0), -np.min(u.imag, initial=0.0))
                if abs(z.imag) - reach >= _POLE_GUARD + 1e-9:
                    continue
            bad |= np.abs(u - z) < _POLE_GUARD


def _guard_band(bad: np.ndarray) -> np.ndarray:
    """``bad`` dilated by the stencil footprint plus a guard band, up to the
    mesh faces."""
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


class SlabPlan:
    """The closed-form eigenfunctions of a job's states on the open mesh of
    ``grids``, or on its image P·mesh under a ``parity`` operator P (which
    permutes and flips the open mesh).

    The plan is built a slab of axis-0 planes at a time (``_slabs``): each
    slab forms the factors gauss_i/h_i of a ``model.Plan`` there, tilde axis
    by tilde axis (``model._axis_terms``), and leaves their product in the
    mesh-sized prefactor, which is all the plan keeps (16 B per point). A
    Gaussian built from 2D pair factors (``model._PairGaussian``) forms the
    factor that no slab changes once, for the whole plan. ``psi(state)``
    recomputes each slab's scaled parameters u_i of the state's excited axes
    only, an affine map, and multiplies the prefactor by the phases and
    numerators there. A mesh that is one slab keeps its u_i. Every value is
    the whole-mesh ``model.Plan``'s bit for bit: each point meets the same
    operations in the same operand order. Where that prefactor is not
    finite on a slab whose Gaussians come from pair factors, it is formed
    with the direct Gaussian instead (``_slab``). The slabs are built, and
    psi formed, on ``_kernels.map_slabs``'s threads.
    """

    def __init__(self, spec: OscillatorSpec, config: REConfig, grids, parity=None):
        self.spec, self.config, self.parity = spec, config, parity
        self.grids = _grid_list(grids)
        if len(self.grids) != spec.dimension:
            raise ShapeError("one grid per axis required")
        model.validate_config(spec, config)
        shape = tuple(g.n_points for g in self.grids)
        self.slabs = _slabs(shape)
        one = len(self.slabs) == 1
        self.scaled = [] if one else None  # u_i, kept only when the mesh is one slab
        self.prefactor = None if one else np.empty(shape, complex)
        self._psi = None
        self._allocate()
        points = self._points()
        with np.errstate(over="ignore", invalid="ignore"):
            gaussians = model._pair_gaussians(spec.system, points)
            finite = _kernels.map_slabs(lambda rows: self._slab(points, gaussians, rows),
                                        self.slabs)
        # checked after the last slab, as on the whole mesh: a denominator
        # zero in any slab is reported first
        if not all(prefactor for prefactor, _ in finite):
            # an overflowing Gaussian would make psi NaN on the whole mesh
            raise NumericalFailureError("the eigenfunction prefactor overflows on the mesh")
        if not all(extra for _, extra in finite):
            raise NumericalFailureError("V overflows on the mesh")

    def _slab(self, points, gaussians, rows: slice) -> tuple:
        """Build the slab ``rows``: its prefactor, stored in the plan's, and
        what ``_add_axis`` forms there (a ``MeshPlan``'s V); return whether
        each is finite."""
        slab, extra = _on_rows(points, rows), None
        # a plan of several slabs forms the product in its own rows
        prefactor = None if self.scaled is not None else self.prefactor[rows]
        for axis, gaussian in enumerate(gaussians):
            u, h, ratio = model._axis_terms(self.spec, self.config, axis, slab, gaussian)
            if self.scaled is not None:
                prefactor = model._times(prefactor, ratio)
            elif axis == 0:
                prefactor[...] = ratio
            else:
                prefactor *= ratio
            del ratio  # before V's temporaries are formed
            extra = self._add_axis(rows, slab, axis, u, h, extra)
            if self.scaled is not None:
                self.scaled.append(u)
            del u, h  # no slab-sized array outlives its axis
        finite = np.isfinite(prefactor)
        if not finite.all() and any(g is not None for g in gaussians):
            # a pair factor can pass exp's range where the whole Gaussian
            # does not (``model._PairGaussian``): there the direct one is used
            direct = None
            for axis in range(len(gaussians)):
                _, _, ratio = model._axis_terms(self.spec, self.config, axis, slab, None)
                direct = model._times(direct, ratio)
            np.copyto(prefactor, direct, where=~finite)
            finite = np.isfinite(prefactor)
        if self.scaled is not None:
            self.prefactor = prefactor
        return bool(finite.all()), extra is None or bool(np.isfinite(extra).all())

    def _points(self) -> list:
        """The per-axis point arrays: the open mesh, or its parity image."""
        mesh = _mesh(self.grids)
        if self.parity is None:
            return mesh
        perm, signs = _signed_permutation(self.parity)
        return [s * mesh[p] for p, s in zip(perm, signs)]

    def _allocate(self) -> None:
        """Allocate what the slabs write besides the prefactor, before any
        slab is built: nothing here."""

    def _add_axis(self, rows: slice, points, axis: int, u, h, extra):
        """What the plan keeps of a tilde axis on a slab besides its factor of
        the prefactor, given its u and h there and what the slab's earlier
        axes returned: nothing here."""
        return None

    def _scaled_on(self, points, axis: int):
        """u_axis on the slab ``points``, as the build formed it."""
        if self.scaled is not None:
            return self.scaled[axis]
        sys = self.spec.system
        with np.errstate(over="ignore", invalid="ignore"):
            t = sys.coordinate_map.forward_axis(axis, points)
            return model.scaled_parameter(sys.tilde_frequencies[axis], t, out=t)

    def psi(self, state: Eigenstate) -> np.ndarray:
        """Closed-form eigenfunction (unnormalized) of ``state`` on the mesh,
        in the plan's one psi buffer, which the next call writes over."""
        if len(state.levels) != len(self.config.codimensions):
            raise DomainError("one level per axis required")
        if self._psi is None:
            self._psi = np.empty(self.prefactor.shape, complex)
        points = self._points() if self.scaled is None else None

        def slab(rows):
            out, src = self._psi[rows], self.prefactor[rows]
            on_rows = None if points is None else _on_rows(points, rows)
            for axis, (m, lv) in enumerate(zip(self.config.codimensions, state.levels)):
                # a ground axis contributes its phase alone, with no u;
                # (prefactor, numerator) in this order, then in place (see
                # ``model.Plan.psi``)
                u = None if lv is None else self._scaled_on(on_rows, axis)
                np.multiply(src, model._numerator(m, lv, u), out=out)
                src = out

        _kernels.map_slabs(slab, self.slabs)
        return self._psi


class ParityImage:
    """psi on the image P·mesh of a job's mesh, for one parity operator P.

    When P maps the grids onto themselves, psi there is psi on the mesh with
    its axes reversed and permuted (a view); only otherwise is a ``SlabPlan``
    built on the image, once, and shared by the job's states.
    """

    def __init__(self, plan: SlabPlan, parity):
        self.parity = parity
        self.index_map = _index_map(plan.grids, parity)
        self.plan = (SlabPlan(plan.spec, plan.config, plan.grids, parity)
                     if self.index_map is None else None)

    def psi(self, state: Eigenstate, psi: np.ndarray) -> np.ndarray:
        """psi of ``state`` on the image, given ``psi`` on the mesh."""
        if self.plan is not None:
            return self.plan.psi(state)
        return _on_image(psi, self.index_map)


class MeshPlan(SlabPlan):
    """A verify job compiled once for its open mesh: the eigenfunction
    prefactor (a ``SlabPlan``), V on the stencil interior and the pole-guard
    mask ``keep`` there.

    Each slab of the build also forms V and the pole-guard hits on its
    interior planes, each axis's share from the u_i and h_i its prefactor
    factor was formed from, so every denominator is evaluated and checked
    once. The job holds 16 B per mesh point and 17 B per interior point.
    Each state then costs one ``psi``, which ``residual`` and the parity-time
    fits (through a ``ParityImage`` per operator) share.
    """

    def __init__(self, spec: OscillatorSpec, config: REConfig, grids):
        super().__init__(spec, config, grids)
        self.keep = ~_guard_band(self._hits)
        del self._hits

    def _allocate(self) -> None:
        """The pole-guard hits and, on a mesh of several slabs, V, on the
        stencil interior (one slab's V is kept as it is)."""
        shape = tuple(g.n_points - 2 * STENCIL_REACH for g in self.grids)
        self._hits = np.zeros(shape, dtype=bool)
        self.potential = np.empty(shape, complex) if len(self.slabs) > 1 else None

    def _add_axis(self, rows: slice, points, axis: int, u, h, v):
        """V and the pole-guard hits on the slab's interior planes: V as
        ``model._potential`` forms it on the mesh, trimmed, starts from the
        base potential at axis 0, takes each axis's rational term from the
        slab's u and h, and is stored after the last axis. Returns V so far,
        None when the slab has no interior planes."""
        n = self.grids[0].n_points
        lo, hi = max(rows.start, STENCIL_REACH), min(rows.stop, n - STENCIL_REACH)
        if lo >= hi:
            return None
        local = slice(lo - rows.start, hi - rows.start)
        target = slice(lo - STENCIL_REACH, hi - STENCIL_REACH)
        if axis == 0:
            v = model.base_potential(self.spec, [_window(x, local) for x in points])
        u, h = _window(u, local), _window(h, local)
        w, m = self.spec.system.tilde_frequencies[axis], self.config.codimensions[axis]
        v = model._rational_term(w, m, u, h) + v
        _pole_hits(self._hits[target], [u], [m])
        if axis == len(self.grids) - 1:
            if self.potential is None:
                self.potential = v
            else:
                self.potential[target] = v
        return v

    def residual(self, state: Eigenstate, psi: np.ndarray):
        """(max_residual, energy) of ``state``, whose eigenfunction on the
        mesh is ``psi``; see ``residual_scan``."""
        if not self.keep.any():
            raise SingularityError("no interior points survive the pole guard")
        spec, config = self.spec, self.config
        e_rel = model.relative_energy(config, state, spec.system)
        energy = model.ground_energy(spec, config) + e_rel
        spacings = [g.spacing for g in self.grids]
        p = _interior(psi)
        # |V·psi - lap(psi) - E·psi| and |psi| at the kept points, in slabs of
        # axis 0, each Laplacian from its rows of psi and a halo of the
        # stencil reach: no mesh-sized temporary
        step = max(1, _kernels._SLAB_BYTES // psi[0].nbytes)
        rows = min(step, p.shape[0])

        def buffers():
            # the Laplacian and its two work arrays, which then hold V·psi and
            # E·psi and, in their real parts, the magnitudes
            return [np.empty((rows,) + p.shape[1:], complex) for _ in range(3)]

        def slab(i, own):
            s, k = slice(i, i + step), min(step, p.shape[0] - i)
            lap, vp, ep = (b[:k] for b in own)
            r = _kernels.laplacian(psi[i:i + step + 2 * STENCIL_REACH], spacings, lap, own[1:])
            rs = np.subtract(np.multiply(self.potential[s], p[s], out=vp), r, out=r)
            rs -= np.multiply(energy, p[s], out=ep)
            keep = self.keep[s]
            err = np.max(np.abs(rs, out=vp.real), where=keep, initial=0.0)
            top = np.max(np.abs(p[s], out=ep.real), where=keep, initial=0.0)
            return err, top

        with np.errstate(over="ignore", invalid="ignore"):
            err, top = zip(*_kernels.map_slabs(slab, range(0, p.shape[0], step), buffers))
            wmax = max(complex(w).real for w in spec.system.tilde_frequencies)
            res = float(np.max(err) / (np.max(top) * (abs(e_rel) + wmax)))
        if not math.isfinite(res):
            raise NumericalFailureError("the residual is not finite")
        return res, complex(energy)


# ---------------------------------------------------------------- residuals

def residual_scan(spec: OscillatorSpec, config: REConfig, state: Eigenstate, grids):
    """Pointwise Schrodinger residual of the closed-form eigenfunction.

    Computes r = -lap(psi) + V*psi - E*psi on the grid interior, off the
    pole guard, with E = ``model.ground_energy`` + ``model.relative_energy``,
    and returns (max_residual, E), the residual max|r| normalized by
    max|psi| * (|E_rel| + max tilde frequency). A wrong energy shows in the
    residual.
    """
    job = MeshPlan(spec, config, grids)
    return job.residual(state, job.psi(state))


# ------------------------------------------------------- Rayleigh quotients

def _tilde_axis(omega, im_shift: float = 0.0):
    """The quadrature grid of one tilde axis, centered on 0 and as wide as
    its decay needs, and its contour t = grid point + i*im_shift."""
    g = Grid(0.0, numerics.default_half_width(complex(omega).real), _QUADRATURE_POINTS)
    return g, g.points.astype(complex) + 1j * im_shift


def _axis_quadrature(omega, m: int, level, im_shift: float = 0.0):
    """1D ingredients (f, -f'' + V f, spacing) along one axis contour.

    The contour is the axis's natural line Im t = im_shift: the real tilde
    line for rotated axes, the displaced line of an imaginary coordinate
    shift (which keeps odd co-dimension denominators nodeless).
    """
    g, t = _tilde_axis(omega, im_shift)
    f = model.axis_eigenfunction(omega, m, level, t)
    h = numerics.second_derivative_profile(f, g.spacing)
    vt = 0.25 * complex(omega) ** 2 * t**2 + model.rational_term_1d(omega, m, t)
    core = slice(STENCIL_REACH, g.n_points - STENCIL_REACH)
    return f[core], (-h + (vt * f)[core]), g.spacing


def rayleigh_energy(spec: OscillatorSpec, config: REConfig, state: Eigenstate) -> complex:
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
        f, hf, h = _axis_quadrature(w, m, lv, im_shift=shift)
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
                         state: Eigenstate, parity, grids) -> complex:
    """Least-squares scalar s with conj(psi(P p)) = s * psi(p) on the grid.

    Raises IndeterminateError when the fit residual exceeds PT_FIT_TOLERANCE
    (broken symmetry or a parity the state does not respect).
    """
    plan = SlabPlan(spec, config, grids)
    psi = plan.psi(state)
    image = ParityImage(plan, parity)
    return pt_fit(pt_reference(psi), image.psi(state, psi))


def pt_reference(psi: np.ndarray):
    """What a parity-time fit keeps of psi on the mesh: the mask of points
    where |psi| exceeds 1e-8 of its maximum, psi there, and that maximum.
    The fits of one state under several operators share it. |psi| is formed
    a slab at a time, twice: no mesh-sized real temporary."""
    slabs = _slabs(psi.shape)
    scale = np.max(_kernels.map_slabs(lambda s: np.max(np.abs(psi[s])), slabs))
    keep = np.empty(psi.shape, dtype=bool)
    _kernels.map_slabs(lambda s: np.greater(np.abs(psi[s]), 1e-8 * scale, out=keep[s]), slabs)
    return keep, psi[keep], scale


def pt_fit(reference, psi_p: np.ndarray) -> complex:
    """The fit of ``pt_parity_eigenvalue`` from the ``pt_reference`` of psi
    and psi on the parity image of the mesh."""
    keep, pk, scale = reference
    # conj(psi_p) * s against psi at the kept points, in two buffers of their
    # size; each product keeps the operand order of
    # sum(conj(pk) * w) / sum(|pk|**2) and |w - s * pk|, and one kept point
    # is not multiplied in place (see ``_kernels``)
    w = psi_p[keep]
    np.conj(w, out=w)
    t = np.conj(pk)
    t = np.multiply(t, w, out=t if t.size > 1 else None)
    a = np.abs(pk)
    a **= 2
    s = np.sum(t) / np.sum(a)
    np.multiply(s, pk, out=t)
    np.subtract(w, t, out=t)
    resid = float(np.max(np.abs(t, out=a)) / scale)
    if resid > PT_FIT_TOLERANCE:
        raise IndeterminateError(
            f"parity-time fit residual {resid:.3e} exceeds {PT_FIT_TOLERANCE:.0e}")
    return complex(s)


# ------------------------------------------------------------------- Gram

def orthogonality_gram(spec: OscillatorSpec, config: REConfig, states) -> np.ndarray:
    """Gram matrix of normalized eigenfunctions (Hermitian specs only)."""
    if not spec.is_hermitian:
        raise DomainError("Gram matrix needs a Hermitian spec; "
                          "use the bilinear pairing for PT cases")
    model.validate_config(spec, config)
    axes = [(*_tilde_axis(w), w, m)
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
    """Lowest k eigenvalues of the second-order discretized 1D Hamiltonian
    on ``n_points`` points spanning ``box`` = (lo, hi)."""
    if spec.dimension != 1:
        raise DomainError("the diagonalization oracle is one-dimensional")
    if not spec.is_hermitian:
        raise DomainError("the diagonalization oracle needs a real potential")
    model.validate_config(spec, config)
    lo, hi = box
    grid = Grid((lo + hi) / 2.0, (hi - lo) / 2.0, n_points)
    if pole_scan(spec, config, [(grid.center - grid.half_width,
                                 grid.center + grid.half_width)]):
        raise SingularityError("potential has a pole inside the box")
    v = model.re_potential(spec, config, grid.points[None, :]).real
    h = grid.spacing
    mat = TridiagonalMatrix(2.0 / h**2 + v, np.full(grid.n_points - 1, -1.0 / h**2))
    return numerics.lowest_eigenvalues(mat, k)

