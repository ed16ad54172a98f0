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

Every check reads the spec's one decoupling, ``spec.system``, and takes psi
from ``model.Plan``, the package's one evaluator, on the mesh's slabs
(``_slabs``). A verify job compiles its state-independent work once into a
``MeshPlan``, a ``model.Plan`` whose build adds V and the pole mask on the
stencil interior, a slab of axis-0 planes at a time and a tilde axis at a
time. It keeps neither the mesh-sized scaled parameters u_i nor the
eigenfunction prefactor, on a mesh of one slab or several: each psi forms
the prefactor slab by slab in its own rows. The build evaluates and checks
each axis's denominator h_i, whose
ratio r_i = h_i'/h_i gives the rational term of V; psi evaluates h_i again,
from the ladder that also gives its numerator. Each axis's Gaussian takes
exp on 2D sub-meshes only (``model._PairGaussian``). The residual scan and
the parity-time fits share each state's eigenfunction, and its maximum
modulus, which psi's slab pass takes. A fit reads psi on its operator's
image off the mesh psi by reversing and permuting axes (``parity_view``);
``suggest_grids`` gives every classified operator grids that it maps onto
themselves, and any other operator is refused.

The slabs of the build, of each psi, of each residual and of each PT
reference and fit are independent, and run on up to one thread per CPU
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
# Largest mesh the CLI builds: 161^3 fits, at about 33 B per point while a
# 3D verify job with two states runs (psi, V and the masks; the traced peak
# at 101^3, set by psi's or the residual's slab temporaries), plus a few MB
# per extra slab thread (one slab's temporaries at a time).
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
    Every operator of ``model.pt_classification`` maps the grids onto
    themselves (``parity_view``): axes that it permutes get the grid of the
    lowest of them, and an axis that it flips is centered on 0, whatever
    tolerance the classification allowed. A mesh above ``MAX_MESH_POINTS``
    is refused before any grid is built."""
    if spacing is not None and not (np.isfinite(spacing) and spacing > 0):
        raise DomainError(f"the grid spacing must be finite and positive, got {spacing!r}")
    dim = spec.dimension
    q = _decay_diagonal(spec.system)
    # decay values equal but for rounding take the first such axis's value,
    # so that those axes get equal grids
    for i in range(len(q)):
        for j in range(i):
            if abs(q[i] - q[j]) <= 1e-12 * abs(q[j]):
                q[i] = q[j]
                break
    centers = [-float(np.real(s)) for s in spec.system.coordinate_map.shift]
    ops = [_signed_permutation(op, dim) for op in model.pt_classification(spec)]
    first = list(range(dim))  # the lowest axis that the operators link to each axis
    for _ in range(dim):
        for perm, _signs in ops:
            for i, p in enumerate(perm):
                first[i] = first[p] = min(first[i], first[p])
    flipped = {first[i] for perm, signs in ops for i in np.flatnonzero(signs < 0)}
    half_widths = [numerics.default_half_width(q[a]) for a in first]
    centers = [0.0 if a in flipped else centers[a] for a in first]
    sizes = [n_points] * dim
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
    return [Grid(c, hw, n) for c, hw, n in zip(centers, half_widths, sizes)]


def _grid_list(grids) -> list:
    return [grids] if isinstance(grids, Grid) else list(grids)


def _window(f: np.ndarray, rows: slice) -> np.ndarray:
    """``f`` on ``rows`` of axis 0 and the stencil interior of the other axes;
    an axis of length 1 is a broadcast axis and is kept whole (a grid has at
    least 9 points)."""
    return f[tuple(slice(None) if n == 1 else rows if axis == 0
                   else slice(STENCIL_REACH, n - STENCIL_REACH)
                   for axis, n in enumerate(f.shape))]


# Bytes of complex values per slab of a mesh (``_slabs``): a few axis-0
# planes of a 3D mesh, so that a slab's temporaries, and the residual's
# shifted reads of each plane, stay in cache.
_SLAB_BYTES = 2**19


def _slabs(shape) -> list:
    """Axis-0 slices of a complex array of ``shape``: a slab of the 4 face
    planes at each end, and the stencil interior between them in slabs of
    about ``_SLAB_BYTES``. An interior of one slab is widened to the whole
    mesh instead. Each slab holds two planes at least, and its interior
    planes number none or two at least, so that no slab of a sub-mesh array,
    V's included, is one element long (see ``_kernels``)."""
    n, reach = shape[0], STENCIL_REACH
    step = max(2, _SLAB_BYTES // (16 * math.prod(shape[1:])))
    cuts = [i for i in range(reach + step, n - reach, step) if n - reach - i > 1]
    starts = [0, reach, *cuts, n - reach] if cuts else [0]
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


def _interior_planes(rows: slice, n: int) -> tuple:
    """The planes of the slab ``rows`` of a mesh of ``n`` axis-0 planes that
    lie in its stencil interior, as planes of the slab and as planes of the
    interior (of V and the pole mask); both are empty on a face slab."""
    lo, hi = max(rows.start, STENCIL_REACH), min(rows.stop, n - STENCIL_REACH)
    return slice(lo - rows.start, hi - rows.start), slice(lo - STENCIL_REACH, hi - STENCIL_REACH)


def _mesh(grids) -> list:
    """The open mesh: one array per axis holding that grid's points along its
    own axis and length 1 along the others (the ``np.ix_`` shape), so that
    the axes broadcast to the full mesh without it being built."""
    dim = len(grids)
    return [g.points.reshape([-1 if a == axis else 1 for a in range(dim)])
            for axis, g in enumerate(grids)]


def _signed_permutation(parity, dim: int) -> tuple:
    """(perm, signs) of a parity operator on ``dim`` axes that is a signed
    permutation, (P x)_i = signs[i] * x[perm[i]]; any other operator raises
    DomainError."""
    mat = np.asarray(parity.matrix)
    perm = np.argmax(np.abs(mat), axis=1)
    signs = mat[np.arange(len(perm)), perm]
    if (mat.shape != (dim, dim) or sorted(perm) != list(range(dim))
            or not np.all(np.abs(signs) == 1) or np.count_nonzero(mat) != dim):
        raise DomainError(f"parity {parity.name} is not a signed permutation of {dim} axes")
    return perm, signs


def parity_view(grids, parity):
    """psi on the image P·mesh of the mesh of ``grids``, read off psi on the
    mesh: a function of psi that returns a view of it.

    P must be a signed permutation (``_signed_permutation``) that maps the
    grids onto themselves: grid i equals grid perm[i], and a flipped axis is
    centered on 0, as on every grid of ``suggest_grids`` for the operators of
    ``model.pt_classification``. The image of mesh point k is then the mesh
    point whose index along axis i is k[perm[i]], reversed where P flips. Any
    other operator raises DomainError, before any psi is formed."""
    perm, signs = _signed_permutation(parity, len(grids))
    for i, (p, s) in enumerate(zip(perm, signs)):
        if grids[p] != grids[i] or (s < 0 and grids[i].center != 0):
            raise DomainError(f"parity {parity.name} does not map the grids onto themselves")
    flipped, order = tuple(np.flatnonzero(signs < 0)), tuple(np.argsort(perm))
    return lambda psi: np.transpose(np.flip(psi, axis=flipped), order)


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


def _checked_grids(spec: OscillatorSpec, config: REConfig, grids) -> list:
    """``grids`` as a list of one grid per axis of ``spec``, once ``config``
    has passed the admissibility gate."""
    grids = _grid_list(grids)
    if len(grids) != spec.dimension:
        raise ShapeError("one grid per axis required")
    model.validate_config(spec, config)
    return grids


class MeshPlan(model.Plan):
    """A verify job compiled once for its open mesh: the eigenfunctions of a
    ``model.Plan`` on the mesh's slabs (``_slabs``; a small mesh is one
    slab), V on the stencil interior and the pole-guard mask ``keep``
    there.

    Each slab of the build forms V and the pole-guard hits on its interior
    planes, each axis's share from its u_i and r_i = h_i'/h_i, so every
    denominator is evaluated and checked there, once; ``psi`` does not check
    them again. The build forms no Gaussian on a slab and no prefactor; the
    job holds 17 B per interior point (V and the mask), and psi. Each state
    then costs one ``psi``, which ``residual`` and the parity-time fits
    (through a ``parity_view`` per operator) share. The slabs are built on
    ``_kernels.map_slabs``'s threads; a V that overflows raises after the
    last slab.
    """

    _checks_denominators = True

    def __init__(self, spec: OscillatorSpec, config: REConfig, grids):
        self.grids = _checked_grids(spec, config, grids)
        super().__init__(spec, config, _mesh(self.grids),
                         _slabs(tuple(g.n_points for g in self.grids)))
        shape = tuple(n - 2 * STENCIL_REACH for n in self.shape)
        hits = np.zeros(shape, dtype=bool)
        # a mesh of one slab keeps V as its slab forms it
        self.potential = np.empty(shape, complex) if len(self.slabs) > 1 else None
        with np.errstate(over="ignore", invalid="ignore"):
            finite = all(_kernels.map_slabs(lambda rows: self._slab(rows, hits), self.slabs))
        # checked after the last slab: a denominator zero in any slab is
        # reported first
        if not finite:
            raise NumericalFailureError("V overflows on the mesh")
        self.keep = ~_guard_band(hits)

    def _slab(self, rows: slice, hits) -> bool:
        """Build the slab ``rows``: per tilde axis, u_i and r_i = h_i'/h_i with
        h_i checked for zeros (rows of the sub-mesh terms, where the axis has
        them), and on the slab's interior planes, V as ``model.re_potential``
        forms it on the mesh, trimmed (the base potential, then each axis's
        rational term from its u_i and r_i), and the pole-guard hits, marked
        in ``hits``. Return whether V is finite there."""
        sys, slab = self.spec.system, model._on_rows(self.points, rows)
        local, target = _interior_planes(rows, self.shape[0])
        v = (model.base_potential(self.spec, [_window(x, local) for x in slab])
             if target.start < target.stop else None)
        for axis, (w, m, terms) in enumerate(zip(sys.tilde_frequencies, self.config.codimensions,
                                                 self._sub_meshes)):
            if terms is not None:
                u, _, r = model._on_rows(terms, rows)
            else:
                t = sys.coordinate_map.forward_axis(axis, slab)
                u = model.scaled_parameter(w, t, out=t)
                r = model._log_derivative(m, u, "eigenfunction")
            if v is not None:
                u, r = _window(u, local), _window(r, local)
                v = model._rational_term(w, m, u, r) + v
                _pole_hits(hits[target], [u], [m])
            del u, r  # no slab-sized array outlives its axis
        if v is None:
            return True
        if self.potential is None:
            self.potential = v
        else:
            self.potential[target] = v
        return bool(np.isfinite(v).all())

    def residual(self, state: Eigenstate, psi: np.ndarray):
        """(max_residual, energy) of ``state``, whose eigenfunction on the
        mesh is ``psi``; see ``residual_scan``.

        One more pass over the plan's slabs, on ``_kernels.map_slabs``'s
        threads: on the interior planes of each slab (a face slab has none),
        |V·psi - lap(psi) - E·psi| from those planes of psi and a halo of the
        stencil reach (``_kernels.laplacian_residual``), and its maximum and
        that of |psi| over the kept points; no temporary is mesh-sized."""
        if not self.keep.any():
            raise SingularityError("no interior points survive the pole guard")
        spec, config = self.spec, self.config
        e_rel = model.relative_energy(config, state, spec.system)
        energy = model.ground_energy(spec, config) + e_rel
        spacings = [g.spacing for g in self.grids]
        planes = [(rows, *_interior_planes(rows, self.shape[0])) for rows in self.slabs]

        def slab(item):
            rows, local, s = item
            r = _kernels.laplacian_residual(psi[s.start:s.stop + 2 * STENCIL_REACH], spacings,
                                            self.potential[s], energy)
            keep = self.keep[s]
            return (np.max(np.abs(r), where=keep, initial=0.0),
                    np.max(np.abs(_window(psi[rows], local)), where=keep, initial=0.0))

        with np.errstate(over="ignore", invalid="ignore"):
            err, top = zip(*_kernels.map_slabs(slab, [p for p in planes if p[2].start < p[2].stop]))
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
    (broken symmetry or a parity the state does not respect), and
    DomainError, before psi is formed, when the parity does not map the grids
    onto themselves (``parity_view``).
    """
    grids = _checked_grids(spec, config, grids)
    view = parity_view(grids, parity)
    plan = model.Plan(spec, config, _mesh(grids), _slabs(tuple(g.n_points for g in grids)))
    psi = plan.psi(state)
    return pt_fit(pt_reference(psi, plan.psi_max()), view(psi))


def _planes(f: np.ndarray) -> np.ndarray:
    """``f`` by axis-0 planes, a view: ``f`` itself, or a 1D ``f`` as one
    plane. A parity-time fit runs on the ``_slabs`` of this view, so a 1D
    array is one slab."""
    return f if f.ndim > 1 else f[None]


def _in_plane_order(sums) -> np.number:
    """The plane sums of every slab (``np.add.reduceat`` over each plane's
    kept points), in slab order, added one after another."""
    return np.cumsum(np.concatenate(sums))[-1]


def pt_reference(psi: np.ndarray, scale):
    """What the parity-time fits of psi on the mesh share, whatever their
    operator: (psi, keep, scale, slabs, norm). psi is kept, not copied;
    ``scale`` is max |psi| (``model.Plan.psi_max``), and ``keep`` masks the
    points where |psi| exceeds 1e-8 of it; ``slabs`` pairs each slab of the
    fit with the indices, among its kept points, of the first kept point of
    each of its axis-0 planes that keeps any (``np.add.reduceat``'s
    indices); ``norm`` is sum |psi|^2 over the kept points, summed as
    ``pt_fit`` sums. |psi| is formed a slab at a time, once, and no array
    of the kept points is formed: the temporaries are a slab's, but for a
    1D psi, which is one plane."""
    keep = np.empty(psi.shape, dtype=bool)
    by_planes, mask = _planes(psi), _planes(keep)
    slabs = _slabs(by_planes.shape)

    def slab(rows):
        a = np.abs(by_planes[rows])
        np.greater(a, 1e-8 * scale, out=mask[rows])
        # a count per plane runs faster than count_nonzero(axis=1), which
        # casts the mask
        counts = np.array([np.count_nonzero(plane) for plane in mask[rows]])
        starts = (np.cumsum(counts) - counts)[counts > 0]
        a = a[mask[rows]]
        a *= a
        return starts, np.add.reduceat(a, starts)

    starts, norms = zip(*_kernels.map_slabs(slab, slabs))
    norm = _in_plane_order(norms) if any(s.size for s in starts) else 0.0
    return psi, keep, scale, list(zip(slabs, starts)), norm


def pt_fit(reference, psi_p: np.ndarray) -> complex:
    """The fit of ``pt_parity_eigenvalue`` from the ``pt_reference`` of psi
    and psi on the parity image of the mesh.

    With pk and w the kept points of psi and psi_p,
    s = sum conj(pk) conj(w) / sum |pk|^2 and the fit residual is
    max |conj(w) - s pk| / max |psi|. Each sum is taken over the kept points
    of each axis-0 plane (``np.add.reduceat``) and the plane sums are added
    in plane order, so s depends neither on the slabs nor on the threads.
    Two passes over the slabs, on ``_kernels.map_slabs``'s threads, gather
    each slab's kept points: the sums, then the residual's maximum. Raises
    IndeterminateError when no point is kept, the norm vanishes, or the
    residual exceeds PT_FIT_TOLERANCE or is NaN."""
    psi, keep, scale, slabs, norm = reference
    if not any(starts.size for _, starts in slabs):
        raise IndeterminateError("the parity-time fit keeps no point: psi vanishes on the mesh")
    if not norm > 0:
        raise IndeterminateError("the norm of psi in the parity-time fit vanishes")
    by_planes, image, mask = _planes(psi), _planes(psi_p), _planes(keep)

    def kept(rows):
        return by_planes[rows][mask[rows]], image[rows][mask[rows]]

    # products in place, but for one kept point (see ``_kernels``)
    def sums(slab):
        # conj(pk) * conj(w) is conj(pk * w) bit for bit, and so is a sum of
        # such products
        rows, starts = slab
        pk, w = kept(rows)
        return np.add.reduceat(np.multiply(pk, w, out=pk if pk.size > 1 else None), starts)

    def worst(slab):
        pk, w = kept(slab[0])
        d = np.multiply(s, pk, out=pk if pk.size > 1 else None)
        np.subtract(np.conj(w, out=w), d, out=d)
        return np.max(np.abs(d), initial=0.0)

    s = np.conj(_in_plane_order(_kernels.map_slabs(sums, slabs))) / norm
    resid = float(np.max(_kernels.map_slabs(worst, slabs)) / scale)
    if not resid <= PT_FIT_TOLERANCE:
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

    Tilde axis i's denominator p_m(s(t + shift)), s = sqrt(omega_i / 2),
    vanishes at t = z/s - shift for each zero z of p_m. A zero is a hit when
    |Im t| <= 1e-12 * max(1, |t|) and Re t lies in the axis's scan box
    (lo, hi]; hits are listed axis by axis, ascending. This checks each tilde
    axis along its own real parameter only: where imaginary couplings in 2D
    and 3D make the tilde coordinates of real points complex, the zeros they
    put in real space are not covered.
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
        t = poly.pseudo_hermite_zeros(m) / s - complex(sys.coordinate_map.shift[i])
        lo, hi = float(box[i][0]), float(box[i][1])
        hit = ((np.abs(t.imag) <= 1e-12 * np.maximum(1.0, np.abs(t)))
               & (lo < t.real) & (t.real <= hi))
        hits.extend(PoleHit(i, float(x)) for x in np.sort(t.real[hit]))
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

