"""Residuals, Rayleigh quotients, PT measurement, Gram, poles, grid oracle."""
import itertools
import math
import tracemalloc

import numpy as np
import pytest

import oracles
from rexosc import _kernels, model, poly, transform, verify
from rexosc.errors import (
    DomainError,
    IndeterminateError,
    NumericalFailureError,
    RexoscError,
    SingularityError,
)
from rexosc.model import Eigenstate, OscillatorSpec, REConfig
from rexosc.transform import CouplingValue

SQ7 = np.sqrt(7.0)
OM = 2.0


def spec_1d(l0=None):
    return (OscillatorSpec.linear_1d(OM, l0) if l0 is not None
            else OscillatorSpec.oscillator(OM))


def _interior(f):
    """The stencil interior of ``f``; an axis of length 1 is a broadcast axis
    and is kept whole."""
    return verify._window(f, slice(verify.STENCIL_REACH, f.shape[0] - verify.STENCIL_REACH))


def _slab_plan(spec, config, grids, op=None):
    """A ``model.Plan`` on the mesh of ``grids`` and its slabs, as
    ``pt_parity_eigenvalue`` builds one; with ``op``, on the image of the
    mesh under that parity operator (``oracles.image_plan``)."""
    mesh, slabs = verify._mesh(grids), verify._slabs(tuple(g.n_points for g in grids))
    if op is None:
        return model.Plan(spec, config, mesh, slabs)
    return oracles.image_plan(spec, config, mesh, slabs, op)


def _scaled(spec, points):
    """The scaled parameters u_i of every tilde axis at ``points``."""
    sys = spec.system
    return [model.scaled_parameter(w, t)
            for w, t in zip(sys.tilde_frequencies, sys.coordinate_map.forward(points))]


@pytest.fixture(scope="module")
def grid_1d():
    return verify.suggest_grids(spec_1d(), spacing=1e-3)


# ------------------------------------------------------------------ residual

def test_residual_m0_ground(grid_1d):
    res, energy = verify.residual_scan(spec_1d(), REConfig((0,)),
                                       Eigenstate((None,)), grid_1d)
    assert res <= 1e-7
    assert energy == pytest.approx(-1.0, abs=1e-6)


def test_residual_m2_offset_state_independent(grid_1d):
    # the ground energy under every state's ladder step is the same -5/2 omega
    for lv in [None, 0, 1]:
        res, energy = verify.residual_scan(spec_1d(), REConfig((2,)),
                                           Eigenstate((lv,)), grid_1d)
        assert res <= 1e-6
        ladder = 0.0 if lv is None else (lv + 3) * OM
        assert energy - ladder == pytest.approx(-2.5 * OM, abs=1e-5)


def test_residual_2d_imaginary_ground():
    spec = OscillatorSpec.quadratic_2d(1, 3, CouplingValue.imaginary(SQ7))
    grids = verify.suggest_grids(spec, n_points=1001)
    res, energy = verify.residual_scan(spec, REConfig((2, 2)),
                                       Eigenstate((None, None)), grids)
    assert res <= 1e-6
    # the ground energy is -(m+1/2) weighted by the tilde frequencies
    w1, w2 = np.sqrt(2), 2 * np.sqrt(2)
    assert energy == pytest.approx(-2.5 * w1 - 2.5 * w2, abs=1e-5)


def test_residual_shows_a_wrong_energy(grid_1d, monkeypatch):
    spec, cfg, state = spec_1d(), REConfig((2,)), Eigenstate((2,))
    res, _ = verify.residual_scan(spec, cfg, state, grid_1d)
    assert res <= 1e-6
    true_ground = model.ground_energy
    monkeypatch.setattr(model, "ground_energy", lambda s, c: true_ground(s, c) + 1e-3)
    res, _ = verify.residual_scan(spec, cfg, state, grid_1d)
    assert res > 1e-6


def test_residual_refuses_overflow():
    # V = omega^2 x^2 / 4 overflows at the ends of this grid, where psi is 0;
    # a psi with an infinite sample leaves a residual that is not finite
    ground = Eigenstate((None,))
    with pytest.raises(NumericalFailureError, match="V overflows"):
        verify.residual_scan(OscillatorSpec.oscillator(1e153), REConfig((0,)), ground,
                             verify.Grid(0.0, 100.0, 101))
    job = verify.MeshPlan(spec_1d(), REConfig((0,)), verify.Grid(0.0, 4.0, 101))
    psi = job.psi(ground)
    psi[50] = np.inf
    with pytest.raises(NumericalFailureError, match="residual is not finite"):
        job.residual(ground, psi)


def test_residual_respects_pole_guard():
    # the m=1 denominator vanishes 0.005 off the real line; every interior
    # point of a grid of half-width 0.2 lies inside the guard radius
    spec = OscillatorSpec.linear_1d(OM, CouplingValue.imaginary(0.01))
    cfg, ground = REConfig((1,)), Eigenstate((None,))
    with pytest.raises(SingularityError):
        verify.residual_scan(spec, cfg, ground, verify.Grid(0.0, 0.2, 41))
    res, _ = verify.residual_scan(spec, cfg, ground, verify.Grid(0.0, 2.0, 81))
    assert res <= 1e-6


def test_pole_mask_stops_at_the_mesh_faces():
    # the m=1 denominator of the plain oscillator vanishes at x = 0, inside
    # the guard radius of the first interior column only; its guard band
    # must end at the near face, not reappear at the far one
    spec = OscillatorSpec.oscillator(2.0, 2.0)
    grids = [verify.Grid(5.0, 5.1, 101), verify.Grid(0.0, 5.0, 21)]
    config = REConfig((1, 0))
    bad = np.zeros((93, 13), dtype=bool)
    verify._pole_hits(bad, [_interior(u) for u in _scaled(spec, verify._mesh(grids))],
                      config.codimensions)
    mask = verify._guard_band(bad)
    reach = verify.STENCIL_REACH + verify._GUARD_POINTS
    assert mask.shape == (93, 13)
    assert mask[:reach + 1].all() and not mask[reach + 1:].any()


@pytest.mark.parametrize("n_points", [(9,), (11, 13), (9, 10, 12)])
def test_mesh_equals_meshgrid(n_points):
    grids = [verify.Grid(0.5 - i, 2.0 + i, n) for i, n in enumerate(n_points)]
    want = np.meshgrid(*(g.points for g in grids), indexing="ij")
    mesh = verify._mesh(grids)
    assert [a.shape for a in mesh] == [a.shape for a in np.ix_(*(g.points for g in grids))]
    got = np.broadcast_arrays(*mesh)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()


def test_mesh_plan_unchanged_by_its_states():
    # every state reads the plans' arrays and writes none of them, so running
    # the states again gives the same results; the rotated axes of the
    # quadratic spec are formed in psi, the oscillator's on sub-meshes
    states = [Eigenstate(lv) for lv in ((None, None), (0, None), (None, 0), (1, 1))]
    for spec, rotated in ((OscillatorSpec.quadratic_2d(1, 3, CouplingValue.imaginary(SQ7)), True),
                          (OscillatorSpec.oscillator(1.0, 3.0), False)):
        config, grids = REConfig((2, 2)), verify.suggest_grids(spec, n_points=41)
        plan = verify.MeshPlan(spec, config, grids)
        views = [verify.parity_view(grids, op) for op in model.pt_classification(spec)]
        assert views

        def work(state):
            psi = plan.psi(state)
            return plan.residual(state, psi), [
                verify.pt_fit(verify.pt_reference(psi, plan.psi_max()), view(psi))
                for view in views]

        # a 41^2 mesh is one slab: V, the mask and the sub-mesh terms
        sub_meshes = [a for terms in plan._sub_meshes if terms is not None for a in terms]
        assert len(sub_meshes) == (0 if rotated else 6)
        arrays = [plan.potential, plan.keep, *sub_meshes]
        before = [a.copy() for a in arrays]
        first = [work(st) for st in states]
        assert [work(st) for st in states] == first
        for a, b in zip(before, arrays):
            np.testing.assert_array_equal(a, b)


# Frequencies and coupling magnitudes per case, with a real spectrum under
# every flavor the case names a parity operator for.
_CASE_VALUES = {
    "linear": ((2.0,), {"lambda0": 1.0}),
    "quadratic2d": ((1.0, 3.0), {"lam": SQ7}),
    "lq3d": ((1.0, 2.0, 1.5), {"lambda0": 0.5, "lam": 0.5}),
    "q1_3d": ((1.4, 1.4, 1.0), {"lambda2": 0.2, "lambda3": 0.3}),
    "q2_3d": ((1.0, 1.0, 2.0), {"lambda1": 0.5, "lam": 0.3}),
}


def _case_spec(case, imaginary):
    freqs, mags = _CASE_VALUES[case]
    couplings = {n: CouplingValue(mags[n], "imaginary" if n in imaginary else "real")
                 for n in model.CASES[case].couplings}
    return OscillatorSpec(len(freqs), freqs, case, couplings)


# every case x flavor that names its parity operators
_NAMED_PARITY_SPECS = [_case_spec(case, imaginary) for case in _CASE_VALUES
                       for imaginary in model.CASES[case].parities]
_POINTS = {1: 401, 2: 61, 3: 25}


def _states(dim):
    return [Eigenstate.ground(dim), Eigenstate((0,) * dim),
            Eigenstate(tuple(None if a % 2 else 1 for a in range(dim)))]


def _spec_id(spec):
    return spec.case + "-" + ("+".join(spec.imaginary_couplings) or "real")


def _fits_agree(spec, config, grids, op):
    """psi on the parity image read off the mesh psi by index reversal against
    psi from an image plan, for a few states, whether or not the state
    respects the symmetry."""
    plan = model.plan(spec, config, verify._mesh(grids))
    view = verify.parity_view(grids, op)
    image = _slab_plan(spec, config, grids, op)
    for state in _states(spec.dimension):
        psi = plan.psi(state)
        want = image.psi(state)
        got = view(psi)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("spec", _NAMED_PARITY_SPECS, ids=_spec_id)
def test_index_map_fit_equals_image_plan_fit(spec):
    grids = verify.suggest_grids(spec, n_points=_POINTS[spec.dimension])
    config = REConfig((2,) * spec.dimension)
    for op in model.pt_classification(spec):
        _fits_agree(spec, config, grids, op)


def test_index_map_fit_equals_image_plan_fit_for_a_2d_swap():
    # equal frequencies: the suggested grids are equal, so the swaps map them
    # onto each other
    spec = OscillatorSpec.quadratic_2d(1.0, 1.0, CouplingValue.real(0.6))
    grids = verify.suggest_grids(spec, n_points=61)
    for op in transform.parity_operators(2)[2:]:
        _fits_agree(spec, REConfig((2, 2)), grids, op)


def test_equal_decay_values_give_equal_grids():
    # their decay values differ in the last bit (12.320281152964093 against
    # 12.32028115296409 as half-widths before they were snapped)
    spec = OscillatorSpec.quadratic_2d(1.0, 1.0, CouplingValue.real(0.6))
    q = verify._decay_diagonal(model.decouple(spec))
    assert q[0] != q[1] and abs(q[0] - q[1]) <= 1e-12 * q[0]
    grids = verify.suggest_grids(spec, n_points=61)
    assert grids[0] == grids[1]
    for op in transform.parity_operators(2)[2:]:
        verify.parity_view(grids, op)  # raises unless the swap maps the grids
    # equal frequencies alone do not snap: q1_3d's x and y decay differently
    spec = _case_spec("q1_3d", ())
    half_widths = [g.half_width for g in verify.suggest_grids(spec, n_points=41)]
    assert abs(half_widths[0] - half_widths[1]) > 1e-3


def test_index_map_needs_grids_mapped_onto_themselves():
    grids = [verify.Grid(0.0, 5.0, 21), verify.Grid(0.0, 6.0, 21)]
    p1, _, swap, _ = transform.parity_operators(2)
    verify.parity_view(grids, p1)
    with pytest.raises(DomainError, match="parity P3 does not map the grids onto themselves"):
        verify.parity_view(grids, swap)
    shifted = [verify.Grid(0.5, 5.0, 21), grids[1]]
    with pytest.raises(DomainError, match="parity P1 does not map the grids onto themselves"):
        verify.parity_view(shifted, p1)
    # an operator of another dimension, and one that is no signed permutation
    rotation = transform.ParityOperator(np.array([[0.6, -0.8], [0.8, 0.6]]), "R")
    for op in (transform.parity_operators(3)[0], rotation):
        with pytest.raises(DomainError, match="is not a signed permutation of 2 axes"):
            verify.parity_view(grids, op)


def test_pt_parity_eigenvalue_refuses_a_parity_off_its_grids_before_psi(monkeypatch):
    spec = OscillatorSpec.quadratic_2d(1.0, 2.0, CouplingValue.real(0.6))
    grids = verify.suggest_grids(spec, n_points=41)
    assert grids[0] != grids[1]
    calls = []
    monkeypatch.setattr(model.Plan, "psi", lambda plan, state: calls.append(state))
    with pytest.raises(DomainError, match="parity P3 does not map the grids onto themselves"):
        verify.pt_parity_eigenvalue(spec, REConfig((2, 2)), Eigenstate.ground(2),
                                    transform.parity_operators(2)[2], grids)
    assert calls == []


# Frequencies per case for the parity traffic: those above, equal ones,
# ones that differ by 1e-11 relative (within the classification's tolerance
# but not the decay values' snap) and others (q1 and q2 take equal x and y
# frequencies)
_NEAR = 1.0 + 1e-11
_TRAFFIC_FREQUENCIES = {
    "none": [(1.0,), (1.0, 1.0), (1.0, _NEAR), (1.0, 2.0), (1.0, _NEAR, 1.0)],
    "linear": [(2.0,), (1.0,), (0.7,)],
    "quadratic2d": [(1.0, 3.0), (1.0, 1.0), (1.0, _NEAR), (1.0, 2.0), (2.0, 0.5)],
    "lq3d": [(1.0, 2.0, 1.5), (1.0, 1.0, 1.0), (1.0, _NEAR, 1.0), (1.0, 1.0, 2.0),
             (2.0, 1.0, 1.0)],
    "q1_3d": [(1.4, 1.4, 1.0), (1.0, 1.0, 1.0), (1.0, 1.0, 2.0), (2.0, 2.0, 1.0)],
    "q2_3d": [(1.0, 1.0, 2.0), (1.0, 1.0, 1.0), (2.0, 2.0, 1.0), (1.4, 1.4, 1.0)],
}


def _traffic_specs():
    """Every case x flavor, each coupling real, imaginary or zero, at the
    magnitudes 0.3, 0.05, 1.1, 0.6 (whose 2D decay values at equal
    frequencies differ in the last bit) and 1e-11 (a real coupling that the
    classification's tolerance ignores), at the frequencies above: each spec
    that ``verify`` takes past its bound-state check."""
    for case, frequency_sets in _TRAFFIC_FREQUENCIES.items():
        names = model.CASES[case].couplings
        for freqs, magnitude in itertools.product(frequency_sets, (0.3, 0.05, 1.1, 0.6, 1e-11)):
            for flavors in itertools.product(("real", "imaginary", "zero"), repeat=len(names)):
                couplings = {n: CouplingValue.zero() if f == "zero" else CouplingValue(magnitude, f)
                             for n, f in zip(names, flavors)}
                try:
                    spec = OscillatorSpec(len(freqs), freqs, case, couplings)
                    spec.system.require_bound_states()
                except RexoscError:
                    continue  # refused before any grid is built
                yield spec


def test_every_classified_parity_maps_the_suggested_grids_onto_themselves():
    # psi on a parity image is read off the mesh psi alone. suggest_grids
    # ties its grids to the classified operators, so every operator that
    # verify fits maps the grids it suggests, from a number of points as
    # from a spacing, onto themselves; this samples that guarantee
    checked = 0
    for spec in _traffic_specs():
        for grids in (verify.suggest_grids(spec, n_points=41),
                      verify.suggest_grids(spec, spacing=0.25)):
            for op in model.pt_classification(spec):
                verify.parity_view(grids, op)
                checked += 1
    assert checked >= 500


def test_on_image_reads_a_function_at_the_parity_image():
    # a signed 3-cycle: (P x) = (-x2, x0, x1), on one grid centered on 0
    grids = [verify.Grid(0.0, 2.0, 9)] * 3
    op = transform.ParityOperator(np.array([[0, 0, -1], [1, 0, 0], [0, 1, 0]]))
    x = np.broadcast_arrays(*verify._mesh(grids))
    f = x[0] + 10 * x[1] + 100 * x[2]
    want = -x[2] + 10 * x[0] + 100 * x[1]
    got = verify.parity_view(grids, op)(f)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("spec", _NAMED_PARITY_SPECS, ids=_spec_id)
def test_open_mesh_plan_equals_stacked_mesh_plan(spec):
    # each plan equals the whole-points psi at its own points bit for bit,
    # and the two agree to rounding
    grids = verify.suggest_grids(spec, n_points=_POINTS[spec.dimension])
    config = REConfig((2,) * spec.dimension)
    mesh = verify._mesh(grids)
    stacked = np.stack(np.broadcast_arrays(*mesh)).astype(complex)
    open_plan = model.plan(spec, config, mesh)
    stacked_plan = model.plan(spec, config, stacked)
    for state in _states(spec.dimension):
        want = stacked_plan.psi(state)
        got = open_plan.psi(state)
        assert _bits(want) == _bits(oracles.whole_points_psi(spec, config, state, stacked))
        assert _bits(got) == _bits(oracles.whole_points_psi(spec, config, state, mesh))
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    want = model.re_potential(spec, config, stacked)
    got = model.re_potential(spec, config, mesh)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


# The residual as whole-array expressions: the stencil's centre taps and E
# folded into V on the whole mesh, its pair terms as complex passes over the
# whole mesh, and boolean gathers. MeshPlan must reproduce it, psi from whole
# arrays (``oracles.whole_points_psi``) and V from ``model.re_potential``,
# bit for bit.

def _unblocked_profile(f, spacing, axis):
    """The symmetric pair terms (c_j/h^2)(f_j + f_{8-j}), j < 4, of f'' along
    ``axis``, trimmed along it."""
    n = f.shape[axis]
    window = [slice(None)] * f.ndim
    for j in range(4):
        window[axis] = slice(j, n - 8 + j)
        term = f[tuple(window)].copy()
        window[axis] = slice(8 - j, n - j)
        term += f[tuple(window)]
        term *= _kernels.STENCIL8[j] / spacing**2
        yield term


def _unblocked_laplacian(psi, grids):
    """The pair terms of every axis on the interior, in the kernel's order;
    the centre taps are c_4 sum_a h_a^-2 psi."""
    for axis, grid in enumerate(grids):
        sl = tuple(slice(None) if a == axis else slice(4, psi.shape[a] - 4)
                   for a in range(psi.ndim))
        for term in _unblocked_profile(psi, grid.spacing, axis):
            yield term[sl]


def _unblocked_residual(spec, config, grids, keep, potential, state, psi):
    e_rel = model.relative_energy(config, state, spec.system)
    energy = model.ground_energy(spec, config) + e_rel
    centre = _kernels.STENCIL8[4] * sum(1.0 / g.spacing**2 for g in grids)
    r = (potential - (energy + centre)) * _interior(psi)
    for term in _unblocked_laplacian(psi, grids):
        r -= term
    pk = _interior(psi)[keep]
    err = np.abs(r[keep])
    wmax = max(complex(w).real for w in spec.system.tilde_frequencies)
    scale = np.max(np.abs(pk)) * (abs(e_rel) + wmax)
    return float(np.max(err) / scale), complex(energy)


def _bits(a):
    return a.shape, a.dtype, a.tobytes()


def _every_flavor():
    specs = []
    for case in _CASE_VALUES:
        names = model.CASES[case].couplings
        for k in range(len(names) + 1):
            for imaginary in itertools.combinations(names, k):
                try:
                    specs.append(_case_spec(case, imaginary))
                except DomainError:
                    pass  # q2 takes no imaginary lambda1
    return specs


@pytest.mark.parametrize("spec", _every_flavor(), ids=_spec_id)
def test_residual_equals_the_unblocked_loop_bitwise(spec):
    # m=2 masks the points near real denominator zeros (in every flavor with
    # an imaginary coupling, q1_3d's included); m=0 keeps every point. The
    # 1D and 2D meshes are one slab, the 3D one four.
    points = {1: 201, 2: 41, 3: 49}[spec.dimension]
    grids = verify.suggest_grids(spec, n_points=points)
    mesh = verify._mesh(grids)
    for m in (0, 2):
        config = REConfig((m,) * spec.dimension)
        job = verify.MeshPlan(spec, config, grids)
        potential = _interior(model.re_potential(spec, config, mesh))
        assert _bits(job.potential) == _bits(potential)
        bad = np.zeros(potential.shape, dtype=bool)
        verify._pole_hits(bad, [_interior(u) for u in _scaled(spec, mesh)],
                          config.codimensions)
        assert _bits(job.keep) == _bits(~verify._guard_band(bad))
        assert job.keep.any()
        assert job.keep.all() == (m == 0 or not spec.imaginary_couplings)
        for state in _states(spec.dimension):
            psi = oracles.whole_points_psi(spec, config, state, mesh)
            assert _bits(job.psi(state)) == _bits(psi)
            got = job.residual(state, job.psi(state))
            want = _unblocked_residual(spec, config, grids, job.keep, potential, state, psi)
            assert repr(got) == repr(want)


def _one_plane(monkeypatch, grids):
    """``_SLAB_BYTES`` of one axis-0 plane: slabs of two planes, the fewest a
    plan's slab holds, for the build, psi and the residual alike."""
    monkeypatch.setattr(verify, "_SLAB_BYTES", 16 * math.prod(g.n_points for g in grids[1:]))


@pytest.mark.parametrize("spec", _every_flavor(), ids=_spec_id)
def test_mesh_plan_does_not_depend_on_the_slab_size(spec, monkeypatch):
    points = {1: 201, 2: 41, 3: 49}[spec.dimension]
    grids = verify.suggest_grids(spec, n_points=points)
    config = REConfig((2,) * spec.dimension)
    states = _states(spec.dimension)
    monkeypatch.setattr(verify, "_SLAB_BYTES", 2**40)
    whole = verify.MeshPlan(spec, config, grids)
    assert len(whole.slabs) == 1
    want = [_bits(whole.potential), _bits(whole.keep)]
    want += [(_bits(whole.psi(st)), whole.residual(st, whole.psi(st))) for st in states]
    _one_plane(monkeypatch, grids)
    job = verify.MeshPlan(spec, config, grids)
    assert len(job.slabs) == (points - 8) // 2 + 2
    got = [_bits(job.potential), _bits(job.keep)]
    got += [(_bits(job.psi(st)), job.residual(st, job.psi(st))) for st in states]
    assert got == want


@pytest.mark.parametrize("n", [9, 10, 11, 12, 13, 14, 25, 41, 101])
def test_slabs_hold_two_planes_of_the_mesh_and_of_the_interior(n, monkeypatch):
    # NumPy multiplies a one-element complex array in place by another loop
    # (see ``_kernels``): no slab may hold one plane of the mesh, nor one of
    # the interior, where V and the pole hits are formed (a face slab holds
    # none)
    reach = verify.STENCIL_REACH
    for planes in range(1, n + 1):
        monkeypatch.setattr(verify, "_SLAB_BYTES", planes * 16 * n)
        slabs = verify._slabs((n, n))
        assert [s.start for s in slabs[1:]] == [s.stop for s in slabs[:-1]]
        assert slabs[0].start == 0 and slabs[-1].stop == n
        for s in slabs:
            interior = min(s.stop, n - reach) - max(s.start, reach)
            assert s.stop - s.start >= 2
            assert interior == 0 or interior >= 2 or interior == n - 2 * reach == 1


@pytest.mark.parametrize("one_plane", [False, True])
def test_image_plan_equals_the_whole_mesh_plan_on_the_image_bitwise(one_plane, monkeypatch):
    # unequal frequencies give unequal grids, which the swaps do not map onto
    # themselves: a plan on the image mesh, each of whose axes holds the
    # points of the other, forms psi as on any open mesh
    spec = OscillatorSpec.quadratic_2d(1.0, 2.0, CouplingValue.real(0.6))
    config = REConfig((2, 2))
    grids = verify.suggest_grids(spec, n_points=401)
    if one_plane:
        _one_plane(monkeypatch, grids)
    for op in transform.parity_operators(2)[2:]:
        with pytest.raises(DomainError):
            verify.parity_view(grids, op)
        plan = _slab_plan(spec, config, grids, op)
        assert len(plan.slabs) == (198 if one_plane else 7)
        for state in _states(2):
            want = oracles.whole_points_psi(spec, config, state, plan.points)
            assert _bits(plan.psi(state)) == _bits(want)


def _plane_fit(psi, psi_p):
    """The parity-time fit of psi against psi_p, plane by plane: each axis-0
    plane's sums of conj(pk) * conj(w) and |pk|**2 over its kept points, by
    ``np.add.reduceat`` alone, and the plane sums added in plane order; and
    the whole-array fit, with one sum over every kept point."""
    scale = np.max(np.abs(psi))
    keep = np.abs(psi) > 1e-8 * scale
    nums, norms = [], []
    for p, q, k in zip(psi, psi_p, keep):
        if k.any():
            pk, w = p[k], np.conj(q[k])
            nums.append(np.add.reduceat(np.conj(pk) * w, [0])[0])
            norms.append(np.add.reduceat(np.abs(pk) ** 2, [0])[0])
    num, norm = nums[0], norms[0]
    for x, y in zip(nums[1:], norms[1:]):
        num, norm = num + x, norm + y
    pk, w = psi[keep], np.conj(psi_p[keep])
    return complex(num / norm), complex(np.sum(np.conj(pk) * w) / np.sum(np.abs(pk) ** 2))


_FIT_SHAPES = {1: (3, 5), 2: (4, 5), 5: (6, 7), 40_000: (200, 250)}


@pytest.mark.parametrize("kept", list(_FIT_SHAPES))
def test_pt_fit_equals_the_plane_by_plane_fit_bitwise(kept, monkeypatch):
    # ``kept`` points of random phase and modulus, the others 0, on a 2D
    # psi whose image is conj(c * psi), read through a flipped view; and
    # on a 1D psi, one plane. The fit is the same at the default slabs and
    # at slabs of two planes, and within a few ulps of the whole-array fit
    rng = np.random.default_rng(kept)
    shape = _FIT_SHAPES[kept]
    for _ in range(20):
        psi = np.zeros(shape, complex)
        at = rng.choice(psi.size, kept, replace=False)
        psi.flat[at] = rng.uniform(0.5, 1.5, kept) * np.exp(1j * rng.uniform(0, 2 * np.pi, kept))
        c = np.exp(1j * rng.uniform(0, 2 * np.pi))
        psi_p = np.conj(c * psi[::-1, ::-1])[::-1, ::-1]
        want, whole = _plane_fit(psi, psi_p)
        assert abs(want - whole) <= 8 * np.finfo(float).eps
        flat = psi.ravel()
        for slab_bytes in (2**19, 16 * shape[1]):
            monkeypatch.setattr(verify, "_SLAB_BYTES", slab_bytes)
            reference = verify.pt_reference(psi, np.max(np.abs(psi)))
            assert repr(verify.pt_fit(reference, psi_p)) == repr(want)
            got = verify.pt_fit(verify.pt_reference(flat, np.max(np.abs(flat))),
                                np.conj(c * flat))
            assert repr(got) == repr(_plane_fit(flat[None], np.conj(c * flat)[None])[0])


def test_pt_fit_with_no_kept_point_is_indeterminate():
    # psi underflows to 0 on a mesh 85 widths off the oscillator's centre;
    # 50 widths off, max |psi| is 1.8e-230 and |psi|^2 underflows to 0
    spec, config = OscillatorSpec.oscillator(1.0, 1.0), REConfig((0, 0))
    flip = transform.parity_operators(2)[1]  # flips axis 1, centred on 0
    for center, message in ((85.0, "keeps no point"), (50.0, "norm of psi .* vanishes")):
        grids = [verify.Grid(center, 4.0, 41), verify.Grid(0.0, 4.0, 41)]
        with pytest.raises(IndeterminateError, match=message):
            verify.pt_parity_eigenvalue(spec, config, Eigenstate((None, None)), flip, grids)


def test_pt_fit_holds_no_array_of_the_kept_points(monkeypatch):
    # every point of a 1001^2 psi is kept: a copy of the kept points would
    # be 16 MB. Above psi, the reference holds its 1 B-per-point mask and
    # a few slabs' temporaries, and the fit those temporaries only
    _workers(monkeypatch, 2)
    psi = np.full((1001, 1001), 1 + 1j)
    bound = 8 * verify._SLAB_BYTES
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        reference = verify.pt_reference(psi, abs(1 + 1j))
        reference_peak = tracemalloc.get_traced_memory()[1] - base
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert verify.pt_fit(reference, psi[::-1, ::-1]) == -1j
        fit_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert reference_peak <= psi.size + bound
    assert fit_peak <= bound


def test_mesh_plan_holds_its_potential_and_mask_only():
    # 17 B per interior point (V and the mask), the open mesh (8 B per grid
    # point) and arrays of one mesh plane at most (in 3D, two pair Gaussians'
    # three factors each, and u, gauss/h and h'/h of the axis on a
    # sub-mesh): a plan keeps no prefactor, scaled parameter or other
    # mesh-sized array, on a mesh of several slabs (q2, 41^3) as on a mesh of
    # one (a 1D scan at spacing 1e-3, a rotated 41^2)
    q2 = OscillatorSpec.q2_3d(1.0, 1.0, CouplingValue.real(0.5), CouplingValue.real(0.6))
    linear = OscillatorSpec.linear_1d(2.0, CouplingValue.imaginary(1.0))
    quadratic = OscillatorSpec.quadratic_2d(1, 3, CouplingValue.imaginary(SQ7))
    cases = [(q2, REConfig((2, 2, 2)), verify.suggest_grids(q2, n_points=41), 4),
             (linear, REConfig((3,)), verify.suggest_grids(linear, spacing=1e-3), 1),
             (quadratic, REConfig((2, 2)), verify.suggest_grids(quadratic, n_points=41), 1)]
    for spec, config, grids, slabs in cases:
        job = verify.MeshPlan(spec, config, grids)
        shape = tuple(g.n_points for g in grids)
        assert len(job.slabs) == slabs
        assert job.potential.shape == job.keep.shape == tuple(n - 8 for n in shape)
        plane = math.prod(shape[1:])
        assert [a.size for a in job.points] == [g.n_points for g in grids]
        kept = [job.potential, job.keep, *job.points]
        others = [a for a in oracles.held_arrays(job) if not any(a is b for b in kept)]
        assert max(a.size for a in others) <= plane
        assert sum(a.nbytes for a in others) <= 10 * 16 * plane


def _guard_oracle(spec, config, grids):
    """keep by brute force: u_i from the stacked interior points, every zero
    of every denominator against every point, and a box dilation by
    cumulative sums that stops at the mesh faces."""
    mesh = np.broadcast_arrays(*verify._mesh(grids))
    reach = verify.STENCIL_REACH
    pts = np.stack([x[(slice(reach, -reach),) * len(grids)] for x in mesh]).astype(complex)
    sys = spec.system
    t = np.tensordot(sys.coordinate_map.linear, pts, axes=1)
    bad = np.zeros(pts.shape[1:], dtype=bool)
    for w, m, ti, s in zip(sys.tilde_frequencies, config.codimensions, t,
                           sys.coordinate_map.shift):
        u = np.sqrt(complex(w) / 2) * (ti + s)
        for z in (poly.pseudo_hermite_zeros(m) if m else []):
            bad |= np.abs(u - z) < verify._POLE_GUARD
    band = reach + verify._GUARD_POINTS
    for axis in range(bad.ndim):
        n = bad.shape[axis]
        c = np.concatenate([np.zeros_like(np.take(bad, [0], axis), dtype=int),
                            np.cumsum(bad, axis=axis)], axis=axis)
        hi = np.take(c, np.minimum(np.arange(n) + band + 1, n), axis=axis)
        lo = np.take(c, np.maximum(np.arange(n) - band, 0), axis=axis)
        bad = hi - lo > 0
    return ~bad


def _guard_cases():
    """Every case x flavor at m = 2, and m = 3 on an imaginary-shift axis
    (zeros at 0 and at +-1.22i), its shift small enough for hits."""
    cases = [(spec, REConfig((2,) * spec.dimension)) for spec in _every_flavor()]
    for spec in (OscillatorSpec.linear_1d(2.0, CouplingValue.imaginary(0.05)),
                 OscillatorSpec.lq_3d(1.0, 2.0, 1.5, CouplingValue.imaginary(0.1),
                                      CouplingValue.real(0.5))):
        cases.append((spec, REConfig((2,) * (spec.dimension - 1) + (3,))))
    return cases


@pytest.mark.parametrize("spec,config", _guard_cases(),
                         ids=lambda v: _spec_id(v) if isinstance(v, OscillatorSpec)
                         else "m" + "".join(map(str, v.codimensions)))
def test_pole_guard_mask_equals_the_brute_force_oracle(spec, config):
    # the plan skips zeros out of reach of u (q2's real u against the m = 2
    # zeros at +-0.707i); q1's imaginary flavors have complex u
    grids = verify.suggest_grids(spec, n_points=41)
    job = verify.MeshPlan(spec, config, grids)
    want = _guard_oracle(spec, config, grids)
    assert _bits(job.keep) == _bits(want)
    if 3 in config.codimensions or (spec.imaginary_couplings and spec.case != "q2_3d"):
        assert not want.all()


_PAIR_SPECS = [s for s in _every_flavor() if s.case in ("q1_3d", "q2_3d")]


@pytest.mark.parametrize("spec", _PAIR_SPECS, ids=_spec_id)
def test_mesh_plan_runs_exp_on_2d_sub_meshes_only(spec, monkeypatch):
    # per axis on all three grid axes, its three pair factors (3 * 41^2
    # values), and the axis on a 2D sub-mesh (41^2 at most), all in the
    # build: 7 * 41^2, and none in psi (83 * 41^2 with exp on the full mesh)
    sizes = []
    exp = np.exp

    def counted(x, *args, **kwargs):
        sizes.append(np.size(x))
        return exp(x, *args, **kwargs)

    grids = verify.suggest_grids(spec, n_points=41)
    monkeypatch.setattr(np, "exp", counted)
    job = verify.MeshPlan(spec, REConfig((2, 2, 2)), grids)
    assert len(job.slabs) > 1
    assert max(sizes) <= 41**2 and sum(sizes) <= 7 * 41**2
    built = len(sizes)
    job.psi(Eigenstate.ground(3))
    assert len(sizes) == built


@pytest.mark.parametrize("spec", _PAIR_SPECS, ids=_spec_id)
def test_pair_gaussian_equals_the_direct_gaussian(spec):
    grids = verify.suggest_grids(spec, n_points=41)
    mesh = verify._mesh(grids)
    sys = spec.system
    gaussians = model._pair_gaussians(sys, mesh)
    assert sum(g is not None for g in gaussians) == 2
    for axis, g in enumerate(gaussians):
        if g is None:
            continue
        t = sys.coordinate_map.forward_axis(axis, mesh)
        want = model._gaussian(sys.tilde_frequencies[axis], t)
        got = g()
        assert got.shape == want.shape
        big = np.abs(want) > 1e-250
        assert big.any()
        assert np.max(np.abs(got - want)[big] / np.abs(want)[big]) <= 1e-13


def test_pair_gaussian_overflow_at_one_corner_raises():
    # Re(-omega t^2 / 4) of tilde axis 1 passes exp's range only at the
    # corner x = y = 73, z = 0 of this mesh, on the pair path as directly
    spec = OscillatorSpec.q1_3d(1.4, 1.0, CouplingValue.imaginary(0.2),
                                CouplingValue.imaginary(0.3))
    grids = [verify.Grid(36.5, 36.5, 9), verify.Grid(36.5, 36.5, 9), verify.Grid(20.0, 20.0, 9)]
    mesh = verify._mesh(grids)
    sys = spec.system
    with np.errstate(over="ignore", invalid="ignore"):
        pair = model._pair_gaussians(sys, mesh)[1]
        assert pair is not None
        t = sys.coordinate_map.forward_axis(1, mesh)
        direct = model._gaussian(sys.tilde_frequencies[1], t)
        got = pair()
    for g in (direct, got):
        assert np.argwhere(~np.isfinite(g)).tolist() == [[8, 8, 0]]
    # the mesh is one slab, whose psi reports the overflow
    config = REConfig((0, 0, 0))
    for build in (_slab_plan, verify.MeshPlan):
        plan = build(spec, config, grids)
        assert len(plan.slabs) == 1
        with pytest.raises(NumericalFailureError, match="prefactor overflows"):
            plan.psi(Eigenstate.ground(3))


@pytest.mark.parametrize("half_width", [65.0, 70.0])
def test_pair_gaussian_overflow_takes_the_direct_gaussian(half_width):
    # on these wide cubes a pair factor of tilde axis 2 passes exp's range
    # where the whole Gaussian does not (the pair exponents cancel where
    # x = -y): there ground-state psi takes the prefactor with the direct
    # Gaussian, and every other point keeps the pair path's, bit for bit
    spec = OscillatorSpec.q1_3d(1.4, 1.0, CouplingValue.imaginary(0.2),
                                CouplingValue.imaginary(0.3))
    config, ground = REConfig((2, 2, 2)), Eigenstate.ground(3)
    grids = [verify.Grid(0.0, half_width, 41)] * 3
    mesh = verify._mesh(grids)
    with np.errstate(over="ignore", invalid="ignore"):
        pair = oracles.whole_points_psi(spec, config, ground, mesh)
    overflowed = ~np.isfinite(pair)
    assert overflowed.any()
    stacked = np.stack(np.broadcast_arrays(*mesh)).astype(complex)
    direct = oracles.whole_points_psi(spec, config, ground, stacked)
    assert np.isfinite(direct).all()
    job = verify.MeshPlan(spec, config, grids)
    assert len(job.slabs) > 1
    got = job.psi(ground)
    assert got[~overflowed].tobytes() == pair[~overflowed].tobytes()
    big = np.abs(direct) > 1e-250
    assert np.max(np.abs(got - direct)[big] / np.abs(direct)[big]) <= 1e-12


# ---------------------------------------------------------- slabs on threads

def _workers(monkeypatch, n):
    """``_kernels.map_slabs`` on n workers, whatever the CPUs of the machine."""
    monkeypatch.setattr(_kernels, "_cpus", lambda: n)


# a signed permutation that maps no unequal grids onto themselves: a plan
# on its image mesh, whose axes hold other axes' points
_SWAPS = {2: transform.parity_operators(2)[2],
          3: transform.ParityOperator(np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]]), "S13")}


def _slab_outputs(spec, config, grids):
    """Every array a verify job forms slab by slab, with its residuals, and
    each state's parity-time fit under every operator of the spec."""
    job = verify.MeshPlan(spec, config, grids)
    with pytest.raises(DomainError):
        verify.parity_view(grids, _SWAPS[spec.dimension])
    image = _slab_plan(spec, config, grids, _SWAPS[spec.dimension])
    views = [verify.parity_view(grids, op) for op in model.pt_classification(spec)]
    out = [_bits(job.potential), _bits(job.keep)]
    for state in _states(spec.dimension):
        psi = job.psi(state)
        reference = verify.pt_reference(psi, job.psi_max())
        _, keep, scale, slabs, norm = reference
        out += [_bits(psi), job.residual(state, psi), _bits(keep), repr(scale), repr(norm),
                [_bits(starts) for _, starts in slabs], _bits(image.psi(state))]
        for view in views:
            try:
                out.append(repr(verify.pt_fit(reference, view(psi))))
            except IndeterminateError as exc:
                out.append(str(exc))
    return out


@pytest.mark.parametrize("spec", [s for s in _every_flavor() if s.dimension > 1], ids=_spec_id)
def test_slabs_on_threads_equal_the_serial_loop_bitwise(spec, monkeypatch):
    # slabs of two planes: 16 of each 41^2 mesh and 12 of each 33^3 one
    grids = verify.suggest_grids(spec, n_points={2: 41, 3: 33}[spec.dimension])
    config = REConfig((2,) * spec.dimension)
    _one_plane(monkeypatch, grids)
    _workers(monkeypatch, 1)
    want = _slab_outputs(spec, config, grids)
    for n in (2, 3):
        _workers(monkeypatch, n)
        assert _slab_outputs(spec, config, grids) == want


_PLANE_SPECS = {2: OscillatorSpec.quadratic_2d(1.0, 2.0, CouplingValue.real(0.6)),
                3: OscillatorSpec.q2_3d(1.0, 1.0, CouplingValue.real(0.5),
                                        CouplingValue.real(0.6))}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("dim", [2, 3])
def test_residual_runs_on_the_interior_planes_of_the_plan_slabs(dim, workers, monkeypatch):
    # the residual cuts the mesh as the build and psi do: one kernel call
    # per slab with interior planes, on exactly those planes of V plus a
    # halo of the stencil reach per side of psi, claimed in slab order
    spec = _PLANE_SPECS[dim]
    grids = verify.suggest_grids(spec, n_points={2: 41, 3: 33}[dim])
    _one_plane(monkeypatch, grids)
    _workers(monkeypatch, workers)
    plan = verify.MeshPlan(spec, REConfig((2,) * dim), grids)
    kernel, calls = _kernels.laplacian_residual, []

    def recorded(samples, spacings, potential, energy):
        start = (potential.ctypes.data - plan.potential.ctypes.data) // plan.potential[0].nbytes
        calls.append((start, start + potential.shape[0], samples.shape[0]))
        return kernel(samples, spacings, potential, energy)

    monkeypatch.setattr(_kernels, "laplacian_residual", recorded)
    ground = Eigenstate.ground(dim)
    plan.residual(ground, plan.psi(ground))
    n, reach = plan.shape[0], verify.STENCIL_REACH
    planes = [(max(s.start, reach) - reach, min(s.stop, n - reach) - reach) for s in plan.slabs]
    want = [(a, b, b - a + 2 * reach) for a, b in planes if a < b]
    assert len(want) == len(plan.slabs) - 2 > 10
    # threads record their calls in the order they finish them
    assert (calls if workers == 1 else sorted(calls)) == want


def _error(run, *args):
    with pytest.raises(Exception) as info:
        run(*args)
    return type(info.value), str(info.value)


def _build_error(spec, config, grids):
    return _error(verify.MeshPlan, spec, config, grids)


def _psi_error(spec, config, grids):
    return _error(lambda: verify.MeshPlan(spec, config, grids).psi(
        Eigenstate.ground(spec.dimension)))


_EARLY_OR_LATE = pytest.mark.parametrize("sign", [-1.0, 1.0], ids=["early", "late"])


@_EARLY_OR_LATE
def test_slabs_on_threads_raise_the_serial_denominator_error(sign, monkeypatch):
    # |H~_2(u)| = |4u^2 + 2| falls below a raised _TINY of 2.5 where |u| <
    # 0.35: near x = 0, in the first slabs of axis 0 or in the last ones
    monkeypatch.setattr(model, "_TINY", 2.5)
    spec, config = OscillatorSpec.oscillator(2.0, 2.0), REConfig((2, 0))
    grids = [verify.Grid(-4.0 * sign, 4.5, 41), verify.Grid(0.0, 4.0, 21)]
    _one_plane(monkeypatch, grids)
    _workers(monkeypatch, 1)
    want = _build_error(spec, config, grids)
    assert want == (SingularityError, "eigenfunction evaluated at a denominator zero")
    for n in (2, 3):
        _workers(monkeypatch, n)
        assert _build_error(spec, config, grids) == want


# meshes where |H~_2(u)| = |4u^2 + 2| falls below a raised _TINY of 2.5 (where
# |u| < 0.35): that of test_slabs_on_threads_raise_the_serial_denominator_error,
# whose axes each lie on a sub-mesh, and a q2 mesh where only the two tilde
# axes on all three mesh axes come that close (x - y >= 2 keeps the third
# off its zeros), which psi forms and checks slab by slab
_DENOMINATOR_CASES = {
    sign_id: (OscillatorSpec.oscillator(2.0, 2.0), REConfig((2, 0)),
              [verify.Grid(-4.0 * sign, 4.5, 41), verify.Grid(0.0, 4.0, 21)])
    for sign_id, sign in (("early", -1.0), ("late", 1.0))}
_DENOMINATOR_CASES["q2"] = (
    OscillatorSpec.q2_3d(1.0, 1.0, CouplingValue.real(0.5), CouplingValue.real(0.6)),
    REConfig((2, 2, 2)),
    [verify.Grid(3.0, 2.0, 21), verify.Grid(-3.0, 2.0, 21), verify.Grid(0.0, 5.0, 41)])


@pytest.mark.parametrize("case", list(_DENOMINATOR_CASES))
def test_parity_fit_on_slabs_raises_the_serial_denominator_error(case, monkeypatch):
    # through pt_parity_eigenvalue and psi of a plan on the mesh that is no
    # MeshPlan: what its build does not check, its psi does
    monkeypatch.setattr(model, "_TINY", 2.5)
    spec, config, grids = _DENOMINATOR_CASES[case]
    # P2 flips the last axis, centred on 0, so it maps these grids
    ground, parity = Eigenstate.ground(spec.dimension), transform.parity_operators(spec.dimension)[1]
    _one_plane(monkeypatch, grids)
    assert len(verify._slabs(tuple(g.n_points for g in grids))) > 1

    def errors():
        return [_error(verify.pt_parity_eigenvalue, spec, config, ground, parity, grids),
                _error(lambda: _slab_plan(spec, config, grids).psi(ground))]

    for n in (1, 2, 3):
        _workers(monkeypatch, n)
        assert errors() == [(SingularityError, "eigenfunction evaluated at a denominator zero")] * 2
    # and on a mesh of one slab
    monkeypatch.setattr(verify, "_SLAB_BYTES", 2**62)
    assert len(verify._slabs(tuple(g.n_points for g in grids))) == 1
    assert errors() == [(SingularityError, "eigenfunction evaluated at a denominator zero")] * 2


@_EARLY_OR_LATE
def test_slabs_on_threads_raise_the_serial_overflow_errors(sign, monkeypatch):
    # the prefactor overflows at one corner of the q1 mesh (see
    # test_pair_gaussian_overflow_at_one_corner_raises), at x = y = -73 or
    # +73, which psi reports on a mesh of several slabs; the build reports
    # V = omega^2 x^2 / 4, which overflows where |x| > 26.8
    q1 = OscillatorSpec.q1_3d(1.4, 1.0, CouplingValue.imaginary(0.2),
                              CouplingValue.imaginary(0.3))
    corner = [verify.Grid(36.5 * sign, 36.5, 17)] * 2 + [verify.Grid(20.0, 20.0, 17)]
    wide = [verify.Grid(20.0 * sign, 12.0, 41), verify.Grid(0.0, 4.0, 21)]
    cases = [(q1, REConfig((0, 0, 0)), corner, _psi_error,
              "the eigenfunction prefactor overflows"),
             (OscillatorSpec.oscillator(1e153, 1.0), REConfig((0, 0)), wide, _build_error,
              "V overflows")]
    for spec, config, grids, error, message in cases:
        _one_plane(monkeypatch, grids)
        _workers(monkeypatch, 1)
        want = error(spec, config, grids)
        assert want[0] is NumericalFailureError and want[1].startswith(message)
        for n in (2, 3):
            _workers(monkeypatch, n)
            assert error(spec, config, grids) == want


# ------------------------------------------------------------------ Rayleigh

def test_rayleigh_m0_ground():
    e = verify.rayleigh_energy(spec_1d(), REConfig((0,)), Eigenstate((None,)))
    assert e == pytest.approx(-1.0, abs=1e-6)


def test_rayleigh_pure_oscillator_zero_point():
    e = verify.rayleigh_energy(spec_1d(), REConfig((0,)), Eigenstate((0,)))
    # first rung above the shifted ground: absolute energy -1 + 1*omega
    assert e == pytest.approx(-1.0 + OM, abs=1e-6)
    spec = OscillatorSpec.oscillator(OM)
    e0 = model.unextended_energy(spec, (0,))
    assert e0 == pytest.approx(OM / 2)


def test_rayleigh_ladder_differences():
    for m in (0, 2):
        cfg = REConfig((m,))
        ground = verify.rayleigh_energy(spec_1d(), cfg, Eigenstate((None,)))
        for n in (0, 1, 2):
            e = verify.rayleigh_energy(spec_1d(), cfg, Eigenstate((n,)))
            assert (e - ground).real == pytest.approx((n + m + 1) * OM, abs=1e-5)


def test_rayleigh_bilinear_imaginary_1d():
    spec = spec_1d(CouplingValue.imaginary(1.0))
    cfg = REConfig((3,))
    ground = verify.rayleigh_energy(spec, cfg, Eigenstate((None,)))
    e = verify.rayleigh_energy(spec, cfg, Eigenstate((1,)))
    assert (e - ground).real == pytest.approx(5 * OM, abs=1e-5)
    assert abs((e - ground).imag) < 1e-6


def test_rayleigh_rejects_broken_reality():
    spec = OscillatorSpec.quadratic_2d(1, 1.01, CouplingValue.imaginary(0.5))
    with pytest.raises(DomainError):
        verify.rayleigh_energy(spec, REConfig((0, 0)), Eigenstate((None, None)))


# ----------------------------------------------------------------- PT values

def test_pt_values_1d_imaginary():
    spec = spec_1d(CouplingValue.imaginary(1.0))
    grids = verify.suggest_grids(spec, n_points=2001)
    inv = transform.space_inversion(1)
    for m in (1, 3):
        cfg = REConfig((m,))
        s = verify.pt_parity_eigenvalue(spec, cfg, Eigenstate((None,)), inv, grids)
        assert s == pytest.approx(1.0, abs=1e-8)
        for n in range(4):
            s = verify.pt_parity_eigenvalue(spec, cfg, Eigenstate((n,)), inv, grids)
            assert s == pytest.approx((-1.0) ** (n + 1), abs=1e-8)


def test_pt_value_real_spec_trivial():
    spec = spec_1d()
    grids = verify.suggest_grids(spec, n_points=1001)
    inv = transform.space_inversion(1)
    s = verify.pt_parity_eigenvalue(spec, REConfig((0,)), Eigenstate((None,)),
                                    inv, grids)
    assert s == pytest.approx(1.0, abs=1e-10)


def test_pt_indeterminate_for_wrong_parity():
    # P1 reverses the sign of a real xy coupling: not a symmetry here
    spec = OscillatorSpec.quadratic_2d(1, 2, CouplingValue.real(SQ7 / 2))
    grids = verify.suggest_grids(spec, n_points=301)
    p1, _, swap, _ = transform.parity_operators(2)
    with pytest.raises(IndeterminateError, match="residual 7.6..e-01"):
        verify.pt_parity_eigenvalue(spec, REConfig((0, 0)), Eigenstate((0, None)), p1, grids)
    # the axis swap does not map these unequal grids onto themselves
    with pytest.raises(DomainError, match="parity P3 does not map the grids"):
        verify.pt_parity_eigenvalue(spec, REConfig((0, 0)), Eigenstate((0, None)), swap, grids)


def test_pt_2d_per_axis_signs():
    spec = OscillatorSpec.quadratic_2d(1, 3, CouplingValue.imaginary(SQ7))
    cfg = REConfig((2, 2))
    grids = verify.suggest_grids(spec, n_points=401)
    p1, p2 = model.pt_classification(spec)
    for n1 in (None, 0, 1):
        for n2 in (None, 0, 1):
            st = Eigenstate((n1, n2))
            s1 = verify.pt_parity_eigenvalue(spec, cfg, st, p1, grids)
            s2 = verify.pt_parity_eigenvalue(spec, cfg, st, p2, grids)
            e1 = 1.0 if n1 is None else (-1.0) ** (n1 + 1)
            e2 = 1.0 if n2 is None else (-1.0) ** (n2 + 1)
            assert s1 == pytest.approx(e1, abs=1e-7)
            assert s2 == pytest.approx(e2, abs=1e-7)
            if n1 is not None and n2 is not None:
                assert s1 * s2 == pytest.approx((-1.0) ** (n1 + n2 + 2), abs=1e-6)


# ---------------------------------------------------------------------- Gram

def test_gram_m2_states():
    g = verify.orthogonality_gram(spec_1d(), REConfig((2,)),
                                  [Eigenstate((None,)), Eigenstate((0,)),
                                   Eigenstate((1,))])
    off = g - np.diag(np.diag(g))
    assert np.max(np.abs(off)) <= 1e-7
    np.testing.assert_allclose(np.diag(g).real, 1.0, atol=1e-12)


def test_gram_pure_oscillator():
    g = verify.orthogonality_gram(spec_1d(), REConfig((0,)),
                                  [Eigenstate((0,)), Eigenstate((1,))])
    assert abs(g[0, 1]) <= 1e-10


def test_gram_refuses_non_hermitian():
    spec = spec_1d(CouplingValue.imaginary(1.0))
    with pytest.raises(DomainError):
        verify.orthogonality_gram(spec, REConfig((0,)), [Eigenstate((None,))])


# ----------------------------------------------------------------- pole scan

def test_pole_scan_real_shift():
    spec = spec_1d(CouplingValue.real(1.0))
    hits = verify.pole_scan(spec, REConfig((1,)))
    assert len(hits) == 1
    assert hits[0].coordinate == pytest.approx(-0.5, abs=1e-9)


def test_pole_scan_imaginary_shift_empty():
    spec = spec_1d(CouplingValue.imaginary(1.0))
    for m in (1, 2, 3, 5):
        assert verify.pole_scan(spec, REConfig((m,))) == []


def test_pole_scan_even_real_empty():
    for spec in [spec_1d(), spec_1d(CouplingValue.real(0.7))]:
        for m in (0, 2, 4):
            assert verify.pole_scan(spec, REConfig((m,))) == []


@pytest.mark.parametrize("m, want", [(37, [-0.35]), (38, [])])
def test_pole_scan_large_codimension(m, want):
    # shift = 2 * 0.7 / 2**2: an odd companion's one real zero, 0, puts the
    # pole at -shift; an even one is nodeless
    hits = verify.pole_scan(spec_1d(CouplingValue.real(0.7)), REConfig((m,)))
    assert [h.axis for h in hits] == [0] * len(want)
    assert [h.coordinate for h in hits] == pytest.approx(want, abs=1e-12)


def test_pole_scan_box_is_open_below_closed_above():
    # m = 1 puts the one pole at -shift = -0.5
    spec, cfg = spec_1d(CouplingValue.real(1.0)), REConfig((1,))
    hits = verify.pole_scan(spec, cfg, [(-1.0, -0.5)])
    assert [(h.axis, h.coordinate) for h in hits] == [(0, -0.5)]
    assert verify.pole_scan(spec, cfg, [(-0.5, 0.0)]) == []


def test_regularity_dichotomy_lq_matrix():
    rng = np.random.default_rng(51)
    flavors = ["real", "imaginary"]
    for draw in range(200):
        f0 = flavors[draw % 2]
        fl = flavors[(draw // 2) % 2]
        while True:
            w1, w2 = rng.uniform(0.5, 2.5, size=2)
            if abs(w1**2 - w2**2) > 0.4:
                break
        w3 = rng.uniform(0.5, 2.5)
        mag_l = (rng.uniform(0.05, 0.3) * abs(w1**2 - w2**2) if fl == "imaginary"
                 else rng.uniform(0.1, w1 * w2))
        spec = OscillatorSpec.lq_3d(w1, w2, w3,
                                    CouplingValue(rng.uniform(0.1, 1.5), f0),
                                    CouplingValue(mag_l, fl))
        ms = tuple(int(m) for m in rng.integers(0, 6, size=3))
        cfg = REConfig(ms)
        rules = model.admissible_codimensions(spec)
        admissible = all(m % 2 == 0 or r == "even_and_odd"
                         for m, r in zip(ms, rules))
        poles = verify.pole_scan(spec, cfg)
        assert admissible == (len(poles) == 0), (spec, ms, poles)


# --------------------------------------------------------------- grid oracle

def test_grid_spectrum_m0():
    vals = verify.grid_spectrum(spec_1d(), REConfig((0,)), (-12, 12), 2000, 4)
    gaps = np.diff(vals)
    np.testing.assert_allclose(gaps, [2.0, 2.0, 2.0], atol=1e-3)


def test_grid_spectrum_m2_gap_ladder():
    vals = verify.grid_spectrum(spec_1d(), REConfig((2,)), (-12, 12), 2000, 4)
    gaps = np.diff(vals)
    np.testing.assert_allclose(gaps, [6.0, 2.0, 2.0], atol=2e-3)


def test_grid_spectrum_shift_invariance():
    base = verify.grid_spectrum(spec_1d(), REConfig((0,)), (-12, 12), 2000, 3)
    spec = spec_1d(CouplingValue.real(1.0))
    shifted = verify.grid_spectrum(spec, REConfig((0,)), (-12.5, 11.5), 2000, 3)
    np.testing.assert_allclose(shifted, base - 1.0 / OM**2, atol=1e-3)


def test_grid_spectrum_rejects_poles():
    spec = spec_1d(CouplingValue.real(1.0))
    with pytest.raises((SingularityError, DomainError)):
        verify.grid_spectrum(spec, REConfig((1,)), (-12, 12), 500, 2)


# ------------------------------------------------------ metric and PT checks

def test_pseudo_hermiticity_identity_for_real_spec():
    spec = OscillatorSpec.quadratic_2d(1, 2, CouplingValue.real(0.5))
    dev = model.pt_deviation(spec, np.eye(2))
    assert dev == pytest.approx(0.0, abs=1e-14)


def test_pseudo_hermiticity_reports_finite_deviation():
    spec = OscillatorSpec.quadratic_2d(1, 3, CouplingValue.imaginary(SQ7))
    k = transform.mixing_factor_2d(1, 3, CouplingValue.imaginary(SQ7))
    eta = transform.eta_metric_2d(k)
    dev = model.pt_deviation(spec, eta)
    assert np.isfinite(dev)  # pointwise reading need not vanish; see report


def test_pseudo_hermiticity_negative_identity_edge():
    spec = OscillatorSpec.quadratic_2d(1, 2, CouplingValue.real(0.5))
    eta = transform.eta_metric_2d(1.0)  # -identity
    ref = model.pt_deviation(spec, transform.ParityOperator(-np.eye(2)))
    dev = model.pt_deviation(spec, eta)
    assert dev == pytest.approx(ref, abs=1e-12)


def test_pt_pointwise_assignments_hold_where_applicable():
    # single-axis flips are pointwise identities for their assigned cases
    spec = OscillatorSpec.quadratic_2d(1, 3, CouplingValue.imaginary(SQ7))
    for op in model.pt_classification(spec):
        assert model.pt_deviation(spec, op) < 1e-12
    spec = OscillatorSpec.q1_3d(1.4, 1.0, CouplingValue.imaginary(0.2),
                                CouplingValue.imaginary(0.3))
    for op in model.pt_classification(spec):
        assert model.pt_deviation(spec, op) < 1e-12


def test_reality_boundary_scan_2d():
    w1, w2 = 1.0, 3.0
    boundary = 0.5 * abs(w1**2 - w2**2)
    step = 1e-6
    gammas = boundary + step * np.arange(-3, 4)
    complex_flags = []
    for g in gammas:
        freqs = transform.tilde_frequencies_2d(w1, w2, CouplingValue.imaginary(g))
        complex_flags.append(any(abs(complex(f).imag) > 1e-9 for f in freqs))
    # reality must break within one step of the printed boundary
    first_complex = gammas[complex_flags.index(True)]
    assert abs(first_complex - boundary) <= step + 1e-12
    assert not complex_flags[0] and complex_flags[-1]
