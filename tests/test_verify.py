"""Residuals, Rayleigh quotients, PT measurement, Gram, poles, grid oracle."""
import itertools
import math

import numpy as np
import pytest

from rexosc import _kernels, model, poly, transform, verify
from rexosc.errors import (
    DomainError,
    IndeterminateError,
    NumericalFailureError,
    SingularityError,
)
from rexosc.model import Eigenstate, OscillatorSpec, REConfig
from rexosc.transform import CouplingValue

SQ7 = np.sqrt(7.0)
OM = 2.0


def spec_1d(l0=None):
    return (OscillatorSpec.linear_1d(OM, l0) if l0 is not None
            else OscillatorSpec.oscillator(OM))


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
    plan = model.plan(spec, config, verify._mesh(grids), validate=False)
    bad = np.zeros((93, 13), dtype=bool)
    verify._pole_hits(bad, [verify._interior(u) for u in plan.scaled], config.codimensions)
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
    # every state reads the plan's arrays and writes none of them, so running
    # the states again gives the same results
    spec = OscillatorSpec.quadratic_2d(1, 3, CouplingValue.imaginary(SQ7))
    config, grids = REConfig((2, 2)), verify.suggest_grids(spec, n_points=41)
    plan = verify.MeshPlan(spec, config, grids)
    states = [Eigenstate(lv) for lv in ((None, None), (0, None), (None, 0), (1, 1))]
    images = [verify.SlabPlan(spec, config, grids, op) for op in model.pt_classification(spec)]

    def work(state):
        psi = plan.psi(state)
        return plan.residual(state, psi), [
            verify.pt_fit(verify.pt_reference(psi), im.psi(state)) for im in images]

    # a 41^2 mesh is one slab, whose scaled parameters the plan keeps
    arrays = [plan.potential, plan.keep, plan.prefactor, *plan.scaled]
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
    index_map = verify._index_map(grids, op)
    assert index_map is not None
    image = verify.SlabPlan(spec, config, grids, op)
    for state in _states(spec.dimension):
        psi = plan.psi(state)
        want = image.psi(state)
        got = verify._on_image(psi, index_map)
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
    job = verify.MeshPlan(spec, REConfig((2, 2)), grids)
    for op in transform.parity_operators(2)[2:]:
        assert verify.ParityImage(job, op).plan is None
    # equal frequencies alone do not snap: q1_3d's x and y decay differently
    spec = _case_spec("q1_3d", ())
    half_widths = [g.half_width for g in verify.suggest_grids(spec, n_points=41)]
    assert abs(half_widths[0] - half_widths[1]) > 1e-3


def test_index_map_needs_grids_mapped_onto_themselves():
    grids = [verify.Grid(0.0, 5.0, 21), verify.Grid(0.0, 6.0, 21)]
    p1, _, swap, _ = transform.parity_operators(2)
    assert verify._index_map(grids, p1) is not None
    assert verify._index_map(grids, swap) is None
    shifted = [verify.Grid(0.5, 5.0, 21), grids[1]]
    assert verify._index_map(shifted, p1) is None


def test_on_image_reads_a_function_at_the_parity_image():
    # a signed 3-cycle: (P x) = (-x2, x0, x1), on one grid centered on 0
    grids = [verify.Grid(0.0, 2.0, 9)] * 3
    op = transform.ParityOperator(np.array([[0, 0, -1], [1, 0, 0], [0, 1, 0]]))
    x = np.broadcast_arrays(*verify._mesh(grids))
    f = x[0] + 10 * x[1] + 100 * x[2]
    want = -x[2] + 10 * x[0] + 100 * x[1]
    got = verify._on_image(f, verify._index_map(grids, op))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("spec", _NAMED_PARITY_SPECS, ids=_spec_id)
def test_open_mesh_plan_equals_stacked_mesh_plan(spec):
    grids = verify.suggest_grids(spec, n_points=_POINTS[spec.dimension])
    config = REConfig((2,) * spec.dimension)
    mesh = verify._mesh(grids)
    stacked = np.stack(np.broadcast_arrays(*mesh)).astype(complex)
    open_plan = model.plan(spec, config, mesh)
    stacked_plan = model.plan(spec, config, stacked)
    for state in _states(spec.dimension):
        want = stacked_plan.psi(state)
        got = open_plan.psi(state)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    want = stacked_plan.potential(stacked)
    got = open_plan.potential(mesh)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


# The residual as first written: complex stencil passes over the whole mesh,
# V on the whole mesh, boolean gathers and three IRLS passes. MeshPlan must
# reproduce it, and psi and V from a whole-mesh ``model.Plan``, bit for bit.

def _unblocked_profile(f, spacing, axis):
    n = f.shape[axis]
    window = [slice(None)] * f.ndim
    out = term = None
    for j, c in enumerate(_kernels.STENCIL8):
        window[axis] = slice(j, n - 8 + j)
        if out is None:
            out = c * f[tuple(window)]
        else:
            term = np.multiply(c, f[tuple(window)], out=term)
            out += term
    out /= spacing**2
    return out


def _unblocked_laplacian(psi, grids):
    lap = None
    for axis, grid in enumerate(grids):
        d2 = _unblocked_profile(psi, grid.spacing, axis)
        sl = tuple(slice(None) if a == axis else slice(4, psi.shape[a] - 4)
                   for a in range(psi.ndim))
        if lap is None:
            lap = d2[sl]
        else:
            lap += d2[sl]
    return lap


def _unblocked_residual(spec, config, grids, keep, potential, state, psi):
    r = potential * verify._interior(psi)
    r -= _unblocked_laplacian(psi, grids)
    pk = verify._interior(psi)[keep]
    rk = r[keep]
    e_rel = model.relative_energy(config, state, spec.system)
    energy = model.ground_energy(spec, config) + e_rel
    err = np.abs(rk - energy * pk)
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
        whole = model.plan(spec, config, mesh)
        potential = verify._interior(whole.potential(mesh))
        assert _bits(job.potential) == _bits(potential)
        bad = np.zeros(potential.shape, dtype=bool)
        verify._pole_hits(bad, [verify._interior(u) for u in whole.scaled],
                          config.codimensions)
        assert _bits(job.keep) == _bits(~verify._guard_band(bad))
        assert job.keep.any()
        assert job.keep.all() == (m == 0 or not spec.imaginary_couplings)
        for state in _states(spec.dimension):
            psi = whole.psi(state)
            assert _bits(job.psi(state)) == _bits(psi)
            got = job.residual(state, job.psi(state))
            want = _unblocked_residual(spec, config, grids, job.keep, potential, state, psi)
            assert repr(got) == repr(want)


def _one_plane(monkeypatch, grids):
    """``_SLAB_BYTES`` of one axis-0 plane: slabs of one plane in ``_kernels``
    and of two, the fewest a plan's slab holds, in ``verify``."""
    monkeypatch.setattr(_kernels, "_SLAB_BYTES", 16 * math.prod(g.n_points for g in grids[1:]))


@pytest.mark.parametrize("spec", _every_flavor(), ids=_spec_id)
def test_mesh_plan_does_not_depend_on_the_slab_size(spec, monkeypatch):
    points = {1: 201, 2: 41, 3: 49}[spec.dimension]
    grids = verify.suggest_grids(spec, n_points=points)
    config = REConfig((2,) * spec.dimension)
    states = _states(spec.dimension)
    monkeypatch.setattr(_kernels, "_SLAB_BYTES", 2**40)
    whole = verify.MeshPlan(spec, config, grids)
    assert len(whole.slabs) == 1
    want = [_bits(whole.potential), _bits(whole.keep), _bits(whole.prefactor)]
    want += [(_bits(whole.psi(st)), whole.residual(st, whole.psi(st))) for st in states]
    _one_plane(monkeypatch, grids)
    job = verify.MeshPlan(spec, config, grids)
    assert len(job.slabs) == (points - 8) // 2
    got = [_bits(job.potential), _bits(job.keep), _bits(job.prefactor)]
    got += [(_bits(job.psi(st)), job.residual(st, job.psi(st))) for st in states]
    assert got == want


@pytest.mark.parametrize("n", [9, 10, 11, 12, 13, 14, 25, 41, 101])
def test_slabs_hold_two_planes_of_the_mesh_and_of_the_interior(n, monkeypatch):
    # NumPy multiplies a one-element complex array in place by another loop
    # (see ``_kernels``): no slab may hold one plane of the mesh, nor one of
    # the interior, where V and the pole hits are formed
    reach = verify.STENCIL_REACH
    for planes in range(1, n + 1):
        monkeypatch.setattr(_kernels, "_SLAB_BYTES", planes * 16 * n)
        slabs = verify._slabs((n, n))
        assert [s.start for s in slabs[1:]] == [s.stop for s in slabs[:-1]]
        assert slabs[0].start == 0 and slabs[-1].stop == n
        for s in slabs:
            interior = min(s.stop, n - reach) - max(s.start, reach)
            assert s.stop - s.start >= 2
            assert interior >= 2 or interior == n - 2 * reach == 1


@pytest.mark.parametrize("one_plane", [False, True])
def test_image_plan_equals_the_whole_mesh_plan_on_the_image_bitwise(one_plane, monkeypatch):
    # unequal frequencies give unequal grids, which the swaps do not map onto
    # themselves: psi on the image comes from a plan on the image mesh
    spec = OscillatorSpec.quadratic_2d(1.0, 2.0, CouplingValue.real(0.6))
    config = REConfig((2, 2))
    grids = verify.suggest_grids(spec, n_points=401)
    if one_plane:
        _one_plane(monkeypatch, grids)
    mesh = verify._mesh(grids)
    for op in transform.parity_operators(2)[2:]:
        assert verify._index_map(grids, op) is None
        perm, signs = verify._signed_permutation(op)
        image = [s * mesh[p] for p, s in zip(perm, signs)]
        whole = model.Plan(spec, config, image)
        plan = verify.SlabPlan(spec, config, grids, op)
        assert len(plan.slabs) == (196 if one_plane else 5)
        for state in _states(2):
            assert _bits(plan.psi(state)) == _bits(whole.psi(state))


@pytest.mark.parametrize("kept", [1, 2, 5, 40_000])
def test_pt_fit_equals_the_whole_array_fit_bitwise(kept):
    # the fit as first written, with fresh arrays, on kept points of random
    # phase whose image is conj(c * psi); 40 000 points pass NumPy's
    # temporary-elision threshold
    rng = np.random.default_rng(kept)
    for _ in range(20):
        psi = rng.standard_normal(kept) + 1j * rng.standard_normal(kept)
        c = np.exp(1j * rng.uniform(0, 2 * np.pi))
        keep = np.ones(kept, dtype=bool)
        w = np.conj(np.conj(c * psi)[keep])
        want = np.sum(np.conj(psi) * w) / np.sum(np.abs(psi) ** 2)
        got = verify.pt_fit((keep, psi.copy(), np.max(np.abs(psi))), np.conj(c * psi))
        assert repr(got) == repr(complex(want))


def test_mesh_plan_holds_its_prefactor_potential_and_mask_only():
    # 16 B per mesh point (the prefactor) and 17 B per interior point (V and
    # the mask): no scaled parameter or other mesh-sized array is kept
    spec = OscillatorSpec.q2_3d(1.0, 1.0, CouplingValue.real(0.5), CouplingValue.real(0.6))
    job = verify.MeshPlan(spec, REConfig((2, 2, 2)), verify.suggest_grids(spec, n_points=41))
    assert len(job.slabs) > 1
    held = [a for v in vars(job).values()
            for a in (v if isinstance(v, (list, tuple)) else [v]) if isinstance(a, np.ndarray)]
    assert sum(a.nbytes for a in held) <= 16 * 41**3 + 17 * 33**3


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
    # per axis on all three grid axes: the pair constant along axis 0 once
    # (41^2 values), the two others slab by slab (2 * 41^2 in all); the
    # axis on a 2D sub-mesh 41^2 at most: 7 * 41^2 (83 * 41^2 with exp on
    # the full mesh)
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
        got = g(mesh)
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
    pair = model._pair_gaussians(sys, mesh)[1]
    assert pair is not None
    with np.errstate(over="ignore", invalid="ignore"):
        t = sys.coordinate_map.forward_axis(1, mesh)
        direct = model._gaussian(sys.tilde_frequencies[1], t)
        got = pair(mesh)
    for g in (direct, got):
        assert np.argwhere(~np.isfinite(g)).tolist() == [[8, 8, 0]]
    config = REConfig((0, 0, 0))
    for build in (verify.SlabPlan, verify.MeshPlan):
        with pytest.raises(NumericalFailureError, match="prefactor overflows"):
            build(spec, config, grids)


@pytest.mark.parametrize("half_width", [65.0, 70.0])
def test_pair_gaussian_overflow_takes_the_direct_gaussian(half_width):
    # on these wide cubes a pair factor of tilde axis 2 passes exp's range
    # where the whole Gaussian does not (the pair exponents cancel where
    # x = -y): those points take the prefactor with the direct Gaussian,
    # and every other point keeps the pair path's, bit for bit
    spec = OscillatorSpec.q1_3d(1.4, 1.0, CouplingValue.imaginary(0.2),
                                CouplingValue.imaginary(0.3))
    config = REConfig((2, 2, 2))
    grids = [verify.Grid(0.0, half_width, 41)] * 3
    mesh = verify._mesh(grids)
    with np.errstate(over="ignore", invalid="ignore"):
        pair = model.Plan(spec, config, mesh).prefactor
    overflowed = ~np.isfinite(pair)
    assert overflowed.any()
    stacked = np.stack(np.broadcast_arrays(*mesh)).astype(complex)
    direct = model.Plan(spec, config, stacked).prefactor
    assert np.isfinite(direct).all()
    job = verify.MeshPlan(spec, config, grids)
    assert len(job.slabs) > 1
    got = job.prefactor
    assert got[~overflowed].tobytes() == pair[~overflowed].tobytes()
    big = np.abs(direct) > 1e-250
    assert np.max(np.abs(got - direct)[big] / np.abs(direct)[big]) <= 1e-12


# ---------------------------------------------------------- slabs on threads

def _workers(monkeypatch, n):
    """``_kernels.map_slabs`` on n workers, whatever the CPUs of the machine."""
    monkeypatch.setattr(_kernels, "_cpus", lambda: n)


# a signed permutation that maps no unequal grids onto themselves: psi on
# its image comes from an image plan
_SWAPS = {2: transform.parity_operators(2)[2],
          3: transform.ParityOperator(np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]]), "S13")}


def _slab_outputs(spec, config, grids):
    """Every array a verify job forms slab by slab, with its residuals."""
    job = verify.MeshPlan(spec, config, grids)
    image = verify.SlabPlan(spec, config, grids, _SWAPS[spec.dimension])
    out = [_bits(job.prefactor), _bits(job.potential), _bits(job.keep), _bits(image.prefactor)]
    for state in _states(spec.dimension):
        psi = job.psi(state)
        keep, kept, scale = verify.pt_reference(psi)
        out += [_bits(psi), job.residual(state, psi), _bits(keep), _bits(kept), repr(scale),
                _bits(image.psi(state))]
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


def _build_error(spec, config, grids):
    with pytest.raises(Exception) as info:
        verify.MeshPlan(spec, config, grids)
    return type(info.value), str(info.value)


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


@_EARLY_OR_LATE
def test_slabs_on_threads_raise_the_serial_overflow_errors(sign, monkeypatch):
    # the prefactor overflows at one corner of the q1 mesh (see
    # test_pair_gaussian_overflow_at_one_corner_raises), at x = y = -73 or
    # +73; V = omega^2 x^2 / 4 overflows where |x| > 26.8
    q1 = OscillatorSpec.q1_3d(1.4, 1.0, CouplingValue.imaginary(0.2),
                              CouplingValue.imaginary(0.3))
    corner = [verify.Grid(36.5 * sign, 36.5, 17)] * 2 + [verify.Grid(20.0, 20.0, 17)]
    wide = [verify.Grid(20.0 * sign, 12.0, 41), verify.Grid(0.0, 4.0, 21)]
    cases = [(q1, REConfig((0, 0, 0)), corner, "the eigenfunction prefactor overflows"),
             (OscillatorSpec.oscillator(1e153, 1.0), REConfig((0, 0)), wide, "V overflows")]
    for spec, config, grids, message in cases:
        _one_plane(monkeypatch, grids)
        _workers(monkeypatch, 1)
        want = _build_error(spec, config, grids)
        assert want[0] is NumericalFailureError and want[1].startswith(message)
        for n in (2, 3):
            _workers(monkeypatch, n)
            assert _build_error(spec, config, grids) == want


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
    spec = OscillatorSpec.quadratic_2d(1, 3, CouplingValue.imaginary(SQ7))
    grids = verify.suggest_grids(spec, n_points=301)
    swap = transform.parity_operators(2)[2]  # axis swap: not a symmetry here
    with pytest.raises(IndeterminateError):
        verify.pt_parity_eigenvalue(spec, REConfig((0, 0)),
                                    Eigenstate((0, None)), swap, grids)


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
