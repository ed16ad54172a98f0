"""Residuals, Rayleigh quotients, PT measurement, Gram, poles, grid oracle."""
import itertools
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from rexosc import _kernels, model, transform, verify
from rexosc.errors import DomainError, IndeterminateError, SingularityError
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
    res, off = verify.residual_scan(spec_1d(), REConfig((0,)),
                                    Eigenstate((None,)), grid_1d)
    assert res <= 1e-7
    assert off == pytest.approx(-1.0, abs=1e-6)


def test_residual_m2_offset_state_independent(grid_1d):
    offsets = []
    for lv in [None, 0, 1]:
        res, off = verify.residual_scan(spec_1d(), REConfig((2,)),
                                        Eigenstate((lv,)), grid_1d)
        assert res <= 1e-6
        offsets.append(off)
    assert max(abs(o - offsets[0]) for o in offsets) < 1e-5


def test_residual_2d_imaginary_ground():
    spec = OscillatorSpec.quadratic_2d(1, 3, CouplingValue.imaginary(SQ7))
    grids = verify.suggest_grids(spec, n_points=1001)
    res, off = verify.residual_scan(spec, REConfig((2, 2)),
                                    Eigenstate((None, None)), grids)
    assert res <= 1e-6
    # offset equals -(m+1/2) weighted by the tilde frequencies
    w1, w2 = np.sqrt(2), 2 * np.sqrt(2)
    assert off == pytest.approx(-2.5 * w1 - 2.5 * w2, abs=1e-5)


def test_residual_respects_pole_guard():
    spec = OscillatorSpec.quadratic_2d(1, 3, CouplingValue.imaginary(SQ7))
    grids = verify.suggest_grids(spec, n_points=801)
    with pytest.raises(SingularityError):
        verify.residual_scan(spec, REConfig((2, 2)),
                             Eigenstate((None, None)), grids, pole_guard=50.0)


def test_pole_mask_stops_at_the_mesh_faces():
    # the m=1 denominator of the plain oscillator vanishes at x = 0, inside
    # the guard radius of the first interior column only; its guard band
    # must end at the near face, not reappear at the far one
    spec = OscillatorSpec.oscillator(2.0, 2.0)
    grids = [verify.Grid(5.0, 5.1, 101), verify.Grid(0.0, 5.0, 21)]
    plan = model.plan(spec, REConfig((1, 0)), verify._mesh(grids), validate=False)
    mask = verify._pole_mask(plan, verify._POLE_GUARD)
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


def test_mesh_plan_shared_by_threads():
    spec = OscillatorSpec.quadratic_2d(1, 3, CouplingValue.imaginary(SQ7))
    plan = verify.MeshPlan(spec, REConfig((2, 2)), verify.suggest_grids(spec, n_points=41))
    states = [Eigenstate(lv) for lv in ((None, None), (0, None), (None, 0), (1, 1))]
    images = [verify.image_plan(plan.plan, plan.grids, op)
              for op in transform.pt_classification(spec)]

    def work(state):
        psi = plan.plan.psi(state)
        return plan.residual(state, psi), [
            verify.pt_fit(verify.pt_reference(psi), im.psi(state), verify.PT_FIT_TOLERANCE)
            for im in images]

    want = [work(st) for st in states]
    arrays = [plan.potential, plan.keep, plan.plan.prefactor, *plan.plan.scaled]
    before = [a.copy() for a in arrays]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(work, st) for _ in range(5) for st in states]
            got = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == want * 5
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
    """The PT fit read off the mesh psi by index reversal against the fit on
    an image plan, for a few states; the tolerance is lifted so that a broken
    symmetry is compared too."""
    plan = model.plan(spec, config, verify._mesh(grids))
    index_map = verify._index_map(grids, op)
    assert index_map is not None
    image = verify.image_plan(plan, grids, op)
    for state in _states(spec.dimension):
        psi = plan.psi(state)
        ref = verify.pt_reference(psi)
        got = verify.pt_fit(ref, verify._on_image(psi, index_map), np.inf)
        want = verify.pt_fit(ref, image.psi(state), np.inf)
        assert abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("spec", _NAMED_PARITY_SPECS, ids=_spec_id)
def test_index_map_fit_equals_image_plan_fit(spec):
    grids = verify.suggest_grids(spec, n_points=_POINTS[spec.dimension])
    config = REConfig((2,) * spec.dimension)
    for op in transform.pt_classification(spec):
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
        assert verify.ParityImage(job.plan, grids, op).plan is None
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
# reproduce it bit for bit.

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


def _unblocked_residual(job, state, psi):
    potential = verify._interior(job.plan.potential(verify._mesh(job.grids)))
    r = potential * verify._interior(psi)
    r -= _unblocked_laplacian(psi, job.grids)
    pk = verify._interior(psi)[job.keep]
    rk = r[job.keep]
    sys = job.plan.spec.system
    e_rel = model.relative_energy(job.plan.config, state, sys)
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
    # an imaginary coupling, q1_3d's included); m=0 keeps every point
    points = {1: 201, 2: 41, 3: 49}[spec.dimension]
    grids = verify.suggest_grids(spec, n_points=points)
    for m in (0, 2):
        job = verify.MeshPlan(spec, REConfig((m,) * spec.dimension), grids)
        assert job.keep.any()
        assert job.keep.all() == (m == 0 or not spec.imaginary_couplings)
        for state in _states(spec.dimension):
            psi = job.plan.psi(state)
            got = job.residual(state, psi)
            want = _unblocked_residual(job, state, psi)
            assert repr(got) == repr(want)


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
    p1, p2 = transform.pt_classification(spec)
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
    dev = verify.pseudo_hermiticity_check(spec, np.eye(2))
    assert dev == pytest.approx(0.0, abs=1e-14)


def test_pseudo_hermiticity_reports_finite_deviation():
    spec = OscillatorSpec.quadratic_2d(1, 3, CouplingValue.imaginary(SQ7))
    k = transform.mixing_factor_2d(1, 3, CouplingValue.imaginary(SQ7))
    eta = transform.eta_metric_2d(k)
    dev = verify.pseudo_hermiticity_check(spec, eta)
    assert np.isfinite(dev)  # pointwise reading need not vanish; see report


def test_pseudo_hermiticity_negative_identity_edge():
    spec = OscillatorSpec.quadratic_2d(1, 2, CouplingValue.real(0.5))
    eta = transform.eta_metric_2d(1.0)  # -identity
    ref = verify.pt_pointwise_deviation(spec, transform.ParityOperator(-np.eye(2)))
    dev = verify.pseudo_hermiticity_check(spec, eta)
    assert dev == pytest.approx(ref, abs=1e-12)


def test_pt_pointwise_assignments_hold_where_applicable():
    # single-axis flips are pointwise identities for their assigned cases
    spec = OscillatorSpec.quadratic_2d(1, 3, CouplingValue.imaginary(SQ7))
    for op in transform.pt_classification(spec):
        assert verify.pt_pointwise_deviation(spec, op) < 1e-12
    spec = OscillatorSpec.q1_3d(1.4, 1.0, CouplingValue.imaginary(0.2),
                                CouplingValue.imaginary(0.3))
    for op in transform.pt_classification(spec):
        assert verify.pt_pointwise_deviation(spec, op) < 1e-12


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
