"""Potentials, eigenfunctions, energies, admissibility, spectra."""
from fractions import Fraction

import numpy as np
import pytest

import oracles
from rexosc import model, transform
from rexosc.errors import (
    DegenerateDirectionError,
    DegenerateTransformError,
    DomainError,
    ShapeError,
    SingularityError,
)
from rexosc.model import Eigenstate, OscillatorSpec, REConfig
from rexosc.transform import CouplingValue

SQ7 = np.sqrt(7.0)


def _hex(zs):
    return [(complex(z).real.hex(), complex(z).imag.hex()) for z in zs]


def _spec_1d(lam0):
    if lam0 is None:
        return OscillatorSpec.oscillator(2.0)
    return OscillatorSpec.linear_1d(2.0, lam0)


# ------------------------------------------------------------- base potential

def test_base_potential_2d_hand_value():
    spec = OscillatorSpec.quadratic_2d(1, 2, CouplingValue.real(SQ7 / 2))
    assert model.base_potential(spec, np.array([2.0, 0.0])) == pytest.approx(1.0)


def test_base_potential_imaginary_example():
    spec = OscillatorSpec.quadratic_2d(1, 3, CouplingValue.imaginary(SQ7))
    v = model.base_potential(spec, np.array([1.0, 1.0]))
    assert v == pytest.approx(2.5 + 1j * SQ7 / 2)


def test_base_potential_origin():
    for spec in [OscillatorSpec.oscillator(1.0),
                 OscillatorSpec.quadratic_2d(1, 2, CouplingValue.real(0.3)),
                 OscillatorSpec.q2_3d(1.0, 2.0, CouplingValue.real(0.1),
                                      CouplingValue.imaginary(0.2))]:
        assert model.base_potential(spec, np.zeros(spec.dimension)) == 0


def test_base_potential_shape_error():
    spec = OscillatorSpec.oscillator(1.0, 2.0)
    with pytest.raises(ShapeError):
        model.base_potential(spec, np.zeros(3))


# -------------------------------------------------------------- rational term

def test_rational_term_m0_constant():
    xs = np.linspace(-3, 3, 7).astype(complex)
    np.testing.assert_allclose(model.rational_term_1d(2.0, 0, xs), -2.0,
                               atol=1e-14)


@pytest.mark.parametrize("m", [0, 1, 2, 3])
@pytest.mark.parametrize("l0", [0.0, 1.0, 0.6j, 1j])
def test_rational_term_matches_printed_rows(m, l0):
    rng = np.random.default_rng(17)
    om = 2.0
    x = rng.normal(size=20) + 1j * rng.normal(size=20)
    xt = x + 2 * l0 / om**2
    mine = om**2 * x**2 / 4 + l0 * x + model.rational_term_1d(om, m, xt)
    ref = oracles.potential_row_1d(m, om, l0, x)
    np.testing.assert_allclose(mine, ref, rtol=1e-12)


def test_rational_term_singularity():
    with pytest.raises(SingularityError):
        model.rational_term_1d(2.0, 1, np.array([0.0 + 0j]))


def _extension_defect(m, j, eps=None, numerator=None):
    """h^3 e^(u^2/2) (-psi'' + (u^2 - 2(h''/h - h'^2/h^2 + 1)) psi - eps psi)
    for psi = N/h e^(-u^2/2), as integer coefficients: h = p_m, N the
    numerator of index j (1 on the ground level, j = 0), and eps = -(2m+1)
    there and 2n+1 on level n = j - 1, unless given. With phi = N/h, each
    f_k = h^3 phi^(k) is a polynomial."""
    add, mul, scale = oracles.int_add, oracles.int_mul, oracles.int_scale
    d = oracles.int_derivative
    h = oracles.int_pseudo_hermite(m)
    n = oracles.int_numerator(m, j) if numerator is None else numerator
    if eps is None:
        eps = -(2 * m + 1) if j == 0 else 2 * j - 1
    h1, h2, n1, n2 = d(h), d(d(h)), d(n), d(d(n))
    hh, hh1 = mul(h, h), mul(h, h1)
    f0 = mul(hh, n)
    f1 = add(mul(hh, n1), scale(-1, mul(hh1, n)))
    f2 = add(mul(hh, n2), scale(-2, mul(hh1, n1)), scale(-1, mul(mul(h, h2), n)),
             scale(2, mul(mul(h1, h1), n)))
    # e^(u^2/2) psi'' = phi'' - 2u phi' + (u^2 - 1) phi
    kinetic = add(scale(-1, f2), scale(2, [0] + f1), scale(-1, mul([-1, 0, 1], f0)))
    # h^3 (h''/h - h'^2/h^2) phi = (h h'' - h'^2) N
    potential = add(mul([-2, 0, 1], f0),
                    scale(-2, mul(add(mul(h, h2), scale(-1, mul(h1, h1))), n)))
    return add(kinetic, potential, scale(-eps, f0))


def test_extension_is_an_exact_integer_identity():
    # the closed forms of the extension in u, certified with no grid and no
    # tolerance: the rational term, the numerators and both energy ladders
    for m in range(0, 65, 4):
        for j in (*range(8), 30, 64):
            assert not any(_extension_defect(m, j)), (m, j)
    # and it sees a wrong energy or a wrong numerator
    assert any(_extension_defect(2, 3, eps=7))
    assert any(_extension_defect(2, 3, numerator=oracles.int_hermite(3)))


# --------------------------------------------------------------- re_potential

def test_re_potential_1d_m0():
    spec = _spec_1d(CouplingValue.real(0.8))
    x = np.linspace(-2, 2, 9)
    v = model.re_potential(spec, REConfig((0,)), x[None, :])
    ref = spec.frequencies[0] ** 2 * x**2 / 4 + 0.8 * x - spec.frequencies[0]
    np.testing.assert_allclose(v, ref, atol=1e-13)


def test_re_potential_displayed_2d_examples():
    rng = np.random.default_rng(19)
    pts = rng.normal(size=(2, 20))
    spec = OscillatorSpec.quadratic_2d(1, 2, CouplingValue.real(SQ7 / 2))
    got = model.re_potential(spec, REConfig((0, 2)), pts)
    np.testing.assert_allclose(got, oracles.re_2d_real_02(*pts), rtol=1e-10)
    got = model.re_potential(spec, REConfig((2, 2)), pts)
    np.testing.assert_allclose(got, oracles.re_2d_real_22(*pts), rtol=1e-10)
    spec = OscillatorSpec.quadratic_2d(1, 3, CouplingValue.imaginary(SQ7))
    got = model.re_potential(spec, REConfig((2, 2)), pts.astype(complex))
    np.testing.assert_allclose(got, oracles.re_2d_imag_22(*pts), rtol=1e-10)


def test_re_potential_generic_rows():
    rng = np.random.default_rng(23)
    pts = rng.normal(size=(2, 15))
    w1o, w2o, lam = 1.3, 2.1, 0.7
    spec = OscillatorSpec.quadratic_2d(w1o, w2o, CouplingValue.real(lam))
    sys = model.decouple(spec)
    a = sys.coordinate_map.linear[0, 0].real
    b = -sys.coordinate_map.linear[0, 1].real
    w1, w2 = [complex(w).real for w in sys.tilde_frequencies]
    for pair in [(0, 0), (0, 2), (2, 2)]:
        got = model.re_potential(spec, REConfig(pair), pts)
        ref = oracles.generic_2d_row(pair, a, b, w1, w2, lam, w1o, w2o, *pts)
        np.testing.assert_allclose(got, ref, rtol=1e-10)


def test_shift_covariance():
    spec = _spec_1d(CouplingValue.real(0.9))
    spec0 = _spec_1d(None)
    om = 2.0
    x = np.linspace(-2.5, 2.5, 11)
    for m in (0, 2):
        v = model.re_potential(spec, REConfig((m,)), x[None, :])
        v0 = model.re_potential(spec0, REConfig((m,)),
                                (x + 2 * 0.9 / om**2)[None, :])
        np.testing.assert_allclose(v, v0 - 0.9**2 / om**2, atol=1e-12)


def test_re_potential_validates():
    spec = _spec_1d(CouplingValue.real(1.0))
    with pytest.raises(DomainError):
        model.re_potential(spec, REConfig((1,)), np.array([[0.3]]))
    # but the closed form is still samplable without the gate
    v = model.re_potential(spec, REConfig((1,)), np.array([[0.3]]), validate=False)
    assert np.isfinite(v).all()


# -------------------------------------------------------------- eigenfunction

def test_eigenfunction_m0_ground():
    spec = _spec_1d(None)
    x = np.linspace(-2, 2, 7)
    psi = model.eigenfunction(spec, REConfig((0,)), Eigenstate((None,)), x[None, :])
    np.testing.assert_allclose(psi, np.exp(-x**2 / 2), atol=1e-14)


def test_eigenfunction_m2_first_excited():
    spec = _spec_1d(None)
    om = 2.0
    x = np.linspace(-2, 2, 9).astype(complex)
    psi = model.eigenfunction(spec, REConfig((2,)), Eigenstate((0,)), x[None, :])
    u = np.sqrt(om / 2) * x
    ref = np.exp(-om * x**2 / 4) * (8 * u**3 + 12 * u) / (4 * u**2 + 2)
    np.testing.assert_allclose(psi, ref, atol=1e-13)


@pytest.mark.parametrize("l0", [0.8, 1j])
@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_eigenfunction_matches_printed_rows_projectively(l0, m):
    flavor = (CouplingValue.imaginary(abs(l0)) if isinstance(l0, complex)
              else CouplingValue.real(l0))
    spec = _spec_1d(flavor)
    rng = np.random.default_rng(29)
    x = rng.normal(size=8)
    cfg = REConfig((m,))
    ref = oracles.ground_row_1d(m, 2.0, l0, x)
    mine = model.eigenfunction(spec, cfg, Eigenstate((None,)), x[None, :],
                               validate=False)
    ratio = ref / mine
    assert np.max(np.abs(ratio / ratio[0] - 1)) < 1e-10
    for n in ([0, 1, 2] if m != 3 else [0]):
        ref = oracles.excited_row_1d(m, 2.0, l0, n, x)
        mine = model.eigenfunction(spec, cfg, Eigenstate((n,)), x[None, :],
                                   validate=False)
        ratio = ref / mine
        assert np.max(np.abs(ratio / ratio[0] - 1)) < 1e-10


def test_eigenfunction_singularity():
    spec = _spec_1d(CouplingValue.real(1.0))
    # pole of the m=1 closed form sits at x = -2*lam0/omega^2 = -1/2
    with pytest.raises(SingularityError):
        model.eigenfunction(spec, REConfig((1,)), Eigenstate((None,)),
                            np.array([[-0.5]]), validate=False)


# ------------------------------------------------------------------- energies

def test_relative_energy_1d():
    spec = _spec_1d(None)
    sys = model.decouple(spec)
    assert model.relative_energy(REConfig((2,)), Eigenstate((0,)), sys) == \
        pytest.approx(6.0)
    assert model.relative_energy(REConfig((5,)), Eigenstate((None,)), sys) == 0


def test_relative_energy_2d_sum():
    sys = transform.DecoupledSystem(
        (1.0 + 0j, 3.0 + 0j), 0j,
        transform.CoordinateMap(np.eye(2, dtype=complex), np.zeros(2)))
    e = model.relative_energy(REConfig((2, 2)), Eigenstate((0, 1)), sys)
    assert e == pytest.approx(3.0 * 1 + 4.0 * 3)


def test_unextended_energy():
    assert model.unextended_energy(_spec_1d(None), (0,)) == pytest.approx(1.0)
    spec = OscillatorSpec.linear_1d(1.0, CouplingValue.imaginary(1.0))
    for n in range(3):
        assert model.unextended_energy(spec, (n,)) == \
            pytest.approx(n + 0.5 + 1.0)


def test_unextended_energy_ratio_form():
    # energies written through the ratio: (r n1 + n2 + (r+1)/2) * w2
    spec = OscillatorSpec.quadratic_2d(1, 2, CouplingValue.real(SQ7 / 2))
    sys = model.decouple(spec)
    w2 = complex(sys.tilde_frequencies[1]).real
    rt = 1.0 / 3.0
    e = model.unextended_energy(spec, (1, 0))
    assert complex(e).real == pytest.approx((rt * 1 + 0 + (rt + 1) / 2) * w2)
    assert w2 == pytest.approx(np.sqrt(9.0 / 2.0))


# -------------------------------------------------------------- admissibility

def test_admissibility_rules():
    spec = OscillatorSpec.linear_1d(1.0, CouplingValue.imaginary(1.0))
    assert model.admissible_codimensions(spec) == ("even_and_odd",)
    spec = OscillatorSpec.linear_1d(1.0, CouplingValue.real(1.0))
    assert model.admissible_codimensions(spec) == ("even_only",)
    spec = OscillatorSpec.quadratic_2d(1, 2, CouplingValue.imaginary(0.5))
    assert model.admissible_codimensions(spec) == ("even_only", "even_only")
    spec = OscillatorSpec.lq_3d(1, 2, 3, CouplingValue.imaginary(1.0),
                                CouplingValue.real(0.5))
    assert model.admissible_codimensions(spec) == \
        ("even_only", "even_only", "even_and_odd")
    spec = OscillatorSpec.lq_3d(1, 2, 3, CouplingValue.real(1.0),
                                CouplingValue.imaginary(0.5))
    assert model.admissible_codimensions(spec) == \
        ("even_only", "even_only", "even_only")
    # zero-magnitude imaginary shift behaves like no shift
    spec = OscillatorSpec.linear_1d(1.0, CouplingValue.imaginary(0.0))
    assert model.admissible_codimensions(spec) == ("even_only",)


def test_validate_config_messages():
    spec = OscillatorSpec.quadratic_2d(1, 2, CouplingValue.real(0.5))
    with pytest.raises(DomainError, match="axis 1"):
        model.validate_config(spec, REConfig((0, 3)))


# ------------------------------------------------------------------- spectrum

def test_spectrum_1d_no_degeneracy():
    spec = _spec_1d(None)
    table = model.spectrum(spec, REConfig((0,)), 12.0)
    assert all(e.multiplicity == 1 for e in table.entries)
    energies = [e.energy for e in table.entries]
    assert energies == sorted(energies)


def test_spectrum_degenerate_ratio_matches_bruteforce():
    spec = OscillatorSpec.quadratic_2d(1, 2, CouplingValue.real(SQ7 / 2))
    cfg = REConfig((0, 0))
    sys = model.decouple(spec)
    w1 = complex(sys.tilde_frequencies[0]).real
    cutoff = 20.0 * w1
    table = model.spectrum(spec, cfg, cutoff)
    # brute force with integer weights 1 and 3 (ratio 1:3), offsets m+1
    counts = oracles.brute_force_multiplicities([1, 3], [1, 1],
                                                int(round(cutoff / w1)))
    got = {int(round(e.energy / w1)): e.multiplicity for e in table.entries}
    assert got == {k: v for k, v in counts.items()
                   if k <= int(round(cutoff / w1))}


def test_spectrum_irrational_ratio_no_degeneracy():
    spec = OscillatorSpec.quadratic_2d(1.0, np.sqrt(2.0), CouplingValue.zero())
    table = model.spectrum(spec, REConfig((0, 0)), 9.0)
    assert all(e.multiplicity == 1 for e in table.entries)


# (spec, co-dimensions, cutoff) on which the one grouping pass must give the
# reference's two-rule tables exactly
_SPECTRUM_SPECS = [
    (OscillatorSpec.oscillator(1.0, 3.0), (0, 0), 40.0),
    (OscillatorSpec.oscillator(1.0, 3.0 * (1 + 1e-12)), (0, 2), 40.0),  # off 1:3
    (OscillatorSpec.oscillator(1.0, 3.0 * (1 - 1e-12)), (2, 0), 40.0),
    (OscillatorSpec.oscillator(1.0, 3.0 * (1 + 1e-10)), (0, 0), 40.0),
    (OscillatorSpec.oscillator(1.0, 3.0 * (1 - 1e-10)), (2, 4), 40.0),
    (OscillatorSpec.oscillator(1.0, 2.0), (0, 0), 30.0),
    (OscillatorSpec.oscillator(1.0, np.sqrt(2.0)), (0, 0), 30.0),
    (OscillatorSpec.oscillator(1.0, 1.0, 1.0), (0, 0, 0), 12.0),
    (OscillatorSpec.oscillator(1.0, 1.0, np.sqrt(2.0)), (0, 2, 0), 12.0),
    # a rational pair and an irrational third axis
    (OscillatorSpec.oscillator(1.0, 2.0, np.sqrt(3.0)), (2, 0, 0), 12.0),
    (OscillatorSpec.quadratic_2d(1, 2, CouplingValue.real(SQ7 / 2)), (0, 0), 60.0),
    (OscillatorSpec.quadratic_2d(1, 3, CouplingValue.imaginary(SQ7)), (2, 2), 25.0),
    (OscillatorSpec.q2_3d(1.0, 2.0, CouplingValue.real(0.0), CouplingValue.real(0.3)),
     (0, 0, 0), 10.0),
    (OscillatorSpec.q1_3d(1.4, 1.0, CouplingValue.real(0.2), CouplingValue.imaginary(0.3)),
     (0, 2, 0), 10.0),
    (_spec_1d(CouplingValue.imaginary(1.0)), (3,), 20.0),
]


@pytest.mark.parametrize("spec,ms,cutoff", _SPECTRUM_SPECS)
def test_spectrum_equals_the_two_rule_reference(spec, ms, cutoff):
    def rows(table):
        return [(e.energy.hex(), e.multiplicity, [st.levels for st in e.states])
                for e in table.entries]

    got = model.spectrum(spec, REConfig(ms), cutoff)
    want = oracles.spectrum_ref(spec, REConfig(ms), cutoff)
    assert got.frequencies_real == want.frequencies_real
    assert rows(got) == rows(want)


def test_spectrum_irrational_ratio_at_cutoff_200():
    # 14,314 states, each its own level: one sort, not a scan of every level
    # per state
    w = np.sqrt(2.0)
    table = model.spectrum(OscillatorSpec.oscillator(1.0, w), REConfig((0, 0)), 200.0)
    ladder = [0.0] + [n + 1.0 for n in range(200)]  # ground, then (n + 1) * omega
    count = sum(1 for a in ladder for b in [0.0] + [(n + 1) * w for n in range(142)]
                if a + b <= 200.0 + 1e-12)
    assert len(table.entries) == count == 14314
    assert all(e.multiplicity == 1 for e in table.entries)
    energies = [e.energy for e in table.entries]
    assert all(b - a > 1e-9 * max(1.0, a) for a, b in zip(energies, energies[1:]))


def test_spectrum_multiplicity_equals_state_count():
    spec = OscillatorSpec.quadratic_2d(1, 3, CouplingValue.imaginary(SQ7))
    table = model.spectrum(spec, REConfig((2, 2)), 25.0)
    for entry in table.entries:
        assert entry.multiplicity == len(entry.states)


def test_energy_depends_only_on_structure():
    # same tilde frequencies, different couplings: identical ladders
    sysA = model.decouple(OscillatorSpec.quadratic_2d(1, 2,
                                                      CouplingValue.real(SQ7 / 2)))
    cfg = REConfig((2, 4))
    st = Eigenstate((1, 0))
    eA = model.relative_energy(cfg, st, sysA)
    w1, w2 = sysA.tilde_frequencies
    assert eA == pytest.approx((1 + 2 + 1) * complex(w1) + (0 + 4 + 1) * complex(w2))


# ---------------------------------------------------------------- case table

def test_case_table_records_are_consistent():
    aliases = [c.alias for c in model.CASES.values() if c.alias is not None]
    assert len(aliases) == len(set(aliases))
    for name, case in model.CASES.items():
        assert len(case.flags) == len(case.couplings), name
        assert set(case.real_couplings) <= set(case.couplings), name
        for imaginary in case.parities:
            # keys list imaginary couplings in the case's coupling order
            assert list(imaginary) == [c for c in case.couplings if c in imaginary], name
        if case.odd_axis is not None:
            assert "lambda0" in case.couplings, name


def test_q2_spec_refuses_an_imaginary_lambda1():
    with pytest.raises(DomainError, match="the xy coupling must be real in this case"):
        OscillatorSpec.q2_3d(1.0, 1.0, CouplingValue.imaginary(0.5), CouplingValue.zero())
    # a zero imaginary coupling is no coupling
    OscillatorSpec.q2_3d(1.0, 1.0, CouplingValue.imaginary(0.0), CouplingValue.real(0.3))


def test_q1_degeneracy_pair_equals_the_q1_decoupling_bitwise():
    # the q1 pair rotated by the combined coupling is the 2D pair (omega, omega3)
    rng = np.random.default_rng(23)
    checked = 0
    for _ in range(300):
        om, om3 = rng.uniform(0.2, 3.0, size=2)
        ratio = Fraction(*(int(k) for k in rng.integers(1, 7, size=2)))
        lam, pair = model.CASES["q1_3d"].degeneracy(ratio, (om, om, om3), {}, None)
        want = transform.degeneracy_coupling_3d("q1", ratio, omega=om, omega3=om3)
        assert (lam.magnitude.hex(), lam.flavor) == (want.magnitude.hex(), want.flavor)
        try:
            sys = transform.decouple_3d_q1(om, om3, lam, CouplingValue.zero())
        except (DegenerateDirectionError, DegenerateTransformError):
            continue  # ratio 1 or the natural ratio: the map is undefined
        assert _hex(pair) == _hex(sys.tilde_frequencies[1:])
        checked += 1
    assert checked > 250


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_spec_rejects_non_finite_input(bad):
    with pytest.raises(DomainError):
        OscillatorSpec.oscillator(1.0, bad)
    with pytest.raises(DomainError, match="finite"):
        CouplingValue(bad, "imaginary")
    with pytest.raises(DomainError, match="finite"):
        CouplingValue.parse(f"real:{bad}")


def test_spectrum_rejects_non_finite_cutoff():
    spec = OscillatorSpec.oscillator(1.0)
    for cutoff in (np.inf, -np.inf, np.nan):
        with pytest.raises(DomainError, match="cutoff must be finite"):
            model.spectrum(spec, REConfig((0,)), cutoff)


def test_spectrum_refuses_too_many_states():
    spec = OscillatorSpec.oscillator(1.0, 1.0)
    with pytest.raises(DomainError, match=f"more than {model.MAX_STATES} states"):
        model.spectrum(spec, REConfig((0, 0)), 1e9)
    # a purely imaginary tilde frequency never climbs the ladder
    spec = OscillatorSpec.q2_3d(1.0, 1.0, CouplingValue.real(2.0), CouplingValue.real(0.1))
    with pytest.raises(DomainError, match="states"):
        model.spectrum(spec, REConfig((0, 0, 0)), 5.0)


def test_spectrum_names_the_axis_whose_ladder_never_ends():
    # on the reality boundary one tilde frequency is exactly zero
    spec = OscillatorSpec.quadratic_2d(1.0, 2.0, CouplingValue.real(2.0))
    with pytest.raises(DomainError, match="tilde axis 0 needs a positive frequency, got 0:"):
        model.spectrum(spec, REConfig((0, 0)), 0.0)
    assert model.spectrum(spec, REConfig((0, 0)), -1.0).entries == ()
    spec = OscillatorSpec.q2_3d(1.0, 1.0, CouplingValue.real(2.0), CouplingValue.real(0.1))
    with pytest.raises(DomainError, match=r"tilde axis 0 needs a positive frequency, got 0\+1i"):
        model.spectrum(spec, REConfig((0, 0, 0)), 5.0)


# ---------------------------------------------------------- evaluation plan

_R, _I = CouplingValue.real, CouplingValue.imaginary

# every case and flavor, each with a co-dimension per axis it admits
_PLAN_SPECS = [
    (OscillatorSpec.oscillator(2.0), (2,)),
    (OscillatorSpec.oscillator(1.0, 2.0, 1.5), (2, 0, 2)),
    (OscillatorSpec.linear_1d(2.0, _R(0.8)), (2,)),
    (OscillatorSpec.linear_1d(2.0, _I(1.0)), (3,)),
    (OscillatorSpec.quadratic_2d(1, 2, _R(SQ7 / 2)), (2, 0)),
    (OscillatorSpec.quadratic_2d(1, 3, _I(SQ7)), (2, 2)),
    (OscillatorSpec.lq_3d(1, 2, 1.5, _R(0.5), _R(1.0)), (2, 0, 2)),
    (OscillatorSpec.lq_3d(1, 2, 1.5, _I(0.5), _R(1.0)), (2, 2, 1)),
    (OscillatorSpec.lq_3d(1, 2, 1.5, _R(0.5), _I(1.0)), (0, 2, 2)),
    (OscillatorSpec.lq_3d(1, 2, 1.5, _I(0.5), _I(1.0)), (2, 0, 3)),
    (OscillatorSpec.q1_3d(np.sqrt(2), 1, _R(0.3), _R(0.4)), (2, 2, 0)),
    (OscillatorSpec.q1_3d(np.sqrt(2), 1, _I(0.3), _R(0.4)), (2, 2, 2)),
    (OscillatorSpec.q1_3d(np.sqrt(2), 1, _R(0.3), _I(0.4)), (0, 2, 2)),
    (OscillatorSpec.q1_3d(np.sqrt(2), 1, _I(0.3), _I(0.2)), (2, 4, 2)),
    (OscillatorSpec.q2_3d(1, 1, _R(0.5), _R(0.68)), (2, 2, 2)),
    (OscillatorSpec.q2_3d(1, 1, _R(0.5), _I(0.4)), (2, 0, 2)),
]


def _levels(dim):
    """Ground, each axis excited alone at levels 0-2, and two mixed states."""
    out = [(None,) * dim]
    for axis in range(dim):
        for n in range(3):
            out.append(tuple(n if a == axis else None for a in range(dim)))
    out.append(tuple(range(dim)))
    out.append(tuple(None if a % 2 else 1 for a in range(dim)))
    return out


def _axis_product(spec, config, state, points):
    """psi as the plain product of per-axis factors on the tilde axes."""
    sys = model.decouple(spec)
    t = sys.coordinate_map.forward(points)
    out = 1.0 + 0j
    for w, m, lv, ti in zip(sys.tilde_frequencies, config.codimensions,
                            state.levels, t):
        out = out * model.axis_eigenfunction(w, m, lv, ti)
    return out


@pytest.mark.parametrize("spec,ms", _PLAN_SPECS,
                         ids=lambda v: v.case + str(v.imaginary_couplings)
                         if isinstance(v, OscillatorSpec) else str(v))
def test_plan_psi_equals_axis_product(spec, ms):
    rng = np.random.default_rng(61)
    dim = spec.dimension
    points = rng.normal(size=(dim, 40)) + 0.3j * rng.normal(size=(dim, 40))
    ops = transform.parity_operators(dim) if dim > 1 else [transform.space_inversion(1)]
    config = REConfig(ms)
    for pts in [points] + [op.matrix @ points for op in ops]:
        plan = model.plan(spec, config, pts)
        for levels in _levels(dim):
            state = Eigenstate(levels)
            got = plan.psi(state)
            want = _axis_product(spec, config, state, pts)
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13, levels
            np.testing.assert_array_equal(
                got, model.eigenfunction(spec, config, state, pts))


def test_eigenfunction_at_a_single_point():
    # one point is evaluated as two copies of it, so no complex product runs
    # in place on one element (see ``_kernels``): psi and V at a point equal
    # the batch's bit for bit, given as a point or as a stack of one point
    for spec, ms in _PLAN_SPECS:
        dim, config = spec.dimension, REConfig(ms)
        pts = np.random.default_rng(5).normal(size=(dim, 12)).astype(complex)
        states = [Eigenstate(lv) for lv in _levels(dim)[-2:]]
        many = [model.eigenfunction(spec, config, st, pts) for st in states]
        v_many = model.re_potential(spec, config, pts)
        for k in range(pts.shape[1]):
            for point in (pts[:, k], pts[:, k:k + 1]):
                shape = point.shape[1:]
                one = [model.eigenfunction(spec, config, st, point) for st in states]
                plan = model.plan(spec, config, point)
                v = [model.re_potential(spec, config, point), plan.potential(point)]
                assert [np.shape(a) for a in one + v] == [shape] * (len(states) + 2)
                assert all(np.asarray(a).tobytes() == b[k].tobytes()
                           for a, b in zip(one, many)), (spec.case, ms, k)
                assert all(np.asarray(a).tobytes() == v_many[k].tobytes()
                           for a in v), (spec.case, ms, k)


def test_plan_potential_equals_re_potential():
    spec, ms = _PLAN_SPECS[7]
    pts = np.random.default_rng(3).normal(size=(3, 25)).astype(complex)
    plan = model.plan(spec, REConfig(ms), pts)
    np.testing.assert_array_equal(plan.potential(pts),
                                  model.re_potential(spec, REConfig(ms), pts))


def test_plan_is_not_modified_by_psi():
    spec, ms = _PLAN_SPECS[5]
    pts = np.random.default_rng(4).normal(size=(2, 30)).astype(complex)
    plan = model.plan(spec, REConfig(ms), pts)
    before = [plan.prefactor.copy()] + [u.copy() for u in plan.scaled]
    plan.psi(Eigenstate((1, 0)))
    plan.psi(Eigenstate((None, None)))
    for a, b in zip(before, [plan.prefactor] + plan.scaled):
        np.testing.assert_array_equal(a, b)


def test_plan_denominator_zero_raises():
    # the m=1 denominator of the unperturbed oscillator vanishes at x = 0
    spec = OscillatorSpec.oscillator(2.0)
    with pytest.raises(SingularityError):
        model.plan(spec, REConfig((1,)), np.array([[0.4, 0.0]]), validate=False)


def test_plan_rejects_wrong_level_count():
    plan = model.plan(OscillatorSpec.oscillator(2.0), REConfig((0,)), np.array([[0.1]]))
    with pytest.raises(DomainError):
        plan.psi(Eigenstate((None, None)))
