"""Coordinate maps, reality conditions, degeneracy couplings, parity."""
import numpy as np
import pytest

import oracles
from rexosc import model, transform
from rexosc.errors import (
    DegenerateDirectionError,
    DegenerateTransformError,
    DomainError,
    FlavorError,
    NumericalFailureError,
)
from rexosc.model import OscillatorSpec
from rexosc.transform import CouplingValue
from test_verify import _NAMED_PARITY_SPECS, _spec_id

SQ7 = np.sqrt(7.0)


# ------------------------------------------------------------------ 1D shift

def test_shift_map_real():
    sys = transform.shift_map_1d(2.0, CouplingValue.real(1.0))
    assert sys.coordinate_map.shift[0] == pytest.approx(0.5)
    assert sys.potential_constant == pytest.approx(-0.25)
    assert sys.tilde_frequencies[0] == pytest.approx(2.0)


def test_shift_map_zero():
    sys = transform.shift_map_1d(2.0, CouplingValue.zero())
    assert sys.coordinate_map.shift[0] == 0
    assert sys.potential_constant == 0


def test_shift_map_imaginary():
    sys = transform.shift_map_1d(2.0, CouplingValue.imaginary(1.0))
    assert sys.coordinate_map.shift[0] == pytest.approx(0.5j)
    assert sys.potential_constant == pytest.approx(0.25)


def test_shift_map_domain():
    with pytest.raises(DomainError):
        transform.shift_map_1d(0.0, CouplingValue.real(1.0))
    for omega in (1e-200, 1e200):  # omega**2 underflows to 0, or overflows
        with pytest.raises(DomainError, match="finite nonzero square"):
            transform.shift_map_1d(omega, CouplingValue.real(1.0))


# ------------------------------------------------------------------ 2D rotate

def test_rotate_real_example():
    lam = CouplingValue.real(SQ7 / 2)
    sys = transform.rotate_map_2d(1.0, 2.0, lam)
    k = transform.mixing_factor_2d(1.0, 2.0, lam)
    assert k == pytest.approx(-0.75, abs=1e-12)
    w1, w2 = [complex(w) for w in sys.tilde_frequencies]
    assert w1**2 == pytest.approx(0.5, abs=1e-12)
    assert w2**2 == pytest.approx(4.5, abs=1e-12)
    assert abs(w2 / w1 - 3.0) < 1e-12


def test_rotate_imaginary_example():
    lam = CouplingValue.imaginary(SQ7)
    sys = transform.rotate_map_2d(1.0, 3.0, lam)
    k = transform.mixing_factor_2d(1.0, 3.0, lam)
    assert k == pytest.approx(-4.0 / 3.0, abs=1e-12)
    w1, w2 = [complex(w) for w in sys.tilde_frequencies]
    assert w1**2 == pytest.approx(2.0, abs=1e-12)
    assert w2**2 == pytest.approx(8.0, abs=1e-12)


def test_rotate_zero_coupling_swaps_axes():
    sys = transform.rotate_map_2d(2.0, 1.0, CouplingValue.zero())
    w1, w2 = [complex(w).real for w in sys.tilde_frequencies]
    assert (w1, w2) == pytest.approx((1.0, 2.0))
    lin = sys.coordinate_map.linear
    assert lin[0, 0] == pytest.approx(0.0)
    assert abs(lin[0, 1]) == pytest.approx(1.0)


def test_rotate_degenerate_discriminant():
    with pytest.raises(DegenerateTransformError):
        transform.rotate_map_2d(1.0, 1.0, CouplingValue.zero())
    with pytest.raises(DegenerateTransformError):
        transform.rotate_map_2d(1.0, 3.0, CouplingValue.imaginary(4.0))


def test_exceptional_point_is_one_error_in_every_rotation():
    # disc == 0 exactly: 4 * (4i)^2 + (1 - 9)^2, and the q2 boundary of
    # test_q2_exceptional_boundary; the pair's frequencies coincide at
    # sqrt(total / 2) while the rotation is undefined
    om, om3, l1 = 1.2, 0.8, 0.3
    gamma = CouplingValue.imaginary(np.sqrt((om**2 - om3**2 + l1) ** 2 / 8.0))
    at = {np.sqrt(5.0): [
              lambda: transform.rotate_map_2d(1.0, 3.0, CouplingValue.imaginary(4.0)),
              lambda: transform.mixing_factor_2d(1.0, 3.0, CouplingValue.imaginary(4.0)),
              lambda: transform.decouple_3d_q1(1.0, 3.0, CouplingValue.imaginary(4.0),
                                               CouplingValue.zero())],
          np.sqrt((om**2 + om3**2 + l1) / 2): [
              lambda: transform.decouple_3d_q2(om, om3, l1, gamma)]}
    for w, calls in at.items():
        for call in calls:
            with pytest.raises(DegenerateTransformError,
                               match=f"exceptional point: .* coincide at {w:.6g}"):
                call()
    # the frequencies alone stay defined there
    assert transform.tilde_frequencies_2d(1.0, 3.0, CouplingValue.imaginary(4.0)) == \
        (complex(np.sqrt(5.0)), complex(np.sqrt(5.0)))


def test_overflowing_pair_is_a_numerical_failure():
    for call in (lambda: transform.rotate_map_2d(1e154, 1.0, CouplingValue.real(1.0)),
                 lambda: transform.tilde_frequencies_2d(1e154, 1.0, CouplingValue.real(1.0)),
                 lambda: transform.decouple_3d_q2(1e154, 1.0, 1.0, CouplingValue.real(1.0)),
                 lambda: transform.decouple_3d_q2(1.0, 2.0, 0.0, CouplingValue.real(1.5e308))):
        with pytest.raises(NumericalFailureError, match="overflows the float range"):
            call()


@pytest.mark.parametrize("spec", [s for s in _NAMED_PARITY_SPECS
                                  if s.case in ("quadratic2d", "lq3d", "q2_3d")],
                         ids=_spec_id)
def test_decoupling_frequencies_equal_the_frequency_formulas_bitwise(spec):
    w, c = spec.frequencies, spec.couplings
    if spec.case == "q2_3d":
        got = transform.decouple_3d_q2(w[0], w[2], c["lambda1"].magnitude, c["lam"])
        want = transform.tilde_frequencies_q2(w[0], w[2], c["lambda1"].magnitude, c["lam"])
    else:
        got = transform.rotate_map_2d(w[0], w[1], c["lam"])
        want = transform.tilde_frequencies_2d(w[0], w[1], c["lam"])
    bits = [(complex(z).real.hex(), complex(z).imag.hex()) for z in got.tilde_frequencies]
    assert bits == [(complex(z).real.hex(), complex(z).imag.hex()) for z in want]


# --------------------------------------------------------------- reality 2D

def test_reality_2d():
    assert transform.spectral_reality_2d(1, 2, CouplingValue.real(SQ7 / 2))
    assert transform.spectral_reality_2d(1, 3, CouplingValue.imaginary(SQ7))
    assert not transform.spectral_reality_2d(1, 1, CouplingValue.imaginary(0.1))
    # boundaries: real bound inclusive, imaginary bound exclusive
    assert transform.spectral_reality_2d(1, 2, CouplingValue.real(2.0))
    assert not transform.spectral_reality_2d(1, 3, CouplingValue.imaginary(4.0))


# ------------------------------------------------------------------- eta

def test_eta_metric_entries():
    m = transform.eta_metric_2d(0.0).matrix
    np.testing.assert_allclose(m, [[0, -1], [1, 0]], atol=1e-15)
    m = transform.eta_metric_2d(1.0).matrix
    np.testing.assert_allclose(m, [[-1, 0], [0, -1]], atol=1e-15)
    m = transform.eta_metric_2d(-4.0 / 3.0).matrix
    assert m[0, 0] == pytest.approx(4.0 / 3.0)
    assert m[0, 1] == pytest.approx(-1j * SQ7 / 3, abs=1e-12)
    assert m[1, 0] == pytest.approx(1j * SQ7 / 3, abs=1e-12)


# ----------------------------------------------------------- degeneracy 2D

def test_degeneracy_coupling_2d_real_example():
    c = transform.degeneracy_coupling_2d("1/3", 1.0, 2.0)
    assert c.flavor == "real"
    assert c.magnitude == pytest.approx(SQ7 / 2, abs=1e-12)


def test_degeneracy_coupling_2d_imaginary_example():
    c = transform.degeneracy_coupling_2d("1/2", 1.0, 3.0)
    assert c.flavor == "imaginary"
    assert c.magnitude == pytest.approx(SQ7, abs=1e-12)
    with pytest.raises(FlavorError):
        transform.degeneracy_coupling_2d("1/2", 1.0, 3.0, flavor="real")


def test_degeneracy_coupling_identity_ratio():
    for w1, w2 in [(1.0, 2.0), (0.7, 1.9)]:
        c = transform.degeneracy_coupling_2d(w1 / w2, w1, w2)
        assert abs(c.magnitude) < 1e-12


def test_degeneracy_coupling_inverse_2d():
    rng = np.random.default_rng(7)
    for _ in range(50):
        w1, w2 = rng.uniform(0.5, 3.0, size=2)
        p, q = rng.integers(1, 7, size=2)
        if p == q:
            continue  # coalescent target: the exceptional point, sqrt(eps) only
        c = transform.degeneracy_coupling_2d(f"{p}/{q}", w1, w2)
        f1, f2 = transform.tilde_frequencies_2d(w1, w2, c)
        if abs(complex(f1).imag) > 1e-9 or abs(complex(f2)) < 1e-9:
            continue  # ratio unreachable within the real-spectrum region
        r = complex(f1).real / complex(f2).real
        target = min(p / q, q / p)
        assert r == pytest.approx(target, abs=1e-10)


# ------------------------------------------------------------------ 3D cases

def test_lq_composition():
    sys = transform.decouple_3d_lq(1.0, 2.0, 5.0, CouplingValue.real(1.0),
                                   CouplingValue.real(SQ7 / 2))
    assert sys.coordinate_map.shift[2] == pytest.approx(2.0 / 25.0)
    w = [complex(x) for x in sys.tilde_frequencies]
    assert w[0] ** 2 == pytest.approx(0.5, abs=1e-12)
    assert w[1] ** 2 == pytest.approx(4.5, abs=1e-12)
    assert w[2] == pytest.approx(5.0)
    assert sys.potential_constant == pytest.approx(-1.0 / 25.0)


def test_lq_trivial():
    sys = transform.decouple_3d_lq(1.0, 2.0, 3.0, CouplingValue.zero(),
                                   CouplingValue.zero())
    np.testing.assert_allclose(sys.coordinate_map.linear, np.eye(3), atol=1e-15)
    assert [complex(w).real for w in sys.tilde_frequencies] == \
        pytest.approx([1.0, 2.0, 3.0])


def test_lq_imaginary_shift():
    sys = transform.decouple_3d_lq(1.0, 2.0, 5.0, CouplingValue.imaginary(1.0),
                                   CouplingValue.zero())
    assert sys.coordinate_map.shift[2] == pytest.approx(2j / 25.0)
    assert sys.potential_constant == pytest.approx(1.0 / 25.0)


def test_q1_degeneracy_example():
    sys = transform.decouple_3d_q1(np.sqrt(2), 1.0,
                                   CouplingValue.real(SQ7 / 5),
                                   CouplingValue.real(SQ7 / 5))
    w = [complex(x) for x in sys.tilde_frequencies]
    assert w[0] == pytest.approx(np.sqrt(2))
    assert (w[2] / w[1]).real == pytest.approx(2.0, abs=1e-12)


def test_q1_single_coupling_reduces_to_plane_rotation():
    sys = transform.decouple_3d_q1(np.sqrt(2), 1.0, CouplingValue.zero(),
                                   CouplingValue.real(0.4))
    lin = sys.coordinate_map.linear
    # x-z plane rotation with y decoupled: first tilde axis is y itself
    assert lin[0, 0] == pytest.approx(0.0, abs=1e-14)
    assert lin[0, 1] == pytest.approx(1.0)
    assert lin[1, 1] == pytest.approx(0.0, abs=1e-14)
    assert lin[2, 1] == pytest.approx(0.0, abs=1e-14)
    ref = transform.tilde_frequencies_2d(np.sqrt(2), 1.0, CouplingValue.real(0.4))
    assert complex(sys.tilde_frequencies[1]) == pytest.approx(complex(ref[0]))
    assert complex(sys.tilde_frequencies[2]) == pytest.approx(complex(ref[1]))


def test_q1_small_coupling_limit():
    sys = transform.decouple_3d_q1(np.sqrt(2), 1.0,
                                   CouplingValue.real(1e-9),
                                   CouplingValue.real(1e-9))
    w = [complex(x).real for x in sys.tilde_frequencies]
    assert w[1] == pytest.approx(1.0, abs=1e-8)
    assert w[2] == pytest.approx(np.sqrt(2), abs=1e-8)


def test_q1_zero_couplings_rejected():
    with pytest.raises(DegenerateDirectionError):
        transform.decouple_3d_q1(1.0, 2.0, CouplingValue.zero(),
                                 CouplingValue.zero())


def test_q2_trivial():
    sys = transform.decouple_3d_q2(1.3, 0.9, 0.0, CouplingValue.zero())
    w = [complex(x).real for x in sys.tilde_frequencies]
    assert w[0] == pytest.approx(1.3)
    assert w[1] == pytest.approx(0.9)
    assert w[2] == pytest.approx(1.3)


def test_q2_degeneracy_example():
    om = 1.3
    lam = CouplingValue.real(om**2 / 4 * np.sqrt(15 / 2))
    sys = transform.decouple_3d_q2(om, om, om**2 / 2, lam)
    w = [complex(x) for x in sys.tilde_frequencies]
    assert (w[1] / w[2]).real == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_q2_exceptional_boundary():
    om, om3, l1 = 1.2, 0.8, 0.3
    a = om**2 - om3**2 + l1
    gamma = np.sqrt(a**2 / 8.0)
    # approaching the boundary the pair coalesces
    lam = CouplingValue.imaginary(gamma * (1 - 1e-10))
    freqs = transform.tilde_frequencies_q2(om, om3, l1, lam)
    assert abs(complex(freqs[1]) - complex(freqs[2])) < 1e-4
    with pytest.raises(DegenerateTransformError):
        transform.decouple_3d_q2(om, om3, l1, CouplingValue.imaginary(gamma))


def test_q2_complex_first_frequency_flagged():
    sys = transform.decouple_3d_q2(1.0, 1.0, 1.5, CouplingValue.real(0.1))
    assert abs(complex(sys.tilde_frequencies[0]).imag) > 0
    assert not sys.is_real


# --------------------------------------------------------------- reality 3D

def test_reality_q1_cases():
    v = transform.spectral_reality_q1(
        omega=np.sqrt(2), omega3=1.0,
        lambda2=CouplingValue.real(SQ7 / 5), lambda3=CouplingValue.real(SQ7 / 5))
    assert v.real and v.certificate == "all conditions hold"
    # case c boundary violation
    om, om3 = 1.5, 0.5
    bound = 0.25 * (om**2 - om3**2) ** 2
    g = np.sqrt(bound / 2) + 1e-6
    v = transform.spectral_reality_q1(
        omega=om, omega3=om3,
        lambda2=CouplingValue.imaginary(g), lambda3=CouplingValue.imaginary(g))
    assert not v.real and "gamma2^2+gamma3^2" in v.certificate
    v = transform.spectral_reality_q1(
        omega=om, omega3=om3,
        lambda2=CouplingValue.imaginary(g), lambda3=CouplingValue.imaginary(0.0))
    assert v.real  # single small imaginary coupling is fine


def test_reality_q1_mixed_flavors():
    om, om3 = 1.5, 0.5
    v = transform.spectral_reality_q1(
        omega=om, omega3=om3,
        lambda2=CouplingValue.imaginary(0.3), lambda3=CouplingValue.real(0.2))
    assert v.real == (-0.25 * (om**2 - om3**2) ** 2 <= 0.2**2 - 0.3**2
                      <= om**2 * om3**2)


def test_reality_q2():
    om = 1.1
    v = transform.spectral_reality_q2(
        omega=om, omega3=om, lambda1=om**2 / 2,
        lam=CouplingValue.real(om**2 / 4 * np.sqrt(15 / 2)))
    assert v.real
    # imaginary boundary inclusive
    om3, l1 = 0.8, 0.3
    a = om**2 - om3**2 + l1
    v = transform.spectral_reality_q2(
        omega=om, omega3=om3, lambda1=l1,
        lam=CouplingValue.imaginary(np.sqrt(a**2 / 8)))
    assert v.real
    v = transform.spectral_reality_q2(
        omega=om, omega3=om3, lambda1=l1,
        lam=CouplingValue.imaginary(np.sqrt(a**2 / 8) + 1e-9))
    assert not v.real


def test_reality_lq():
    v = transform.spectral_reality_lq(
        omega1=1.0, omega2=3.0, omega3=2.0,
        lambda0=CouplingValue.imaginary(5.0), lam=CouplingValue.imaginary(SQ7))
    assert v.real  # any linear coupling is harmless
    v = transform.spectral_reality_lq(
        omega1=1.0, omega2=1.0, omega3=2.0,
        lambda0=CouplingValue.zero(), lam=CouplingValue.imaginary(0.1))
    assert not v.real


# ------------------------------------------------------------ degeneracy 3D

def test_degeneracy_q1_example():
    c = transform.degeneracy_coupling_3d("q1", 2, omega=np.sqrt(2), omega3=1.0)
    assert c.flavor == "real"
    assert c.magnitude**2 == pytest.approx(14.0 / 25.0, abs=1e-12)


def test_degeneracy_q2_example():
    om = 1.7
    c = transform.degeneracy_coupling_3d("q2", "1/3", omega=om, omega3=om,
                                         lambda1=om**2 / 2)
    assert c.magnitude == pytest.approx(om**2 / 4 * np.sqrt(15 / 2), abs=1e-12)


def test_degeneracy_trivial_ratio():
    om, om3 = np.sqrt(2), 1.0
    freqs = transform.decouple_3d_q1(om, om3, CouplingValue.real(1e-12),
                                     CouplingValue.real(1e-12)).tilde_frequencies
    ut = complex(freqs[1]).real / complex(freqs[2]).real
    c = transform.degeneracy_coupling_3d("q1", ut, omega=om, omega3=om3)
    assert abs(c.magnitude) < 1e-9


def test_degeneracy_inverse_3d():
    rng = np.random.default_rng(11)
    for _ in range(40):
        om, om3 = rng.uniform(0.6, 2.0, size=2)
        p, q = rng.integers(1, 6, size=2)
        if p == q:
            continue
        ut = p / q
        c = transform.degeneracy_coupling_3d("q1", ut, omega=om, omega3=om3)
        mag = c.magnitude / np.sqrt(2)
        l2 = CouplingValue(mag, c.flavor)
        l3 = CouplingValue(mag, c.flavor)
        sys = transform.decouple_3d_q1(om, om3, l2, l3)
        w2, w3 = complex(sys.tilde_frequencies[1]), complex(sys.tilde_frequencies[2])
        if abs(w2.imag) > 1e-9 or abs(w2) < 1e-9:
            continue
        assert w2.real / w3.real == pytest.approx(min(ut, 1 / ut), abs=1e-10)


# -------------------------------------------------------------------- parity

def test_parity_operator_listing():
    ops = transform.parity_operators(2)
    np.testing.assert_allclose(ops[0].matrix, np.diag([-1, 1]))
    ops3 = transform.parity_operators(3)
    np.testing.assert_allclose(ops3[3].matrix, -np.eye(3))
    for op in ops + ops3:
        assert np.linalg.det(op.matrix) == pytest.approx(-1.0)
    with pytest.raises(DomainError):
        transform.parity_operators(4)


def test_pt_classification_2d_imaginary():
    spec = OscillatorSpec.quadratic_2d(1, 3, CouplingValue.imaginary(SQ7))
    names = [op.name for op in model.pt_classification(spec)]
    assert names == ["P1", "P2"]


def test_pt_classification_lq():
    mk = OscillatorSpec.lq_3d
    spec = mk(1, 2, 5, CouplingValue.imaginary(1.0), CouplingValue.real(0.5))
    assert [op.name for op in model.pt_classification(spec)] == ["P2"]
    spec = mk(1, 2, 5, CouplingValue.real(1.0), CouplingValue.imaginary(0.5))
    assert [op.name for op in model.pt_classification(spec)] == ["P1", "P3"]
    spec = mk(1, 2, 5, CouplingValue.imaginary(1.0), CouplingValue.imaginary(0.5))
    assert [op.name for op in model.pt_classification(spec)] == ["P4"]


def test_pt_classification_q1_cases():
    mk = OscillatorSpec.q1_3d
    spec = mk(1.4, 1.0, CouplingValue.imaginary(0.2), CouplingValue.real(0.3))
    assert [op.name for op in model.pt_classification(spec)] == ["P3"]
    spec = mk(1.4, 1.0, CouplingValue.real(0.2), CouplingValue.imaginary(0.3))
    assert [op.name for op in model.pt_classification(spec)] == ["P1"]
    spec = mk(1.4, 1.0, CouplingValue.imaginary(0.2), CouplingValue.imaginary(0.3))
    assert [op.name for op in model.pt_classification(spec)] == ["P2"]


def test_pt_classification_real_couplings_all_parities_when_unperturbed():
    spec = OscillatorSpec.oscillator(1.0, 2.0)
    names = [op.name for op in model.pt_classification(spec)]
    assert names == ["P1", "P2"]
    spec = OscillatorSpec.oscillator(1.0, 1.0)
    names = [op.name for op in model.pt_classification(spec)]
    assert names == ["P1", "P2", "P3", "P4"]


# ---------------------------------------------------------------- invariants

def _two_freqs(rng, gap=0.5):
    while True:
        w1, w2 = rng.uniform(0.5, 3.0, size=2)
        if abs(w1**2 - w2**2) >= gap:
            return w1, w2


def _random_systems(seed=23, count=200):
    """Admissible draws kept away from exceptional points, where the maps
    are well-conditioned and the decoupling identity holds to full accuracy."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        kind = rng.integers(0, 4)
        if kind in (0, 1):
            w1, w2 = _two_freqs(rng)
            flavor = "real" if rng.random() < 0.5 else "imaginary"
            if flavor == "real":
                mag = rng.uniform(0, w1 * w2)
            else:
                mag = rng.uniform(0, 0.35 * abs(w1**2 - w2**2))
            lam = CouplingValue(mag, flavor)
            if kind == 0:
                spec = OscillatorSpec.quadratic_2d(w1, w2, lam)
            else:
                l0 = CouplingValue(rng.uniform(0, 1),
                                   "imaginary" if rng.random() < 0.5 else "real")
                spec = OscillatorSpec.lq_3d(w1, w2, rng.uniform(0.5, 3.0), l0, lam)
        elif kind == 2:
            om, om3 = _two_freqs(rng)
            cap = 0.2 * abs(om**2 - om3**2)
            f2 = "imaginary" if rng.random() < 0.5 else "real"
            f3 = "imaginary" if rng.random() < 0.5 else "real"
            spec = OscillatorSpec.q1_3d(om, om3,
                                        CouplingValue(rng.uniform(0.05, 1) * cap, f2),
                                        CouplingValue(rng.uniform(0.05, 1) * cap, f3))
        else:
            while True:
                om, om3 = rng.uniform(0.8, 2.0, size=2)
                l1 = rng.uniform(-0.5, 0.5) * om**2
                if abs(om**2 - om3**2 + l1) >= 0.4:
                    break
            a = abs(om**2 - om3**2 + l1)
            f = "imaginary" if rng.random() < 0.5 else "real"
            mag = rng.uniform(0.05, 0.3) * a
            spec = OscillatorSpec.q2_3d(om, om3, CouplingValue.real(l1),
                                        CouplingValue(mag, f))
        out.append(spec)
    return out


def test_complex_orthogonality_invariant():
    for spec in _random_systems():
        sys = model.decouple(spec)
        assert sys.coordinate_map.orthogonality_defect() < 1e-12


def test_round_trip_printed_inverse():
    rng = np.random.default_rng(29)
    for spec in _random_systems(seed=31, count=60):
        sys = model.decouple(spec)
        cmap = sys.coordinate_map
        pts = rng.normal(size=(spec.dimension, 100))
        back = oracles.coordinate_inverse(cmap, cmap.forward(pts))
        assert np.max(np.abs(back - pts)) < 1e-12
        lin = cmap.linear
        if spec.case == "quadratic2d":
            a, b = lin[0, 0], lin[1, 0]
            t = cmap.forward(pts)
            np.testing.assert_allclose(a * t[0] + b * t[1], pts[0], atol=1e-12)
            np.testing.assert_allclose(-b * t[0] + a * t[1], pts[1], atol=1e-12)
        elif spec.case == "q1_3d":
            c, d = -lin[0, 0], lin[0, 1]
            a, b = lin[2, 2], -lin[1, 2]
            t = cmap.forward(pts)
            np.testing.assert_allclose(a * d * t[1] + b * d * t[2] - c * t[0],
                                       pts[0], atol=1e-11)
            np.testing.assert_allclose(d * t[0] + a * c * t[1] + b * c * t[2],
                                       pts[1], atol=1e-11)
            np.testing.assert_allclose(a * t[2] - b * t[1], pts[2], atol=1e-11)
        elif spec.case == "q2_3d":
            a, b = lin[2, 2], -lin[1, 2]
            r2 = 1 / np.sqrt(2)
            t = cmap.forward(pts)
            np.testing.assert_allclose(a * r2 * t[1] + b * r2 * t[2] - r2 * t[0],
                                       pts[0], atol=1e-11)
            np.testing.assert_allclose(a * r2 * t[1] + b * r2 * t[2] + r2 * t[0],
                                       pts[1], atol=1e-11)
            np.testing.assert_allclose(a * t[2] - b * t[1], pts[2], atol=1e-11)


def test_decoupling_pointwise_invariant():
    rng = np.random.default_rng(37)
    for spec in _random_systems(seed=41, count=200):
        sys = model.decouple(spec)
        pts = rng.normal(size=(spec.dimension, 20))
        v = model.base_potential(spec, pts)
        t = sys.coordinate_map.forward(pts)
        vt = sum(0.25 * complex(w) ** 2 * t[i] ** 2
                 for i, w in enumerate(sys.tilde_frequencies))
        vt = vt + sys.potential_constant
        scale = np.maximum(np.abs(v), 1e-12)
        assert np.max(np.abs(v - vt) / scale) < 1e-10


def test_frequency_trace_identity():
    for spec in _random_systems(seed=43, count=120):
        sys = model.decouple(spec)
        total = sum(complex(w) ** 2 for w in sys.tilde_frequencies)
        base = sum(w**2 for w in spec.frequencies)
        assert total.real == pytest.approx(base, abs=1e-10)
        assert abs(total.imag) < 1e-10
        if spec.case == "q2_3d":
            # the xy coupling shifts the rotated pair (and cancels in the trace)
            l1 = spec.couplings["lambda1"].magnitude
            pair = sum(complex(w) ** 2 for w in sys.tilde_frequencies[1:])
            om, om3 = spec.frequencies[0], spec.frequencies[2]
            assert pair.real == pytest.approx(om**2 + om3**2 + l1, abs=1e-10)
