"""Hermite-family construction, evaluation, and root counting."""
import numpy as np
import pytest

import oracles
from oracles import hermite_ref
from rexosc import poly
from rexosc.errors import DomainError
from rexosc.poly import Polynomial


def coeffs(p):
    return tuple(complex(c) for c in p.coefficients)


def test_hermite_low_orders():
    assert coeffs(poly.hermite(0)) == (1,)
    assert coeffs(poly.hermite(1)) == (0, 2)
    assert coeffs(poly.hermite(3)) == (0, -12, 0, 8)


def test_hermite_matches_numpy():
    rng = np.random.default_rng(2)
    z = rng.normal(size=20)
    for n in range(9):
        np.testing.assert_allclose(poly.evaluate(poly.hermite(n), z),
                                   hermite_ref(n, z), rtol=1e-12, atol=1e-9)


def test_pseudo_hermite_low_orders():
    assert coeffs(poly.pseudo_hermite(0)) == (1,)
    assert coeffs(poly.pseudo_hermite(2)) == (2, 0, 4)
    assert coeffs(poly.pseudo_hermite(3)) == (0, 12, 0, 8)


def test_pseudo_hermite_substitution_oracle():
    # companion(x) = (-i)^m H_m(i x), checked pointwise
    rng = np.random.default_rng(4)
    z = rng.normal(size=12) + 1j * rng.normal(size=12)
    for m in range(13):
        ref = (-1j) ** m * hermite_ref(m, 1j * z)
        got = poly.evaluate(poly.pseudo_hermite(m), z)
        np.testing.assert_allclose(got, ref, rtol=1e-11, atol=1e-9)


def test_pseudo_hermite_even_all_positive():
    for m in range(0, 21, 2):
        c = np.array(poly.pseudo_hermite(m).coefficients)
        nz = c[np.abs(c) > 0]
        assert np.all(nz.real > 0) and np.all(nz.imag == 0)


def test_exceptional_hermite_base_case():
    for m in range(6):
        assert coeffs(poly.exceptional_hermite(m, 0)) == (1,)


def test_exceptional_hermite_m2_first():
    # (4x^2+2)(2x) + 1*(8x) = 8x^3 + 12x
    assert coeffs(poly.exceptional_hermite(2, 1)) == (0, 12, 0, 8)


def test_exceptional_hermite_m0_identity():
    for j in range(1, 6):
        assert coeffs(poly.exceptional_hermite(0, j)) == coeffs(poly.hermite(j))


def test_exceptional_hermite_degree():
    for m in range(0, 13, 3):
        for n in range(0, 13, 4):
            assert poly.exceptional_hermite(m, n + 1).degree == m + n + 1


def test_evaluate_examples():
    assert poly.evaluate(Polynomial((1,)), 5.0) == 1
    assert poly.evaluate(Polynomial((2, 0, 4)), 1.0) == pytest.approx(6.0)
    assert poly.evaluate(Polynomial((0, 2)), 1j) == pytest.approx(2j)


def test_derivative():
    assert coeffs(poly.derivative(Polynomial((7,)))) == (0,)
    assert coeffs(poly.derivative(Polynomial((2, 0, 4)))) == (0, 8)
    assert coeffs(poly.derivative(Polynomial((0, 12, 0, 8)))) == (12, 0, 24)


def _count(p, lo, hi):
    """Distinct real roots of p in (lo, hi], as isolated."""
    return len(poly.isolate_real_roots(p, lo, hi))


def test_count_real_roots_examples():
    assert _count(poly.pseudo_hermite(2), -100, 100) == 0
    assert _count(poly.hermite(2), -100, 100) == 2
    assert _count(Polynomial((1,)), -10, 10) == 0


def test_count_real_roots_rejects_complex():
    with pytest.raises(DomainError):
        _count(Polynomial((1j, 1)), -1, 1)


def test_pseudo_hermite_nodeless_even():
    for m in range(0, 21, 2):
        assert _count(poly.pseudo_hermite(m), -1e6, 1e6) == 0


def test_pseudo_hermite_single_root_odd():
    for m in range(1, 20, 2):
        p = poly.pseudo_hermite(m)
        assert _count(p, -1e6, 1e6) == 1
        roots = poly.isolate_real_roots(p, -10, 10)
        assert len(roots) == 1
        assert abs(roots[0]) < 1e-9


def test_parity_coefficientwise():
    for n in range(13):
        c = np.array(poly.hermite(n).coefficients)
        assert np.all(c[(n % 2 + 1) % 2::2] == 0)
        c = np.array(poly.pseudo_hermite(n).coefficients)
        assert np.all(c[(n % 2 + 1) % 2::2] == 0)


def test_hermite_real_roots_against_numpy():
    for m in (2, 3, 5, 8):
        mine = poly.hermite_real_roots(m)
        ref = np.sort(np.roots(np.array(poly.hermite(m).coefficients)[::-1].real))
        np.testing.assert_allclose(mine, ref, atol=1e-9)


def test_isolation_finds_all_roots():
    # (x-1)(x+2)(x-0.5)
    p = poly.multiply(poly.multiply(Polynomial((-1, 1)), Polynomial((2, 1))),
                      Polynomial((-0.5, 1)))
    roots = poly.isolate_real_roots(p, -5, 5)
    np.testing.assert_allclose(roots, [-2, 0.5, 1], atol=1e-9)


def test_compose_linear():
    p = Polynomial((1, 0, 1))  # 1 + x^2
    q = poly.compose_linear(p, 2.0, 1.0)  # 1 + (2t+1)^2
    for t in (-1.3, 0.2, 2.5):
        assert poly.evaluate(q, t) == pytest.approx(1 + (2 * t + 1) ** 2)


def test_overflow_guard():
    with pytest.raises(DomainError):
        poly.hermite(65)
    with pytest.raises(DomainError):
        poly.pseudo_hermite(100)


def test_orthogonality_via_quadrature():
    from rexosc import numerics
    from rexosc.numerics import Grid

    g = Grid(0.0, 10.0, 4001)
    x = g.points
    weight = np.exp(-x**2)
    vals = [poly.evaluate(poly.hermite(n), x.astype(complex)) for n in range(9)]
    for j in range(9):
        for k in range(j + 1, 9):
            assert abs(numerics.integrate_samples(vals[j] * vals[k] * weight, g.spacing)) < 1e-8


def _roots_poly(*roots):
    p = Polynomial((1,))
    for r in roots:
        p = poly.multiply(p, Polynomial((-r, 1)))
    return p


def _variations_loop(chain, x):
    """Scalar reference for the vectorized sign-variation count."""
    vals = []
    for c in map(np.asarray, chain):
        v = 0.0
        for ck in c[::-1]:
            v = v * x + ck
        if abs(v) > 1e-14 * (np.max(np.abs(c)) * max(1.0, abs(x)) ** (c.size - 1)):
            vals.append(v)
    return sum((u > 0) != (w > 0) for u, w in zip(vals, vals[1:]))


def test_vectorized_variations_match_scalar_loop():
    rng = np.random.default_rng(11)
    p1 = poly.compose_linear(poly.pseudo_hermite(5), 0.8, 0.8 * (0.3 + 0.2j))
    cases = [poly.hermite(8), poly.pseudo_hermite(7), _roots_poly(1, 1, -2),
             poly.multiply(p1, poly.conjugate_coefficients(p1))]
    for p in cases:
        chain = poly._sturm_chain(poly._real_coeffs(p), poly._REAL_TOL)
        x = np.concatenate([rng.uniform(-6, 6, 200), [0.0, 1.0, -2.0]])
        np.testing.assert_array_equal(poly._variations(poly._sturm_table(p), x),
                                      [_variations_loop(chain, xi) for xi in x])


def _bisection_reference(p, lo, hi, tol=1e-12):
    """Recursive Sturm bisection: the isolation multisection must reproduce."""
    table = poly._sturm_table(p)

    def var(x):
        return int(poly._variations(table, np.array([x]))[0])

    roots = []

    def recurse(a, b, count):
        if count <= 0:
            return
        if b - a <= tol * max(1.0, abs(a), abs(b)):
            roots.append(0.5 * (a + b))
            return
        mid = 0.5 * (a + b)
        left = var(a) - var(mid)
        recurse(a, mid, left)
        recurse(mid, b, count - left)

    recurse(lo, hi, var(lo) - var(hi))
    return sorted(roots)


def test_multisection_matches_bisection_reference():
    # pseudo_hermite(3) has its real root at the midpoint of (-10, 10], so
    # where it lands within tol depends on the final interval chosen
    cases = [(poly.pseudo_hermite(3), -10, 10), (poly.hermite(6), -5, 5),
             (poly.exceptional_hermite(2, 3), -4, 4.5), (_roots_poly(1, 3), 0, 64)]
    for p, lo, hi in cases:
        np.testing.assert_allclose(poly.isolate_real_roots(p, lo, hi),
                                   _bisection_reference(p, lo, hi), rtol=0, atol=1e-14)


def test_isolation_root_on_a_probe():
    # (0, 64] splits into 64 unit parts, so 1 and 3 are multisection probes
    hi = 2 ** poly._SPLIT_BITS
    roots = poly.isolate_real_roots(_roots_poly(1, 3), 0, hi)
    np.testing.assert_allclose(roots, [1, 3], atol=1e-11)


def test_isolation_interval_is_open_below_closed_above():
    p = _roots_poly(1, 2)
    np.testing.assert_allclose(poly.isolate_real_roots(p, 1, 2), [2], atol=1e-11)
    assert _count(p, 1, 2) == 1
    assert poly.isolate_real_roots(p, 0.5, 1) == pytest.approx([1], abs=1e-11)
    assert poly.isolate_real_roots(p, 2, 3) == []


def test_isolation_double_root_is_one_root():
    p = _roots_poly(1, 1)
    assert _count(p, -5, 5) == 1
    roots = poly.isolate_real_roots(p, -5, 5)
    assert len(roots) == 1 and abs(roots[0] - 1) < 1e-11


def test_isolation_separates_roots_1e9_apart():
    # exact coefficients keep the pair distinct in the Sturm chain; the 1e-14
    # zero filter limits where the pair can be placed to about sqrt(1e-14)
    p = _roots_poly(0.0, 1e-9)
    assert _count(p, -1, 1) == 2
    roots = poly.isolate_real_roots(p, -1, 1)
    assert len(roots) == 2 and roots[0] < roots[1]
    assert np.all(np.abs(roots) < 2e-7)


@pytest.mark.parametrize("m", range(10))
def test_isolation_agrees_with_count_on_scan_polynomials(m):
    # pole-scan polynomials p1 * conj(p1), p1 = companion(s (t + shift)):
    # every real root is a double root; the last shifts put one on the axis
    base = poly.pseudo_hermite(m)
    shifts = [0.0, 0.4, 0.3j, -0.25 + 0.1j]
    for s in (0.7, 1.3, 0.9 * np.exp(0.3j)):
        shifts_m = shifts + [complex(-z / s + 0.2) for z in poly.pseudo_hermite_zeros(m)]
        for shift in shifts_m:
            p1 = poly.compose_linear(base, s, s * shift)
            scan = poly.multiply(p1, poly.conjugate_coefficients(p1))
            assert (len(poly.isolate_real_roots(scan, -8, 8))
                    == len(oracles.isolate_real_roots_ref(scan, -8, 8))), (s, shift)


def test_root_interval_must_be_finite_and_ordered():
    for lo, hi in ((5, -5), (1, 1), (-np.inf, np.inf), (0, np.nan)):
        with pytest.raises(DomainError):
            poly.isolate_real_roots(poly.hermite(2), lo, hi)


def _bits(p):
    return [(c.real.hex(), c.imag.hex()) for c in p.coefficients]


def test_compose_linear_equals_polynomial_reference():
    rng = np.random.default_rng(31)
    polys = ([poly.hermite(n) for n in range(7)] + [poly.pseudo_hermite(m) for m in range(7)]
             + [Polynomial(tuple(rng.normal(size=k) + 1j * rng.normal(size=k)))
                for k in (1, 3, 6)]
             + [Polynomial((0j,)), Polynomial((-0.0, complex(-0.0, -0.0), 1.0))])
    args = [(0.8, 0.8 * (0.3 + 0.2j)), (1.3, 0.0), (0.5j, -0.25), (0.0, 2.0), (0.0, 0.0),
            (-0.0, complex(-0.0, -0.0)), (1.0, complex(0.0, -0.0))]
    args += [tuple(rng.normal(size=2) + 1j * rng.normal(size=2)) for _ in range(5)]
    for p in polys:
        for alpha, beta in args:
            assert (_bits(poly.compose_linear(p, alpha, beta))
                    == _bits(oracles.compose_linear_ref(p, alpha, beta))), (p, alpha, beta)


def test_isolate_real_roots_equals_array_reference():
    rng = np.random.default_rng(37)
    cases = [(poly.hermite(n), -6.0, 6.0) for n in range(1, 13)]
    cases += [(poly.exceptional_hermite(2, 3), -4, 4.5), (_roots_poly(1, 3), 0, 64),
              (_roots_poly(1, 1, -2), -5, 5), (_roots_poly(0.0, 1e-9), -1, 1),
              (poly.pseudo_hermite(3), -10, 10)]
    for _ in range(40):
        m = int(rng.integers(1, 7))
        s = complex(np.sqrt(complex(rng.uniform(0.5, 2.5), rng.choice([0.0, 0.3])) / 2))
        shift = complex(rng.normal(), rng.choice([0.0, rng.normal()]))
        p1 = poly.compose_linear(poly.pseudo_hermite(m), s, s * shift)
        scan = p1 if s.imag == 0 and shift.imag == 0 else poly.multiply(
            p1, poly.conjugate_coefficients(p1))
        cases.append((scan, -8.0, 8.0))
    # shifts that put a zero of p1 on the real axis: double roots of the scan
    for m in (2, 3, 4):
        for s in (0.7, 0.9 * np.exp(0.3j)):
            for z in poly.pseudo_hermite_zeros(m):
                p1 = poly.compose_linear(poly.pseudo_hermite(m), s, s * complex(-z / s + 0.2))
                cases.append((poly.multiply(p1, poly.conjugate_coefficients(p1)), -8.0, 8.0))
    for p, lo, hi in cases:
        assert (poly.isolate_real_roots(p, lo, hi)
                == oracles.isolate_real_roots_ref(p, lo, hi)), (p, lo, hi)


def test_pseudo_hermite_zeros_are_cached_and_read_only():
    assert poly.pseudo_hermite_zeros(0).size == 0
    for m in (1, 3, 6):
        zeros = poly.pseudo_hermite_zeros(m)
        np.testing.assert_array_equal(poly.pseudo_hermite_zeros(m), zeros)
        np.testing.assert_array_equal(zeros, -1j * poly.hermite_real_roots(m))
        with pytest.raises(ValueError):
            zeros[0] = 0.0
