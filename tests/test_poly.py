"""Hermite-family construction, evaluation, and the zeros of H_m."""
import numpy as np
import pytest

from oracles import hermite_ref
from rexosc import poly
from rexosc.errors import DomainError
from rexosc.poly import Polynomial


def coeffs(p):
    return tuple(complex(c) for c in p.coefficients)


def hermite(n):
    """H_n from the package's integer recurrence."""
    return Polynomial(tuple(poly._int_hermite(n)))


def test_hermite_low_orders():
    assert coeffs(hermite(0)) == (1,)
    assert coeffs(hermite(1)) == (0, 2)
    assert coeffs(hermite(3)) == (0, -12, 0, 8)


def test_hermite_matches_numpy():
    rng = np.random.default_rng(2)
    z = rng.normal(size=20)
    for n in range(9):
        np.testing.assert_allclose(poly.evaluate(hermite(n), z),
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
        assert coeffs(poly.exceptional_hermite(0, j)) == coeffs(hermite(j))


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


def test_pseudo_hermite_nodeless_even():
    # even powers only, every coefficient a positive integer: p_m(x) >= p_m(0) > 0
    for m in range(0, poly._MAX_INDEX + 1, 2):
        c = poly._int_pseudo_hermite(m)
        assert all(type(x) is int for x in c)
        assert all(x == 0 for x in c[1::2]) and all(x > 0 for x in c[0::2])


def test_pseudo_hermite_single_root_odd():
    # odd powers only, every coefficient a positive integer: p_m(x) = x q(x^2)
    # with q > 0, so 0 is the one real root, and a simple one
    for m in range(1, poly._MAX_INDEX + 1, 2):
        c = poly._int_pseudo_hermite(m)
        assert all(type(x) is int for x in c)
        assert all(x == 0 for x in c[0::2]) and all(x > 0 for x in c[1::2])


def test_parity_coefficientwise():
    for n in range(13):
        c = np.array(hermite(n).coefficients)
        assert np.all(c[(n % 2 + 1) % 2::2] == 0)
        c = np.array(poly.pseudo_hermite(n).coefficients)
        assert np.all(c[(n % 2 + 1) % 2::2] == 0)


def _sturm_variations(m, x):
    """Sign changes of H_0(x), ..., H_m(x), exactly: with x = p/q, run the
    recurrence on the integers q^k H_k(x), whose signs are those of H_k(x)."""
    p, q = float(x).as_integer_ratio()
    prev, cur = 1, 2 * p
    signs = [1, (cur > 0) - (cur < 0)]
    for k in range(1, m):
        prev, cur = cur, 2 * p * cur - 2 * k * q * q * prev
        signs.append((cur > 0) - (cur < 0))
    signs = [sg for sg in signs if sg]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def test_hermite_real_roots_certified_exactly():
    # H_0, ..., H_m is a Sturm sequence of H_m: V(a) - V(b) counts its roots
    # in (a, b]. Disjoint brackets r +- 1e-12 max(1, |r|), each holding one
    # root, certify all m roots.
    for m in range(1, poly._MAX_INDEX + 1):
        roots = poly.hermite_real_roots(m)
        assert roots.shape == (m,)
        width = 1e-12 * np.maximum(1.0, np.abs(roots))
        lo, hi = roots - width, roots + width
        assert np.all(lo < hi) and np.all(hi[:-1] < lo[1:]), m
        for a, b in zip(lo, hi):
            assert _sturm_variations(m, a) - _sturm_variations(m, b) == 1, (m, a, b)


def _pseudo_hermite_ref(m):
    """Integer coefficients of p_m(x) = i^-m H_m(ix), by its own recurrence
    p_{k+1} = 2x p_k + 2k p_{k-1}."""
    prev, cur = [1], [0, 2]
    if m == 0:
        return prev
    for k in range(1, m):
        nxt = [0] + [2 * x for x in cur]
        for i, x in enumerate(prev):
            nxt[i] += 2 * k * x
        prev, cur = cur, nxt
    return cur


@pytest.mark.parametrize("m, j", [(29, 1), (60, 64)])
def test_exceptional_hermite_is_integer_exact(m, j):
    # p_m H_j + H_{j-1} p_m' in exact integers, each coefficient correctly
    # rounded once
    pm = _pseudo_hermite_ref(m)
    dpm = [k * pm[k] for k in range(1, len(pm))]
    exact = poly._int_add(poly._int_mul(pm, poly._int_hermite(j)),
                          poly._int_mul(poly._int_hermite(j - 1), dpm))
    assert coeffs(poly.pseudo_hermite(m)) == tuple(map(complex, pm))
    assert coeffs(poly.exceptional_hermite(m, j)) == tuple(map(complex, exact))


def test_overflow_guard():
    with pytest.raises(DomainError):
        hermite(65)
    with pytest.raises(DomainError):
        poly.pseudo_hermite(100)


def test_orthogonality_via_quadrature():
    from rexosc import numerics
    from rexosc.numerics import Grid

    g = Grid(0.0, 10.0, 4001)
    x = g.points
    weight = np.exp(-x**2)
    vals = [poly.evaluate(hermite(n), x.astype(complex)) for n in range(9)]
    for j in range(9):
        for k in range(j + 1, 9):
            assert abs(numerics.integrate_samples(vals[j] * vals[k] * weight, g.spacing)) < 1e-8


def test_pseudo_hermite_zeros_are_cached_and_read_only():
    assert poly.pseudo_hermite_zeros(0).size == 0
    for m in (1, 3, 6):
        zeros = poly.pseudo_hermite_zeros(m)
        np.testing.assert_array_equal(poly.pseudo_hermite_zeros(m), zeros)
        np.testing.assert_array_equal(zeros, -1j * poly.hermite_real_roots(m))
        with pytest.raises(ValueError):
            zeros[0] = 0.0
