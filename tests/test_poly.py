"""The Hermite family: its three-term recurrences (``poly.ladder``) and the
numerators built from them against exact integer coefficients, and the
zeros of H_m."""
import math

import numpy as np
import pytest

import oracles
from oracles import hermite_ref, int_hermite, int_numerator, int_pseudo_hermite
from rexosc import model, poly
from rexosc.errors import DomainError

H, P = -1, 1  # the ladder's sign: Hermite polynomials, pseudo companions


def test_hermite_low_orders():
    assert int_hermite(0) == [1]
    assert int_hermite(1) == [0, 2]
    assert int_hermite(3) == [0, -12, 0, 8]
    u = np.array([0.5, -1.25, 0.3 + 0.7j])
    np.testing.assert_allclose(poly.ladder(3, u, H)[0], 8 * u**3 - 12 * u, rtol=1e-15)
    np.testing.assert_allclose(poly.ladder(3, u, H)[1], 4 * u**2 - 2, rtol=1e-15)


def test_hermite_matches_numpy():
    rng = np.random.default_rng(2)
    z = rng.normal(size=20)
    for n in range(9):
        np.testing.assert_allclose(poly.ladder(n, z, H)[0],
                                   hermite_ref(n, z), rtol=1e-12, atol=1e-9)


def test_pseudo_hermite_low_orders():
    assert int_pseudo_hermite(0) == [1]
    assert int_pseudo_hermite(2) == [2, 0, 4]
    assert int_pseudo_hermite(3) == [0, 12, 0, 8]
    u = np.array([0.5, -1.25, 0.3 + 0.7j])
    np.testing.assert_allclose(poly.ladder(2, u, P)[0], 4 * u**2 + 2, rtol=1e-15)
    np.testing.assert_allclose(poly.ladder(3, u, P)[0], 8 * u**3 + 12 * u, rtol=1e-15)


def test_pseudo_hermite_substitution_oracle():
    # companion(x) = (-i)^m H_m(i x), checked pointwise
    rng = np.random.default_rng(4)
    z = rng.normal(size=12) + 1j * rng.normal(size=12)
    for m in range(13):
        ref = (-1j) ** m * hermite_ref(m, 1j * z)
        got = poly.ladder(m, z, P)[0]
        np.testing.assert_allclose(got, ref, rtol=1e-11, atol=1e-9)


def test_pseudo_hermite_even_all_positive():
    # nodeless on the real line for even m: p_m(x) >= p_m(0) = m!/(m/2)!
    x = np.linspace(-6, 6, 241)
    for m in range(0, 21, 2):
        p = poly.ladder(m, x, P)[0]
        assert np.all(p.real >= (1 - 1e-13) * math.factorial(m) / math.factorial(m // 2))
        assert np.all(p.imag == 0)


def test_exceptional_hermite_base_case():
    # the ground level: N = 1, which the package writes as the phase i^m
    u = np.array([0.4, -2.0 + 1j])
    for m in range(6):
        assert int_numerator(m, 0) == [1]
        assert model._numerator(m, None, u) == (1j) ** m


def test_exceptional_hermite_m2_first():
    # (4x^2+2)(2x) + 1*(8x) = 8x^3 + 12x
    assert int_numerator(2, 1) == [0, 12, 0, 8]
    u = np.array([0.5, -1.25, 0.3 + 0.7j])
    np.testing.assert_allclose(model._numerator(2, 0, u), 8 * u**3 + 12 * u, rtol=1e-15)


def test_exceptional_hermite_m0_identity():
    u = np.linspace(-3, 3, 13) + 0.25j
    for j in range(1, 6):
        assert int_numerator(0, j) == int_hermite(j)
        np.testing.assert_array_equal(model._numerator(0, j - 1, u), poly.ladder(j, u, H)[0])


def test_exceptional_hermite_degree():
    for m in range(0, 13, 3):
        for n in range(0, 13, 4):
            c = int_numerator(m, n + 1)
            assert len(c) == m + n + 2 and c[-1] != 0


def test_evaluate_examples():
    one, zero = poly.ladder(0, 5.0, H)
    assert (one, zero) == (1, 0)
    assert poly.ladder(2, 1.0, P)[0] == 6.0
    assert poly.ladder(1, 1j, H)[0] == 2j
    assert poly.ladder(2, np.zeros((2, 3)), H)[0].shape == (2, 3)


def test_derivative():
    # the identities the model's ladders rest on: H_n' = 2n H_{n-1},
    # p_m' = 2m p_{m-1} and p_m'' = 2m p_m - 2u p_m'
    d = oracles.int_derivative
    for n in range(1, poly._MAX_INDEX + 1):
        assert d(int_hermite(n)) == oracles.int_scale(2 * n, int_hermite(n - 1))
        p = int_pseudo_hermite(n)
        assert d(p) == oracles.int_scale(2 * n, int_pseudo_hermite(n - 1))
        residual = oracles.int_add(d(d(p)), oracles.int_scale(-2 * n, p),
                                   oracles.int_scale(2, [0] + d(p)))
        assert not any(residual)


def test_pseudo_hermite_nodeless_even():
    # even powers only, every coefficient a positive integer: p_m(x) >= p_m(0) > 0
    for m in range(0, poly._MAX_INDEX + 1, 2):
        c = int_pseudo_hermite(m)
        assert all(type(x) is int for x in c)
        assert all(x == 0 for x in c[1::2]) and all(x > 0 for x in c[0::2])


def test_pseudo_hermite_single_root_odd():
    # odd powers only, every coefficient a positive integer: p_m(x) = x q(x^2)
    # with q > 0, so 0 is the one real root, and a simple one
    for m in range(1, poly._MAX_INDEX + 1, 2):
        c = int_pseudo_hermite(m)
        assert all(type(x) is int for x in c)
        assert all(x == 0 for x in c[0::2]) and all(x > 0 for x in c[1::2])


def test_parity_coefficientwise():
    u = np.array([0.3, 1.7 - 0.4j, -2.5 + 2j])
    for n in range(13):
        for c in (int_hermite(n), int_pseudo_hermite(n)):
            assert all(x == 0 for x in c[(n % 2 + 1) % 2::2])
        for sign in (H, P):
            # the ladder at -u is (-1)^n times the ladder at u, bit for bit
            np.testing.assert_array_equal(poly.ladder(n, -u, sign)[0],
                                          (-1) ** n * poly.ladder(n, u, sign)[0])


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
    # the oracle's substitution form of p_m is its recurrence, and its
    # numerator p_m H_j + H_{j-1} p_m' is built in Python integers
    pm = _pseudo_hermite_ref(m)
    assert int_pseudo_hermite(m) == pm
    exact = int_numerator(m, j)
    assert all(type(x) is int for x in exact)
    assert exact == oracles.int_add(oracles.int_mul(pm, int_hermite(j)),
                                    oracles.int_scale(2 * m, oracles.int_mul(
                                        _pseudo_hermite_ref(m - 1), int_hermite(j - 1))))


def _exact(coeffs, u):
    return np.array([oracles.exact_value(coeffs, z) for z in u])


def _scale(n, z, exact):
    """The error scale of values of the degree-n member at z: the larger of
    |exact| and the real-line envelope e^(x^2/2) sqrt(2^n n!) of H_n at
    x = Re z (a pseudo companion p_n(u) is H_n at z = iu, up to a phase)."""
    return np.maximum(np.abs(exact),
                      np.exp(np.real(z)**2 / 2) * math.sqrt(2.0**n * math.factorial(n)))


def _probe_points(n, rng):
    """Real points spanning |x| <= sqrt(2n+1), where H_n oscillates, and
    complex points off the real line over the same span."""
    b = math.sqrt(2 * n + 1)
    z = rng.uniform(-b, b, 6) + 1j * rng.choice([-1, 1], 6) * rng.uniform(0.1, 2.0, 6)
    return np.concatenate([np.linspace(-b, b, 13), z])


def test_ladder_matches_exact_values():
    # against exact evaluations of the integer coefficients, relative to the
    # envelope; Horner on the monomial coefficients reads 3.9e-3 at n = 64
    rng = np.random.default_rng(3)
    for n in range(poly._MAX_INDEX + 1):
        u = _probe_points(n, rng)
        got_h, got_p = poly.ladder(n, u, H)[0], poly.ladder(n, u, P)[0]
        ref_h, ref_p = _exact(int_hermite(n), u), _exact(int_pseudo_hermite(n), u)
        assert np.max(np.abs(got_h - ref_h) / _scale(n, u, ref_h)) < 1e-13, n
        assert np.max(np.abs(got_p - ref_p) / _scale(n, 1j * u, ref_p)) < 1e-13, n
    for m in (0, 1, 2, 5, 8, 31, 64):
        for j in (1, 2, 9, 33, 64):
            u = _probe_points(j, rng)
            ref_p = [_exact(int_pseudo_hermite(k), u) for k in (m, max(m - 1, 0))]
            ref_h = [_exact(int_hermite(k), u) for k in (j, j - 1)]
            scale = (_scale(m, 1j * u, ref_p[0]) * _scale(j, u, ref_h[0])
                     + 2 * m * _scale(max(m - 1, 0), 1j * u, ref_p[1])
                     * _scale(j - 1, u, ref_h[1]))
            got = model._numerator(m, j - 1, u)
            err = np.abs(got - _exact(int_numerator(m, j), u)) / scale
            assert np.max(err) < 1e-13, (m, j)


def test_ladder_does_not_depend_on_how_many_points_are_evaluated():
    rng = np.random.default_rng(6)
    u = rng.normal(size=50) + 1j * rng.normal(size=50)
    for sign in (H, P):
        whole = poly.ladder(13, u, sign)
        for i in range(u.size):
            one = poly.ladder(13, u[i:i + 1], sign)
            assert (one[0][0], one[1][0]) == (whole[0][i], whole[1][i])


def test_numerator_chunks_equal_the_whole_array():
    # the ladders run in chunks of the flattened u; none is one point long
    assert [s.stop - s.start for s in model._chunks(2 * model._CHUNK + 1)] == \
        [model._CHUNK, model._CHUNK + 1]
    assert model._chunks(1) == [slice(0, 1)]
    rng = np.random.default_rng(8)
    u = (rng.normal(size=(3, model._CHUNK)) + 1j * rng.normal(size=(3, model._CHUNK)))[:, 1:]
    p, q = poly.ladder(4, u, P)
    hj, hj1 = poly.ladder(7, u, H)
    ref = p * hj + (q * 8.0) * hj1
    got = model._numerator(4, 6, u)
    assert got.shape == u.shape
    np.testing.assert_array_equal(got, ref)


def test_overflow_guard():
    with pytest.raises(DomainError, match="exceeds the limit of 64"):
        poly.ladder(65, 0.5, H)
    with pytest.raises(DomainError):
        poly.ladder(100, 0.5, P)
    with pytest.raises(DomainError):
        model._numerator(2, 64, np.zeros(2))  # H_65
    with pytest.raises(DomainError):
        poly.hermite_real_roots(100)


def test_orthogonality_via_quadrature():
    from rexosc import numerics
    from rexosc.numerics import Grid

    g = Grid(0.0, 10.0, 4001)
    x = g.points
    weight = np.exp(-x**2)
    vals = [poly.ladder(n, x, H)[0] for n in range(9)]
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
