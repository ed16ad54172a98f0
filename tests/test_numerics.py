"""Grid, stencil, quadrature, and eigensolver contracts."""
import numpy as np
import pytest

from rexosc import numerics
from rexosc.errors import DomainError, ShapeError
from rexosc.numerics import STENCIL_REACH, Grid, TridiagonalMatrix


def test_grid_invariants():
    g = Grid(0.0, 5.0, 11)
    assert g.spacing == pytest.approx(1.0)
    pts = g.points
    assert np.all(np.diff(pts) > 0)
    with pytest.raises(DomainError):
        Grid(0.0, 1.0, 8)
    with pytest.raises(DomainError):
        Grid(0.0, -1.0, 11)


def _d2(f, g, index):
    """The stencil's f'' at one grid index, read off the interior profile."""
    return numerics.second_derivative_profile(f, g.spacing)[index - STENCIL_REACH]


def test_second_derivative_quadratic_exact():
    g = Grid(0.0, 2.0, 41)
    f = g.points**2
    assert _d2(f, g, 20) == pytest.approx(2.0, abs=1e-10)


def test_second_derivative_constant_zero():
    g = Grid(0.0, 2.0, 41)
    f = np.ones(g.n_points)
    assert _d2(f, g, 10) == pytest.approx(0.0, abs=1e-12)


def test_second_derivative_gaussian_analytic():
    # f = exp(-x^2/4), f'' = (x^2/4 - 1/2) exp(-x^2/4); value at x=1.
    # Tolerance sits at the eps/h^2 cancellation floor for h = 1e-3.
    g = Grid(1.0, 4e-3, 9)
    f = np.exp(-g.points**2 / 4)
    expected = (0.25 - 0.5) * np.exp(-0.25)
    assert _d2(f, g, 4) == pytest.approx(expected, abs=5e-10)


def test_grid_rejects_non_finite_center_and_width():
    for center, half_width in [(np.nan, 1.0), (np.inf, 1.0), (0.0, np.inf)]:
        with pytest.raises(DomainError, match="finite"):
            Grid(center, half_width, 11)


def test_stencil_polynomial_exactness_degree7():
    rng = np.random.default_rng(1)
    g = Grid(0.3, 1.0, 31)
    coeffs = rng.normal(size=8)
    f = np.polynomial.polynomial.polyval(g.points, coeffs)
    d2_coeffs = np.polynomial.polynomial.polyder(coeffs, 2)
    ref = np.polynomial.polynomial.polyval(g.points, d2_coeffs)
    for idx in [4, 10, 26]:
        val = _d2(f, g, idx)
        assert abs(val - ref[idx]) <= 1e-10 * max(1.0, abs(ref[idx]))


def test_richardson_consistency():
    # halving the spacing must shrink the error by at least 2^6
    def err(n):
        g = Grid(0.5, 0.08 * (n - 1) / 2, n)
        f = np.exp(np.sin(g.points))
        i = g.n_points // 2
        x = g.points[i]
        exact = np.exp(np.sin(x)) * (np.cos(x) ** 2 - np.sin(x))
        return abs(_d2(f, g, i) - exact)

    e1 = err(17)
    g2 = Grid(0.5, 0.04 * 16 / 2, 17)  # same span count, half spacing
    f2 = np.exp(np.sin(g2.points))
    x = g2.points[8]
    exact = np.exp(np.sin(x)) * (np.cos(x) ** 2 - np.sin(x))
    e2 = abs(_d2(f2, g2, 8) - exact)
    assert e2 <= e1 / 2**6


def test_integrate_gaussian():
    g = Grid(0.0, 10.0, 4001)
    val = numerics.integrate_samples(np.exp(-g.points**2), g.spacing)
    assert abs(val - np.sqrt(np.pi)) < 1e-8


def test_integrate_odd_function():
    g = Grid(0.0, 3.0, 1001)
    assert abs(numerics.integrate_samples(g.points, g.spacing)) < 1e-12


def test_integrate_hermite_orthogonality():
    from oracles import hermite_ref

    g = Grid(0.0, 10.0, 4001)
    x = g.points
    f = hermite_ref(1, x) * hermite_ref(2, x) * np.exp(-x**2)
    assert abs(numerics.integrate_samples(f, g.spacing)) < 1e-8


def test_eigenvalues_2x2_analytic():
    m = TridiagonalMatrix(np.array([2.0, 2.0]), np.array([-1.0]))
    np.testing.assert_allclose(numerics.lowest_eigenvalues(m, 2), [1.0, 3.0],
                               atol=1e-12)


def test_eigenvalues_identity():
    m = TridiagonalMatrix(np.ones(6), np.zeros(5))
    np.testing.assert_allclose(numerics.lowest_eigenvalues(m, 3), [1, 1, 1],
                               atol=1e-14)


def test_eigenvalues_k_validation():
    m = TridiagonalMatrix(np.ones(4), np.zeros(3))
    with pytest.raises(DomainError):
        numerics.lowest_eigenvalues(m, 5)
    with pytest.raises(ShapeError):
        TridiagonalMatrix(np.ones(4), np.zeros(4))


def test_particle_in_a_box_spectrum():
    n = 2000
    h = 24.0 / (n + 1)
    m = TridiagonalMatrix(np.full(n, 2.0 / h**2), np.full(n - 1, -1.0 / h**2))
    vals = numerics.lowest_eigenvalues(m, 3)
    exact = np.pi**2 * np.arange(1, 4) ** 2 / 24.0**2
    # second-order accuracy; errors shrink with the box resolution
    np.testing.assert_allclose(vals, exact, atol=1e-5)


def test_oscillator_oracle_tolerance():
    # at this resolution the discretization reaches 1e-4 on the lowest five
    n = 5000
    x = np.linspace(-12, 12, n)
    h = x[1] - x[0]
    m = TridiagonalMatrix(2.0 / h**2 + x**2, np.full(n - 1, -1.0 / h**2))
    vals = numerics.lowest_eigenvalues(m, 5)
    exact = (np.arange(5) + 0.5) * 2.0
    np.testing.assert_allclose(vals, exact, atol=1e-4)


def test_oscillator_oracle_specified_resolution():
    # documented accuracy of the n=2000 setup: a few parts in 1e-4
    n = 2000
    x = np.linspace(-12, 12, n)
    h = x[1] - x[0]
    m = TridiagonalMatrix(2.0 / h**2 + x**2, np.full(n - 1, -1.0 / h**2))
    vals = numerics.lowest_eigenvalues(m, 5)
    exact = (np.arange(5) + 0.5) * 2.0
    np.testing.assert_allclose(vals, exact, atol=6e-4)
    assert np.max(np.abs(vals - exact)) > 1e-4  # 1e-4 is not reachable here


def test_default_half_width():
    assert numerics.default_half_width(4.0) == pytest.approx(6.0)
    with pytest.raises(DomainError):
        numerics.default_half_width(0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_eigenvalues_reject_non_finite_entries(bad):
    with pytest.raises(DomainError):
        numerics.lowest_eigenvalues(TridiagonalMatrix(np.array([1.0, bad]),
                                                      np.array([0.5])), 2)
    with pytest.raises(DomainError):
        numerics.lowest_eigenvalues(TridiagonalMatrix(np.array([1.0, 2.0]),
                                                      np.array([bad])), 1)
