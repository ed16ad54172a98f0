"""NumPy kernels: quadrature, stencil, Horner, and the multisection
eigensolver against dense ``eigvalsh`` on adversarial matrices."""
import numpy as np
import pytest

from rexosc import _kernels

EPS = np.finfo(float).eps


def test_simpson_gaussian():
    x = np.linspace(-10, 10, 4001)
    val = _kernels.simpson(np.exp(-x**2).astype(complex), x[1] - x[0])
    assert abs(val - np.sqrt(np.pi)) < 1e-12


def test_stencil_profile_quadratic():
    x = np.linspace(-1, 1, 101)
    out = _kernels.second_derivative_profile((x**2).astype(complex), x[1] - x[0])
    assert np.max(np.abs(out - 2.0)) < 1e-10


def test_stencil_profile_along_each_axis_of_a_mesh():
    rng = np.random.default_rng(7)
    f = rng.normal(size=(11, 12, 13)) + 1j * rng.normal(size=(11, 12, 13))
    for axis in range(3):
        out = _kernels.second_derivative_profile(f, 0.1, axis)
        lines = np.moveaxis(f, axis, -1).reshape(-1, f.shape[axis])
        ref = np.stack([_kernels.second_derivative_profile(line, 0.1) for line in lines])
        assert out.shape[axis] == f.shape[axis] - 8
        np.testing.assert_array_equal(np.moveaxis(out, axis, -1).reshape(ref.shape), ref)


def test_eigenvalues_match_dense():
    rng = np.random.default_rng(3)
    d = rng.normal(size=60)
    e = rng.normal(size=59)
    mat = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    ref = np.sort(np.linalg.eigvalsh(mat))[:5]
    np.testing.assert_allclose(_kernels.tridiagonal_smallest(d, e, 5), ref,
                               rtol=1e-11, atol=1e-11)


def test_horner_matches_numpy():
    rng = np.random.default_rng(5)
    c = rng.normal(size=12) + 1j * rng.normal(size=12)
    z = rng.normal(size=50) + 1j * rng.normal(size=50)
    ref = np.polyval(c[::-1], z)
    np.testing.assert_allclose(_kernels.horner(c, z), ref, rtol=1e-12)


def _box(n):
    h = 24.0 / (n + 1)
    return np.full(n, 2.0 / h**2), np.full(n - 1, -1.0 / h**2)


def _graded(n):
    # entries spread over 1e-8 .. 1e8
    scale = np.logspace(-8, 8, n)
    return scale * np.linspace(1.0, 2.0, n), -0.5 * np.sqrt(scale[:-1] * scale[1:])


ADVERSARIAL = {
    "n1": (np.array([3.5]), np.array([])),
    "n2": (np.array([1.0, -2.0]), np.array([0.5])),
    "n3": (np.array([0.0, 1.0, 0.0]), np.array([1e-3, -2.0])),
    "constant_diagonal": (np.full(40, 7.0), np.zeros(39)),
    # zero couplings, repeated values; the bracket [0, 64] puts probes on 1
    "repeated_decoupled": (np.array([0.0, 64.0, 1.0, 64.0, 1.0, 0.0, 1.0]), np.zeros(6)),
    "probe_on_pivot": (np.array([2.0, 2.0]), np.array([1.0])),  # probe 2.0 hits d - x = 0
    "box_2000": _box(2000),
    "graded": _graded(40),
}


@pytest.mark.parametrize("name", sorted(ADVERSARIAL))
def test_eigenvalues_adversarial_match_dense(name):
    d, e = ADVERSARIAL[name]
    mat = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    ref = np.linalg.eigvalsh(mat)
    k = min(len(d), 5)
    got = _kernels.tridiagonal_smallest(d, e, k)
    # bracket tolerance plus the dense solver's backward error
    dense_err = 4.0 * len(d) * EPS * np.max(np.abs(ref))
    tol = 4.0 * EPS * np.maximum(1.0, np.abs(ref[:k])) + dense_err
    assert np.all(np.abs(got - ref[:k]) <= tol), (got, ref[:k])
    assert np.all(np.diff(got) >= 0)


def test_probe_on_pivot_counts_it_as_negative():
    # the middle probe of the Gershgorin bracket [1, 3] is 2.0, where the
    # first pivot is exactly zero; eigenvalue 1 lies below it, 3 does not
    count = _kernels._sturm_count([2.0, 2.0], [1.0], np.finfo(float).tiny,
                                  np.array([2.0]))
    assert count.tolist() == [1]


def test_eigensolver_rejects_bad_arguments():
    with pytest.raises(ValueError):
        _kernels.tridiagonal_smallest(np.ones(3), np.ones(3), 1)
    with pytest.raises(ValueError):
        _kernels.tridiagonal_smallest(np.ones(3), np.ones(2), 4)
    with pytest.raises(RuntimeError):
        _kernels.tridiagonal_smallest(np.array([1.0, np.nan]), np.ones(1), 1)
