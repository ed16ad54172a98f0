"""NumPy kernels: quadrature, stencil, slab Laplacian, the leaf-by-leaf
pairwise sum against ``np.sum``, Horner, and the multisection
eigensolver against dense ``eigvalsh`` on adversarial matrices; the blocked
Sturm count against its row-by-row reference, zero pivots included; and
``map_slabs`` against the serial loop."""
import os
import signal
import sys
import threading
import warnings

import numpy as np
import pytest

import oracles
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


def test_in_place_kernels_equal_their_out_of_place_loops():
    # above numpy's 256 KiB temporary-elision threshold as well as below it
    rng = np.random.default_rng(11)
    for shape in ((40, 30), (300, 200)):
        z = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        c = rng.normal(size=6) + 1j * rng.normal(size=6)
        ref = np.full(z.shape, c[-1])
        for k in range(len(c) - 2, -1, -1):
            ref = ref * z + c[k]
        np.testing.assert_array_equal(_kernels.horner(c, z), ref)
        for axis in (0, 1):
            ref = None
            n = z.shape[axis]
            for j, w in enumerate(_kernels.STENCIL8):
                term = w * np.take(z, range(j, n - 8 + j), axis=axis)
                ref = term if ref is None else ref + term
            np.testing.assert_array_equal(
                _kernels.second_derivative_profile(z, 0.3, axis), ref / 0.3**2)


def _profile_sum(f, spacings):
    """The Laplacian as per-axis profiles trimmed to the common interior."""
    lap = None
    for axis, h in enumerate(spacings):
        d2 = _kernels.second_derivative_profile(f, h, axis)
        trim = tuple(slice(None) if a == axis else slice(4, n - 4)
                     for a, n in enumerate(f.shape))
        lap = d2[trim] if lap is None else lap + d2[trim]
    return lap


@pytest.mark.parametrize("shape", [(41,), (23, 17), (19, 12, 14)])
@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("slab_rows", [1, 4, None])
def test_laplacian_equals_the_sum_of_axis_profiles_bitwise(monkeypatch, shape, dtype,
                                                           slab_rows):
    # slabs of 4 rows leave a partial last slab on every interior length here
    rng = np.random.default_rng(sum(shape))
    f = rng.normal(size=shape)
    if dtype is complex:
        f = f + 1j * rng.normal(size=shape)
    if slab_rows is not None:
        monkeypatch.setattr(_kernels, "_SLAB_BYTES", slab_rows * f[0].nbytes)
    spacings = [0.1 * (a + 1) for a in range(f.ndim)]
    got = _kernels.laplacian(f, spacings)
    want = _profile_sum(f, spacings)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    # a non-contiguous view: reversed and transposed
    g = np.flip(f, axis=0).T
    assert not g.flags.c_contiguous
    assert _kernels.laplacian(g, spacings[::-1]).tobytes() == \
        _profile_sum(np.ascontiguousarray(g), spacings[::-1]).tobytes()


def test_laplacian_writes_into_the_given_buffers():
    # out and work arrays of a caller: slabs of their rows, the same sum
    rng = np.random.default_rng(5)
    f = rng.normal(size=(19, 12, 14)) + 1j * rng.normal(size=(19, 12, 14))
    spacings = [0.1, 0.2, 0.3]
    out = np.empty((11, 4, 6), complex)
    for rows in (1, 4, 11):
        work = [np.empty((rows, 4, 6), complex) for _ in range(2)]
        assert _kernels.laplacian(f, spacings, out, work) is out
        assert out.tobytes() == _profile_sum(f, spacings).tobytes()


def test_laplacian_rejects_bad_arguments():
    with pytest.raises(ValueError):
        _kernels.laplacian(np.zeros((9, 9)), [0.1])
    with pytest.raises(ValueError):
        _kernels.laplacian(np.zeros((9, 8)), [0.1, 0.1])


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


def _pivmin(off2):
    return np.finfo(float).tiny * max(1.0, float(np.max(off2, initial=0.0)))


def test_blocked_sturm_count_equals_row_by_row_reference():
    rng = np.random.default_rng(19)
    block = _kernels._ROW_BLOCK
    for n in (1, 2, 17, block - 1, block, block + 1, 2 * block + 37):
        d = rng.normal(size=n) * 10.0
        off2 = rng.normal(size=n - 1) ** 2
        probes = rng.uniform(d.min() - 5.0, d.max() + 5.0, size=(3, 63))
        np.testing.assert_array_equal(
            _kernels._sturm_count(d, off2, _pivmin(off2), probes),
            oracles.sturm_count_ref(d, off2, _pivmin(off2), probes))


# rows whose pivot the tests drive to exactly zero: the first row, one in
# mid-block, the last row of a block, the first row of the next, and one in
# the third block, which the recurrence enters through a coupled row
_ZERO_ROWS = (0, 100, _kernels._ROW_BLOCK - 1, _kernels._ROW_BLOCK,
              2 * _kernels._ROW_BLOCK + 30)


def test_zero_pivots_on_decoupled_rows_count_as_negative():
    # zero couplings make row i's pivot d_i - x, so a probe on the diagonal
    # is an exact zero pivot, and the count at x is #{j: d_j <= x}
    rng = np.random.default_rng(23)
    d = rng.normal(size=600)
    off2 = np.zeros(599)
    probes = np.concatenate([d[list(_ZERO_ROWS)], rng.normal(size=11)])
    got = _kernels._sturm_count(d, off2, _pivmin(off2), probes)
    np.testing.assert_array_equal(got, oracles.sturm_count_ref(d, off2, _pivmin(off2), probes))
    np.testing.assert_array_equal(got, [np.count_nonzero(d <= x) for x in probes])


def test_zero_pivots_between_coupled_rows_equal_reference():
    # the coupling above each zero row is cut, so its pivot is d_i - x = 0;
    # the coupled row below then divides by it and needs the guard. The third
    # block is full, so its redo must start from the pivot carried into it
    rng = np.random.default_rng(29)
    d = rng.normal(size=3 * _kernels._ROW_BLOCK + 32)
    off2 = rng.uniform(0.1, 1.0, size=d.size - 1) ** 2
    for row in _ZERO_ROWS[1:]:
        off2[row - 1] = 0.0
    probes = np.stack([d[list(_ZERO_ROWS)], rng.normal(size=len(_ZERO_ROWS))])
    np.testing.assert_array_equal(
        _kernels._sturm_count(d, off2, _pivmin(off2), probes),
        oracles.sturm_count_ref(d, off2, _pivmin(off2), probes))


def test_redone_block_starts_from_the_pivot_carried_into_it():
    # decoupled rows, all pivots 5 - x > 0, except: row 2B-1 ends the second
    # block with pivot +1; row 2B, coupled to it alone, has pivot
    # -e^2/(+1) < 0, which a redo from any negative pivot would flip; row
    # 2B+30 is a zero pivot, so the third block is redone; row 3B-1 ends that
    # block with pivot -1
    block = _kernels._ROW_BLOCK
    x = 0.25
    d = np.full(3 * block + 8, 5.0)
    off2 = np.zeros(d.size - 1)
    d[2 * block - 1], d[2 * block], off2[2 * block - 1] = x + 1.0, x, 0.5
    d[2 * block + 30] = x
    d[3 * block - 1] = x - 1.0
    probes = np.array([x])
    got = _kernels._sturm_count(d, off2, _pivmin(off2), probes)
    np.testing.assert_array_equal(got, oracles.sturm_count_ref(d, off2, _pivmin(off2), probes))
    assert got.tolist() == [3]  # eigenvalues x - 0.366, x and x - 1


# ----------------------------------------------------------------- map_slabs

def _workers(monkeypatch, n):
    monkeypatch.setattr(_kernels, "_cpus", lambda: n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_map_slabs_returns_the_serial_results_in_order(n, monkeypatch):
    _workers(monkeypatch, n)
    items = [slice(i, i + 3) for i in range(0, 30, 3)]
    assert _kernels.map_slabs(lambda s: (s.start, s.stop), items) == \
        [(s.start, s.stop) for s in items]
    assert _kernels.map_slabs(lambda s: s, []) == []


@pytest.mark.parametrize("n", [1, 2, 3])
def test_map_slabs_raises_the_lowest_items_exception_and_claims_no_more(n, monkeypatch):
    _workers(monkeypatch, n)
    calls = []

    def fn(i):
        calls.append(i)
        if i in (5, 6, 11):
            raise ValueError(f"item {i}")
        return i

    with pytest.raises(ValueError, match="^item 5$"):
        _kernels.map_slabs(fn, range(20))
    # items 0-5 are claimed in order; each other worker finishes at most the
    # one item it holds
    assert sorted(calls)[:6] == list(range(6))
    assert len(calls) <= 6 + (n - 1) and max(calls) < 6 + (n - 1)


def test_map_slabs_runs_one_item_on_the_calling_thread(monkeypatch):
    _workers(monkeypatch, 3)

    def refused(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(_kernels.threading, "Thread", refused)
    monkeypatch.setattr(_kernels, "_Helper", refused)
    assert _kernels.map_slabs(lambda i: threading.current_thread(), [0]) == \
        [threading.current_thread()]
    _workers(monkeypatch, 1)
    assert _kernels.map_slabs(lambda i: i, range(4)) == [0, 1, 2, 3]


def test_map_slabs_works_on_the_calling_thread_too(monkeypatch):
    # items 0 and 1 wait for each other, so two workers hold them: the
    # calling thread claims item 0
    _workers(monkeypatch, 2)
    both = threading.Barrier(2, timeout=10)

    def fn(i):
        if i < 2:
            both.wait()
        return threading.get_ident()

    idents = _kernels.map_slabs(fn, range(4))
    assert idents[0] == threading.get_ident() and idents[1] != idents[0]


@pytest.mark.parametrize("n", [2, 3])
def test_map_slabs_raises_the_lowest_of_concurrent_exceptions(n, monkeypatch):
    # items 1 and 2 wait for each other, so two workers hold them when both raise
    _workers(monkeypatch, n)
    both = threading.Barrier(2, timeout=10)

    def fn(i):
        if i in (1, 2):
            both.wait()
            raise ValueError(f"item {i}")
        return i

    with pytest.raises(ValueError, match="^item 1$"):
        _kernels.map_slabs(fn, range(8))


def test_map_slabs_workers_enter_the_callers_error_state(monkeypatch):
    # items 0 and 1 wait for each other, so item 1 runs on a helper thread
    _workers(monkeypatch, 2)
    zeros = np.zeros(4)

    def run():
        both = threading.Barrier(2, timeout=10)

        def fn(i):
            both.wait()
            return 1.0 / zeros if i == 1 else None

        return _kernels.map_slabs(fn, range(2))

    with np.errstate(divide="ignore"):
        assert np.isinf(run()[1]).all()
    with np.errstate(divide="raise"):
        with pytest.raises(FloatingPointError):
            run()


def test_map_slabs_gives_each_worker_its_own_buffers(monkeypatch):
    _workers(monkeypatch, 3)
    made = []

    def buffers():
        made.append(threading.get_ident())
        return threading.get_ident()

    owners = _kernels.map_slabs(lambda i, own: (own, threading.get_ident()), range(40), buffers)
    assert all(own == ident for own, ident in owners)
    assert 1 <= len(made) <= 3 and len(set(made)) == len(made)


def test_map_slabs_loses_no_item_under_contention(monkeypatch):
    # more workers than this machine has CPUs, switching threads as often as
    # the interpreter allows: every item runs once and lands at its index
    _workers(monkeypatch, _kernels._MAX_WORKERS)
    interval = sys.getswitchinterval()
    calls = []
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            calls.clear()
            got = _kernels.map_slabs(lambda i: calls.append(i) or i * i, range(2000))
            assert got == [i * i for i in range(2000)]
            assert sorted(calls) == list(range(2000))
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_map_slabs_in_a_forked_child_starts_its_own_helpers(monkeypatch):
    # the parent's idle helper threads do not exist in a forked child
    _workers(monkeypatch, 2)
    assert _kernels.map_slabs(lambda i: i, range(4)) == [0, 1, 2, 3]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork with threads
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            signal.alarm(30)
            code = 0 if _kernels.map_slabs(lambda i: i, range(4)) == [0, 1, 2, 3] else 1
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
