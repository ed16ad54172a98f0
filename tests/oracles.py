"""Reference closed forms and independent oracles shared by the tests.

Everything here is computed independently of the package internals: printed
closed-form rows are transcribed literally, Hermite values come from
numpy.polynomial, and counting oracles use brute-force enumeration. The
reference kernels at the end are the plain loops that the package's faster
Sturm code must reproduce bit for bit.
"""
import math

import numpy as np
from numpy.polynomial.hermite import hermval

from rexosc.poly import Polynomial, add, multiply


def hermite_ref(n, x):
    """Physicists' Hermite polynomial via numpy.polynomial (independent path)."""
    c = np.zeros(n + 1)
    c[n] = 1.0
    return hermval(np.asarray(x, dtype=complex), c)


def zeta(om, xt):
    return np.exp(-om * np.asarray(xt, dtype=complex) ** 2 / 4)


# -- 1D extended potentials, closed forms in the original coordinate ---------

def potential_row_1d(m, om, l0, x):
    base = om**2 * x**2 / 4 + l0 * x - om
    if m == 0:
        return base
    if m == 1:
        return base + 2 * om**4 / (2 * l0 + om**2 * x) ** 2
    d = 4 * l0**2 + om**3 + om**4 * x**2 + 4 * l0 * om**2 * x
    if m == 2:
        return base - 8 * om**7 / d**2 + 4 * om**4 / d
    d3 = 4 * l0**2 + 3 * om**3 + om**4 * x**2 + 4 * l0 * om**2 * x
    if m == 3:
        return (base - 24 * om**7 / d3**2 + 4 * om**4 / d3
                + 2 * om**4 / (2 * l0 + om**2 * x) ** 2)
    raise ValueError(m)


def ground_row_1d(m, om, l0, x):
    xt = x + 2 * l0 / om**2
    z = zeta(om, xt)
    if m == 0:
        return z
    if m == 1:
        return z * (-om + 0j) ** 1.5 / (np.sqrt(2) * (2 * l0 + x * om**2))
    if m == 2:
        return z * (-(om**3) / (2 * (4 * l0**2 + 4 * x * l0 * om**2
                                     + om**3 + x**2 * om**4)))
    if m == 3:
        return z * (-om + 0j) ** 4.5 / (
            2 * np.sqrt(2) * (2 * l0 + x * om**2)
            * (4 * l0**2 + 4 * x * l0 * om**2 + om**3 * (3 + x**2 * om)))
    raise ValueError(m)


def excited_row_1d(m, om, l0, n, x):
    """Printed excited rows; the m=1 second term is restored to the
    m=0/m=2 pattern (the printed coefficient is inconsistent for n >= 1,
    as its own n=0 specialization confirms)."""
    xt = x + 2 * l0 / om**2
    u = np.sqrt(om / 2 + 0j) * xt
    z = zeta(om, xt)
    hn = hermite_ref(n, u)
    hnm1 = hermite_ref(n - 1, u) if n >= 1 else 0.0 * u
    if m == 0:
        return z * ((2 * l0 + om**2 * x) / om * hn
                    - np.sqrt(2) * n * np.sqrt(om) * hnm1)
    if m == 1:
        return z * ((4 * l0**2 + om**3 + om**4 * x**2 + 4 * l0 * om**2 * x)
                    / (2 * l0 * om + om**3 * x) * hn
                    - np.sqrt(2) * n * np.sqrt(om) * hnm1)
    if m == 2:
        num = (8 * l0**3 + 6 * l0 * om**3 * (om * x**2 + 1)
               + om**5 * x * (om * x**2 + 3) + 12 * l0**2 * om**2 * x)
        den = 4 * l0**2 * om + om**4 + om**5 * x**2 + 4 * l0 * om**3 * x
        return z * (num / den * hn - np.sqrt(2) * n * np.sqrt(om) * hnm1)
    if m == 3:
        # printed row carries only the H_n term; exact for n = 0
        num = (16 * l0**4 + 24 * l0**2 * om**3 * (om * x**2 + 1)
               + 8 * l0 * om**5 * x * (om * x**2 + 3)
               + om**6 * (om**2 * x**4 + 6 * om * x**2 + 3)
               + 32 * l0**3 * om**2 * x)
        den = om * (2 * l0 + om**2 * x) * (4 * l0**2 + om**3 * (om * x**2 + 3)
                                           + 4 * l0 * om**2 * x)
        return z * num / den * hn
    raise ValueError(m)


# -- displayed 2D extended potentials ----------------------------------------

SQ7 = np.sqrt(7.0)


def base_2d_real(x, y):
    return 0.25 * (x**2 + 4 * y**2) + SQ7 / 4 * x * y


def re_2d_real_02(x, y):
    w = x / (2 * np.sqrt(2)) + 0.5 * np.sqrt(7 / 2) * y
    den = -2 - 3 * np.sqrt(2) * w**2
    return (base_2d_real(x, y) - 1 / np.sqrt(2)
            - 2 * (3 / (2 * np.sqrt(2)) - 72 * w**2 / den**2
                   - 6 * np.sqrt(2) / den))


def re_2d_real_22(x, y):
    w = x / (2 * np.sqrt(2)) + 0.5 * np.sqrt(7 / 2) * y
    v = 0.5 * np.sqrt(7 / 2) * x - y / (2 * np.sqrt(2))
    dw = -2 - 3 * np.sqrt(2) * w**2
    dv = -2 - np.sqrt(2) * v**2
    return (base_2d_real(x, y)
            - 2 * (1 / (2 * np.sqrt(2)) - 8 * v**2 / dv**2 - 2 * np.sqrt(2) / dv)
            - 2 * (3 / (2 * np.sqrt(2)) - 72 * w**2 / dw**2 - 6 * np.sqrt(2) / dw))


def base_2d_imag(x, y):
    return 0.25 * (x**2 + 9 * y**2) + 1j * SQ7 / 2 * x * y


def re_2d_imag_22(x, y):
    yt = np.sqrt(7 / 6) * y + 1j * x / np.sqrt(6)
    xt = np.sqrt(7 / 6) * x - 1j * y / np.sqrt(6)
    dy_ = -2 - 4 * np.sqrt(2) * yt**2
    dx_ = -2 - 2 * np.sqrt(2) * xt**2
    return (base_2d_imag(x, y)
            - 2 * (-128 * yt**2 / dy_**2 - 8 * np.sqrt(2) / dy_ + np.sqrt(2))
            - 2 * (-32 * xt**2 / dx_**2 - 4 * np.sqrt(2) / dx_ + 1 / np.sqrt(2)))


def generic_2d_row(m_pair, a, b, w1, w2, lam, om1, om2, x, y):
    """Printed generic rows for (0,0), (0,2), (2,2) in tilde parameters."""
    base = 0.25 * (om1**2 * x**2 + om2**2 * y**2) + lam / 2 * x * y
    out = base - w1 - w2
    if m_pair in ((0, 2), (2, 2)):
        yt2 = (a * y + b * x) ** 2
        out = out + 4 * w2 * (w2 * yt2 - 1) / (w2 * yt2 + 1) ** 2
    if m_pair == (2, 2):
        xt2 = (a * x - b * y) ** 2
        out = out + 4 * w1 * (w1 * xt2 - 1) / (xt2 * w1 + 1) ** 2
    return out


# -- sampled parity-time invariance -------------------------------------------

def sampled_pt_deviation(potential, matrix, dimension, samples=200, seed=17):
    """max |conj V(M p) - V(p)| / (1 + |V(p)|) over seeded normal points p,
    ``potential`` being V at one point: the sampled reading of PT invariance
    that the exact check at fixed points replaced."""
    rng = np.random.default_rng(seed)
    mat = np.asarray(matrix)
    worst = 0.0
    for p in rng.normal(size=(samples, dimension)):
        v = potential(p)
        w = potential(mat @ p)
        worst = max(worst, abs(np.conj(w) - v) / (1 + abs(v)))
    return worst


# -- counting oracles ---------------------------------------------------------

def brute_force_multiplicities(weights, offsets, cutoff_key):
    """Level-count map for energies sum_i (n_i + off_i) * w_i with integer
    weights, including the per-axis ground option (contribution 0).

    Returns {key: count} over all level tuples with key <= cutoff_key.
    """
    counts = {}

    def rec(i, acc):
        if acc > cutoff_key:
            return
        if i == len(weights):
            counts[acc] = counts.get(acc, 0) + 1
            return
        rec(i + 1, acc)  # ground on axis i
        n = 0
        while True:
            step = acc + (n + offsets[i]) * weights[i]
            if step > cutoff_key:
                break
            rec(i + 1, step)
            n += 1

    rec(0, 0)
    return counts


# -- reference Sturm kernels ----------------------------------------------------

def sturm_count_ref(diag, off2, pivmin, probes):
    """Negative LDL^T pivots of T - x at each probe x, row by row with the
    LAPACK ``dlaebz`` guard: a pivot no larger in magnitude than pivmin is
    replaced by -pivmin before it is counted and propagated."""
    count = np.zeros(probes.shape, dtype=np.int64)
    q = np.ones(probes.shape)
    for d_i, e2_i in zip(diag, [0.0] + list(off2)):
        q = d_i - e2_i / q - probes
        q = np.where(np.abs(q) <= pivmin, -pivmin, q)
        count += q < 0.0
    return count


def compose_linear_ref(p, alpha, beta):
    """p(alpha*t + beta) by Horner's rule on ``Polynomial`` objects."""
    result = Polynomial((0j,))
    lin = Polynomial((beta, alpha))
    for c in reversed(p.coefficients):
        result = add(multiply(result, lin), Polynomial((c,)))
    return result


_REF_TOL = 1e-12


def _trim_ref(c, tol):
    scale = np.max(np.abs(c)) if c.size else 0.0
    if scale == 0.0:
        return np.zeros(1)
    k = c.size
    while k > 1 and abs(c[k - 1]) <= tol * scale:
        k -= 1
    return c[:k]


def _poly_rem_ref(a, b, tol):
    r = a.copy()
    db = b.size - 1
    while r.size - 1 >= db and r.size > 1:
        k = r.size - 1 - db
        q = r[-1] / b[-1]
        r = r[:-1].copy()
        if q != 0.0:
            r[k:k + db] -= q * b[:-1]
        r = _trim_ref(r, tol)
        if r.size == 1 and r[0] == 0.0:
            break
    return r


def _sturm_chain_ref(c, tol):
    chain = [_trim_ref(c, tol)]
    if chain[0].size > 1:
        chain.append(_trim_ref(np.array([k * c[k] for k in range(1, c.size)]), tol))
    while chain[-1].size > 1:
        r = _poly_rem_ref(chain[-2], chain[-1], tol)
        if r.size == 1 and r[0] == 0.0:
            break
        chain.append(-r)
    if chain[-1].size > 1:
        g = chain[-1][::-1]
        chain = [np.polydiv(c[::-1], g)[0][::-1] for c in chain]
    return chain


def _variations_ref(chain, x):
    """Sign variations of the chain at each probe; a member with |value| <=
    1e-14 * scale * max(1, |x|)^degree takes the sign of the last kept one
    above it."""
    coeffs = np.zeros((len(chain), max(c.size for c in chain)))
    for row, c in zip(coeffs, chain):
        row[:c.size] = c
    degree = np.array([[c.size - 1] for c in chain])
    scale = np.array([[np.max(np.abs(c))] for c in chain])
    columns = list(coeffs.T[:, :, None])
    vals = columns[-1] + 0.0 * x
    for c in columns[-2::-1]:
        vals = vals * x + c
    kept = np.abs(vals) > 1e-14 * (scale * np.maximum(1.0, np.abs(x)) ** degree)
    sign = np.sign(vals) * kept
    rows = np.where(kept, np.arange(sign.shape[0])[:, None], 0)
    sign = sign[np.maximum.accumulate(rows, axis=0), np.arange(x.size)]
    return np.count_nonzero(sign[1:] * sign[:-1] < 0.0, axis=0)


def isolate_real_roots_ref(p, lo, hi, tol=1e-12):
    """Distinct real roots of p in (lo, hi] by Sturm multisection on NumPy
    arrays: every sweep splits each interval holding a root into up to 64
    equal parts, fewer when a part could get narrower than the tolerance."""
    c = np.array(p.coefficients)
    if np.max(np.abs(c.imag)) > _REF_TOL * (np.max(np.abs(c)) or 1.0):
        raise ValueError("polynomial coefficients are not real")
    chain = _sturm_chain_ref(c.real.copy(), _REF_TOL)
    if chain[0].size == 1:
        return []
    state = np.array([[lo], [hi], *_variations_ref(chain, np.array([lo, hi]))[:, None]])
    state = state[:, state[2] > state[3]]
    roots = []
    while state.shape[1]:
        a, b, v_a, v_b = state
        room = tol * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
        done = b - a <= room
        if done.any():
            roots.extend((0.5 * (a[done] + b[done])).tolist())
            state, room = state[:, ~done], room[~done]
            if not state.shape[1]:
                break
            a, b, v_a, v_b = state
        ratio = float(np.min((b - a) / room))
        parts = 2 ** min(max(math.ceil(math.log2(ratio) - 1e-9), 1), 6)
        probes = a[:, None] + (b - a)[:, None] * (np.arange(1, parts) / parts)
        v_x = _variations_ref(chain, probes.ravel()).reshape(probes.shape)
        edges = np.concatenate([a[:, None], probes, b[:, None]], axis=1)
        counts = np.concatenate([v_a[:, None], v_x, v_b[:, None]], axis=1)
        counts = np.maximum(np.minimum.accumulate(counts, axis=1), v_b[:, None])
        state = np.stack([edges[:, :-1].ravel(), edges[:, 1:].ravel(),
                          counts[:, :-1].ravel(), counts[:, 1:].ravel()])
        state = state[:, state[2] > state[3]]
    return sorted(roots)
