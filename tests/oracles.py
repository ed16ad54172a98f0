"""Reference closed forms and independent oracles shared by the tests.

Everything here is computed independently of the package internals: printed
closed-form rows are transcribed literally, Hermite values come from
numpy.polynomial or, exactly, from integer coefficients (``int_hermite``,
``int_pseudo_hermite``, ``int_numerator``, evaluated by ``exact_value``),
and counting oracles use brute-force enumeration.
``spectrum_ref`` is the two-rule level grouping whose tables the one pass of
``model.spectrum`` must reproduce exactly. The reference kernel at the end
is the plain loop that the eigensolver's blocked Sturm count must reproduce
bit for bit.
"""
import itertools
import math
from fractions import Fraction

import numpy as np
from numpy.polynomial.hermite import hermval

from rexosc import model


def hermite_ref(n, x):
    """Physicists' Hermite polynomial via numpy.polynomial (independent path)."""
    c = np.zeros(n + 1)
    c[n] = 1.0
    return hermval(np.asarray(x, dtype=complex), c)


# -- the exact Hermite family: integer coefficients, ascending ----------------

def int_hermite(n):
    """H_n by its recurrence H_{k+1} = 2x H_k - 2k H_{k-1}, in integers."""
    a = [1]
    if n == 0:
        return a
    b = [0, 2]
    for k in range(1, n):
        c = [0] + [2 * x for x in b]  # 2x * H_k
        for i, x in enumerate(a):
            c[i] -= 2 * k * x
        a, b = b, c
    return b


def int_pseudo_hermite(m):
    """The pseudo companion p_m(x) = i^-m H_m(ix): H_m's coefficient of x^k
    times (-1)^((m-k)/2), in integers."""
    h = int_hermite(m)
    out = [0] * len(h)
    for k in range(m % 2, len(h), 2):
        # k <= m: a non-negative exponent keeps the sign an integer
        out[k] = h[k] * (-1) ** ((m - k) // 2)
    return out


def int_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def int_add(*terms):
    out = [0] * max(map(len, terms))
    for t in terms:
        for i, x in enumerate(t):
            out[i] += x
    return out


def int_scale(c, a):
    return [c * x for x in a]


def int_derivative(a):
    return [k * a[k] for k in range(1, len(a))] or [0]


def int_numerator(m, j):
    """The exceptional Hermite numerator: 1 for j = 0 (the ground level),
    else p_m H_j + p_m' H_{j-1} (level j - 1)."""
    if j == 0:
        return [1]
    pm = int_pseudo_hermite(m)
    return int_add(int_mul(pm, int_hermite(j)),
                   int_mul(int_derivative(pm), int_hermite(j - 1)))


def exact_value(coeffs, u):
    """The integer polynomial ``coeffs`` at the float or complex ``u``,
    evaluated exactly and rounded once: with u = (x + iy)/d for integers x,
    y and a power of two d, d^n P(u) is Horner's rule on x + iy with the
    coefficients c_k d^(n-k), in integers."""
    u = complex(u)
    (a, da), (b, db) = u.real.as_integer_ratio(), u.imag.as_integer_ratio()
    d = max(da, db)
    x, y = a * (d // da), b * (d // db)
    n = len(coeffs) - 1
    re = im = 0
    for k in range(n, -1, -1):
        re, im = re * x - im * y + coeffs[k] * d ** (n - k), re * y + im * x
    return complex(float(Fraction(re, d**n)), float(Fraction(im, d**n)))


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


def coordinate_inverse(cmap, point):
    """Tilde coordinates -> old coordinates of a ``CoordinateMap``: the
    transpose of its complex-orthogonal linear part (not the conjugate)
    applied after removing the shift."""
    p = np.asarray(point, dtype=complex)
    t = p - cmap.shift.reshape((-1,) + (1,) * (p.ndim - 1))
    return np.tensordot(cmap.linear.T, t, axes=(1, 0))


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


def _rational_weights_ref(freqs):
    """Integer weights W_i with omega_i proportional to W_i, or None."""
    base = min(f.real for f in freqs)
    if not base > 0:  # a zero frequency has no ratio
        return None
    fracs = []
    for f in freqs:
        if abs(f.imag) > 1e-9 * abs(f):
            return None
        frac = Fraction(f.real / base).limit_denominator(64)
        if abs(f.real / base - float(frac)) > 1e-9 * max(1.0, f.real / base):
            return None
        fracs.append(frac)
    den = math.lcm(*(fr.denominator for fr in fracs))
    return [fr.numerator * (den // fr.denominator) for fr in fracs], base / den


def spectrum_ref(spec, config, energy_cutoff):
    """The states of ``model.spectrum`` grouped by two rules: exact integer
    keys when the tilde frequencies have rational ratios (denominators up to
    64, within 1e-9), otherwise each state joins the first level found so far
    within 1e-9 relative of it, O(levels^2)."""
    freqs = [complex(w) for w in spec.system.tilde_frequencies]
    real = spec.system.is_real
    axis_levels = []
    for w, m in zip(freqs, config.codimensions):
        levels = [None]
        n = 0
        while (n + m + 1) * w.real <= energy_cutoff + 1e-12:
            levels.append(n)
            n += 1
        axis_levels.append(levels)

    weights = _rational_weights_ref(freqs) if real else None
    groups = {}
    for combo in itertools.product(*axis_levels):
        state = model.Eigenstate(combo)
        e = model.relative_energy(config, state, spec.system).real
        if e > energy_cutoff + 1e-12:
            continue
        if weights is not None:
            ws, unit = weights
            key = sum((lv + m + 1) * wt for lv, m, wt
                      in zip(combo, config.codimensions, ws) if lv is not None)
            groups.setdefault(key, []).append((e, state))
        else:
            for key in groups:
                if abs(key - e) <= 1e-9 * max(1.0, abs(key)):
                    groups[key].append((e, state))
                    break
            else:
                groups.setdefault(e, []).append((e, state))

    entries = []
    for key, members in groups.items():
        energy = members[0][0]
        states = tuple(st for _, st in members)
        entries.append(model.SpectrumEntry(energy, len(states), states))
    entries.sort(key=lambda s: s.energy)
    return model.SpectrumTable(tuple(entries), frequencies_real=real)


# -- reference Sturm kernel ----------------------------------------------------

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
