"""Job lists and output checks of the three benchmark workloads.

A workload is an ordered list of jobs. A job is one call a user of rexosc
makes: one check call (``sweep``) or one in-process ``rexosc verify``
(``verify2d``, ``verify3d``). Each job's output is compared with the
acceptance bound of the check it performs; a failed comparison is counted,
never raised, so one wrong answer does not stop a run.

``reduced=True`` builds a small version of each workload with the same job
kinds, for the harness smoke test.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from rexosc import cli, model, numerics, transform, verify
from rexosc.model import Eigenstate, OscillatorSpec, REConfig
from rexosc.numerics import TridiagonalMatrix
from rexosc.transform import CouplingValue

WORKLOADS = ("sweep", "verify2d", "verify3d")

# These two checks fail on the NumPy fallback's Sturm count (ROADMAP item 1).
# They stay in the sweep so the defect shows in `failed`; a run is still
# `correct` when they are its only failures, so that any other wrong answer
# turns `correct` false.
KNOWN_DEFECTS = frozenset({"eigensolver.2x2", "eigensolver.box"})

SQ7 = math.sqrt(7.0)

# Acceptance bounds (tests/test_acceptance.py and tests/test_numerics.py).
RESIDUAL_BOUND = 1e-6
LADDER_BOUND = 1e-5
ORACLE_GAP_BOUND = 2e-3
PT_SIGN_BOUND = 1e-6
GRAM_BOUND = 1e-6
ROUND_TRIP_BOUND = 1e-9

# No acceptance bound exists yet for the 3D residual, which at 101 points per
# axis is limited by the grid (ROADMAP item 4). Each 3D job is held to twice
# the residual it had when this benchmark was defined.
RESIDUAL_3D_CEILING = {"lq3d": 0.32, "q1_3d": 3.1e-3, "q2_3d": 5.1e-3}


class Checks:
    """Tally of output checks: how many ran, which failed, worst residual."""

    def __init__(self):
        self.attempted = 0
        self.failed = []
        self.max_residual = 0.0

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed.append((name, detail))

    def residual(self, value: float) -> None:
        # a NaN residual is left out here; it fails its own check instead
        self.max_residual = max(self.max_residual, value)

    @property
    def correct(self) -> bool:
        return all(name in KNOWN_DEFECTS for name, _ in self.failed)


@dataclass
class Job:
    """One timed call plus the check applied to what it returned.

    ``pairs`` is the number of (state, mesh point) pairs whose eigenfunction
    value the job needs, the base of ``model.psi_evals_per_point``.
    """

    label: str
    call: Callable[[], object]
    check: Callable[[object, Checks], None]
    pairs: int = 0


def build(workload: str, seed: int, reduced: bool = False) -> list:
    """Job list of a workload; ``seed`` drives every random draw."""
    if workload == "sweep":
        return _sweep(seed, reduced)
    if workload == "verify2d":
        return _verify2d(201 if reduced else 801)
    if workload == "verify3d":
        return _verify3d(51 if reduced else 101)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


# ------------------------------------------------------------------- sweep

def _sweep(seed: int, reduced: bool) -> list:
    rng = np.random.default_rng(seed)
    pole_draws = 12 if reduced else 200
    jobs = (_residual_suite(reduced) + _rayleigh_ladders(reduced)
            + _pole_scans(rng, pole_draws) + _round_trips(rng, 1 if reduced else 2))
    if not reduced:
        jobs += [_grid_oracle()] + _eigensolver_inputs() + [_spectrum_counts()]
    return jobs


def _residual_suite(reduced: bool) -> list:
    """Criterion 5: 32 residual scans at spacing 1e-3."""
    om = 2.0
    jobs = []
    for name, l0 in (("osc", None), ("real", CouplingValue.real(1.0)),
                     ("imag", CouplingValue.imaginary(1.0))):
        spec = (OscillatorSpec.linear_1d(om, l0) if l0 is not None
                else OscillatorSpec.oscillator(om))
        grids = verify.suggest_grids(spec, spacing=1e-2 if reduced else 1e-3)
        npts = grids[0].n_points
        for m in (0, 1, 2, 3):
            if m % 2 == 1 and name != "imag":
                continue
            for lv in (None, 0, 1, 2):
                label = f"residual.1d.{name}.m{m}.{'g' if lv is None else lv}"
                call = (lambda s=spec, c=REConfig((m,)), st=Eigenstate((lv,)), g=grids:
                        verify.residual_scan(s, c, st, g))
                jobs.append(Job(label, call, _check_residual(label), npts))
    return jobs[::8] if reduced else jobs


def _check_residual(label: str):
    def check(out, checks: Checks) -> None:
        res = out[0]
        checks.residual(res)
        checks.record(label, res <= RESIDUAL_BOUND, f"residual {res:.3e}")
    return check


def _rayleigh_ladders(reduced: bool) -> list:
    """Criterion 6, 1D part: (E_n - E_g) = (n + m + 1) * omega."""
    om = 2.0
    spec = OscillatorSpec.oscillator(om)
    jobs = []
    for m in ((2,) if reduced else (0, 2)):
        cfg = REConfig((m,))
        ground = {}

        def keep_ground(out, checks, ground=ground):
            ground["e"] = out

        jobs.append(Job(f"rayleigh.m{m}.g",
                        lambda c=cfg: verify.rayleigh_energy(spec, c, Eigenstate((None,))),
                        keep_ground))
        for n in (0, 1, 2):
            label = f"rayleigh.m{m}.{n}"

            def check(out, checks, label=label, ground=ground, want=(n + m + 1) * om):
                err = abs((out - ground["e"]).real - want)
                checks.record(label, err <= LADDER_BOUND, f"ladder error {err:.3e}")

            jobs.append(Job(label, lambda c=cfg, n=n: verify.rayleigh_energy(
                spec, c, Eigenstate((n,))), check))
    return jobs


def _pole_scans(rng, total: int) -> list:
    """Criterion 7: random lq3d draws; poles found iff the config is inadmissible."""
    flavors = ("real", "imaginary")
    jobs = []
    for draw in range(total):
        f0 = flavors[draw % 2]
        fl = flavors[(draw // 2) % 2]
        while True:
            w1, w2 = rng.uniform(0.5, 2.5, size=2)
            if abs(w1**2 - w2**2) > 0.4:
                break
        w3 = rng.uniform(0.5, 2.5)
        mag_l = (rng.uniform(0.05, 0.3) * abs(w1**2 - w2**2)
                 if fl == "imaginary" else rng.uniform(0.1, w1 * w2))
        spec = OscillatorSpec.lq_3d(w1, w2, w3,
                                    CouplingValue(rng.uniform(0.1, 1.5), f0),
                                    CouplingValue(mag_l, fl))
        ms = tuple(int(m) for m in rng.integers(0, 6, size=3))
        rules = model.admissible_codimensions(spec)
        admissible = all(m % 2 == 0 or r == model.EVEN_AND_ODD
                         for m, r in zip(ms, rules))
        label = f"pole_scan.{draw}"

        def check(poles, checks, label=label, admissible=admissible):
            checks.record(label, admissible == (len(poles) == 0),
                          f"admissible={admissible} poles={len(poles)}")

        jobs.append(Job(label, lambda s=spec, c=REConfig(ms): verify.pole_scan(s, c),
                        check))
    return jobs


def _round_trips(rng, per_case: int) -> list:
    """Target tilde ratio -> degeneracy coupling -> tilde ratio, 2D, q1 and q2."""
    jobs = []
    for case in ("2d", "q1", "q2"):
        for i in range(per_case):
            q = int(rng.integers(2, 6))
            ratio = Fraction(int(rng.integers(1, q)), q)
            w, w3 = (float(x) for x in rng.uniform(0.5, 2.5, size=2))
            lambda1 = float(rng.uniform(-0.5, 0.5)) * w**2
            label = f"degeneracy.{case}.{i}"
            jobs.append(Job(label, lambda c=case, r=ratio, w=w, w3=w3, l1=lambda1:
                            _round_trip(c, r, w, w3, l1), _check_round_trip(label, ratio)))
    return jobs


def _round_trip(case: str, ratio: Fraction, w: float, w3: float, lambda1: float):
    if case == "2d":
        c = transform.degeneracy_coupling_2d(ratio, w, w3)
        return transform.tilde_frequencies_2d(w, w3, CouplingValue(c.magnitude, c.flavor))
    c = transform.degeneracy_coupling_3d(case, ratio, omega=w, omega3=w3,
                                         lambda1=lambda1 if case == "q2" else None)
    lam = CouplingValue(c.magnitude, c.flavor)
    if case == "q1":
        return transform.decouple_3d_q1(w, w3, lam, CouplingValue.zero()).tilde_frequencies[1:]
    return transform.tilde_frequencies_q2(w, w3, lambda1, lam)[1:]


def _check_round_trip(label: str, ratio: Fraction):
    def check(freqs, checks: Checks) -> None:
        f = [complex(x) for x in freqs]
        real = all(abs(x.imag) <= 1e-9 * abs(x) for x in f)
        got = min(x.real for x in f) / max(x.real for x in f)
        err = abs(got - float(ratio))
        checks.record(label, real and err <= ROUND_TRIP_BOUND,
                      f"ratio {got!r} for target {ratio}")
    return check


def _grid_oracle() -> Job:
    """Criterion 10: diagonalization gaps [(m+1)w, w, w, w] for w=2, m=2."""
    spec = OscillatorSpec.oscillator(2.0)

    def check(vals, checks):
        worst = float(np.max(np.abs(np.diff(vals) - [6.0, 2.0, 2.0, 2.0])))
        checks.record("grid_spectrum", worst <= ORACLE_GAP_BOUND, f"gap error {worst:.3e}")

    return Job("grid_spectrum",
               lambda: verify.grid_spectrum(spec, REConfig((2,)), (-12, 12), 2000, 5), check)


def _eigensolver_inputs() -> list:
    """The 2x2 and particle-in-a-box matrices of tests/test_numerics.py."""
    two = TridiagonalMatrix(np.array([2.0, 2.0]), np.array([-1.0]))
    n = 2000
    h = 24.0 / (n + 1)
    box = TridiagonalMatrix(np.full(n, 2.0 / h**2), np.full(n - 1, -1.0 / h**2))
    box_exact = np.pi**2 * np.arange(1, 4) ** 2 / 24.0**2

    def expect(label, exact, atol):
        def check(vals, checks):
            err = float(np.max(np.abs(vals - exact)))
            checks.record(label, err <= atol, f"eigenvalues {list(vals)} error {err:.3e}")
        return check

    return [Job("eigensolver.2x2", lambda: numerics.lowest_eigenvalues(two, 2),
                expect("eigensolver.2x2", np.array([1.0, 3.0]), 1e-12)),
            Job("eigensolver.box", lambda: numerics.lowest_eigenvalues(box, 3),
                expect("eigensolver.box", box_exact, 1e-5))]


def _brute_force_multiplicities(weights, offsets, cutoff_key: int) -> dict:
    """Count the level tuples of each energy sum_i (n_i + off_i) w_i <= cutoff,
    a ground option (contribution 0) included on every axis."""
    counts = {}

    def rec(i, acc):
        if i == len(weights):
            counts[acc] = counts.get(acc, 0) + 1
            return
        rec(i + 1, acc)
        n = 0
        while acc + (n + offsets[i]) * weights[i] <= cutoff_key:
            rec(i + 1, acc + (n + offsets[i]) * weights[i])
            n += 1

    rec(0, 0)
    return counts


def _spectrum_counts() -> Job:
    """Criterion 11: exact multiplicities of the 1:3 example up to 20 * w2."""
    spec = OscillatorSpec.quadratic_2d(1, 2, CouplingValue.real(SQ7 / 2))
    sys = model.decouple(spec)
    w1 = complex(sys.tilde_frequencies[0]).real
    cutoff = 20.0 * complex(sys.tilde_frequencies[1]).real
    expected = _brute_force_multiplicities([1, 3], [1, 1], int(round(cutoff / w1)))

    def check(table, checks):
        got = {int(round(e.energy / w1)): e.multiplicity for e in table.entries}
        checks.record("spectrum.multiplicities", got == expected,
                      f"{len(got)} levels, {len(expected)} expected")

    return Job("spectrum.multiplicities",
               lambda: model.spectrum(spec, REConfig((0, 0)), cutoff), check)


# ----------------------------------------------------------- verify jobs

def run_cli(argv: list):
    """``rexosc <argv>`` in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _verify_job(label: str, flags: list, states: list, points: int, dim: int,
                signs: dict | None, residual_ceiling: float) -> Job:
    """One ``rexosc verify`` job and the checks on its JSON report.

    ``signs`` maps a parity operator to the expected PT eigenvalue of each
    state; ``None`` only requires each measured value to be +1 or -1.
    """
    argv = ["verify", "--dim", str(dim), *flags, "--points", str(points)]
    for st in states:
        argv += ["--state", st]

    def check(result, checks: Checks) -> None:
        code, stdout, stderr = result
        checks.record(f"{label}.exit", code == 0, stderr.strip())
        if code != 0:
            return
        rep = json.loads(stdout)
        res = rep["max_residual"]
        checks.residual(res)
        checks.record(f"{label}.residual", res <= residual_ceiling, f"residual {res:.3e}")
        checks.record(f"{label}.poles", rep["poles"] == [], f"poles {rep['poles']}")
        checks.record(f"{label}.states", rep["states"] == states, f"states {rep['states']}")
        pt = rep["pt_eigenvalues"]
        if signs is not None:
            checks.record(f"{label}.pt_ops", sorted(pt) == sorted(signs), f"operators {sorted(pt)}")
        for op, vals in pt.items():
            if isinstance(vals, str):
                checks.record(f"{label}.pt.{op}", False, vals)
                continue
            for st, v, want in zip(states, vals, (signs or {}).get(op, [None] * len(vals))):
                s = complex(v["re"], v["im"])
                target = want if want is not None else (1.0 if s.real >= 0 else -1.0)
                checks.record(f"{label}.pt.{op}.{st}", abs(s - target) <= PT_SIGN_BOUND,
                              f"PT eigenvalue {s}")
        if rep["gram"] is not None:
            g = np.array([[complex(z["re"], z["im"]) for z in row] for row in rep["gram"]])
            dev = float(np.max(np.abs(g - np.eye(len(states)))))
            checks.record(f"{label}.gram", dev <= GRAM_BOUND, f"Gram deviation {dev:.3e}")

    return Job(label, lambda: run_cli(argv), check, len(states) * points**dim)


def _verify2d(points: int) -> list:
    """The PT-symmetric and the Hermitian worked 2D examples on points^2 grids."""
    # Criterion 9: per flipped axis, +1 on the ground level, (-1)^(n+1) above it.
    pt_states = ["g,g", "0,g", "g,0", "1,1"]
    pt_signs = {"P1": [1, -1, 1, 1], "P2": [1, 1, -1, 1]}
    bound = RESIDUAL_BOUND if points >= 801 else math.inf  # coarse grids: no bound
    return [
        _verify_job("verify.pt2d", ["--omega", "1,3", "--coupling", f"imaginary:{SQ7!r}",
                                    "--m", "2,2"], pt_states, points, 2, pt_signs, bound),
        _verify_job("verify.herm2d", ["--omega", "1,2", "--coupling", f"real:{SQ7 / 2!r}",
                                      "--m", "2,2"], ["g,g", "0,g", "g,0"], points, 2,
                    {}, bound),
    ]


def _verify3d(points: int) -> list:
    """One job per 3D case, each a ground and an excited state."""
    ceiling = (RESIDUAL_3D_CEILING if points >= 101
               else dict.fromkeys(RESIDUAL_3D_CEILING, math.inf))
    return [
        _verify_job("verify.lq3d", ["--case", "lq", "--omega", "1,2,1.5",
                                    "--linear", "imaginary:0.5", "--coupling", "real:1",
                                    "--m", "2,2,1"], ["0,g,1", "g,g,g"], points, 3,
                    None, ceiling["lq3d"]),
        _verify_job("verify.q1_3d", ["--case", "q1", "--omega", f"{math.sqrt(2)!r},"
                                     f"{math.sqrt(2)!r},1", "--lambda2", "imaginary:0.3",
                                     "--lambda3", "real:0.4", "--m", "2,2,2"],
                    ["g,g,g", "0,g,0"], points, 3, None, ceiling["q1_3d"]),
        _verify_job("verify.q2_3d", ["--case", "q2", "--omega", "1,1,1",
                                     "--lambda1", "real:0.5", "--coupling",
                                     f"real:{math.sqrt(7.5) / 4!r}", "--m", "2,2,2"],
                    ["g,g,g", "g,0,g"], points, 3, None, ceiling["q2_3d"]),
    ]
