"""Acceptance suite: one test per criterion, printing a PASS line on success.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and the measured values they certify.
"""
import csv
import io
import itertools
import json
import time

import numpy as np
import pytest

import oracles
from rexosc import cli, model, transform, verify
from rexosc.model import Eigenstate, OscillatorSpec, REConfig
from rexosc.transform import CouplingValue

SQ7 = np.sqrt(7.0)


def _report(n, text):
    print(f"[PASS] criterion {n}: {text}")


def test_criterion_01_closed_form_1d_fidelity():
    t0 = time.time()
    rng = np.random.default_rng(101)
    om = 2.0
    worst = 0.0
    for l0_mag in (0.7, 1.0):
        spec = OscillatorSpec.linear_1d(om, CouplingValue.real(l0_mag))
        for m in range(4):
            pts = rng.normal(size=20) + 1j * rng.normal(size=20)
            mine = model.re_potential(spec, REConfig((m,)), pts[None, :],
                                      validate=False)
            ref = oracles.potential_row_1d(m, om, l0_mag, pts)
            worst = max(worst, float(np.max(np.abs(mine - ref) / np.abs(ref))))
    took = time.time() - t0
    assert worst <= 1e-12
    assert took < 1.0
    _report(1, f"1D closed forms m=0..3 match, rel err {worst:.2e}, {took:.2f}s")


def test_criterion_02_rational_term_convention():
    rng = np.random.default_rng(103)
    om = 2.0
    x = rng.normal(size=40) + 1j * rng.normal(size=40)
    mine = model.rational_term_1d(om, 2, x)
    ref = -om + (4 * om**2 * x**2 - 4 * om) / (1 + om * x**2) ** 2
    worst = float(np.max(np.abs(mine - ref) / np.abs(ref)))
    assert worst <= 1e-12
    _report(2, f"co-dimension-2 term equals the algebraic closed form, "
               f"rel err {worst:.2e}")


def test_criterion_03_worked_2d_examples():
    k1 = transform.mixing_factor_2d(1, 2, CouplingValue.real(SQ7 / 2))
    assert abs(k1 - (-0.75)) <= 1e-12
    f1 = transform.tilde_frequencies_2d(1, 2, CouplingValue.real(SQ7 / 2))
    ratio = complex(f1[1]).real / complex(f1[0]).real
    assert abs(ratio - 3.0) <= 1e-12
    k2 = transform.mixing_factor_2d(1, 3, CouplingValue.imaginary(SQ7))
    assert abs(k2 - (-4.0 / 3.0)) <= 1e-12
    f2 = transform.tilde_frequencies_2d(1, 3, CouplingValue.imaginary(SQ7))
    assert abs(complex(f2[0]) ** 2 - 2.0) <= 1e-12
    assert abs(complex(f2[1]) ** 2 - 8.0) <= 1e-12
    assert abs(complex(f2[1]).real / complex(f2[0]).real - 2.0) <= 1e-12
    _report(3, "2D examples give k=-3/4 ratio 1:3 and k=-4/3 ratio 1:2")


def test_criterion_04_worked_3d_examples():
    c = transform.degeneracy_coupling_3d("q1", 2, omega=np.sqrt(2), omega3=1.0)
    assert abs(c.magnitude**2 - 14.0 / 25.0) <= 1e-12
    om = 1.0
    c2 = transform.degeneracy_coupling_3d("q2", "1/3", omega=om, omega3=om,
                                          lambda1=om**2 / 2)
    assert abs(c2.magnitude - om**2 / 4 * np.sqrt(15 / 2)) <= 1e-12
    sys2 = transform.decouple_3d_q2(om, om, om**2 / 2,
                                    CouplingValue(c2.magnitude, c2.flavor))
    ut = complex(sys2.tilde_frequencies[1]) / complex(sys2.tilde_frequencies[2])
    assert abs(ut.real - 1.0 / 3.0) <= 1e-12
    _report(4, "3D examples: lambda2^2+lambda3^2 = 14/25 and "
               "lambda = (omega^2/4) sqrt(15/2) with ratio 1/3")


def test_criterion_05_residual_suite():
    t0 = time.time()
    om = 2.0
    worst = 0.0
    scans = 0
    for l0 in (None, CouplingValue.real(1.0), CouplingValue.imaginary(1.0)):
        spec = (OscillatorSpec.linear_1d(om, l0) if l0 is not None
                else OscillatorSpec.oscillator(om))
        grids = verify.suggest_grids(spec, spacing=1e-3)
        imaginary = l0 is not None and l0.is_imaginary
        for m in (0, 1, 2, 3):
            if m % 2 == 1 and not imaginary:
                continue
            cfg = REConfig((m,))
            for lv in (None, 0, 1, 2):
                res, _ = verify.residual_scan(spec, cfg, Eigenstate((lv,)), grids)
                worst = max(worst, res)
                scans += 1
    took = time.time() - t0
    assert worst <= 1e-6
    assert took < 60.0
    _report(5, f"{scans} residual scans all <= 1e-6 (worst {worst:.2e}), "
               f"{took:.1f}s")


def test_criterion_06_rayleigh_ladders_and_offset():
    om = 2.0
    worst = 0.0
    # 1D, both co-dimensions
    spec = OscillatorSpec.oscillator(om)
    for m in (0, 2):
        cfg = REConfig((m,))
        ground = verify.rayleigh_energy(spec, cfg, Eigenstate((None,)))
        for n in (0, 1, 2):
            e = verify.rayleigh_energy(spec, cfg, Eigenstate((n,)))
            worst = max(worst, abs((e - ground).real - (n + m + 1) * om))
    # 2D worked examples, both flavors
    offsets_doc = []
    for spec2 in (OscillatorSpec.quadratic_2d(1, 2, CouplingValue.real(SQ7 / 2)),
                  OscillatorSpec.quadratic_2d(1, 3, CouplingValue.imaginary(SQ7))):
        sys2 = model.decouple(spec2)
        w = [complex(x).real for x in sys2.tilde_frequencies]
        for pair in ((0, 0), (0, 2), (2, 2)):
            cfg = REConfig(pair)
            ground = verify.rayleigh_energy(spec2, cfg, Eigenstate((None, None)))
            offsets_doc.append((spec2.couplings["lam"].flavor, pair,
                                complex(ground)))
            for st, expected in (
                    (Eigenstate((0, None)), (pair[0] + 1) * w[0]),
                    (Eigenstate((None, 0)), (pair[1] + 1) * w[1]),
                    (Eigenstate((0, 0)), (pair[0] + 1) * w[0] + (pair[1] + 1) * w[1]),
                    (Eigenstate((1, None)), (pair[0] + 2) * w[0])):
                e = verify.rayleigh_energy(spec2, cfg, st)
                worst = max(worst, abs((e - ground).real - expected))
    assert worst <= 1e-5
    # offset universality across states of one configuration
    spec = OscillatorSpec.linear_1d(om, CouplingValue.imaginary(1.0))
    grids = verify.suggest_grids(spec, spacing=1e-3)
    offs = [verify.residual_scan(spec, REConfig((2,)), Eigenstate((lv,)), grids)[1]
            for lv in (None, 0, 1, 2)]
    spread = max(abs(o - offs[0]) for o in offs)
    assert spread <= 1e-5
    lines = "; ".join(f"{fl}{pair}: {off.real:+.6f}"
                      for fl, pair, off in offsets_doc)
    _report(6, f"ladders reproduce (n+m+1)*omega to {worst:.2e}; "
               f"offset spread {spread:.2e}; measured absolute ground "
               f"energies (paper sets these to 0): {lines}")


def test_criterion_07_regularity_dichotomy():
    rng = np.random.default_rng(107)
    flavors = ("real", "imaginary")
    agree = 0
    total = 200
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
        poles = verify.pole_scan(spec, REConfig(ms))
        agree += admissible == (len(poles) == 0)
    assert agree == total
    _report(7, f"pole scan and admissibility agree on {agree}/{total} draws "
               "over the four flavor combinations")


def test_criterion_08_reality_boundary_scan():
    w1, w2 = 1.0, 3.0
    boundary = 0.5 * abs(w1**2 - w2**2)
    step = 1e-6
    gammas = boundary + step * np.arange(-5, 6)
    flags = []
    for g in gammas:
        freqs = transform.tilde_frequencies_2d(w1, w2, CouplingValue.imaginary(g))
        flags.append(any(abs(complex(f).imag) > 1e-9 for f in freqs))
    assert not flags[0] and flags[-1]
    first = gammas[flags.index(True)]
    assert abs(first - boundary) <= step + 1e-12
    _report(8, f"tilde frequencies turn complex at gamma = {first:.6f} "
               f"(boundary {boundary:.6f}, step {step:g})")


def test_criterion_09_pt_sign_table():
    checked = 0
    inv = transform.space_inversion(1)
    for m in (0, 1, 2, 3):
        spec = OscillatorSpec.linear_1d(2.0, CouplingValue.imaginary(1.0))
        cfg = REConfig((m,))
        grids = verify.suggest_grids(spec, n_points=2001)
        s = verify.pt_parity_eigenvalue(spec, cfg, Eigenstate((None,)), inv, grids)
        assert s == pytest.approx(1.0, abs=1e-6)
        for n in range(4):
            s = verify.pt_parity_eigenvalue(spec, cfg, Eigenstate((n,)), inv, grids)
            assert s == pytest.approx((-1.0) ** (n + 1), abs=1e-6)
        checked += 1
    # 2D example: per-axis flips and their product rule
    spec2 = OscillatorSpec.quadratic_2d(1, 3, CouplingValue.imaginary(SQ7))
    cfg2 = REConfig((2, 2))
    grids2 = verify.suggest_grids(spec2, n_points=401)
    p1, p2 = transform.pt_classification(spec2)
    for n1 in (0, 1, 2, 3):
        for n2 in (0, 1):
            st = Eigenstate((n1, n2))
            s1 = verify.pt_parity_eigenvalue(spec2, cfg2, st, p1, grids2)
            s2 = verify.pt_parity_eigenvalue(spec2, cfg2, st, p2, grids2)
            assert s1 == pytest.approx((-1.0) ** (n1 + 1), abs=1e-6)
            assert s2 == pytest.approx((-1.0) ** (n2 + 1), abs=1e-6)
            assert s1 * s2 == pytest.approx((-1.0) ** (n1 + n2 + 2), abs=1e-5)
    checked += 1
    _report(9, f"PT signs match the displayed rules in {checked} "
               "configurations for all n <= 3")


# 3D frequencies and coupling magnitudes; each flavor below is tested when its
# tilde frequencies are real and V is pointwise PT-invariant under each of
# its parity operators
_PT_3D = {"lq3d": ((1.0, 2.0, 1.5), {"lambda0": 0.5, "lam": 0.5}),
          "q1_3d": ((1.4, 1.4, 1.0), {"lambda2": 0.2, "lambda3": 0.3}),
          "q2_3d": ((1.0, 1.0, 2.0), {"lambda1": 0.5, "lam": 0.3})}


def _pt_3d_jobs():
    jobs = []
    for case, (freqs, mags) in _PT_3D.items():
        record = model.CASES[case]
        free = [n for n in record.couplings if n not in record.real_couplings]
        for k in range(len(free) + 1):
            for imaginary in itertools.combinations(free, k):
                couplings = {n: CouplingValue(mags[n], "imaginary" if n in imaginary
                                              else "real") for n in record.couplings}
                spec = OscillatorSpec(3, freqs, case, couplings)
                ops = transform.pt_classification(spec)
                if (ops and model.decouple(spec).is_real
                        and all(verify.pt_pointwise_deviation(spec, op) == 0 for op in ops)):
                    argv = ["verify", "--dim", "3", "--case", record.alias,
                            "--omega", ",".join(map(repr, freqs))]
                    for name, flag in zip(record.couplings, record.flags):
                        argv += [f"--{flag}", f"{couplings[name].flavor}:{mags[name]!r}"]
                    jobs.append(pytest.param(argv, [op.name for op in ops],
                                             id=f"{case}-{'+'.join(imaginary) or 'real'}"))
    return jobs


@pytest.mark.parametrize("argv,names", _pt_3d_jobs())
def test_pt_sign_table_3d(argv, names, capsys):
    states = ["g,g,g", "0,g,1", "1,1,0"]
    # m = 2 on the middle axis too leaves no point outside the pole guard of
    # q2_3d with an imaginary coupling at 41 points per axis
    argv = argv + ["--m", "2,0,2", "--points", "41"]
    for st in states:
        argv += ["--state", st]
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert code == 0
    pt = json.loads(out)["pt_eigenvalues"]
    assert sorted(pt) == sorted(names)
    for name in names:
        assert isinstance(pt[name], list) and len(pt[name]) == len(states)
        for v in pt[name]:
            s = complex(v["re"], v["im"])
            assert min(abs(s - 1), abs(s + 1)) <= 1e-6


def test_pt_sign_table_3d_covers_every_case():
    ids = [job.id for job in _pt_3d_jobs()]
    assert {i.split("-")[0] for i in ids} == set(_PT_3D)
    assert len(ids) >= 8


def test_criterion_10_grid_oracle():
    t0 = time.time()
    spec = OscillatorSpec.oscillator(2.0)
    vals = verify.grid_spectrum(spec, REConfig((2,)), (-12, 12), 2000, 5)
    gaps = np.diff(vals)
    expected = np.array([6.0, 2.0, 2.0, 2.0])
    worst = float(np.max(np.abs(gaps - expected)))
    took = time.time() - t0
    assert worst <= 2e-3
    assert took < 10.0
    _report(10, f"diagonalization gaps match [(m+1)w, w, w, w] to "
                f"{worst:.2e}, {took:.2f}s")


def test_criterion_11_degeneracy_counting():
    spec = OscillatorSpec.quadratic_2d(1, 2, CouplingValue.real(SQ7 / 2))
    cfg = REConfig((0, 0))
    sys = model.decouple(spec)
    w1 = complex(sys.tilde_frequencies[0]).real
    cutoff = 20.0 * complex(sys.tilde_frequencies[1]).real
    table = model.spectrum(spec, cfg, cutoff)
    key_cut = int(round(cutoff / w1))
    counts = oracles.brute_force_multiplicities([1, 3], [1, 1], key_cut)
    got = {int(round(e.energy / w1)): e.multiplicity for e in table.entries}
    assert got == counts
    _report(11, f"multiplicities match brute-force counts for all "
                f"{len(counts)} levels up to 20 * omega_2")


def test_plotdata_schema_and_parity(tmp_path, capsys):
    out = tmp_path / "fig.csv"
    code = cli.main(["plotdata", "--dim", "1", "--omega", "2",
                     "--linear", "imaginary:1", "--m", "4", "--state", "g",
                     "--points", "301", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    rows = list(csv.reader(io.StringIO(out.read_text())))
    assert rows[0] == ["x", "y", "re_V", "im_V", "re_psi", "im_psi"]
    data = np.array([[float(v) for v in r] for r in rows[1:]])
    np.testing.assert_allclose(data[:, 3], -data[::-1, 3], atol=1e-9)
    np.testing.assert_allclose(data[:, 2], data[::-1, 2], atol=1e-9)
    _report("plotdata", "schema stable; Im V odd and Re V even under parity")
