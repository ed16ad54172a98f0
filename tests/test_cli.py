"""CLI subcommands, job round-trip, schemas, exit codes."""
import csv
import dataclasses
import io
import json
import math
import tracemalloc

import numpy as np
import pytest

from rexosc import cli
from rexosc.cli import JobConfig
from rexosc.model import Eigenstate, OscillatorSpec, REConfig
from rexosc.transform import CouplingValue

SQ7 = np.sqrt(7.0)


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_transform_2d_example(capsys):
    code, out, _ = run(["transform", "--dim", "2", "--omega", "1,2",
                        "--coupling", "real:1.3228756555322954"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["mixing"]["re"] == pytest.approx(-0.75, abs=1e-10)
    assert doc["tilde_ratio"] == "1:3"
    assert doc["real_spectrum"] is True


def test_degeneracy_imaginary_example(capsys):
    code, out, _ = run(["degeneracy", "--dim", "2", "--omega", "1,3",
                        "--flavor", "imaginary", "--ratio", "1/2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["coupling"]["flavor"] == "imaginary"
    assert doc["coupling"]["magnitude"] == pytest.approx(SQ7, abs=1e-10)
    assert doc["achieved_ratio"] == "1:2"


def test_degeneracy_flavor_mismatch_exit(capsys):
    code, _, err = run(["degeneracy", "--dim", "2", "--omega", "1,3",
                        "--flavor", "real", "--ratio", "1/2"], capsys)
    assert code == 1
    assert "validation error" in err


@pytest.mark.parametrize("ratio", ["1", "1/2"])
def test_q1_degeneracy_prints_the_2d_pair(ratio, capsys):
    # the rotated q1 pair is the 2D pair (omega, omega3): at ratio 1 its
    # frequencies coincide (an exceptional point) and 1/2 is the natural
    # ratio (zero coupling), where no q1 coupling direction is defined
    code, out, err = run(["degeneracy", "--dim", "3", "--case", "q1", "--omega", "1,1,2",
                          "--ratio", ratio], capsys)
    assert (code, err) == (0, "")
    assert run(["degeneracy", "--dim", "2", "--omega", "1,2", "--ratio", ratio],
               capsys) == (0, out, "")


def test_verify_1d_imaginary_m31_near_a_zero(capsys):
    # the shift puts the line 0.05 (in u) from the zero 6.9957i of p_31,
    # which the pole guard must hold off the residual
    code, out, _ = run(["verify", "--dim", "1", "--omega", "2",
                        "--linear", "imaginary:14.09136024743708", "--m", "31",
                        "--state", "g", "--points", "801"], capsys)
    assert code == 0
    assert json.loads(out)["max_residual"] <= 1e-6


def test_verify_1d_imaginary_m3(capsys):
    code, out, _ = run(["verify", "--dim", "1", "--omega", "2",
                        "--linear", "imaginary:1", "--m", "3",
                        "--state", "g", "--state", "0",
                        "--points", "3001"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["poles"] == []
    assert doc["max_residual"] <= 1e-6
    vals = doc["pt_eigenvalues"]["inversion"]
    assert vals[0]["re"] == pytest.approx(1.0, abs=1e-6)
    assert vals[1]["re"] == pytest.approx(-1.0, abs=1e-6)


@pytest.mark.parametrize("points", [2001, 8001])
@pytest.mark.parametrize("linear, codimensions", [
    ([], (0, 2, 4, 8)),
    (["--linear", "imaginary:1"], (1, 2, 3, 8)),
], ids=["oscillator", "imaginary_linear"])
def test_verify_1d_residual_stays_at_rounding_up_to_level_63(points, linear, codimensions,
                                                              capsys):
    # levels 0, 10, ..., 60 and 63 of the 1D probe: at most 3.2e-10 with the
    # ladders; 0.06 to 285 with monomial coefficients, whose cancellation
    # grows as the spacing falls
    states = [arg for level in (*range(0, 61, 10), 63) for arg in ("--state", str(level))]
    for m in codimensions:
        code, out, _ = run(["verify", "--dim", "1", "--omega", "2", *linear, "--m", str(m),
                            *states, "--points", str(points)], capsys)
        assert code == 0
        assert json.loads(out)["max_residual"] <= 1e-8, m


def test_verify_rejects_inadmissible(capsys):
    code, _, err = run(["verify", "--dim", "1", "--omega", "2",
                        "--linear", "real:1", "--m", "3"], capsys)
    assert code == 1
    assert "singular" in err or "odd co-dimension" in err


def test_spectrum_csv_schema(capsys):
    code, out, _ = run(["spectrum", "--dim", "2", "--omega", "1,2",
                        "--coupling", "real:1.3228756555322954",
                        "--m", "0,0", "--cutoff", "10", "--format", "csv"],
                       capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["energy", "multiplicity", "states"]
    assert all(len(r) == 3 for r in rows[1:])
    energies = [float(r[0]) for r in rows[1:]]
    assert energies == sorted(energies)


def test_table_schema_and_values(capsys):
    code, out, _ = run(["table", "--omega", "2", "--linear", "real:1"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["m", "x", "re_V", "im_V", "re_psi0", "im_psi0",
                       "re_psi1", "im_psi1"]
    assert {r[0] for r in rows[1:]} == {"0", "1", "2", "3"}
    # spot value: m=0 closed form at the first sample point
    r0 = rows[1]
    x = float(r0[1])
    assert float(r0[2]) == pytest.approx(x**2 + x - 2.0, abs=1e-9)


def test_plotdata_schema_and_symmetry(tmp_path, capsys):
    out_path = tmp_path / "plot.csv"
    code, _, _ = run(["plotdata", "--dim", "1", "--omega", "2",
                      "--linear", "imaginary:1", "--m", "2", "--state", "g",
                      "--points", "201", "--out", str(out_path)], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out_path.read_text())))
    assert rows[0] == ["x", "y", "re_V", "im_V", "re_psi", "im_psi"]
    data = np.array([[float(v) for v in r] for r in rows[1:]])
    xs, im_v, re_v = data[:, 0], data[:, 3], data[:, 2]
    # the imaginary part of V is odd, the real part even (PT symmetry)
    mid = len(xs) // 2
    assert abs(im_v[mid]) < 1e-9
    np.testing.assert_allclose(im_v, -im_v[::-1], atol=1e-9)
    np.testing.assert_allclose(re_v, re_v[::-1], atol=1e-9)


def test_plotdata_honours_spacing(capsys):
    code, out, _ = run(["plotdata", "--omega", "2", "--spacing", "0.5"], capsys)
    assert code == 0
    xs = [float(r[0]) for r in list(csv.reader(io.StringIO(out)))[1:]]
    assert len(xs) == 35 and np.diff(xs).max() <= 0.5


def test_plotdata_2d_runs(tmp_path, capsys):
    out_path = tmp_path / "plot2.csv"
    code, _, _ = run(["plotdata", "--dim", "2", "--omega", "1,3",
                      "--coupling", "imaginary:2.6457513110645907",
                      "--m", "2,2", "--state", "g,g", "--points", "41",
                      "--out", str(out_path)], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out_path.read_text())))
    assert len(rows) == 1 + 41 * 41


def test_job_roundtrip_byte_stable(tmp_path):
    spec = OscillatorSpec.quadratic_2d(1, 3, CouplingValue.imaginary(SQ7))
    job = JobConfig(spec, REConfig((2, 2)),
                    (Eigenstate((None, 0)), Eigenstate((1, None))),
                    {"n_points": 801})
    text = job.to_json()
    again = JobConfig.from_json(text)
    assert again == job
    assert again.to_json() == text


def test_job_file_drives_verify(tmp_path, capsys):
    spec = OscillatorSpec.linear_1d(2.0, CouplingValue.imaginary(1.0))
    job = JobConfig(spec, REConfig((2,)), (Eigenstate((None,)),), {"n_points": 2001})
    path = tmp_path / "job.json"
    path.write_text(job.to_json())
    code, out, _ = run(["verify", "--job", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["max_residual"] <= 1e-6


def test_job_file_with_outputs_key_drives_verify(tmp_path, capsys):
    # job files once carried an "outputs" block; one that still does runs
    # as if it did not, and emitted jobs no longer write it
    argv = ["verify", "--omega", "2", "--linear", "imaginary:1", "--m", "2",
            "--state", "g", "--state", "1", "--points", "401"]
    path = tmp_path / "job.json"
    code, want, _ = run([*argv, "--emit-job", str(path)], capsys)
    assert code == 0
    doc = json.loads(path.read_text())
    assert "outputs" not in doc
    doc["outputs"] = {"format": "csv"}
    path.write_text(json.dumps(doc))
    code, out, err = run(["verify", "--job", str(path)], capsys)
    assert code == 0 and err == ""
    assert out == want


def test_emit_job_matches_flags(tmp_path, capsys):
    path = tmp_path / "emitted.json"
    code, _, _ = run(["spectrum", "--dim", "1", "--omega", "2", "--m", "2",
                      "--cutoff", "8", "--emit-job", str(path)], capsys)
    assert code == 0
    job = JobConfig.from_json(path.read_text())
    assert job.spec.dimension == 1
    assert job.config.codimensions == (2,)


def test_exit_code_singular_table(capsys):
    # sampling exactly on the pole of the odd-m closed form
    code, _, err = run(["table", "--omega", "2", "--linear", "real:1",
                        "--xs", "-0.5"], capsys)
    assert code == 3
    assert "singular" in err


def test_exit_code_singular_table_unperturbed(capsys):
    # the m=1 denominator of the plain oscillator vanishes at x = 0
    code, out, err = run(["table", "--omega", "2", "--xs", "0.4,0"], capsys)
    assert code == 3
    assert out == "" and err.count("\n") == 1 and "denominator zero" in err


def test_oversized_mesh_refused_before_allocation(capsys, monkeypatch):
    def no_mesh(*args, **kwargs):
        raise AssertionError("a mesh was built")

    monkeypatch.setattr(cli.verify, "_mesh", no_mesh)
    monkeypatch.setattr(cli.verify, "MeshPlan", no_mesh)
    code, _, err = run(["verify", "--dim", "3", "--omega", "1,2,3"], capsys)
    assert code == 1
    assert "exceeds the limit" in err and "--points" in err


def test_oversized_grid_refused_before_its_points_are_built(capsys):
    # 5 000 001 points on one axis: a grid would build 76.5 MB of points and
    # differences before the mesh size was checked
    tracemalloc.start()
    try:
        code, _, err = run(["verify", "--dim", "1", "--omega", "2", "--points", "5000001"],
                           capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and "exceeds the limit" in err
    assert peak < 2**20


def test_verify_evaluates_psi_once_per_state_and_image(capsys, monkeypatch):
    # four states and two parity operators: psi on the mesh once per
    # state, and none on an image, since every fit reads psi there off the
    # mesh psi by index reversal (``verify.parity_view``)
    sizes = []
    psi = cli.model.Plan.psi

    def counted(plan, state):
        out = psi(plan, state)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(cli.model.Plan, "psi", counted)
    code, out, _ = run(["verify", "--dim", "2", "--omega", "1,3", "--coupling",
                        f"imaginary:{float(SQ7)!r}", "--m", "2,2", "--state", "g,g",
                        "--state", "0,g", "--state", "g,0", "--state", "1,1",
                        "--points", "41"], capsys)
    assert code == 0
    assert sorted(json.loads(out)["pt_eigenvalues"]) == ["P1", "P2"]
    assert sizes == [41 * 41] * 4


@pytest.mark.parametrize("argv, names", [
    # frequencies 1e-11 apart: the swaps P3 and P4 are classified
    (["--dim", "2", "--omega", "1,1.00000000001"], ["P1", "P2", "P3", "P4"]),
    (["--dim", "2", "--omega", "1,1.00000000001", "--coupling", "real:0.3"], ["P3", "P4"]),
    # a real shift of 5e-12: the inversion is classified
    (["--dim", "1", "--omega", "2", "--linear", "real:1e-11"], ["inversion"]),
], ids=["oscillator", "quadratic2d", "linear"])
def test_verify_fits_a_parity_classified_within_tolerance(argv, names, capsys):
    for grid in (["--points", "41"], ["--spacing", "0.5"]):
        code, out, err = run(["verify", *argv, *grid], capsys)
        assert code == 0, err
        fits = json.loads(out)["pt_eigenvalues"]
        assert sorted(fits) == names
        assert all(v[0]["re"] == pytest.approx(1.0, abs=1e-6) for v in fits.values())


def test_verify_decouples_once(capsys, monkeypatch):
    # a Hermitian 3D job builds its grids, pole scan, mesh plan, parity fit
    # and Gram matrix from the spec's one decoupling
    calls = []
    case = cli.model.CASES["q2_3d"]

    def counted(w, c):
        calls.append(w)
        return case.decouple(w, c)

    monkeypatch.setitem(cli.model.CASES, "q2_3d",
                        dataclasses.replace(case, decouple=counted))
    code, out, _ = run(["verify", "--dim", "3", "--case", "q2", "--omega", "1,1,1",
                        "--lambda1", "real:0.5", "--coupling", "real:0.6846531968814576",
                        "--m", "2,2,2", "--state", "g,0,g", "--points", "21"], capsys)
    assert code == 0
    assert json.loads(out)["gram"] is not None
    assert len(calls) == 1


def test_pole_guard_near_a_face_leaves_points_to_check(capsys):
    # q2's poles sit near the mesh faces here; a guard band wrapping round
    # to the opposite faces would mask every point (exit 3)
    code, out, err = run(["verify", "--dim", "3", "--case", "q2", "--omega", "1,1,2",
                          "--lambda1", "real:0.5", "--coupling", "imaginary:0.3",
                          "--m", "2,2,2", "--points", "41"], capsys)
    assert code == 0 and err == ""
    assert np.isfinite(json.loads(out)["max_residual"])


# ------------------------------------------------------------ input boundary

@pytest.mark.parametrize("argv,message", [
    (["transform", "--dim", "2", "--omega", "1,2", "--coupling", "real:nan"],
     "coupling magnitude must be finite"),
    (["transform", "--dim", "1", "--omega", "2", "--linear", "imaginary:inf"],
     "coupling magnitude must be finite"),
    (["transform", "--dim", "2", "--omega", "1,nan"], "frequencies must be finite"),
    (["transform", "--dim", "1", "--omega", "inf"], "frequencies must be finite"),
    (["transform", "--omega", "abc"], "--omega expects comma-separated numbers"),
    (["transform", "--dim", "2", "--omega", "1,2", "--coupling", "real:abc"],
     "cannot parse coupling"),
    (["transform", "--dim", "2", "--omega", "1,2", "--coupling", "complex:1"],
     "unknown coupling flavor"),
    (["verify", "--omega", "2", "--state", "x"], "needs 'g' or an integer"),
    (["verify", "--omega", "2", "--m", "two"], "--m expects comma-separated numbers"),
    (["degeneracy", "--dim", "2", "--omega", "1,3", "--ratio", "1/0"],
     "--ratio expects a fraction"),
    (["degeneracy", "--dim", "2", "--omega", "1,3", "--ratio", "abc"],
     "--ratio expects a fraction"),
    (["degeneracy", "--dim", "2", "--omega", "1", "--ratio", "1/2"],
     "--omega must list one frequency per axis"),
    (["transform", "--dim", "3", "--omega", "1,2,3", "--lambda2", "real:1"],
     "case none does not read --lambda2"),
    (["transform", "--dim", "2", "--omega", "1,2", "--linear", "real:1"],
     "case quadratic2d does not read --linear"),
    (["transform", "--dim", "1", "--omega", "2", "--coupling", "real:1"],
     "case linear does not read --coupling"),
    (["transform", "--dim", "3", "--case", "q1", "--omega", "1,1,2", "--lambda2", "real:1",
      "--lambda3", "real:1", "--coupling", "real:1"], "case q1_3d does not read --coupling"),
    (["degeneracy", "--dim", "2", "--omega", "1,3", "--lambda1", "real:1", "--ratio", "1/2"],
     "case quadratic2d does not read --lambda1"),
    (["transform", "--dim", "1", "--omega", "2", "--case", "lq"], "needs --dim 3"),
    (["transform", "--dim", "2", "--omega", "1,2", "--case", "q1"], "needs --dim 3"),
    (["transform", "--dim", "3", "--case", "q1", "--omega", "1,2,3", "--lambda2", "real:1",
      "--lambda3", "real:1"], "requires equal x and y frequencies"),
    (["spectrum", "--omega", "1", "--cutoff", "inf"], "cutoff must be finite"),
    (["spectrum", "--omega", "1", "--cutoff", "nan"], "cutoff must be finite"),
    (["spectrum", "--dim", "2", "--omega", "1,1", "--cutoff", "1e9"], "states below the cutoff"),
    (["plotdata", "--omega", "2", "--points", "11", "--half-width", "inf"],
     "must be finite"),
    (["table", "--omega", "2,3"], "--omega must list one frequency per axis"),
    (["table", "--xs", "0,x"], "--xs expects comma-separated numbers"),
    (["verify", "--omega", "2", "--spacing", "nan"], "spacing must be finite and positive"),
    (["verify", "--omega", "2", "--spacing", "inf"], "spacing must be finite and positive"),
    (["verify", "--omega", "2", "--spacing", "0"], "spacing must be finite and positive"),
    (["verify", "--omega", "2", "--spacing", "-0.1"], "spacing must be finite and positive"),
    (["verify", "--omega", "2", "--spacing", "1e-320"], "spacing 1e-320 is too small"),
    (["verify", "--dim", "2", "--omega", "1,2", "--spacing", "1e-4"], "raise --spacing"),
    (["verify", "--dim", "3", "--omega", "1,2,3"], "lower --points"),
    (["verify", "--dim", "2", "--omega", "1,2", "--points", "2049"], "lower --points"),
    (["plotdata", "--dim", "2", "--omega", "1,2", "--points", "2049"], "lower --points"),
    (["plotdata", "--omega", "2", "--spacing", "nan"], "spacing must be finite and positive"),
    (["plotdata", "--omega", "2", "--points", "11", "--half-width", "0"],
     "half_width must be positive"),
    (["verify", "--dim", "2", "--omega", "1,2", "--coupling", "real:2", "--points", "21"],
     "needs a positive frequency, got 0"),
    (["verify", "--dim", "3", "--case", "q1", "--omega", "1,1,2", "--lambda2", "real:1.2",
      "--lambda3", "real:1.6", "--points", "21"], "needs a positive frequency, got 0"),
    (["verify", "--dim", "2", "--omega", "1,2", "--coupling", "real:5", "--points", "21"],
     "tilde axis 0 needs a positive frequency, got 0+1.64929i"),
    (["plotdata", "--dim", "2", "--omega", "1,2", "--coupling", "real:5", "--points", "11",
      "--state", "g,g"], "tilde axis 0 needs a positive frequency, got 0+1.64929i"),
    (["plotdata", "--dim", "2", "--omega", "1,2", "--coupling", "real:2", "--points", "11",
      "--state", "g,g"], "needs a positive frequency, got 0"),
    # usage errors
    (["verify", "--points", "abc"], "argument --points: invalid int value: 'abc'"),
    (["spectrum", "--omega", "2", "--cutoff", "4", "--bogus", "1"],
     "unrecognized arguments: --bogus 1"),
    (["degeneracy", "--dim", "2", "--omega", "1,3", "--ratio", "-1/2"],
     "argument --ratio: expected one argument"),
    (["verify", "--format", "csv"], "unrecognized arguments: --format csv"),
    (["plotdata", "--format", "csv"], "unrecognized arguments: --format csv"),
    ([], "the following arguments are required: command"),
    # values past the float range, and non-finite sample points
    (["verify", "--omega", "1e308", "--points", "101"], "so must their squares"),
    (["table", "--xs", "nan"], "--xs must be finite"),
    (["table", "--xs", "0,inf"], "--xs must be finite"),
    (["transform", "--dim", "1", "--omega", "1e-200", "--linear", "real:1e200"],
     "must not underflow to 0"),
    # the spec refuses an imaginary q2 xy coupling
    (["transform", "--dim", "3", "--case", "q2", "--omega", "1,1,2", "--lambda1", "imaginary:0.5",
      "--coupling", "real:0.3"], "the xy coupling must be real in this case"),
    # degeneracy makes the spec's checks on the frequencies and couplings given
    (["degeneracy", "--dim", "3", "--case", "q2", "--omega", "1,1,2", "--lambda1",
      "imaginary:0.5", "--ratio", "1/2"], "the xy coupling must be real in this case"),
    (["degeneracy", "--dim", "3", "--case", "q2", "--omega", "0,0,2", "--lambda1", "real:0",
      "--ratio", "1/2"], "need one positive frequency per axis"),
    (["degeneracy", "--dim", "3", "--case", "q1", "--omega", "1,3,2", "--ratio", "1/2"],
     "q1_3d requires equal x and y frequencies"),
    (["degeneracy", "--dim", "3", "--case", "q2", "--omega", "1,3,2", "--ratio", "1/2"],
     "q2_3d requires equal x and y frequencies"),
    (["degeneracy", "--dim", "2", "--omega", "1,inf", "--ratio", "1/2"],
     "frequencies must be finite"),
    (["table", "--omega", "2", "--max-m", "-1"], "--max-m must be nonnegative, got -1"),
    # refused before a grid is built: 1.7e13 and 1.7e301 points
    (["verify", "--dim", "1", "--omega", "2", "--spacing", "1e-12"], "raise --spacing"),
    (["verify", "--dim", "1", "--omega", "2", "--spacing", "1e-300"], "raise --spacing"),
])
def test_bad_input_exits_1_with_one_line(argv, message, capsys):
    code, out, err = run(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("validation error: ")
    assert message in err


@pytest.mark.parametrize("argv", [
    ["table", "--xs", "1e308"],
    ["plotdata", "--omega", "2", "--points", "9", "--half-width", "1e308"],
    ["degeneracy", "--dim", "2", "--omega", "1,3", "--ratio", "1e400"],
    ["degeneracy", "--dim", "2", "--omega", "1,3", "--ratio", "1e100"],
    ["transform", "--dim", "2", "--omega", "1e154,1e154", "--coupling", "real:1e300"],
    ["transform", "--dim", "2", "--omega", "1e154,1", "--coupling", "real:1"],
    ["transform", "--dim", "3", "--case", "q2", "--omega", "1e154,1e154,1", "--lambda1", "real:1",
     "--coupling", "real:1"],
    ["transform", "--dim", "3", "--case", "q2", "--omega", "1,1,2", "--lambda1", "real:0",
     "--coupling", "real:1.5e308"],
    ["spectrum", "--dim", "2", "--omega", "1e154,1", "--coupling", "real:1", "--cutoff", "1"],
    ["verify", "--dim", "1", "--omega", "2", "--linear", "real:1e200", "--points", "101"],
    # the linear coupling's shift or potential constant overflows
    ["transform", "--dim", "1", "--omega", "2", "--linear", "real:1e200"],
    ["transform", "--dim", "1", "--omega", "0.5", "--linear", "imaginary:1e308"],
    ["transform", "--dim", "3", "--case", "lq", "--omega", "1,2,1.5", "--linear", "real:1e308",
     "--coupling", "real:0.5"],
    ["spectrum", "--dim", "1", "--omega", "2", "--linear", "real:1e200", "--cutoff", "10"],
    ["verify", "--dim", "1", "--omega", "2", "--linear", "real:1e150", "--points", "101"],
    ["plotdata", "--omega", "2", "--linear", "real:1e150", "--points", "11"],
], ids=" ".join)
def test_overflow_exits_2_with_one_line(argv, capsys):
    # inf or nan samples are refused, and a Python float overflow is a
    # numerical failure, not a traceback
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("numerical failure: ")


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["verify", "--help"])
    assert exit_info.value.code == 0
    usage = capsys.readouterr().out
    assert "--points" in usage and "--format" not in usage


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("spec", [
    ["--dim", "2", "--omega", "1,2", "--coupling", "real:2"],
    ["--dim", "3", "--case", "q1", "--omega", "1,1,2", "--lambda2", "real:1.2",
     "--lambda3", "real:1.6"],
], ids=" ".join)
def test_zero_tilde_frequency_has_no_ratio(spec, capsys):
    # on the non-strict reality boundary one tilde frequency is exactly zero
    code, out, err = run(["transform", *spec], capsys)
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert {"re": 0.0, "im": 0.0} in doc["tilde_frequencies"]
    assert doc["tilde_ratio"] is None
    code, out, err = run(["spectrum", *spec, "--cutoff", "-1"], capsys)
    assert code == 0 and err == "" and json.loads(out)["entries"] == []


def test_verify_refuses_unbound_spec_before_building_grids(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_job_grids", lambda job: pytest.fail("grids were built"))
    code, out, err = run(["verify", "--dim", "2", "--omega", "1,2", "--coupling", "real:2"],
                         capsys)
    assert code == 1 and out == ""
    assert "tilde axis 0 needs a positive frequency, got 0:" in err


def test_verify_runs_pt_broken_spec(capsys):
    # broken PT symmetry: the tilde frequencies are complex with positive
    # real parts, so the eigenfunctions still decay
    code, out, err = run(["verify", "--dim", "2", "--omega", "1,3", "--coupling",
                          "imaginary:9", "--points", "21"], capsys)
    assert code == 0 and err == ""
    assert json.loads(out)["gram"] is None


def test_overflowing_prefactor_exits_2_with_one_line(capsys):
    # near the q1 exceptional point the coordinate map has entries of about
    # 4e3 and the Gaussian overflows on the mesh
    code, out, err = run(["verify", "--dim", "3", "--case", "q1", "--omega",
                          "1.4142135623730951,1.4142135623730951,1", "--lambda2",
                          "imaginary:0.3", "--lambda3", "imaginary:0.4", "--m", "2,2,2",
                          "--points", "41"], capsys)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("numerical failure: ")
    assert "prefactor overflows" in err


def test_missing_job_file_exits_1(tmp_path, capsys):
    code, _, err = run(["verify", "--job", str(tmp_path / "absent.json")], capsys)
    assert code == 1
    assert err.count("\n") == 1 and "cannot read job file" in err


@pytest.mark.parametrize("argv", [
    ["spectrum", "--omega", "2", "--cutoff", "4", "--out"],
    ["verify", "--omega", "2", "--points", "101", "--emit-job"],
], ids=" ".join)
def test_unwritable_output_exits_1_with_one_line(argv, tmp_path, capsys):
    path = str(tmp_path / "absent" / "out.json")
    code, out, err = run([*argv, path], capsys)
    assert code == 1 and out == ""
    assert err == f"validation error: cannot write {path!r}: No such file or directory\n"


@pytest.mark.parametrize("text", ["not json", "{}", '{"spec": 3}'])
def test_malformed_job_file_exits_1(text, tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text(text)
    code, _, err = run(["verify", "--job", str(path)], capsys)
    assert code == 1
    assert err.count("\n") == 1 and "is not a valid job" in err


@pytest.mark.parametrize("states,grids,message", [
    ([], {}, "lists no states"),
    ([["g"]], {"n_points": "many"}, "grid settings must be numbers"),
    ([["g"]], {"n_points": float("inf")}, "grid settings must be numbers"),
    ([["g"]], {"spacing": [1]}, "grid settings must be numbers"),
])
def test_job_file_bad_states_or_grids_exit_1(states, grids, message, tmp_path, capsys):
    job = JobConfig(OscillatorSpec.oscillator(2.0), REConfig((0,)),
                    (Eigenstate((None,)),)).to_dict()
    job.update(states=states, grids=grids)
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    code, _, err = run(["verify", "--job", str(path)], capsys)
    assert code == 1
    assert err.count("\n") == 1 and message in err


def _peak_per_point_61(argv, capsys):
    """Traced peak of ``verify --dim 3 argv`` at 61^3, in bytes per mesh point."""
    tracemalloc.start()
    try:
        code, _, err = run(["verify", "--dim", "3", *argv, "--points", "61"], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, err) == (0, "")
    return peak / 61**3


def test_3d_verify_peak_memory_per_mesh_point(capsys):
    # a guard on the temporaries of a 3D verify job, 10% over the 47.9 B per
    # point it peaked at when the guard was last set. The plan keeps V and
    # the mask (17 B per interior point) and psi (16 B per mesh point), and
    # forms the prefactor in psi slab by slab. This q2 job peaks at
    # 45.2-47.9 B per point, as helper threads interleave, in psi's slab
    # temporaries; its residual at 41.7 B (55.3-56.4 B, in a residual, when
    # the plan kept a mesh-sized prefactor)
    argv = ["--case", "q2", "--omega", "1,1,1", "--lambda1", "real:0.5", "--coupling",
            f"real:{math.sqrt(7.5) / 4!r}", "--m", "2,2,2", "--state", "g,g,g",
            "--state", "g,0,g"]
    assert _peak_per_point_61(argv, capsys) <= 1.1 * 47.9


def test_3d_verify_peak_memory_per_mesh_point_lq3d(capsys):
    # the verify3d lq3d job: 40.9-41.9 B per point in a residual; its psi
    # peaks at 31.5 B (55.3-56.0 B, in a residual, when the plan kept a
    # mesh-sized prefactor)
    argv = ["--case", "lq", "--omega", "1,2,1.5", "--linear", "imaginary:0.5", "--coupling",
            "real:1", "--m", "2,2,1", "--state", "0,g,1", "--state", "g,g,g"]
    assert _peak_per_point_61(argv, capsys) <= 1.1 * 41.9
