"""CLI subcommands, job round-trip, schemas, exit codes."""
import csv
import dataclasses
import io
import json

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
                    {"n_points": 801}, {"format": "json"})
    text = job.to_json()
    again = JobConfig.from_json(text)
    assert again == job
    assert again.to_json() == text


def test_job_file_drives_verify(tmp_path, capsys):
    spec = OscillatorSpec.linear_1d(2.0, CouplingValue.imaginary(1.0))
    job = JobConfig(spec, REConfig((2,)), (Eigenstate((None,)),),
                    {"n_points": 2001}, {"format": "json"})
    path = tmp_path / "job.json"
    path.write_text(job.to_json())
    code, out, _ = run(["verify", "--job", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["max_residual"] <= 1e-6


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


def test_threads_env_not_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("REXOSC_THREADS", "abc")
    code, out, err = run(["verify", "--omega", "2", "--points", "101"], capsys)
    assert code == 1
    assert out == "" and err.count("\n") == 1 and "REXOSC_THREADS" in err


def test_threads_give_identical_reports(capsys, monkeypatch):
    argv = ["verify", "--dim", "2", "--omega", "1,3", "--coupling",
            f"imaginary:{float(SQ7)!r}", "--m", "2,2", "--state", "g,g", "--state", "0,g",
            "--state", "g,0", "--state", "1,1", "--points", "41"]
    reports = []
    for threads in ("1", "2"):
        monkeypatch.setenv("REXOSC_THREADS", threads)
        code, out, _ = run(argv, capsys)
        assert code == 0
        reports.append(out)
    assert reports[0] == reports[1]
    assert sorted(json.loads(reports[0])["pt_eigenvalues"]) == ["P1", "P2"]


def test_verify_evaluates_psi_once_per_state_and_image(capsys, monkeypatch):
    # four states and two parity operators that map the grids onto
    # themselves: psi on the mesh once per state, and none on an image,
    # which is read off the mesh psi by index reversal
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


def test_threads_env_smoke(capsys, monkeypatch):
    monkeypatch.setenv("REXOSC_THREADS", "2")
    code, out, _ = run(["verify", "--dim", "1", "--omega", "2",
                        "--linear", "imaginary:1", "--m", "1",
                        "--state", "g", "--state", "0",
                        "--points", "2001"], capsys)
    assert code == 0
    assert json.loads(out)["max_residual"] <= 1e-6


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
])
def test_bad_input_exits_1_with_one_line(argv, message, capsys):
    code, out, err = run(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("validation error: ")
    assert message in err


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
                    (Eigenstate((None,)),), {}, {}).to_dict()
    job.update(states=states, grids=grids)
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    code, _, err = run(["verify", "--job", str(path)], capsys)
    assert code == 1
    assert err.count("\n") == 1 and message in err
