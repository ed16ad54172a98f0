"""Pinned behaviour: CLI output, 1D residuals, parity assignments and
co-dimension rules.

``tests/golden/cli.json`` holds the stdout, stderr and exit code of every
invocation in ``INVOCATIONS``; each must match byte for byte (regeneration
is deterministic, so the last digits of a ``verify`` report move only when
its arithmetic does).
``tests/golden/residuals_1d.json`` holds the exact ``repr`` of
(max_residual, fitted_offset) of the 32 1D residual scans of acceptance
criterion 5; at spacing 1e-3 they are rounding-dominated, so any reordering
of the residual arithmetic shows there.

Regenerate the golden files only for an intended output change:

    PYTHONPATH=src python tests/test_pinned.py
"""
import contextlib
import io
import itertools
import json
import math
import pathlib

import pytest

from rexosc import cli, model, transform, verify
from rexosc.errors import DomainError
from rexosc.model import Eigenstate, OscillatorSpec, REConfig
from rexosc.transform import CouplingValue

GOLDEN = pathlib.Path(__file__).parent / "golden" / "cli.json"
RESIDUALS = pathlib.Path(__file__).parent / "golden" / "residuals_1d.json"
SQ2 = repr(math.sqrt(2))
SQ7 = repr(math.sqrt(7))

INVOCATIONS = [
    # transform: every case and flavor
    ["transform", "--dim", "1", "--omega", "2"],
    ["transform", "--dim", "2", "--omega", "1,2"],
    ["transform", "--dim", "3", "--omega", "1,2,3"],
    ["transform", "--dim", "1", "--omega", "2", "--linear", "real:1"],
    ["transform", "--dim", "1", "--omega", "2", "--linear", "imaginary:1"],
    ["transform", "--dim", "1", "--omega", "2", "--linear", "real:0"],
    ["transform", "--dim", "2", "--omega", "1,2", "--coupling", "real:1.3228756555322954"],
    ["transform", "--dim", "2", "--omega", "1,2", "--coupling", "real:5"],
    ["transform", "--dim", "2", "--omega", "1,3", "--coupling", f"imaginary:{SQ7}"],
    ["transform", "--dim", "2", "--omega", "1,3", "--coupling", "imaginary:9"],
    ["transform", "--dim", "3", "--case", "lq", "--omega", "1,2,1.5",
     "--linear", "imaginary:0.5", "--coupling", "real:1"],
    ["transform", "--dim", "3", "--case", "lq", "--omega", "1,2,1.5",
     "--linear", "real:0.5", "--coupling", "imaginary:1"],
    ["transform", "--dim", "3", "--case", "lq", "--omega", "1,2,3"],
    ["transform", "--dim", "3", "--case", "q1", "--omega", f"{SQ2},{SQ2},1",
     "--lambda2", "imaginary:0.3", "--lambda3", "real:0.4"],
    ["transform", "--dim", "3", "--case", "q1", "--omega", "1,1,2",
     "--lambda2", "real:3", "--lambda3", "real:4"],
    ["transform", "--dim", "3", "--case", "q2", "--omega", "1,1,1",
     "--lambda1", "real:0.5", "--coupling", "real:0.6846531968814576"],
    ["transform", "--dim", "3", "--case", "q2", "--omega", "1,1,2",
     "--lambda1", "real:0.5", "--coupling", "imaginary:2"],
    ["transform", "--dim", "3", "--case", "q1", "--omega", "1,1,2", "--lambda2", "real:1"],
    ["transform", "--dim", "3", "--case", "q2", "--omega", "1,1,2", "--lambda1", "real:1"],
    ["transform", "--dim", "3", "--case", "q3", "--omega", "1,1,2"],
    ["transform", "--dim", "2", "--omega", "1"],
    # degeneracy
    ["degeneracy", "--dim", "2", "--omega", "1,3", "--flavor", "imaginary", "--ratio", "1/2"],
    ["degeneracy", "--dim", "2", "--omega", "1,2", "--ratio", "1/3"],
    ["degeneracy", "--dim", "2", "--omega", "1,3", "--flavor", "real", "--ratio", "1/2"],
    ["degeneracy", "--dim", "3", "--case", "q1", "--omega", f"{SQ2},{SQ2},1", "--ratio", "1/2"],
    ["degeneracy", "--dim", "3", "--case", "q2", "--omega", "1,1,1",
     "--lambda1", "real:0.5", "--ratio", "1/2"],
    ["degeneracy", "--dim", "3", "--case", "q2", "--omega", "1,1,1", "--ratio", "1/2"],
    ["degeneracy", "--dim", "3", "--case", "lq", "--omega", "1,2,3", "--ratio", "1/2"],
    ["degeneracy", "--dim", "1", "--omega", "1", "--ratio", "1/2"],
    # spectrum
    ["spectrum", "--dim", "3", "--case", "lq", "--omega", "1,2,1.5",
     "--linear", "imaginary:0.5", "--coupling", "real:1", "--m", "2,2,1", "--cutoff", "6"],
    ["spectrum", "--dim", "2", "--omega", "1,2", "--coupling", "real:1.3228756555322954",
     "--m", "0,0", "--cutoff", "10", "--format", "csv"],
    # table and plotdata
    ["table", "--omega", "2", "--linear", "imaginary:1"],
    ["table", "--omega", "2"],
    ["plotdata", "--dim", "1", "--omega", "2", "--linear", "imaginary:1", "--m", "2",
     "--state", "g", "--points", "21"],
    ["plotdata", "--dim", "2", "--omega", "1,3", "--coupling", f"imaginary:{SQ7}",
     "--m", "2,2", "--state", "g,g", "--points", "11"],
    ["plotdata", "--dim", "2", "--omega", "1,2", "--m", "0,0", "--state", "g,0",
     "--points", "9"],
    # verify in 1D, 2D and 3D (small grids)
    ["verify", "--dim", "1", "--omega", "2", "--linear", "imaginary:1", "--m", "3",
     "--state", "g", "--state", "0", "--points", "401"],
    ["verify", "--dim", "2", "--omega", "1,3", "--coupling", f"imaginary:{SQ7}",
     "--m", "2,2", "--state", "g,g", "--state", "1,1", "--points", "41"],
    ["verify", "--dim", "2", "--omega", "1,2", "--coupling", "real:1.3228756555322954",
     "--m", "2,0", "--state", "g,g", "--state", "0,g", "--points", "41"],
    ["verify", "--dim", "3", "--case", "lq", "--omega", "1,2,1.5",
     "--linear", "imaginary:0.5", "--coupling", "real:1", "--m", "2,2,1",
     "--state", "0,g,1", "--points", "41"],
    ["verify", "--dim", "3", "--case", "q1", "--omega", f"{SQ2},{SQ2},1",
     "--lambda2", "imaginary:0.3", "--lambda3", "real:0.4", "--m", "2,2,2",
     "--state", "g,g,g", "--points", "41"],
    ["verify", "--dim", "3", "--case", "q2", "--omega", "1,1,1",
     "--lambda1", "real:0.5", "--coupling", "real:0.6846531968814576", "--m", "2,2,2",
     "--state", "g,0,g", "--points", "41"],
]


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _golden() -> dict:
    return {" ".join(r["argv"]): r for r in json.loads(GOLDEN.read_text())}


@pytest.mark.parametrize("argv", INVOCATIONS, ids=" ".join)
def test_cli_output_pinned(argv):
    want = _golden()[" ".join(argv)]
    got = run_cli(argv)
    assert got["code"] == want["code"]
    assert got["stderr"] == want["stderr"]
    assert got["stdout"] == want["stdout"]


# ------------------------------------------------------------ 1D residuals

def residual_suite() -> dict:
    """label -> [repr(max_residual), repr(fitted_offset)] of the 32 residual
    scans of acceptance criterion 5 (omega 2, spacing 1e-3)."""
    out = {}
    for name, l0 in (("osc", None), ("real", CouplingValue.real(1.0)),
                     ("imag", CouplingValue.imaginary(1.0))):
        spec = (OscillatorSpec.linear_1d(2.0, l0) if l0 is not None
                else OscillatorSpec.oscillator(2.0))
        grids = verify.suggest_grids(spec, spacing=1e-3)
        for m in (0, 1, 2, 3):
            if m % 2 == 1 and name != "imag":
                continue
            for lv in (None, 0, 1, 2):
                res, off = verify.residual_scan(spec, REConfig((m,)), Eigenstate((lv,)), grids)
                out[f"{name}.m{m}.{'g' if lv is None else lv}"] = [repr(res), repr(off)]
    return out


def test_residuals_1d_pinned():
    want = json.loads(RESIDUALS.read_text())
    assert len(want) == 32
    assert residual_suite() == want


# ------------------------------------------- parity and co-dimension tables

_REAL, _IMAG = 0.4, 0.3

# case -> (frequencies, coupling names)
_SPECS = {
    "linear": ((2.0,), ("lambda0",)),
    "quadratic2d": ((1.0, 2.0), ("lam",)),
    "lq3d": ((1.0, 2.0, 1.5), ("lambda0", "lam")),
    "q1_3d": ((1.0, 1.0, 2.0), ("lambda2", "lambda3")),
    "q2_3d": ((1.0, 1.0, 2.0), ("lambda1", "lam")),
}

# (case, imaginary couplings) -> (pt_classification names, admissible rules);
# None marks a spec the constructor rejects.
_EXPECTED = {
    ("linear", ()): ([], ("even_only",)),
    ("linear", ("lambda0",)): (["inversion"], ("even_and_odd",)),
    ("quadratic2d", ()): ([], ("even_only", "even_only")),
    ("quadratic2d", ("lam",)): (["P1", "P2"], ("even_only", "even_only")),
    ("lq3d", ()): ([], ("even_only",) * 3),
    ("lq3d", ("lambda0",)): (["P2"], ("even_only", "even_only", "even_and_odd")),
    ("lq3d", ("lam",)): (["P1", "P3"], ("even_only",) * 3),
    ("lq3d", ("lambda0", "lam")): (["P4"], ("even_only", "even_only", "even_and_odd")),
    ("q1_3d", ()): (["P4"], ("even_only",) * 3),
    ("q1_3d", ("lambda2",)): (["P3"], ("even_only",) * 3),
    ("q1_3d", ("lambda3",)): (["P1"], ("even_only",) * 3),
    ("q1_3d", ("lambda2", "lambda3")): (["P2"], ("even_only",) * 3),
    ("q2_3d", ()): (["P4"], ("even_only",) * 3),
    ("q2_3d", ("lambda1",)): None,
    ("q2_3d", ("lam",)): (["P2"], ("even_only",) * 3),
    ("q2_3d", ("lambda1", "lam")): None,
}


def _subsets(names):
    return [s for k in range(len(names) + 1) for s in itertools.combinations(names, k)]


def test_expected_table_covers_every_subset():
    keys = {(case, s) for case, (_, names) in _SPECS.items() for s in _subsets(names)}
    assert keys == set(_EXPECTED)


@pytest.mark.parametrize("case,imag", sorted(_EXPECTED), ids=str)
def test_parities_and_codimensions_pinned(case, imag):
    freqs, names = _SPECS[case]
    couplings = {n: CouplingValue.imaginary(_IMAG) if n in imag else CouplingValue.real(_REAL)
                 for n in names}
    want = _EXPECTED[(case, imag)]
    if want is None:
        with pytest.raises(DomainError, match="xy coupling must be real"):
            OscillatorSpec(len(freqs), freqs, case, couplings)
        return
    spec = OscillatorSpec(len(freqs), freqs, case, couplings)
    assert [op.name for op in transform.pt_classification(spec)] == want[0]
    assert model.admissible_codimensions(spec) == want[1]


@pytest.mark.parametrize("freqs,want", [
    ((2.0,), ["inversion"]),
    ((1.0, 2.0), ["P1", "P2"]),
    ((1.0, 2.0, 3.0), ["P1", "P2", "P3", "P4"]),
])
def test_unperturbed_parities_and_codimensions_pinned(freqs, want):
    spec = OscillatorSpec.oscillator(*freqs)
    assert [op.name for op in transform.pt_classification(spec)] == want
    assert model.admissible_codimensions(spec) == ("even_only",) * len(freqs)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps([run_cli(a) for a in INVOCATIONS], indent=1) + "\n")
    RESIDUALS.write_text(json.dumps(residual_suite(), indent=1) + "\n")
