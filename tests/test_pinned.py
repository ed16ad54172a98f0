"""Pinned behaviour: CLI output, 1D residuals, parity assignments and
co-dimension rules.

``tests/golden/cli.json`` holds the stdout, stderr and exit code of every
invocation in ``INVOCATIONS``; each must match byte for byte (regeneration
is deterministic, so the last digits of a ``verify`` report move only when
its arithmetic does).
``tests/golden/residuals_1d.json`` holds the exact ``repr`` of
(max_residual, energy) of the 32 1D residual scans of acceptance
criterion 5; at spacing 1e-3 they are rounding-dominated, so any reordering
of the residual arithmetic shows there.
``tests/golden/kernels.json`` holds, as ``float.hex``, what the Sturm code
returns: the lowest eigenvalues of the box, oracle and adversarial
tridiagonal matrices, the real roots of H_1 .. H_12 and the poles of 40
seeded ``lq3d`` pole scans (their inputs stored beside them).

Regenerate the golden files only for an intended output change:

    PYTHONPATH=src python tests/test_pinned.py

``--diff`` recomputes them without writing them and prints each entry that
would change, with the largest relative change among its numbers and the
largest absolute change over its largest-magnitude number (argv aside):

    PYTHONPATH=src python tests/test_pinned.py --diff
"""
import contextlib
import io
import itertools
import json
import math
import pathlib
import re
import sys

import numpy as np
import pytest

import oracles
from rexosc import _kernels, cli, model, numerics, poly, transform, verify
from rexosc.errors import DomainError
from rexosc.model import Eigenstate, OscillatorSpec, REConfig
from rexosc.numerics import TridiagonalMatrix
from rexosc.transform import CouplingValue
from test_kernels import ADVERSARIAL

GOLDEN = pathlib.Path(__file__).parent / "golden" / "cli.json"
RESIDUALS = pathlib.Path(__file__).parent / "golden" / "residuals_1d.json"
KERNELS = pathlib.Path(__file__).parent / "golden" / "kernels.json"
SQ2 = repr(math.sqrt(2))
SQ7 = repr(math.sqrt(7))


def _numpy_kernels() -> str:
    """numpy's version and the SIMD features its dispatched kernels run on
    here. The golden files hold the last bits of what numpy's complex and
    transcendental kernels return, which differ between these features; the
    message of a pinned value that mismatches names them."""
    try:
        simd = np.show_config(mode="dicts")["SIMD Extensions"]
    except TypeError:  # numpy < 1.25 prints its configuration only
        return f"numpy {np.__version__}, SIMD features unknown"
    return (f"numpy {np.__version__}, SIMD baseline {simd.get('baseline', [])}, "
            f"dispatched {simd.get('found', [])}, not found {simd.get('not found', [])}")


NUMPY_KERNELS = _numpy_kernels()

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
    assert got["code"] == want["code"], NUMPY_KERNELS
    assert got["stderr"] == want["stderr"], NUMPY_KERNELS
    assert got["stdout"] == want["stdout"], NUMPY_KERNELS


@pytest.mark.parametrize("one_slab", [False, True], ids=["smallest", "one"])
@pytest.mark.parametrize("argv", [a for a in INVOCATIONS if a[0] == "verify"], ids=" ".join)
def test_verify_output_pinned_at_the_smallest_slab(argv, one_slab, monkeypatch):
    # one axis-0 plane per ``_SLAB_BYTES``: the mesh plan, the residual
    # included, runs two planes at a time; or the whole mesh as one slab,
    # the 3D meshes too; and every byte stays
    dim, points = int(argv[argv.index("--dim") + 1]), int(argv[argv.index("--points") + 1])
    monkeypatch.setattr(verify, "_SLAB_BYTES", 2**62 if one_slab else 16 * points ** (dim - 1))
    assert run_cli(argv) == _golden()[" ".join(argv)], NUMPY_KERNELS


# ------------------------------------------------------------ 1D residuals

def residual_suite() -> dict:
    """label -> [repr(max_residual), repr(energy)] of the 32 residual
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
                res, energy = verify.residual_scan(spec, REConfig((m,)), Eigenstate((lv,)),
                                                   grids)
                out[f"{name}.m{m}.{'g' if lv is None else lv}"] = [repr(res), repr(energy)]
    return out


def test_residuals_1d_pinned():
    want = json.loads(RESIDUALS.read_text())
    assert len(want) == 32
    assert residual_suite() == want, NUMPY_KERNELS


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
    assert [op.name for op in model.pt_classification(spec)] == want[0]
    assert model.admissible_codimensions(spec) == want[1]


@pytest.mark.parametrize("freqs,want", [
    ((2.0,), ["inversion"]),
    ((1.0, 2.0), ["P1", "P2"]),
    ((1.0, 2.0, 3.0), ["P1", "P2", "P3", "P4"]),
])
def test_unperturbed_parities_and_codimensions_pinned(freqs, want):
    spec = OscillatorSpec.oscillator(*freqs)
    assert [op.name for op in model.pt_classification(spec)] == want
    assert model.admissible_codimensions(spec) == ("even_only",) * len(freqs)


def _pinned_spec(case, imag):
    freqs, names = _SPECS[case]
    return OscillatorSpec(len(freqs), freqs, case,
                          {n: CouplingValue.imaginary(_IMAG) if n in imag
                           else CouplingValue.real(_REAL) for n in names})


def _listed_operators(spec):
    return (transform.parity_operators(spec.dimension) if spec.dimension > 1
            else [transform.space_inversion(1)])


def test_pt_deviation_agrees_with_sampled_reference():
    # every spec of the parity table, the unperturbed oscillators, and
    # quadratic2d at equal frequencies, where the swaps P3 and P4 act
    specs = [_pinned_spec(case, imag) for case, imag in sorted(_EXPECTED)
             if _EXPECTED[(case, imag)] is not None]
    specs += [OscillatorSpec.oscillator(*w) for w in ((2.0,), (1.0, 2.0), (1.0, 2.0, 3.0))]
    specs += [OscillatorSpec.quadratic_2d(1.0, 1.0, c)
              for c in (CouplingValue.real(_REAL), CouplingValue.imaginary(_IMAG))]
    for spec in specs:
        for op in _listed_operators(spec):
            exact = model.pt_deviation(spec, op)
            ref = oracles.sampled_pt_deviation(
                lambda p: model.base_potential(spec, p), op.matrix, spec.dimension)
            label = (spec.case, spec.frequencies, spec.imaginary_couplings, op.name)
            assert (exact == 0) == (ref <= 1e-12), label
            assert exact == 0 or ref > 1e-6, label


def test_assigned_parities_are_pt_symmetries():
    for case, record in model.CASES.items():
        for imag, names in record.parities.items():
            if (case, imag) == ("lq3d", ("lambda0", "lam")):
                continue  # see the next test
            spec = _pinned_spec(case, imag)
            named = {op.name: op for op in _listed_operators(spec)}
            for name in names:
                assert model.pt_deviation(spec, named[name]) == 0, (case, imag, name)


def test_lq3d_with_both_couplings_imaginary_is_pt_symmetric_under_rotations():
    # V = ... + i*lambda0*z + i*lam/2*xy: the assigned P4 = -I restores the
    # sign of xy; only the rotations by pi about x and y are PT symmetries
    spec = _pinned_spec("lq3d", ("lambda0", "lam"))
    p4 = {op.name: op for op in transform.parity_operators(3)}["P4"]
    assert model.pt_deviation(spec, p4) > 0.1
    symmetric = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1, -1), repeat=3):
            mat = np.diag(signs) @ np.eye(3)[list(perm)]
            if model.pt_deviation(spec, mat) == 0:
                symmetric.append(mat.tolist())
    assert sorted(symmetric) == sorted([np.diag([1, -1, -1]).tolist(),
                                        np.diag([-1, 1, -1]).tolist()])


# ------------------------------------------------------------ Sturm kernels

def _hex(values) -> list:
    return [float(v).hex() for v in values]


def _pole_draws(count: int = 40, seed: int = 23) -> list:
    """lq3d pole-scan inputs drawn as in acceptance criterion 7, as JSON
    (frequencies and coupling magnitudes in ``float.hex``)."""
    rng = np.random.default_rng(seed)
    flavors = ("real", "imaginary")
    draws = []
    for draw in range(count):
        f0, fl = flavors[draw % 2], flavors[(draw // 2) % 2]
        while True:
            w1, w2 = rng.uniform(0.5, 2.5, size=2)
            if abs(w1**2 - w2**2) > 0.4:
                break
        w3 = rng.uniform(0.5, 2.5)
        mag_l = (rng.uniform(0.05, 0.3) * abs(w1**2 - w2**2)
                 if fl == "imaginary" else rng.uniform(0.1, w1 * w2))
        draws.append({"omega": _hex((w1, w2, w3)),
                      "lambda0": [float(rng.uniform(0.1, 1.5)).hex(), f0],
                      "lam": [float(mag_l).hex(), fl],
                      "m": [int(m) for m in rng.integers(0, 6, size=3)]})
    return draws


def _pole_scan(draw: dict) -> list:
    spec = OscillatorSpec.lq_3d(*(float.fromhex(w) for w in draw["omega"]),
                                CouplingValue(float.fromhex(draw["lambda0"][0]),
                                              draw["lambda0"][1]),
                                CouplingValue(float.fromhex(draw["lam"][0]), draw["lam"][1]))
    return [[hit.axis, hit.coordinate.hex()]
            for hit in verify.pole_scan(spec, REConfig(tuple(draw["m"])))]


def _eigenvalues() -> dict:
    n = 2000
    h = 24.0 / (n + 1)
    box = TridiagonalMatrix(np.full(n, 2.0 / h**2), np.full(n - 1, -1.0 / h**2))
    out = {"box": _hex(numerics.lowest_eigenvalues(box, 3)),
           "oracle": _hex(verify.grid_spectrum(OscillatorSpec.oscillator(2.0), REConfig((2,)),
                                               (-12, 12), 2000, 5))}
    for name, (d, e) in sorted(ADVERSARIAL.items()):
        out[name] = _hex(_kernels.tridiagonal_smallest(d, e, min(len(d), 5)))
    return out


def kernel_outputs(draws: list) -> dict:
    """Eigenvalues, Hermite roots and pole-scan hits, each in ``float.hex``."""
    return {"eigenvalues": _eigenvalues(),
            "hermite_real_roots": {str(m): _hex(poly.hermite_real_roots(m))
                                   for m in range(1, 13)},
            "pole_scans": [dict(d, poles=_pole_scan(d)) for d in draws]}


def test_kernel_outputs_pinned():
    want = json.loads(KERNELS.read_text())
    draws = [{k: v for k, v in d.items() if k != "poles"} for d in want["pole_scans"]]
    assert len(draws) == 40 and any(d["poles"] for d in want["pole_scans"])
    assert kernel_outputs(draws) == want, NUMPY_KERNELS


# ------------------------------------------------------------ regeneration

# a float.hex string, or a decimal number as repr and JSON print it
_NUMBER = re.compile(r"-?0x[0-9a-f]+(?:\.[0-9a-f]*)?p[-+]\d+|-?\d+(?:\.\d*)?(?:e[-+]?\d+)?")


def _numbers(entry) -> list:
    """The numbers of an entry, in order; a CLI entry's argv is left out."""
    if isinstance(entry, dict) and "argv" in entry:
        entry = {k: v for k, v in entry.items() if k != "argv"}
    return [float.fromhex(t) if "x" in t else float(t)
            for t in _NUMBER.findall(json.dumps(entry))]


def _entries(name: str, data) -> dict:
    """A golden file's entries by name: a CLI invocation, a residual scan,
    or an item of a section of the kernel outputs."""
    if name == GOLDEN.name:
        return {" ".join(r["argv"]): r for r in data}
    if name == RESIDUALS.name:
        return data
    out = {}
    for section, items in data.items():
        keyed = items.items() if isinstance(items, dict) else enumerate(items)
        out.update({f"{section}.{key}": item for key, item in keyed})
    return out


def _largest_change(old, new) -> str:
    """The largest relative change between the numbers of two versions of
    an entry, paired in order, with the pair that shows it; and the
    largest absolute change over the entry's largest-magnitude number, which
    reads as rounding when the relative change sits on a number far smaller
    than the others."""
    a, b = _numbers(old), _numbers(new)
    if len(a) != len(b):
        return f"{len(a)} numbers before, {len(b)} after"
    worst = max(((abs(x - y) / max(abs(x), abs(y)), x, y) for x, y in zip(a, b) if x != y),
                default=None)
    if worst is None:
        return "no number changed"
    scale = max(abs(x) for x in a + b)
    spread = max(abs(x - y) for x, y in zip(a, b)) / scale
    return (f"largest relative change {worst[0]:.2e} ({worst[1]!r} -> {worst[2]!r}); "
            f"largest absolute change {spread:.2e} of the largest number ({scale!r})")


def regenerate() -> dict:
    return {GOLDEN: [run_cli(a) for a in INVOCATIONS], RESIDUALS: residual_suite(),
            KERNELS: kernel_outputs(_pole_draws())}


def print_diff(files: dict) -> None:
    """Each entry of ``files`` (path -> regenerated contents) that differs
    from the committed golden file."""
    for path, data in files.items():
        old = _entries(path.name, json.loads(path.read_text()))
        new = _entries(path.name, data)
        changed = [k for k in old.keys() | new.keys() if old.get(k) != new.get(k)]
        print(f"{path.name}: {len(changed)} of {len(new)} entries change")
        for key in sorted(changed):
            change = (_largest_change(old[key], new[key]) if key in old and key in new
                      else "added" if key in new else "removed")
            print(f"  {key}: {change}")


if __name__ == "__main__":
    regenerated = regenerate()
    if sys.argv[1:] == ["--diff"]:
        print_diff(regenerated)
    else:
        GOLDEN.parent.mkdir(exist_ok=True)
        for path, data in regenerated.items():
            path.write_text(json.dumps(data, indent=1) + "\n")
