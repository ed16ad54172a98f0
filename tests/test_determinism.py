"""The package draws no random numbers and reads no environment variables:
every result is a function of its inputs alone, and psi and V at a point do
not depend on how many points are evaluated with it. Every public function
has a caller outside the tests, or is named as library API. Imports sit at
module level, and ``transform`` does not import ``model``. Importing the CLI
loads no process or executor machinery, and threads are started in
``_kernels`` alone."""
import ast
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import rexosc
from rexosc import model
from rexosc.model import Eigenstate, OscillatorSpec, REConfig
from rexosc.transform import CouplingValue

_SRC = pathlib.Path(rexosc.__file__).parent
_PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"

# Public functions kept for library users although no module and no
# benchmark job calls them. A function that only tests call is deleted, or
# moved into tests/oracles.py, rather than listed here.
LIBRARY_API = {
    "model.eigenfunction",       # psi at arbitrary points, without a Plan
    "model.unextended_energy",   # closed-form levels of the unextended oscillator
    "transform.eta_metric_2d",   # the paper's pseudo-hermiticity metric
    "verify.pt_parity_eigenvalue",  # one PT fit on its own grids
}


def _modules_matching(pattern: str) -> list:
    return [str(p.relative_to(_SRC)) for p in sorted(_SRC.rglob("*.py"))
            if re.search(pattern, p.read_text())]


def test_no_module_uses_numpy_random():
    assert _modules_matching(r"\b(np|numpy)\.random\b|from numpy import random") == []


def test_no_module_reads_the_environment():
    assert _modules_matching(r"\bos\.(environ|getenv)\b|from os import .*\b(environ|getenv)\b") == []


def _names_used(paths) -> set:
    """Every name that the code of ``paths`` loads, reads as an attribute or
    imports; docstrings and comments do not count."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def test_every_public_function_has_a_caller_or_is_library_api():
    modules = sorted(_SRC.rglob("*.py"))
    callers = modules + [p for p in sorted(_PERFBENCH.rglob("*.py"))
                         if "tests" not in p.relative_to(_PERFBENCH).parts]
    used = _names_used(callers)
    public = {f"{path.stem}.{node.name}" for path in modules
              for node in ast.parse(path.read_text()).body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    assert LIBRARY_API <= public
    assert sorted(f for f in public - LIBRARY_API if f.split(".")[1] not in used) == []


def _imported_modules(tree) -> set:
    """Every module an import in ``tree`` names, dotted, relative ones
    without their leading dots."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            names.add(base)
            # ``from . import model`` imports a module by its alias name
            names.update(f"{base}.{alias.name}".lstrip(".") for alias in node.names)
    return names


def test_imports_are_module_level_and_transform_does_not_import_model():
    nested = [f"{path.stem}.{fn.name}" for path in sorted(_SRC.rglob("*.py"))
              for fn in ast.walk(ast.parse(path.read_text()))
              if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
              and _imported_modules(fn)]
    assert nested == []
    imported = _imported_modules(ast.parse((_SRC / "transform.py").read_text()))
    assert not [m for m in imported if "model" in m.split(".")]


def test_import_path_loads_no_executor_and_threads_start_in_one_module():
    code = ("import sys, rexosc.cli; "
            "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60, env={**os.environ, "PYTHONPATH": str(_SRC.parent)})
    assert out.stdout.strip() == "[]"
    assert _modules_matching(r"\bThread\b|_thread\b|concurrent\.futures|multiprocessing") == \
        ["_kernels.py"]


@pytest.mark.parametrize("spec, config, state", [
    # complex tilde frequencies in both: 2D past its reality boundary, and q2
    # with an imaginary coupling
    (OscillatorSpec.quadratic_2d(1.0, 2.0, CouplingValue.imaginary(1.6)),
     REConfig((2, 2)), Eigenstate((1, 0))),
    (OscillatorSpec.q2_3d(1.0, 1.0, CouplingValue.real(0.5), CouplingValue.imaginary(0.3)),
     REConfig((2, 2, 2)), Eigenstate((0, None, 1))),
], ids=["quadratic2d", "q2_3d"])
def test_psi_and_v_do_not_depend_on_the_batch_size(spec, config, state):
    # 40 000 points hold 625 KiB, above NumPy's 256 KiB temporary-elision
    # threshold, and batches of 1 000 points are below it
    k = np.arange(40_000)
    points = np.array([3 * np.sin(0.37 * k + axis) for axis in range(spec.dimension)])
    assert any(complex(w).imag for w in spec.system.tilde_frequencies)
    for evaluate in (lambda p: model.eigenfunction(spec, config, state, p),
                     lambda p: model.re_potential(spec, config, p)):
        whole = evaluate(points)
        batched = np.concatenate([evaluate(points[:, i:i + 1000])
                                  for i in range(0, k.size, 1000)])
        assert whole.tobytes() == batched.tobytes()
