"""The package draws no random numbers: every result is a function of its
inputs alone."""
import pathlib
import re

import rexosc


def test_no_module_uses_numpy_random():
    src = pathlib.Path(rexosc.__file__).parent
    users = [str(p.relative_to(src)) for p in sorted(src.rglob("*.py"))
             if re.search(r"\b(np|numpy)\.random\b|from numpy import random", p.read_text())]
    assert users == []
