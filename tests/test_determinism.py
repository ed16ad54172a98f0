"""The package draws no random numbers and reads no environment variables:
every result is a function of its inputs alone."""
import pathlib
import re

import rexosc

_SRC = pathlib.Path(rexosc.__file__).parent


def _modules_matching(pattern: str) -> list:
    return [str(p.relative_to(_SRC)) for p in sorted(_SRC.rglob("*.py"))
            if re.search(pattern, p.read_text())]


def test_no_module_uses_numpy_random():
    assert _modules_matching(r"\b(np|numpy)\.random\b|from numpy import random") == []


def test_no_module_reads_the_environment():
    assert _modules_matching(r"\bos\.(environ|getenv)\b|from os import .*\b(environ|getenv)\b") == []
