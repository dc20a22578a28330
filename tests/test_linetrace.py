"""tools/linetrace.py reads statements and scopes as documented, its
allowlist names scopes that exist, and a run that leaves package code
unreached fails."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load_linetrace():
    spec = importlib.util.spec_from_file_location(
        "padic_mcf_linetrace", ROOT / "tools" / "linetrace.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


linetrace = _load_linetrace()

SOURCE = '''\
"""Module docstring."""
import functools


@functools.cache
def f(x):
    """Docstring: no code."""
    global y
    if x:
        return 1
    return 2


if __name__ == "__main__":
    f(1)
'''


def test_statements_and_scopes(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(SOURCE, encoding="utf-8")
    found = {first: (scope, sorted(lines)) for lines, scope, first in linetrace.statements(path)}
    assert found == {
        1: ("mod", [1]),  # a module's docstring is stored, so it is code
        2: ("mod", [2]),
        5: ("mod", [5, 6]),  # the decorator belongs to its definition
        9: ("mod.f", [9]),  # the if, without its body
        10: ("mod.f", [10]),
        11: ("mod.f", [11]),
        14: ("mod", [14]),
        15: ("mod.__main__", [15]),
    }


def test_allowlist_names_scopes_of_the_package():
    scopes = {
        scope
        for path in linetrace.PACKAGE.glob("*.py")
        for _, scope, _ in linetrace.statements(path)
    }
    assert set(linetrace.ALLOWED) <= scopes


def test_unreached_code_fails_the_run():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "tools/linetrace.py", "-q", "-p", "no:cacheprovider",
         "tests/test_records.py"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1
    assert "src/padic_mcf/numberfield.py:" in proc.stdout
    assert proc.stdout.splitlines()[-1].endswith("pytest exited 0")
