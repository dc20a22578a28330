"""The public surface: `padic_mcf.__all__` is exactly what README documents."""

import ast
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import padic_mcf
from padic_mcf import numberfield, padic, worked_examples

README = Path(__file__).resolve().parents[1] / "README.md"

# names that left the package (deleted, or renamed with a leading underscore)
GONE = [
    (padic.PAdicApprox, "with_precision"),
    (padic.PAdicApprox, "rational_view"),
    (numberfield.PAdicEmbedding, "achieved_precision"),
    (numberfield.NumberField, "one"),
    (numberfield.NumberField, "zero"),
    (numberfield.AlgebraicNumber, "as_fraction"),
    (numberfield, "newton_polygon_slopes"),
    (numberfield, "select_largest_root"),
    (worked_examples, "_fr"),
    (padic, "approx_add"),
    (padic, "approx_mul"),
    (padic, "approx_div"),
    (padic, "approx_digit"),
    (padic, "_power"),
]

# module helpers that the package root no longer exports
UNEXPORTED = [
    "newton_polygon_slopes",
    "select_largest_root",
    "in_browkin_range",
    "is_odd_prime",
    "require_odd_prime",
]


def _readme_identifiers():
    """Every identifier inside an inline code span of README; fenced code
    blocks are left out, as their fences would pair the backticks wrongly."""
    text = re.sub(r"^```.*?^```", "", README.read_text("utf-8"), flags=re.S | re.M)
    return {w for span in re.findall(r"`([^`]+)`", text) for w in re.findall(r"\w+", span)}


def test_every_exported_name_is_bound():
    assert [n for n in padic_mcf.__all__ if not hasattr(padic_mcf, n)] == []
    assert len(set(padic_mcf.__all__)) == len(padic_mcf.__all__)


def test_readme_documents_every_exported_name():
    documented = _readme_identifiers()
    assert [n for n in padic_mcf.__all__ if n not in documented] == []


@pytest.mark.parametrize("owner, name", GONE, ids=[f"{o.__name__}.{n}" for o, n in GONE])
def test_removed_name_is_gone(owner, name):
    assert not hasattr(owner, name)


@pytest.mark.parametrize("name", UNEXPORTED)
def test_helper_is_not_exported(name):
    assert name not in padic_mcf.__all__ and not hasattr(padic_mcf, name)


# Child of a fresh interpreter: what importing the CLI adds to the modules
# loaded at start-up (site may load some of them), then the names that
# `padic_mcf` binds on demand and by `import *`.
CHILD = """
import json, sys
before = set(sys.modules)
import padic_mcf.cli
loaded = sorted(set(sys.modules) - before)
import padic_mcf
cases = padic_mcf.PAPER_CASES
names = {}
exec("from padic_mcf import *", names)
print(json.dumps({
    "file": padic_mcf.__file__,
    "loaded": loaded,
    "unbound": sorted(set(padic_mcf.__all__) - set(names)),
    "cases": [c.id for c in cases],
    "same": names["PAPER_CASES"] is cases,
}))
"""


def test_a_cli_import_loads_only_what_it_runs():
    root = Path(padic_mcf.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", CHILD], cwd=root, capture_output=True, text=True, check=True
    ).stdout
    child = json.loads(out)
    assert Path(child["file"]).resolve() == Path(padic_mcf.__file__).resolve()
    lazy = {"dataclasses", "inspect", "ast", "padic_mcf.worked_examples"}
    assert lazy & set(child["loaded"]) == set()
    assert "padic_mcf.jacobi_perron" in child["loaded"]
    assert child["unbound"] == []
    assert child["cases"] == [c.id for c in padic_mcf.PAPER_CASES] and child["same"]


def _unread_imports(source):
    """The names that `source` binds by an import and never reads, as an
    `ast.Name` (which is also the base of every attribute chain)."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_unread_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os, re as r\n"
        "from x import a, b\n"
        "b.c\n"
    )
    assert _unread_imports(source) == ["a", "os", "r"]


MODULES = sorted(
    path
    for path in Path(padic_mcf.__file__).parent.glob("*.py")
    if path.name != "__init__.py"  # its imports are the re-exports
)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_reads_every_import(path):
    assert _unread_imports(path.read_text("utf-8")) == []
