"""tools/mutants.py stays in step with the code it mutates: a refactor that
moves a mutant's text fails here, not only in a full mutant run."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load_mutants():
    spec = importlib.util.spec_from_file_location(
        "padic_mcf_mutants", ROOT / "tools" / "mutants.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclass reads its module's namespace
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


MUTANTS = _load_mutants().MUTANTS


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_is_current(mutant):
    text = (ROOT / "src" / "padic_mcf" / mutant.module).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1
    assert mutant.old != mutant.new
    assert (ROOT / mutant.tests).is_file()
