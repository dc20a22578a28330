"""Run the test suite under a line trace of src/padic_mcf and list every
statement that never ran.

    python tools/linetrace.py                 # Tier-1 (pytest's testpaths)
    python tools/linetrace.py tests/test_padic.py -x

The arguments go to pytest, which runs in this process under a stdlib
`sys.settrace` that records line events in the package's files only (of
the main thread: no test runs package code in another).  A statement of
the package counts when its own lines (those not in a nested statement)
hold a line start of the compiled code; it ran when one of them saw a
line event.  Each statement that never ran is printed with its
scope, the module and the qualified name of the function or class around
it.  Scopes in ALLOWED are reached only through the installed console
script or `python -m`, in a child process, and are marked as allowed.

The run exits 1 when a statement outside ALLOWED never ran (dead code, or
code no test reaches) or when pytest fails, and 0 otherwise.  It takes
about three times as long as the untraced suite.
"""

from __future__ import annotations

import ast
import dis
import sys
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "padic_mcf"

#: Scopes that no test runs in process, and why; a scope covers its nested ones.
ALLOWED = {
    "cli.entrypoint": "the console script, which the console-script steps run",
    "cli.__main__": "the __main__ guard of cli, run only as a script",
    "__main__": "python -m padic_mcf, run only in a child process",
}


def _is_main_guard(node: ast.stmt) -> bool:
    test = getattr(node, "test", None) if isinstance(node, ast.If) else None
    return (
        isinstance(test, ast.Compare)
        and isinstance(test.left, ast.Name)
        and test.left.id == "__name__"
        and [getattr(c, "value", None) for c in test.comparators] == ["__main__"]
    )


def _children(node: ast.AST):
    """The statements nested directly in a statement's blocks."""
    for field in ("body", "orelse", "finalbody", "handlers", "cases"):
        for child in getattr(node, field, ()):
            yield from (child.body if isinstance(child, (ast.ExceptHandler, ast.match_case))
                        else (child,))


def statements(path: Path):
    """(own lines, scope, first line) of each statement of a module that
    compiles to code; own lines leave out those of nested statements, and
    a definition's own lines take in its decorators."""
    source = path.read_text(encoding="utf-8")
    starts, codes = set(), [compile(source, str(path), "exec")]
    while codes:
        code = codes.pop()
        starts.update(line for _, line in dis.findlinestarts(code) if line)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_code"))
    out = []

    def walk(body, scope):
        for node in body:
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
            lines = set(range(first, node.end_lineno + 1))
            for child in _children(node):
                lines -= set(range(child.lineno, child.end_lineno + 1))
            if lines & starts:
                out.append((lines, scope, first))
            inner = scope
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{node.name}"
            elif _is_main_guard(node):
                inner = f"{scope}.__main__"
            walk(list(_children(node)), inner)

    walk(ast.parse(source).body, path.stem)
    return out


def trace(pytest_args) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code on pytest_args, and the lines of each package
    file that saw a line event."""
    prefix = str(PACKAGE) + "/"
    seen: dict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(calls)
    try:
        code = pytest.main(list(pytest_args))
    finally:
        sys.settrace(None)
    return int(code), seen


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    code, seen = trace(argv)
    missed = allowed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        ran = seen.get(str(path), set())
        for lines, scope, first in statements(path):
            if lines & ran:
                continue
            why = next((w for s, w in ALLOWED.items()
                        if scope == s or scope.startswith(s + ".")), None)
            allowed += why is not None
            missed += 1
            note = f"  (allowed: {why})" if why else ""
            print(f"never ran: {path.relative_to(ROOT)}:{first}  {scope}{note}")
    print(f"{missed} statements never ran, {missed - allowed} outside the allowlist; "
          f"pytest exited {code}")
    return 1 if code or missed > allowed else 0


if __name__ == "__main__":
    sys.exit(main())
