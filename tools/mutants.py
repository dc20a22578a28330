"""One-line mutants of the kernels, each with the test module that must kill it.

    python tools/mutants.py               # every mutant
    python tools/mutants.py --list        # names, files and test modules
    python tools/mutants.py --only seed-mod-p --only digit-cutoff

Each mutant replaces one piece of text, which must occur exactly once, in
one file of `src/padic_mcf` of a fresh copy of the repository in a
temporary directory, and runs its test module there with `pytest -x`.  A
mutant is killed when that run fails, or when it takes TIMEOUT_FACTOR
times as long as the module's unmutated run (reported as a timeout; some
mutants make a kernel loop forever).  Before the mutants, each named test
module must pass on the unmutated copy, or nothing is learnt from a kill.

An equivalent mutant changes speed only, so no test can kill it; it is
listed with its reason and is expected to survive.  The run exits 1 when a
mutant that should be killed survives (a missing test), when an equivalent
one is killed (the reason is wrong) or when a mutant's text is not found
once (the list is stale).  It uses the standard library and the project's
own test dependencies only.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPY_IGNORE = shutil.ignore_patterns(
    ".git", ".hypothesis", ".pytest_cache", "__pycache__", ".work-*", "*.egg-info"
)


@dataclass(frozen=True)
class Mutant:
    name: str
    module: str  # under src/padic_mcf
    old: str
    new: str
    tests: str  # the test module that must kill it
    equivalent: str | None = None  # why no test can kill it


MUTANTS = (
    # _IntegerEuclid.step divides out the p**k it knows
    Mutant(
        "unsplit-z", "jacobi_perron.py",
        "            elif z % p:\n", "            elif True:\n",
        "tests/test_jacobi_perron.py",
    ),
    Mutant(
        "split-without-plus-one", "jacobi_perron.py",
        "nxt.append((v + 1, z))", "nxt.append((v, z))",
        "tests/test_jacobi_perron.py",
    ),
    Mutant(
        "divisor-p-to-k-minus-1", "jacobi_perron.py",
        "z = (part[1] - r * u) // p**k", "z = (part[1] - r * u) // p ** (k - 1)",
        "tests/test_jacobi_perron.py",
    ),
    # _digits
    Mutant(
        "all-zero-row-at-w", "jacobi_perron.py",
        "    if low > w:\n", "    if low >= w:\n",
        "tests/test_jacobi_perron.py",
    ),
    Mutant(
        "inverse-precision", "jacobi_perron.py",
        "inv = inverse_mod_pk(u, p, 1 + w - low)", "inv = inverse_mod_pk(u, p, w - low)",
        "tests/test_jacobi_perron.py",
    ),
    Mutant(
        "digit-cutoff", "jacobi_perron.py",
        "        if part is None or part[0] > w:\n",
        "        if part is None or part[0] >= w:\n",
        "tests/test_jacobi_perron.py",
    ),
    Mutant(
        "scale-sign", "jacobi_perron.py",
        "last[0] + self.e - self.scale_v", "last[0] + self.e + self.scale_v",
        "tests/test_jacobi_perron.py",
    ),
    # inverse_mod_pk's seed and halving chain
    Mutant(
        "seed-mod-p", "padic.py",
        "y = pow(a % mod, -1, mod)", "y = pow(a % p, -1, p)",
        "tests/test_padic.py",
    ),
    Mutant(
        "seed-one-step-early", "padic.py",
        "while k > 1 and mods[-1] >> _SEED_BITS:",
        "while k > 1 and mods[-1] // p >> _SEED_BITS:",
        "tests/test_padic.py",
        equivalent="a seed at any exponent of the chain is lifted to the same inverse",
    ),
    Mutant(
        "chain-level-wrong-power", "padic.py",
        "mods.append(p**k)", "mods.append(p ** (k - 1))",
        "tests/test_padic.py",
    ),
    Mutant(
        "seed-bound", "padic.py",
        "_SEED_BITS = 40", "_SEED_BITS = 400",
        "tests/test_padic.py",
        equivalent="the bound only trades pow for Newton steps; both give the inverse",
    ),
    # the one digit map
    Mutant(
        "residue-top", "padic.py",
        "return r - mod if r > mod // 2 else r", "return r - mod if r >= mod // 2 else r",
        "tests/test_padic.py",
    ),
    # _TruncatedRun's precision ledger
    Mutant(
        "ledger-first-plus-one", "jacobi_perron.py",
        "first = ns[-1] - 2 * rs[-1]", "first = ns[-1] - 2 * rs[-1] + 1",
        "tests/test_jacobi_perron.py",
    ),
    Mutant(
        "ledger-first-minus-one", "jacobi_perron.py",
        "first = ns[-1] - 2 * rs[-1]", "first = ns[-1] - 2 * rs[-1] - 1",
        "tests/test_jacobi_perron.py",
    ),
    # _ProjectiveEuclid's period lookup
    Mutant(
        "cross-check-false", "jacobi_perron.py",
        "    return not any((e * fs[-1]", "    return False and not any((e * fs[-1]",
        "tests/test_jacobi_perron.py",
    ),
    Mutant(
        "cross-check-true", "jacobi_perron.py",
        "    return not any((e * fs[-1]", "    return True or not any((e * fs[-1]",
        "tests/test_jacobi_perron.py",
        equivalent="the cross-check is a filter that equal points pass; the exact "
        "comparison in the field decides",
    ),
    Mutant(
        "index-one-late", "jacobi_perron.py",
        "if len(unindexed) >= _UNINDEXED else None",
        "if len(unindexed) >= _UNINDEXED + 1 else None",
        "tests/test_jacobi_perron.py",
        equivalent="one more tuple compared with every other of its digit row; "
        "speed only",
    ),
    Mutant(
        "digit-row-kept", "jacobi_perron.py",
        "        self._row = None\n        p = self.p\n",
        "        p = self.p\n",
        "tests/test_jacobi_perron.py",
    ),
    # the other kernels
    Mutant(
        "candidate-repetitions", "jacobi_perron.py",
        "if pre <= n - 2 * period:", "if pre <= n - period:",
        "tests/test_jacobi_perron.py",
    ),
    Mutant(
        "routes-unchecked", "mcf.py",
        "    if table._newest() != y:\n", "    if False:\n",
        "tests/test_mcf.py",
    ),
    # ConvergentsTable's window: each column over its own denominator
    Mutant(
        "window-ells-not-multiplied", "mcf.py",
        "accumulate(self._ells, mul, initial=1)", "[1, *self._ells]",
        "tests/test_mcf.py",
    ),
    Mutant(
        "window-dens-not-advanced", "mcf.py",
        "        dens.insert(0, ell * dens[0])\n        dens.pop()\n", "",
        "tests/test_mcf.py",
    ),
    Mutant(
        "det-over-dn-power", "mcf.py",
        "den = prod(table._dens)", "den = table._dens[0] ** (m + 1)",
        "tests/test_mcf.py",
    ),
    # the integer rows: the JSON reader's scaling, and their readers
    Mutant(
        "parse-unreduced", "mcf.py",
        "    g = gcd(ell, *c)\n", "    g = 1\n",
        "tests/test_mcf.py",
    ),
    Mutant(
        "conditions-drop-v-ell", "mcf.py",
        "v_ell = split_p(ell, p)[0]", "v_ell = 0",
        "tests/test_mcf.py",
    ),
    Mutant(
        "closed-form-inverted", "mcf.py",
        "closed *= Fraction(c[m], ell)", "closed *= Fraction(ell, c[m])",
        "tests/test_mcf.py",
    ),
    Mutant(
        "mismatch-reports-closed-form", "mcf.py",
        "out.append((Fraction(num, den), False))", "out.append((expected, False))",
        "tests/test_mcf.py",
    ),
    Mutant(
        "first-row-unchecked", "mcf.py",
        "        if scaled[0][0][m] != scaled[0][1]:\n", "        if False:\n",
        "tests/test_cli.py",
    ),
    # the one rational reader and its exponent bound
    Mutant(
        "exponent-bound-off-by-one", "exprparse.py",
        "int(digits) > MAX_EXPONENT", "int(digits) >= MAX_EXPONENT",
        "tests/test_cli.py",
    ),
    Mutant(
        "negative-exponent-unchecked", "exprparse.py",
        "        if exponent:", '        if exponent and exponent[1][0] != "-":',
        "tests/test_mcf.py",
    ),
    Mutant(
        "canonical-sign-dropped", "exprparse.py",
        "num = -int(num) if sign else int(num)", "num = int(num)",
        "tests/test_mcf.py",
    ),
    # errors.Record, the base of every result and report
    Mutant(
        "record-equality-ignores-class", "errors.py",
        "        if other.__class__ is not self.__class__:\n",
        "        if not isinstance(other, Record):\n",
        "tests/test_records.py",
    ),
    Mutant(
        "record-default-not-applied", "errors.py",
        "cls._defaults = {n: getattr(cls, n) for n in cls._fields if hasattr(cls, n)}",
        "cls._defaults = {}",
        "tests/test_records.py",
    ),
    Mutant(
        "record-replace-drops-changes", "errors.py",
        "return type(self)(**{**self.__dict__, **changes})",
        "return type(self)(**self.__dict__)",
        "tests/test_records.py",
    ),
    Mutant(
        "record-assignment-allowed", "errors.py",
        '        raise AttributeError(f"cannot assign to field {name!r}")',
        "        object.__setattr__(self, name, value)",
        "tests/test_records.py",
    ),
    # _ProjectiveEuclid's re-lift and step
    Mutant(
        "read-need-minus-one", "jacobi_perron.py",
        "need = max([1 + 2 * w - v for v in vs if v <= w], default=0)",
        "need = max([2 * w - v for v in vs if v <= w], default=0)",
        "tests/test_jacobi_perron.py",
    ),
    Mutant(
        "offset-sign", "jacobi_perron.py",
        "self.offset += drop - g_v", "self.offset += drop + g_v",
        "tests/test_jacobi_perron.py",
    ),
    Mutant(
        "projective-scale-sign", "jacobi_perron.py",
        "self.scale_v += g_v - s", "self.scale_v += g_v + s",
        "tests/test_jacobi_perron.py",
    ),
    # PAdicApprox's precision rules and normal form, and browkin_s
    Mutant(
        "normal-form-valuation", "padic.py",
        "            val += w\n", "",
        "tests/test_padic.py",
    ),
    Mutant(
        "add-precision-max", "padic.py",
        "s, min(self.precision, other.precision))",
        "s, max(self.precision, other.precision))",
        "tests/test_padic.py",
    ),
    Mutant(
        "mul-precision-max", "padic.py",
        "min(self.precision + b.val, b.precision + self.val)",
        "max(self.precision + b.val, b.precision + self.val)",
        "tests/test_padic.py",
    ),
    Mutant(
        "div-relative-precision-max", "padic.py",
        "r = min(self.precision - self.val, b.precision - b.val)",
        "r = max(self.precision - self.val, b.precision - b.val)",
        "tests/test_padic.py",
    ),
    Mutant(
        "digit-at-valuation-zero", "padic.py",
        "    if u == 0 or v > 0:\n", "    if u == 0 or v >= 0:\n",
        "tests/test_padic.py",
    ),
    # numberfield: Hensel lifting, Z_p roots, irreducibility, inverses
    Mutant(
        "hensel-condition", "numberfield.py",
        "        if t <= 2 * d:\n", "        if t < 2 * d:\n",
        "tests/test_numberfield.py",
    ),
    Mutant(
        "disc-depth-kept", "numberfield.py",
        "c + p**j * r, j + 1))", "c + p**j * r, j))",
        "tests/test_numberfield.py",
    ),
    Mutant(
        "certificate-unused", "numberfield.py",
        "        if not possible:\n            return True\n",
        "        if not possible:\n            break\n",
        "tests/test_numberfield.py",
    ),
    Mutant(
        "inverse-sign", "numberfield.py",
        "tuple(-x / c[-1] for x in c[:-1])", "tuple(x / c[-1] for x in c[:-1])",
        "tests/test_numberfield.py",
    ),
)

#: A mutant's test run may take this many times its module's unmutated run;
#: one that takes longer (a kernel that no longer ends) counts as killed.
TIMEOUT_FACTOR = 10


def pytest_fails(tree: Path, tests: str, timeout: float | None = None) -> bool:
    """Whether `pytest -x` on the test module fails in the copy at tree; a
    run still going after timeout seconds is stopped and raises
    subprocess.TimeoutExpired."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", tests],
        cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        timeout=timeout,
    )
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"pytest {tests} exited with {proc.returncode}")
    return proc.returncode == 1


def mutate(tree: Path, mutant: Mutant) -> None:
    path = tree / "src" / "padic_mcf" / mutant.module
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise LookupError(f"{mutant.name}: text found {text.count(mutant.old)} times")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--list", action="store_true", help="list the mutants and exit")
    ap.add_argument("--only", action="append", metavar="NAME", help="run this mutant")
    args = ap.parse_args(argv)
    mutants = MUTANTS
    if args.only:
        unknown = set(args.only) - {m.name for m in MUTANTS}
        if unknown:
            ap.error(f"unknown mutant {', '.join(sorted(unknown))}")
        mutants = tuple(m for m in MUTANTS if m.name in args.only)
    if args.list:
        for m in mutants:
            kind = f"equivalent: {m.equivalent}" if m.equivalent else "must be killed"
            print(f"{m.name}  {m.module}  {m.tests}  ({kind})")
        return 0

    bad = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        clean = Path(tmp) / "clean"
        shutil.copytree(ROOT, clean, ignore=COPY_IGNORE)
        timeouts = {}
        for tests in sorted({m.tests for m in mutants}):
            start = time.monotonic()
            if pytest_fails(clean, tests):
                print(f"baseline {tests} fails; no mutant can be judged")
                return 1
            timeouts[tests] = TIMEOUT_FACTOR * (time.monotonic() - start)
        for m in mutants:
            tree = Path(tmp) / m.name
            shutil.copytree(clean, tree)
            start, how = time.monotonic(), ""
            try:
                mutate(tree, m)
                killed = pytest_fails(tree, m.tests, timeouts[m.tests])
            except LookupError as exc:
                print(f"STALE     {exc}")
                bad += 1
                continue
            except subprocess.TimeoutExpired:
                killed, how = True, " (timeout)"
            finally:
                shutil.rmtree(tree)
            ok = killed != bool(m.equivalent)
            verdict = ("killed" + how if killed else "survived") + (
                " (equivalent)" if m.equivalent else ""
            )
            print(f"{'ok ' if ok else 'BAD'}  {m.name}: {verdict} by {m.tests} "
                  f"in {time.monotonic() - start:.0f} s")
            bad += not ok
    print(f"{len(mutants) - bad}/{len(mutants)} as expected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
