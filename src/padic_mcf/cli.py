"""Command-line front end.

Subcommands: expand (Jacobi-Perron on an m-tuple), euclid (the Euclidean
form on an (m+1)-tuple), evaluate (exact value of a finite MCF given as
JSON), digits (balanced digit expansion of a rational), check (norm
conditions and determinant identities of an MCF), and paper-examples (the
bundled worked-example suite).

Exit codes: 0 for finite/periodic expansions and successful checks, 2 for
truncated expansions, 1 for usage, parse and precision errors (reported on
standard error, a precision error of expand or euclid followed by the rows
it certified) and, from the console entry point, for a standard output
closed before the result was written.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import re
import sys
from fractions import Fraction

from .exprparse import ExprError, evaluate_expression, parse_polynomial, read_rational
from .jacobi_perron import DEFAULT_MAX_STEPS, euclid_expand, jp_expand
from .mcf import (
    MCF,
    check_convergence_conditions,
    determinant_check,
    evaluate_finite,
)
from .numberfield import NumberField, PAdicEmbedding
from .padic import (
    balanced_digit_expansion,
    browkin_s,
    is_odd_prime,
    to_approx,
    valuation,
)


class UsageError(Exception):
    pass


#: Arguments that every parser reads as values, not options: a negative
#: number as read_rational reads it without spaces (-3, -1/2, -.5, -1.,
#: -1_000, -2.5e-3), alone or first in a comma list (-1,1/2).  argparse's
#: own pattern stops at -3 and -.5.
_D = r"\d+(_\d+)*"
_VALUE = rf"({_D}/{_D}|({_D}(\.({_D})?)?|\.{_D})([eE][-+]?{_D})?)"
_NEGATIVE_VALUE = re.compile(rf"^-{_VALUE}(,-?{_VALUE})*$")


class _ArgumentParser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # no option of ours looks like a negative value, so argparse reads
        # whatever this matches as a value
        self._negative_number_matcher = _NEGATIVE_VALUE

    def error(self, message):  # route argparse failures through exit code 1
        raise UsageError(message)


def _check_prime(args):
    if not is_odd_prime(args.prime):
        raise UsageError(f"-p must be an odd prime, got {args.prime}")


def _check_run_args(args):
    """Validate the flags shared by the expansion commands."""
    _check_prime(args)
    if args.max_steps < 1:
        raise UsageError("--max-steps must be >= 1")
    if args.precision < 1:
        raise UsageError("--precision must be >= 1")
    if args.backend == "numberfield" and args.minpoly is None:
        raise UsageError("--backend numberfield needs --minpoly")


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _parse_fraction(s: str) -> Fraction:
    try:
        return Fraction(*read_rational(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse rational {s!r}: {exc}") from None


def _add_common(sub, backends):
    sub.add_argument("-p", "--prime", type=int, required=True)
    sub.add_argument("-m", "--dim", type=int, default=None)
    sub.add_argument("--max-steps", type=int, default=DEFAULT_MAX_STEPS)
    sub.add_argument("--precision", type=int, default=64)
    sub.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")
    sub.add_argument("--backend", choices=backends, default=None)
    sub.add_argument("--verbose", action="store_true")


def _fill_expand(ex):
    ex.add_argument("values", nargs="*", help="rational inputs as num/den")
    ex.add_argument("--minpoly", help="defining polynomial of a number field")
    ex.add_argument(
        "--elem",
        action="append",
        default=[],
        help="field element as coefficients c0,c1,... over the chosen root",
    )
    ex.add_argument(
        "--elem-expr",
        action="append",
        default=[],
        help="field element as an expression in x, e.g. 1+1/x",
    )
    ex.add_argument("--detect-period", action="store_true")
    _add_common(ex, ("rational", "numberfield", "approx"))


def _fill_euclid(eu):
    eu.add_argument("values", nargs="+", help="rational coordinates as num/den")
    _add_common(eu, ("rational", "approx"))  # euclid takes no --minpoly


def _fill_evaluate(ev):
    ev.add_argument("--file", help="path to the MCF JSON (default: stdin)")
    ev.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")


def _fill_digits(dg):
    dg.add_argument("value")
    dg.add_argument("-p", "--prime", type=int, required=True)
    dg.add_argument("--upto", type=int, default=8, help="exponent bound (exclusive)")
    dg.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")


def _fill_check(ck):
    ck.add_argument("--file", help="path to the MCF JSON (default: stdin)")
    ck.add_argument("-p", "--prime", type=int, required=True)
    ck.add_argument("--unit-numerators", action="store_true")
    ck.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")


def _fill_paper_examples(pe):
    pe.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")
    pe.add_argument("--only", help="run a single case id")


@functools.cache
def build_parser() -> _ArgumentParser:
    """The parser of every subcommand.

    Cached: a parse leaves the parser as it was (argparse copies an
    `append` default before appending to it, help reads COLUMNS when it is
    formatted and `_ArgumentParser.error` raises), so one parser serves
    every call."""
    parser = _ArgumentParser(
        prog="padic-mcf",
        description="Exact multidimensional continued fractions over Q_p.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, fill, _) in _SUBCOMMANDS.items():
        fill(subs.add_parser(name, help=help_text))
    return parser


# ---------------------------------------------------------------------------
# expand / euclid
# ---------------------------------------------------------------------------


def _build_inputs(args):
    """Assemble the input tuple: positional rationals first, then --elem
    coefficient vectors, then --elem-expr expressions.  What the arguments
    alone decide is checked before the field is built, and the --elem
    lengths before its embedding, so that no field error hides them."""
    rationals = [_parse_fraction(s) for s in args.values]
    if args.minpoly is None and (args.elem or args.elem_expr):
        raise UsageError("--elem/--elem-expr require --minpoly")
    elems = [[_parse_fraction(c) for c in spec.split(",")] for spec in args.elem]
    count = len(rationals) + len(elems) + len(args.elem_expr)
    if not count:
        raise UsageError("no input values given")
    if args.dim is not None and args.dim != count:
        raise UsageError(f"-m {args.dim} does not match {count} inputs")
    backend = args.backend or ("numberfield" if args.minpoly else "rational")
    if backend == "rational" and args.minpoly:
        raise UsageError("--backend rational cannot hold algebraic inputs")
    inputs = rationals
    if args.minpoly is not None:
        try:
            field = NumberField(parse_polynomial(args.minpoly))
        except (ExprError, ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"bad --minpoly: {exc}") from None
        for spec, coeffs in zip(args.elem, elems):
            if len(coeffs) > field.degree:
                raise UsageError(
                    f"bad --elem {spec}: need at most {field.degree} coefficients"
                )
        emb = PAdicEmbedding.create(field, args.prime)
        theta = emb(field.generator())
        inputs += [emb(field.element(coeffs)) for coeffs in elems]
        for spec in args.elem_expr:
            try:
                inputs.append(evaluate_expression(spec, theta))
            except ExprError as exc:
                raise UsageError(f"bad --elem-expr: {exc}") from None
    if backend == "approx":
        inputs = [to_approx(x, args.prime, args.precision) for x in inputs]
    return tuple(inputs)


def _quotient_digit_lines(mcf: MCF, p: int):
    lines = []
    for n, row in enumerate(mcf.rows):
        shown = []
        for a in row[: mcf.m]:
            if a == 0:
                shown.append("0:[]")
            else:
                bd = balanced_digit_expansion(a, p, 1)
                shown.append(f"{a}:{bd.to_json_dict()}")
        lines.append(f"digits n={n}: " + "; ".join(shown))
    return lines


def _print_expansion(result, args, out):
    if args.fmt == "json":
        print(_dump_json(result.to_json_dict()), file=out)
        return
    print(f"status: {result.status}", file=out)
    print(f"steps: {result.steps}", file=out)
    for i, seq in enumerate(result.mcf.sequences(), start=1):
        print(f"a({i}): " + ", ".join(map(str, seq)), file=out)
    if result.status == "periodic":
        print(f"preperiod: {result.preperiod}", file=out)
        print(f"period: {result.period}", file=out)
    if result.period_candidate is not None:
        pre, per = result.period_candidate
        print(f"period candidate (advisory): preperiod {pre}, period {per}", file=out)
    if result.is_finite:
        value = evaluate_finite(result.mcf)
        print("value: " + ", ".join(map(str, value)), file=out)
    if args.verbose:
        for line in _quotient_digit_lines(result.mcf, args.prime):
            print(line, file=out)


def cmd_expand(args, out) -> int:
    _check_run_args(args)
    inputs = _build_inputs(args)
    result = jp_expand(
        inputs, args.prime, max_steps=args.max_steps, detect_period=args.detect_period
    )
    _print_expansion(result, args, out)
    return 0 if result.status in ("finite", "periodic") else 2


def cmd_euclid(args, out) -> int:
    _check_run_args(args)
    values = [_parse_fraction(s) for s in args.values]
    if len(values) < 2:
        raise UsageError("euclid needs an (m+1)-tuple, m >= 1")
    if args.dim is not None and args.dim != len(values) - 1:
        raise UsageError(f"-m {args.dim} does not match {len(values)} coordinates")
    if args.backend == "approx":
        values = [to_approx(x, args.prime, args.precision) for x in values]
    result = euclid_expand(values, args.prime, max_steps=args.max_steps)
    vals = [format_valuation(v) for v in result.trace_valuations]
    if args.fmt == "json":
        d = result.to_json_dict()
        d["trace_valuations"] = vals
        print(_dump_json(d), file=out)
    else:
        _print_expansion(result, args, out)
        print(f"trace v(x^(m+1)): {', '.join(vals)}", file=out)
    return 0 if result.is_finite else 2


def format_valuation(v) -> str:
    return "+inf" if v == float("inf") else str(v)


# ---------------------------------------------------------------------------
# evaluate / digits / check / paper-examples
# ---------------------------------------------------------------------------


def _read_mcf(args) -> MCF:
    if args.file:
        try:
            with open(args.file, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read MCF file: {exc}") from None
    else:
        text = sys.stdin.read()
    try:
        return MCF.from_json_dict(json.loads(text))
    except (KeyError, TypeError, ValueError, ZeroDivisionError, RecursionError) as exc:
        # JSON of the wrong shape ends in KeyError or TypeError, a zero
        # denominator in ZeroDivisionError, too deep a nesting in RecursionError
        raise UsageError(f"bad MCF JSON: {exc}") from None


def cmd_evaluate(args, out) -> int:
    mcf = _read_mcf(args)
    value = evaluate_finite(mcf)
    if args.fmt == "json":
        print(_dump_json({"value": [str(x) for x in value]}), file=out)
    else:
        print("value: " + ", ".join(map(str, value)), file=out)
    return 0


def cmd_digits(args, out) -> int:
    _check_prime(args)
    x = _parse_fraction(args.value)
    if x != 0 and args.upto <= valuation(x, args.prime):
        raise UsageError("--upto must exceed the valuation of the value")
    bd = balanced_digit_expansion(x, args.prime, args.upto)
    s = browkin_s(x, args.prime)
    payload = {
        "value": str(x),
        "valuation": format_valuation(valuation(x, args.prime)),
        "digits": bd.to_json_dict(),
        "browkin_s": str(s),
    }
    if args.fmt == "json":
        print(_dump_json(payload), file=out)
    else:
        print(f"value: {payload['value']}", file=out)
        print(f"valuation: {payload['valuation']}", file=out)
        print(f"digits (k={bd.start}): {list(bd.digits)}", file=out)
        print(f"browkin_s: {payload['browkin_s']}", file=out)
    return 0


def cmd_check(args, out) -> int:
    _check_prime(args)
    mcf = _read_mcf(args)
    report = check_convergence_conditions(
        mcf, args.prime, unit_numerators=args.unit_numerators
    )
    dets = [
        {"n": n, "det": str(det), "matches": ok}
        for n, (det, ok) in enumerate(determinant_check(mcf))
    ]
    if args.fmt == "json":
        print(
            _dump_json({"conditions": report.to_json_dict(), "determinants": dets}),
            file=out,
        )
    else:
        kind = "strict (unit numerators)" if args.unit_numerators else "general"
        state = "hold" if report.ok else f"fail first at n={report.first_violation}"
        print(f"conditions ({kind}): {state}", file=out)
        for d in dets:
            print(f"det B_{d['n']} = {d['det']} (matches: {d['matches']})", file=out)
    return 0 if report.ok and all(d["matches"] for d in dets) else 1


def cmd_paper_examples(args, out) -> int:
    from .worked_examples import PAPER_CASES, run_paper_examples
    cases = PAPER_CASES
    if args.only:
        cases = tuple(c for c in PAPER_CASES if c.id == args.only)
        if not cases:
            raise UsageError(f"unknown case id {args.only!r}")
    all_ok, results = run_paper_examples(cases)
    if args.fmt == "json":
        payload = {
            "cases": results,
            "passed": sum(r["ok"] for r in results),
            "total": len(results),
        }
        print(_dump_json(payload), file=out)
    else:
        for r in results:
            mark = "PASS" if r["ok"] else "FAIL"
            print(f"[{mark}] {r['id']}: {r['description']} -- {r['detail']}", file=out)
        print(f"{sum(r['ok'] for r in results)}/{len(results)} passed", file=out)
    return 0 if all_ok else 1


# name -> (help text, filler of its subparser, command); in help order
_SUBCOMMANDS = {
    "expand": ("expand an m-tuple of p-adic values", _fill_expand, cmd_expand),
    "euclid": (
        "generalized Euclidean form on an (m+1)-tuple",
        _fill_euclid,
        cmd_euclid,
    ),
    "evaluate": ("exact value of a finite MCF (JSON)", _fill_evaluate, cmd_evaluate),
    "digits": ("balanced digit expansion of a rational", _fill_digits, cmd_digits),
    "check": ("norm conditions and determinants of an MCF", _fill_check, cmd_check),
    "paper-examples": (
        "run the bundled example suite",
        _fill_paper_examples,
        cmd_paper_examples,
    ),
}


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    argv = sys.argv[1:] if argv is None else argv
    # values are read and written exactly at any length, so the call lifts
    # the limit on the digits of an int string that Python 3.10.7 added
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        try:
            with contextlib.redirect_stdout(out):  # -h/--help prints to out
                args = build_parser().parse_args(argv)
        except SystemExit as exc:  # argparse exits after printing the help
            return exc.code
        return _SUBCOMMANDS[args.command][2](args, out)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ArithmeticError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        rows = getattr(exc, "certified_rows", None)  # set on InsufficientPrecision
        if rows is not None:
            print(f"certified rows: {rows}", file=sys.stderr)
        return 1
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def entrypoint():
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed standard output early.  Point it at devnull so
        # the interpreter's final flush cannot fail again, and exit quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
