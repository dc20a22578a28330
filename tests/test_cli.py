"""Command-line interface: parsing, output formats, exit codes."""

import contextlib
import functools
import io
import json
import operator
import os
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import padic_mcf
from padic_mcf import cli, worked_examples
from padic_mcf import mcf as mcf_module
from padic_mcf.cli import main
from padic_mcf.errors import InsufficientPrecision
from padic_mcf.exprparse import ExprError, evaluate_expression, parse_polynomial
from padic_mcf.jacobi_perron import euclid_expand, jp_expand
from padic_mcf.padic import to_approx
from padic_mcf.worked_examples import PAPER_CASES, ExampleCase, run_paper_examples


# `python -m` puts the working directory first on sys.path, so the child
# process imports the same package as this one, installed or not.
PACKAGE_ROOT = Path(padic_mcf.__file__).resolve().parents[1]


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestExprParse:
    def test_polynomial_display_form(self):
        assert parse_polynomial("x^3-8/5*x^2-x-1") == (F(-1), F(-1), F(-8, 5), F(1))

    def test_polynomial_coefficient_form(self):
        assert parse_polynomial("-1,-1,-8/5,1") == (F(-1), F(-1), F(-8, 5), F(1))

    def test_element_expressions(self):
        assert evaluate_expression("1+1/x", F(4)) == F(5, 4)
        assert evaluate_expression("-2+1/x", F(2)) == F(-3, 2)
        assert evaluate_expression("(1-x)^2/4", F(3)) == F(1)

    def test_rejects_garbage(self):
        with pytest.raises(ExprError):
            parse_polynomial("x**3")
        with pytest.raises(ExprError):
            parse_polynomial("1/x")
        with pytest.raises(ExprError):
            evaluate_expression("1+", F(1))

    @pytest.mark.parametrize(
        "text, value",
        [
            ("07+x", F(10)),
            ("-x^2", F(-9)),
            ("--x", F(3)),
            ("+x", F(3)),
            ("x^-1", F(1, 3)),
            ("x^ - 2", F(1, 9)),
            (" 1 +\tx *\n 2 ", F(7)),
        ],
    )
    def test_accepts_expression(self, text, value):
        assert evaluate_expression(text, F(3)) == value

    @pytest.mark.parametrize(
        "text, coeffs",
        [
            ("2^-1", (F(1, 2),)),
            ("07+x", (F(7), F(1))),
            ("-x^2", (F(0), F(0), F(-1))),
            ("x^3\n - 8/5 * x^2\t- x - 1", (F(-1), F(-1), F(-8, 5), F(1))),
        ],
    )
    def test_accepts_polynomial(self, text, coeffs):
        assert parse_polynomial(text) == coeffs

    @pytest.mark.parametrize(
        "text",
        [
            "1.5", "y", "sin(x)", "x.real", "x^x", "2^3^2", "0x10", "1_0", "1e3",
            "2x", "x**3", "x^+2", "x # 1", "(0/0)+x2", "", "()",
            "(x+1)^2000", "((x+1)^50)^50",
            "(" * 1000 + "x" + ")" * 1000,
            "-" * 5000 + "x",
        ],
        ids=lambda t: t if len(t) < 20 else f"{t[:3]}...{len(t)}",
    )
    def test_rejects(self, text):
        with pytest.raises(ExprError):
            evaluate_expression(text, F(3))
        with pytest.raises(ExprError):
            parse_polynomial(text)

    @pytest.mark.parametrize("text", ["x/0", "3/0", "x^-1", "1/(x+1)", "2/(x-x)"])
    def test_polynomial_rejects_division_by_x_or_zero(self, text):
        with pytest.raises(ExprError):
            parse_polynomial(text)

    @given(data=st.data(), x=st.fractions(min_value=-4, max_value=4, max_denominator=4))
    @settings(max_examples=200, deadline=None)
    def test_matches_direct_evaluation(self, data, x):
        divides = data.draw(st.booleans())
        tree = data.draw(_expr_trees(4, divides))
        try:
            expected = _tree_value(tree, x)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                evaluate_expression(_render(tree), x)
            return
        assert evaluate_expression(_render(tree), x) == expected
        if not divides:
            coeffs = parse_polynomial(_render(tree))
            assert sum(c * x**i for i, c in enumerate(coeffs)) == expected


_TREE_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _expr_trees(depth, divides):
    """Trees over +, -, *, / (when divides), ^k (k < 0 only when divides),
    unary minus, integers and x."""
    leaf = st.one_of(st.integers(0, 30).map(lambda n: ("int", n)), st.just(("x",)))
    if depth == 0:
        return leaf
    sub = _expr_trees(depth - 1, divides)
    return st.one_of(
        leaf,
        st.tuples(st.sampled_from("+-*/" if divides else "+-*"), sub, sub),
        st.tuples(st.just("^"), sub, st.integers(-3 if divides else 0, 3)),
        st.tuples(st.just("neg"), sub),
    )


def _render(tree):
    kind = tree[0]
    if kind == "int":
        return str(tree[1])
    if kind == "x":
        return "x"
    if kind == "neg":
        return f"-({_render(tree[1])})"
    if kind == "^":
        return f"({_render(tree[1])})^{tree[2]}"
    return f"({_render(tree[1])}){kind}({_render(tree[2])})"


def _tree_value(tree, x):
    kind = tree[0]
    if kind == "int":
        return F(tree[1])
    if kind == "x":
        return x
    if kind == "neg":
        return -_tree_value(tree[1], x)
    if kind == "^":
        return _tree_value(tree[1], x) ** tree[2]
    return _TREE_OPS[kind](_tree_value(tree[1], x), _tree_value(tree[2], x))


class TestExpand:
    def test_rational_pair_text(self):
        code, out = run_cli("expand", "-p", "5", "-m", "2", "23/5", "14/19")
        assert code == 0
        assert "status: finite" in out
        assert "a(1): -2/5, 6/5, 6/5, 4/5" in out
        assert "value: 23/5, 14/19" in out

    def test_rational_pair_json_round_trip(self):
        code, out = run_cli(
            "expand", "-p", "5", "-m", "2", "23/5", "14/19", "--format", "json"
        )
        assert code == 0
        parsed = json.loads(out)
        assert parsed["status"] == "finite" and parsed["steps"] == 4
        assert json.dumps(parsed, indent=2, sort_keys=True) == out.strip()

    def test_periodic_cubic(self):
        code, out = run_cli(
            "expand",
            "-p",
            "5",
            "-m",
            "2",
            "--minpoly",
            "x^3-8/5*x^2-x-1",
            "--elem",
            "0,1,0",
            "--elem-expr",
            "1+1/x",
            "--detect-period",
        )
        assert code == 0
        assert "status: periodic" in out
        assert "preperiod: 0" in out and "period: 1" in out
        assert "a(1): 8/5" in out

    def test_elem_expr_power_matches_coefficients(self):
        common = ("expand", "-p", "5", "--minpoly", "x^3-3", "--elem", "0,1,0",
                  "--max-steps", "20", "--format", "json")
        code, out = run_cli(*common, "--elem-expr", "x^2")
        assert (code, out) == run_cli(*common, "--elem", "0,0,1")
        assert code == 2 and json.loads(out)["steps"] == 20

    def test_even_prime_is_usage_error(self, capsys):
        code, _ = run_cli("expand", "-p", "4", "1/2")
        assert code == 1
        assert "odd prime" in capsys.readouterr().err

    def test_dimension_mismatch(self, capsys):
        code, _ = run_cli("expand", "-p", "5", "-m", "3", "23/5", "14/19")
        assert code == 1

    def test_truncated_exit_code(self):
        code, out = run_cli(
            "expand",
            "-p",
            "5",
            "--minpoly",
            "x^3-8/5*x^2-x-1",
            "--elem",
            "0,1,0",
            "--elem-expr",
            "1+1/x",
            "--max-steps",
            "3",
        )
        assert code == 2
        assert "status: truncated" in out

    def test_approx_backend_surfaces_precision_error(self, capsys):
        code, out = run_cli(
            "expand", "-p", "5", "--backend", "approx", "--precision", "8",
            "23/5", "14/19",
        )
        with pytest.raises(InsufficientPrecision) as info:
            jp_expand((to_approx(F(23, 5), 5, 8), to_approx(F(14, 19), 5, 8)), 5)
        assert info.value.certified_rows == 3
        assert (code, out) == (1, "")
        assert capsys.readouterr().err == (
            f"error: InsufficientPrecision: {info.value}\ncertified rows: 3\n"
        )

    def test_ambiguous_root_selection(self, capsys):
        code, _ = run_cli(
            "expand", "-p", "7", "--minpoly", "x^2-2", "--elem", "0,1", "1/7"
        )
        assert code == 1
        assert "AmbiguousSelection" in capsys.readouterr().err

    def test_roots_sharing_1200_digits_are_ambiguous(self, capsys):
        # both roots of (x - 1)^2 - 6 * 5^2400 are units: the search splits
        # their common residue 1200 times and the choice is then ambiguous
        code, out = run_cli(
            "expand", "-p", "5", f"--minpoly={1 - 6 * 5**2400},-2,1", "--elem", "0,1"
        )
        assert (code, out) == (1, "")
        assert capsys.readouterr().err == (
            "error: AmbiguousSelection: 2 roots share the maximal norm p^0\n"
        )

    def test_degree_bound_is_usage_error(self, capsys):
        code, out = run_cli(
            "expand", "-p", "5", "--minpoly", "x^256*x^256*x^256*x^256-6",
            "--elem", "0,1", "--max-steps", "3",
        )
        assert (code, out) == (1, "")
        assert capsys.readouterr().err == "error: bad --minpoly: degree 1024 exceeds 64\n"

    def test_large_primes_expand(self):
        # roots mod p are split by gcds, so neither prime is too large
        code, out = run_cli(
            "expand", "-p", "1000000007", "--minpoly", "x^3-3", "--elem", "0,1",
            "--max-steps", "3", "--format", "json",
        )
        assert (code, json.loads(out)["steps"]) == (2, 3)
        # the root of valuation -1 sits over the double residue 0 of the
        # scaled polynomial, which is split one level further down
        code, out = run_cli(
            "expand", "-p", "1000003", "--minpoly", "x^3-1/1000003*x^2-2",
            "--elem", "0,1", "--max-steps", "3", "--format", "json",
        )
        assert code == 2
        assert json.loads(out)["quotients"]["a"][0] == [
            "1/1000003", "-500004500013500013/1000006000009", "400002400004/1000003"
        ]

    def test_roots_separated_past_64_levels(self):
        # the residue 1 of this cubic is double: its two roots near
        # 1 +- 5^65*sqrt(2), not in Q_5, share 65 digits, within half the
        # discriminant's valuation; the root the run needs, of valuation
        # -1, is simple
        code, out = run_cli(
            "expand", "-p", "5", "--minpoly", "(5*x-1)*((x-1)^2-2*5^130)+5^130*5^130*x",
            "--elem", "0,1", "--max-steps", "3", "--format", "json",
        )
        assert (code, json.loads(out)["steps"]) == (2, 3)

    def test_precision_does_not_change_exact_runs(self):
        # an exact run refines its embedding on demand
        argv = ("expand", "-p", "5", "-m", "2", "--minpoly", "x^3-8/5*x^2-x-1",
                "--elem", "0,1,0", "--elem-expr", "1+1/x", "--detect-period")
        assert run_cli(*argv, "--precision", "100000") == run_cli(
            *argv, "--precision", "64"
        )

    def test_verbose_digit_lists(self):
        code, out = run_cli("expand", "-p", "5", "23/5", "14/19", "--verbose")
        assert code == 0
        assert "digits n=0" in out

    def test_verbose_shows_a_zero_quotient_as_an_empty_list(self):
        code, out = run_cli("expand", "-p", "5", "--verbose", "7/3", "11/20")
        assert code == 0
        assert out == (
            "status: finite\n"
            "steps: 3\n"
            "a(1): -1, -4/5, -3/5\n"
            "a(2): 9/5, -1, 0\n"
            "a(3): 1, 1, 1\n"
            "value: 7/3, 11/20\n"
            "digits n=0: -1:{'k': 0, 'digits': [-1]}; 9/5:{'k': -1, 'digits': [-1, 2]}\n"
            "digits n=1: -4/5:{'k': -1, 'digits': [1, -1]}; -1:{'k': 0, 'digits': [-1]}\n"
            "digits n=2: -3/5:{'k': -1, 'digits': [2, -1]}; 0:[]\n"
        )

    def test_approx_backend_with_minpoly_reports_candidate(self):
        code, out = run_cli(
            "expand", "-p", "5",
            "--minpoly", "x^3-8/5*x^2-x-1",
            "--elem", "0,1,0", "--elem-expr", "1+1/x",
            "--backend", "approx", "--precision", "24",
            "--max-steps", "4", "--detect-period",
        )
        assert code == 2
        assert "status: truncated" in out
        assert "period candidate (advisory): preperiod 0, period 1" in out


class TestEuclid:
    def test_lifted_tuple(self):
        code, out = run_cli("euclid", "-p", "5", "437", "70", "95")
        assert code == 0
        assert "a(1): -2/5, 6/5, 6/5, 4/5" in out
        assert "trace v(x^(m+1)): 1, 2, 3, 4, +inf" in out

    def test_json_trace_valuations(self):
        code, out = run_cli("euclid", "-p", "5", "--format", "json", "437", "70", "95")
        assert code == 0
        assert json.loads(out)["trace_valuations"] == ["1", "2", "3", "4", "+inf"]

    @pytest.mark.parametrize(
        "backend, valuations",
        [((), ["1", "2", "3"]), (("--backend", "approx", "--precision", "40"), ["1", "2", "3", "4"])],
    )
    def test_truncated_trace_valuations(self, backend, valuations):
        steps = str(len(valuations) - 1)
        argv = ("euclid", "-p", "5", "--max-steps", steps, *backend, "437", "70", "95")
        code, out = run_cli(*argv)
        assert code == 2
        assert "status: truncated" in out
        assert f"trace v(x^(m+1)): {', '.join(valuations)}\n" in out
        code, out = run_cli(*argv, "--format", "json")
        d = json.loads(out)
        assert (code, d["status"], d["steps"]) == (2, "truncated", len(valuations) - 1)
        assert d["trace_valuations"] == valuations

    def test_truncated_run_cannot_see_the_final_zero(self, capsys):
        code, out = run_cli(
            "euclid", "-p", "5", "--backend", "approx", "--precision", "20",
            "437", "70", "95",
        )
        with pytest.raises(InsufficientPrecision) as info:
            euclid_expand([to_approx(F(v), 5, 20) for v in (437, 70, 95)], 5)
        assert info.value.certified_rows == 3
        assert (code, out) == (1, "")
        assert capsys.readouterr().err == (
            f"error: InsufficientPrecision: {info.value}\ncertified rows: 3\n"
        )

    def test_single_coordinate_rejected(self, capsys):
        code, _ = run_cli("euclid", "-p", "5", "7")
        assert code == 1

    def test_detect_period_is_expand_only(self, capsys):
        # euclid_expand has no period detection, so the flag is not offered
        code, out = run_cli("euclid", "-p", "5", "--detect-period", "437", "70", "95")
        assert code == 1 and out == ""
        assert "unrecognized arguments: --detect-period" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv", [("expand", "23/5", "14/19"), ("euclid", "437", "70", "95")]
)
def test_numberfield_backend_needs_minpoly(capsys, argv):
    # euclid takes no --minpoly, so it does not offer the backend at all
    code, out = run_cli(argv[0], "-p", "5", "--backend", "numberfield", *argv[1:])
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == {
        "expand": "error: --backend numberfield needs --minpoly\n",
        "euclid": "error: argument --backend: invalid choice: 'numberfield' "
        "(choose from 'rational', 'approx')\n",
    }[argv[0]]


@pytest.mark.parametrize(
    "argv",
    [("expand", "1/2"), ("euclid", "437", "70", "95"), ("digits", "1/2"), ("check",)],
)
def test_every_prime_flag_is_checked_alike(capsys, argv):
    # check reads its MCF only after the prime has passed
    code, out = run_cli(argv[0], "-p", "4", *argv[1:])
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == "error: -p must be an odd prime, got 4\n"


@pytest.mark.parametrize(
    "argv, error",
    [
        ("expand -p 5 --max-steps 0 1/2", "--max-steps must be >= 1"),
        ("euclid -p 5 --max-steps 0 1 2", "--max-steps must be >= 1"),
        ("expand -p 5 --precision 0 1/2", "--precision must be >= 1"),
        ("expand -p 5 1/0", "cannot parse rational '1/0': Fraction(1, 0)"),
        ("expand -p 5 --minpoly 1/0,0,1 --elem 0,1", "bad --minpoly: Fraction(1, 0)"),
        ("expand -p 5 --elem 1,2", "--elem/--elem-expr require --minpoly"),
        ("expand -p 5 --minpoly x^3-3 --elem-expr 1+", "bad --elem-expr: invalid syntax"),
        ("expand -p 5", "no input values given"),
        ("expand -p 5 --backend rational --minpoly x^3-2 --elem 0,1",
         "--backend rational cannot hold algebraic inputs"),
        ("euclid -p 5 -m 3 1 2 3", "-m 3 does not match 3 coordinates"),
        ("digits -p 5 --upto 0 1", "--upto must exceed the valuation of the value"),
        # x^2+x+1 has no root in Q_5, and these errors come before the field's
        ("expand -p 5 --minpoly x^2+x+1", "no input values given"),
        ("expand -p 5 --minpoly x^2+x+1 --elem 1,x",
         "cannot parse rational 'x': Invalid literal for Fraction: 'x'"),
        ("expand -p 5 -m 3 --minpoly x^2+x+1 --elem 0,1", "-m 3 does not match 1 inputs"),
        ("expand -p 5 --backend rational --minpoly x^2+x+1 --elem 0,1",
         "--backend rational cannot hold algebraic inputs"),
        # an --elem longer than the degree, checked before the embedding
        ("expand -p 5 --minpoly x^3-2 --elem 1,2,3,4",
         "bad --elem 1,2,3,4: need at most 3 coefficients"),
        ("expand -p 5 --minpoly x^2+x+1 --elem 0,1 --elem 1,2,3",
         "bad --elem 1,2,3: need at most 2 coefficients"),
    ],
)
def test_argument_errors(capsys, argv, error):
    code, out = run_cli(*argv.split())
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == f"error: {error}\n"


class TestEvaluateDigitsCheck:
    MCF_JSON = json.dumps(
        {
            "m": 2,
            "a": [["1", "-1/5"], ["1", "-1"], ["1", "1"]],
            "finite": True,
        }
    )

    def test_evaluate_stdin(self, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(self.MCF_JSON))
        code, out = run_cli("evaluate")
        assert code == 0 and "value: 6, -4" in out

    def test_evaluate_file(self, tmp_path):
        f = tmp_path / "mcf.json"
        f.write_text(self.MCF_JSON)
        code, out = run_cli("evaluate", "--file", str(f), "--format", "json")
        assert code == 0
        assert json.loads(out)["value"] == ["6", "-4"]

    def test_evaluate_bad_json(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", io.StringIO("{"))
        code, _ = run_cli("evaluate")
        assert code == 1

    @pytest.mark.parametrize(
        "command, text, message",
        [
            (("evaluate",), "[1,2]", "list indices must be integers or slices, not str"),
            (("check", "-p", "5"), '{"m":"1","a":[["1","2"],["1","1"]]}',
             "m '1' is not an integer"),
            (("evaluate",), '{"m":1,"a":[["1",null],["1","1"]]}',
             "quotient None is not a string or an integer"),
            (("evaluate",), '{"m":1,"a":[["1",1e400],["1","1"]]}',
             "quotient inf is not a string or an integer"),
            (("evaluate",), '{"m":1,"a":[["1",0.1],["1","1"]],"finite":true}',
             "quotient 0.1 is not a string or an integer"),
            (("evaluate",), '{"m":1,"a":[["1",true],["1","1"]],"finite":true}',
             "quotient True is not a string or an integer"),
            (("evaluate",), '{"m":1,"a":[["1","2"],["1","1"]],"finite":"false"}',
             "finite 'false' is not true or false"),
            (("evaluate",), '{"m":true,"a":[["1","2"],["1","1"]]}', "m True is not an integer"),
            (("evaluate",), '{"m":1.0,"a":[["1","2"],["1","1"]]}', "m 1.0 is not an integer"),
            (("evaluate",), '{"m":1,"a":["12","11"]}', "'a' must be an array of arrays"),
            (("check", "-p", "5"), '{"m":1,"a":["12","11"]}', "'a' must be an array of arrays"),
            (("evaluate",), '{"m":1,"a":"11"}', "'a' must be an array of arrays"),
            (("check", "-p", "5"), '{"m":1,"a":"11"}', "'a' must be an array of arrays"),
            (("evaluate",), '{"m":1,"a":[["1/0"],["1"]]}', "Fraction(1, 0)"),
            (("check", "-p", "5"), '{"m":1,"a":[["1/0"],["1"]]}', "Fraction(1, 0)"),
            # two faults meet: the first check in the reader's order names its own
            (("evaluate",), '{"m":2,"a":[["x"],["1"]]}', "Invalid literal for Fraction: 'x'"),
            (("check", "-p", "5"), '{"m":1,"a":[["1","2"],["0"]]}',
             "sequences must share one length"),
            (("evaluate",), '{"m":0,"a":[["1"]]}', "need at least two sequences"),
            (("evaluate",), '{"m":1,"a":[["1","abc"],["1/0","1"]]}',
             "Invalid literal for Fraction: 'abc'"),
            (("check", "-p", "5"), '{"m":1,"a":[["1","2"],["2","0"]]}',
             "partial quotients a_n^(m+1) must be nonzero"),
            (("evaluate",), '{"m":1,"a":[[],[]]}', "need at least one row of partial quotients"),
            (("evaluate",), '{"m":1,"a":[["1","3"],["2","1"]]}', "a_0^(m+1) must equal 1"),
            (("check", "-p", "5"), '{"m":1,"a":[["1","3"],["2","1"]]}',
             "a_0^(m+1) must equal 1"),
            # json's decoder gives up, in its own words after these
            (("evaluate",), "[" * 100000, "maximum recursion depth exceeded …"),
            (("check", "-p", "5"), "[" * 100000, "maximum recursion depth exceeded …"),
        ],
        ids=["list", "string-m", "null-quotient", "huge-float", "float-quotient",
             "bool-quotient", "string-finite", "bool-m", "float-m",
             "string-sequences", "check-string-sequences", "string-a", "check-string-a",
             "zero-denominator", "check-zero-denominator", "literal-before-count",
             "lengths-before-zero-last", "m-zero-one-sequence",
             "literals-in-sequence-order", "zero-last-before-first-not-one", "no-rows",
             "first-not-one", "check-first-not-one", "nested", "check-nested"],
    )
    def test_wrong_shape_is_usage_error(self, monkeypatch, capsys, command, text, message):
        # JSON that is not an MCF: an error line, no traceback
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out = run_cli(*command)
        assert code == 1 and out == ""
        err = capsys.readouterr().err
        if message.endswith(" …"):
            prefix = f"error: bad MCF JSON: {message[:-2]}"
            assert err.startswith(prefix) and err.index("\n") == len(err) - 1
        else:
            assert err == f"error: bad MCF JSON: {message}\n"

    @pytest.mark.parametrize(
        "command, path, reason",
        [
            (("evaluate",), "missing.json", "[Errno 2] No such file or directory"),
            (("check", "-p", "5"), "", "[Errno 21] Is a directory"),
        ],
        ids=["evaluate-missing", "check-directory"],
    )
    def test_unreadable_file_is_an_error_line(self, tmp_path, capsys, command, path, reason):
        target = str(tmp_path / path)
        code, out = run_cli(*command, "--file", target)
        assert code == 1 and out == ""
        assert capsys.readouterr().err == (
            f"error: cannot read MCF file: {reason}: {target!r}\n"
        )

    def test_zero_intermediate_is_an_error_line(self, monkeypatch, capsys):
        text = '{"m":1,"a":[["0","0"],["1","1"]],"finite":true}'
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out = run_cli("evaluate")
        assert code == 1 and out == ""
        assert capsys.readouterr().err == (
            "error: ZeroIntermediate: alpha_1^(1) = 0 during backward evaluation\n"
        )

    def test_digits_text(self):
        code, out = run_cli("digits", "23/5", "-p", "5", "--upto", "3")
        assert code == 0
        assert "digits (k=-1): [-2, 0, 1, 0]" in out
        assert "browkin_s: -2/5" in out

    def test_digits_json_round_trip(self):
        code, out = run_cli("digits", "14/19", "-p", "5", "--upto", "1", "--format", "json")
        assert code == 0
        parsed = json.loads(out)
        assert parsed["digits"] == {"k": 0, "digits": [1]}
        assert json.dumps(parsed, indent=2, sort_keys=True) == out.strip()

    def test_check_passes_on_algorithm_output(self, monkeypatch):
        mcf_json = json.dumps(
            {
                "m": 2,
                "a": [
                    ["-2/5", "6/5", "6/5", "4/5"],
                    ["1", "1", "-1", "-1"],
                    ["1", "1", "1", "1"],
                ],
                "finite": True,
            }
        )
        monkeypatch.setattr(sys, "stdin", io.StringIO(mcf_json))
        code, out = run_cli("check", "-p", "5", "--unit-numerators")
        assert code == 0
        assert "conditions" in out and "det B_3 = 1 (matches: True)" in out

    def test_check_reports_violations(self, monkeypatch):
        mcf_json = json.dumps(
            {"m": 1, "a": [["1", "1"], ["1", "1"]], "finite": True}
        )
        monkeypatch.setattr(sys, "stdin", io.StringIO(mcf_json))
        code, out = run_cli("check", "-p", "5", "--unit-numerators")
        assert code == 1
        assert "fail first at n=1" in out

    # a_n^(2) = 1, 3, -2 is not a unit sequence.  The closed form
    # (-1)^(n+1) * a_0^(2) ... a_n^(2) gives the dets -1, 3, 6.  At n = 1
    # |3| < |2| fails (both are units); at n = 2 |-2| = 1 < |1/5| = 5 holds.
    NON_UNIT_JSON = json.dumps(
        {"m": 1, "a": [["1", "2", "1/5"], ["1", "3", "-2"]], "finite": True}
    )

    def test_check_text_bytes_non_unit(self, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(self.NON_UNIT_JSON))
        code, out = run_cli("check", "-p", "5")
        assert code == 1
        assert out == (
            "conditions (general): fail first at n=1\n"
            "det B_0 = -1 (matches: True)\n"
            "det B_1 = 3 (matches: True)\n"
            "det B_2 = 6 (matches: True)\n"
        )

    def test_check_reports_a_determinant_mismatch(self, monkeypatch):
        bareiss = mcf_module._bareiss

        def negated(a):  # every window's determinant comes out negated
            r, sign = bareiss(a)
            return r, -sign

        monkeypatch.setattr(mcf_module, "_bareiss", negated)
        # the conditions hold, and the dets are -1 and 1 unpatched
        monkeypatch.setattr(sys, "stdin", io.StringIO('{"m":1,"a":[["1","1/5"],["1","1"]]}'))
        code, out = run_cli("check", "-p", "5")
        assert code == 1
        assert out == (
            "conditions (general): hold\n"
            "det B_0 = 1 (matches: False)\n"
            "det B_1 = -1 (matches: False)\n"
        )

    def test_check_json_bytes_non_unit(self, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(self.NON_UNIT_JSON))
        code, out = run_cli("check", "-p", "5", "--format", "json")
        assert code == 1
        expected = {
            "conditions": {
                "first_violation": 1,
                "ok": False,
                "per_index": [[1, True, False], [2, True, True]],
                "unit_numerators": False,
            },
            "determinants": [
                {"det": "-1", "matches": True, "n": 0},
                {"det": "3", "matches": True, "n": 1},
                {"det": "6", "matches": True, "n": 2},
            ],
        }
        assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"


def _doctored(case_id, **params):
    """The bundled case case_id with some of its params replaced."""
    case = next(c for c in PAPER_CASES if c.id == case_id)
    return case.replace(params={**case.params, **params})


# (doctored case, the detail of its failure)
DOCTORED = [
    (
        _doctored(
            "c1-q5-pair-a", sequences=(("-2/5", "6/5", "6/5", "4/5"), ("1", "1", "-1", "1"))
        ),
        "quotients (-2/5, 6/5, 6/5, 4/5); (1, 1, -1, -1); (1, 1, 1, 1) != recorded "
        "(-2/5, 6/5, 6/5, 4/5); (1, 1, -1, 1); (1, 1, 1, 1)",
    ),
    (_doctored("c9-q5-stop", value=("7", "-4")), "value (6, -4) != recorded (7, -4)"),
    (
        _doctored("c4-q5-cubic-periodic", second="1"),
        "expected a periodic run, got finite",
    ),
    (
        _doctored("c4-q5-cubic-periodic", period=2),
        "(preperiod, period) = (0, 1) != (0, 2)",
    ),
    (
        _doctored("c6-q7-cubic-periodic", sequences=(("-3/7",), ("2",))),
        "quotients (-3/7); (-2); (1) != recorded (-3/7); (2); (1)",
    ),
    (
        _doctored("c3-q5-cuberoot", value=("133/48", "4/5")),
        "recorded block evaluates to (133/48, 5/4), not (133/48, 4/5)",
    ),
    (  # a block of value (229/48, 5/4), but 3 is no balanced digit at p = 5
        _doctored(
            "c3-q5-cuberoot",
            sequences=(("3", "4/5", "12/5"), ("0", "1", "0")),
            value=("229/48", "5/4"),
        ),
        "re-expanding the recorded value does not reproduce the block",
    ),
    (_doctored("c3-q5-cuberoot", minpoly="x^2-2"), "NoRoot: no roots in Q_p"),
]


class TestPaperExamples:
    def test_all_pass(self):
        code, out = run_cli("paper-examples")
        assert code == 0
        assert "9/9 passed" in out

    def test_json_format(self):
        code, out = run_cli("paper-examples", "--format", "json")
        assert code == 0
        parsed = json.loads(out)
        assert parsed["passed"] == parsed["total"] == 9
        assert json.dumps(parsed, indent=2, sort_keys=True) == out.strip()

    def test_only_one_case(self):
        code, out = run_cli("paper-examples", "--only", "c9-q5-stop")
        assert code == 0 and "1/1 passed" in out

    def test_unknown_case_id(self, capsys):
        code, _ = run_cli("paper-examples", "--only", "nope")
        assert code == 1

    def test_corrupted_expected_value_is_named(self):
        corrupted = []
        for case in PAPER_CASES:
            if case.id == "c9-q5-stop":
                params = dict(case.params)
                params["value"] = ("7", "-4")  # deliberately wrong
                case = ExampleCase(case.id, case.description, case.kind, params)
            corrupted.append(case)
        all_ok, results = run_paper_examples(corrupted)
        assert not all_ok
        bad = [r for r in results if not r["ok"]]
        assert len(bad) == 1 and bad[0]["id"] == "c9-q5-stop"
        assert "!=" in bad[0]["detail"]

    @pytest.mark.parametrize("case, detail", DOCTORED, ids=[c.id for c, _ in DOCTORED])
    def test_doctored_case_fails_with_its_detail(self, case, detail):
        all_ok, results = run_paper_examples([case])
        assert not all_ok
        assert results == [
            {"id": case.id, "description": case.description, "ok": False, "detail": detail}
        ]

    @pytest.mark.parametrize(
        "case_id, detail",
        [
            ("c1-q5-pair-a", "expected a finite run, got truncated"),
            ("c3-q5-cuberoot", "cube-root pair did not terminate (truncated)"),
        ],
    )
    def test_a_run_cut_short_is_reported(self, monkeypatch, case_id, detail):
        # no bundled case runs out of steps; one step allowed makes them
        monkeypatch.setattr(
            worked_examples, "jp_expand", functools.partial(jp_expand, max_steps=1)
        )
        case = next(c for c in PAPER_CASES if c.id == case_id)
        assert run_paper_examples([case]) == (
            False,
            [{"id": case_id, "description": case.description, "ok": False, "detail": detail}],
        )

    def test_cli_exits_1_on_a_doctored_case(self, monkeypatch):
        case, detail = DOCTORED[1]  # c9-q5-stop with a wrong value
        monkeypatch.setattr(worked_examples, "PAPER_CASES", (case,))
        code, out = run_cli("paper-examples", "--only", case.id)
        assert code == 1
        assert out == f"[FAIL] {case.id}: {case.description} -- {detail}\n0/1 passed\n"


def _readme_block(heading, lang):
    """The first code block under a README heading."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    return re.search(rf"## {heading}\n\n```{lang}\n(.*?)```", readme, re.S).group(1)


def _readme_cli_examples():
    """(argv, stdin) for each command in the README's CLI block; an
    `echo '...' |` prefix becomes standard input."""
    block = _readme_block("CLI", "sh")
    examples = []
    for line in block.replace("\\\n", " ").splitlines():
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        stdin = ""
        if line.startswith("echo "):
            echo, line = line.split("|", 1)
            stdin = shlex.split(echo)[1]
        argv = shlex.split(line)
        assert argv[0] == "padic-mcf"
        examples.append((argv[1:], stdin))
    return examples


README_EXAMPLES = _readme_cli_examples()


class TestReadmeExamples:
    @pytest.mark.parametrize(
        "argv, stdin", README_EXAMPLES, ids=[" ".join(a) for a, _ in README_EXAMPLES]
    )
    def test_runs(self, monkeypatch, argv, stdin):
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        code, out = run_cli(*argv)
        assert code == 0 and out.strip()

    def test_library_example(self, capsys):
        code = _readme_block("Library example", "python")
        exec(compile(code, "README.md", "exec"), {})
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("finite ") and lines[-1] == "periodic"


class TestConsoleEntry:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "padic_mcf.cli", "expand", "-p", "5", "23/5", "14/19"],
            capture_output=True,
            text=True,
            cwd=PACKAGE_ROOT,
        )
        assert proc.returncode == 0
        assert "status: finite" in proc.stdout

    def test_module_invocation_error_path(self):
        proc = subprocess.run(
            [sys.executable, "-m", "padic_mcf.cli", "expand", "-p", "4", "1/2"],
            capture_output=True,
            text=True,
            cwd=PACKAGE_ROOT,
        )
        assert proc.returncode == 1
        assert "odd prime" in proc.stderr

    def test_closed_stdout_exits_quietly(self):
        # the read end is closed before the child starts, so its first write
        # to standard output fails with EPIPE
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "padic_mcf.cli", "euclid", "-p", "5", "437", "70", "95"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                cwd=PACKAGE_ROOT,
            )
        finally:
            os.close(write_end)
        assert proc.stderr == ""
        assert proc.returncode == 1


# help, usage errors, and one valid call of each subcommand
SUBCOMMANDS = ("expand", "euclid", "evaluate", "digits", "check", "paper-examples")
PARSER_CORPUS = [
    ("-h",),
    ("--help",),
    *((name, "-h") for name in SUBCOMMANDS),
    (),
    ("nope",),
    ("exp", "-p", "5", "1/2"),
    ("-p", "5", "expand", "1"),
    ("--", "expand", "1/2"),
    # missing required arguments
    ("expand", "1/2"),
    ("euclid", "-p", "5"),
    ("digits", "-p", "5"),
    ("check",),
    # bad choices and values
    ("expand", "-p", "5", "--format", "xml", "1/2"),
    ("euclid", "-p", "5", "--backend", "numberfield", "1", "2"),
    ("evaluate", "--format", "xml"),
    ("digits", "-p", "x", "1"),
    ("check", "-p", "5", "--format", "xml"),
    ("paper-examples", "--format", "xml"),
    # unrecognized arguments
    ("expand", "-p", "5", "--bogus", "1/2"),
    ("euclid", "-p", "5", "--detect-period", "1", "2"),
    ("evaluate", "--bogus"),
    ("digits", "-p", "5", "1", "2"),
    ("check", "-p", "5", "--bogus"),
    ("paper-examples", "extra"),
    # one valid call each; MCF stands for a file holding a finite MCF
    ("expand", "-p", "5", "23/5", "14/19"),
    ("euclid", "-p", "5", "--format", "json", "437", "70", "95"),
    ("evaluate", "--file", "MCF"),
    ("digits", "-p", "5", "1/3"),
    ("check", "-p", "5", "--file", "MCF"),
    ("paper-examples", "--only", "c1-q5-pair-a"),
]


def _outcome(capsys, argv):
    """Exit code, main's output, standard output and standard error of one
    call to main."""
    out = io.StringIO()
    rc = main(list(argv), out=out)
    return rc, out.getvalue(), *capsys.readouterr()


class TestNegativeValues:
    """Every parser reads -a/b and -a,b,... as values, as it reads -3: each
    call gives what its `--` or `=` spelling gives."""

    EXPAND = ("expand", "-p", "5")
    CUBIC = (*EXPAND, "--minpoly", "x^3-3", "--max-steps", "6")

    @pytest.mark.parametrize(
        "argv, spelled",
        [
            ((*EXPAND, "-1/2", "3"), (*EXPAND, "--", "-1/2", "3")),
            ((*EXPAND, "-3", "-2/7"), (*EXPAND, "--", "-3", "-2/7")),
            ((*EXPAND, "-.5", "-1.25"), (*EXPAND, "--", "-.5", "-1.25")),
            (
                ("euclid", "-p", "5", "-1/2", "3", "-7"),
                ("euclid", "-p", "5", "--", "-1/2", "3", "-7"),
            ),
            (("digits", "-1/3", "-p", "5"), ("digits", "-p", "5", "--", "-1/3")),
            ((*CUBIC, "--elem", "-1,1"), (*CUBIC, "--elem=-1,1")),
            ((*CUBIC, "--elem", "-1/2,-1,1/5"), (*CUBIC, "--elem=-1/2,-1,1/5")),
            # every dashed form the one reader reads is a value too
            ((*EXPAND, "-1e3", "-1.", "-1_000"), (*EXPAND, "--", "-1e3", "-1.", "-1_000")),
            (
                ("euclid", "-p", "5", "-2.5e-3", "3"),
                ("euclid", "-p", "5", "--", "-2.5e-3", "3"),
            ),
            ((*CUBIC, "--elem", "-1e0,1"), (*CUBIC, "--elem=-1e0,1")),
            (
                (*EXPAND, "--minpoly", "-3,0,0,1", "--elem", "0,1", "--max-steps", "6"),
                (*EXPAND, "--minpoly=-3,0,0,1", "--elem", "0,1", "--max-steps", "6"),
            ),
            # usage errors after parsing are the same too
            ((*EXPAND, "--elem", "-1,1"), (*EXPAND, "--elem=-1,1")),
            (("digits", "-1/0", "-p", "5"), ("digits", "-p", "5", "--", "-1/0")),
        ],
    )
    def test_as_spelled_with_separator(self, capsys, argv, spelled):
        outcome = _outcome(capsys, argv)
        assert outcome == _outcome(capsys, spelled)
        assert "unrecognized arguments" not in outcome[3]
        assert "required" not in outcome[3] and "expected one" not in outcome[3]

    @pytest.mark.parametrize(
        "argv, message",
        [  # an expression is no number, and still needs the = form
            ((*EXPAND, "-x"), "error: unrecognized arguments: -x\n"),
            (
                (*EXPAND, "--minpoly", "x^2-2", "--elem-expr", "-x"),
                "error: argument --elem-expr: expected one argument\n",
            ),
            ((*EXPAND, "-1/2x"), "error: unrecognized arguments: -1/2x\n"),
        ],
    )
    def test_other_dashed_words_stay_options(self, capsys, argv, message):
        assert _outcome(capsys, argv) == (1, "", "", message)


class TestExponentBound:
    """Every entry that reads a rational from text refuses a decimal exponent
    beyond 4300 in absolute value at once, and reads one at the bound."""

    @pytest.mark.parametrize("value", ["1e999999999", "1e-999999999"])
    @pytest.mark.parametrize(
        "argv, stdin, prefix",
        [
            (("expand", "-p", "5", "V", "1"), "", "cannot parse rational 'V'"),
            (("euclid", "-p", "5", "V", "3"), "", "cannot parse rational 'V'"),
            (("digits", "V", "-p", "5"), "", "cannot parse rational 'V'"),
            (("expand", "-p", "5", "--minpoly", "x^3-3", "--elem", "V,1"), "",
             "cannot parse rational 'V'"),
            (("expand", "-p", "5", "--minpoly", "V,0,1", "--elem", "0,1"), "",
             "bad --minpoly"),
            (("evaluate",), '{"m":1,"a":[["V"],["1"]]}', "bad MCF JSON"),
            (("check", "-p", "5"), '{"m":1,"a":[["1","V"],["1","1"]]}', "bad MCF JSON"),
        ],
        ids=["expand", "euclid", "digits", "elem", "minpoly", "evaluate", "check"],
    )
    def test_over_the_bound_is_refused(self, monkeypatch, capsys, argv, stdin, prefix,
                                       value):
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin.replace("V", value)))
        start = time.perf_counter()
        outcome = _outcome(capsys, [a.replace("V", value) for a in argv])
        assert time.perf_counter() - start < 2
        prefix = prefix.replace("V", value)
        line = f"error: {prefix}: decimal exponent of {value!r} is beyond ±4300\n"
        assert outcome == (1, "", "", line)

    @pytest.mark.parametrize("text, value", [("1e4300", F(10**4300)),
                                             ("-1e-4300", F(-1, 10**4300))])
    def test_at_the_bound_is_read(self, text, value):
        code, out = run_cli("expand", "-p", "5", "--format", "json", text, "1")
        assert (code, json.loads(out)) == (0, jp_expand((value, F(1)), 5).to_json_dict())

    def test_a_long_exponent_is_refused_by_its_length(self, capsys):
        # int's work on the exponent's digits would grow with their square
        value = "1e" + "9" * 1_000_000
        start = time.perf_counter()
        outcome = _outcome(capsys, ["expand", "-p", "5", value, "1"])
        assert time.perf_counter() - start < 2
        line = f"error: cannot parse rational {value!r}: decimal exponent of {value!r} "
        assert outcome == (1, "", "", line + "is beyond ±4300\n")


@contextlib.contextmanager
def any_length_ints():
    """Lets int and str convert ints of any length (the interpreter limits
    the digits from Python 3.10.7 on)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


class TestLongValues:
    """The CLI reads and writes values beyond the interpreter's default
    limit of 4300 digits in an int string, and leaves that limit as it was."""

    def test_round_trip(self, monkeypatch):
        with any_length_ints():
            values = [f"{7 * 11**5000}/3", f"{5 * 11**5000}/2"]  # 5207 digits over 1
        code, out = run_cli("expand", "-p", "11", "--format", "json", *values)
        assert code == 0
        result = json.loads(out)
        assert result["status"] == "finite"
        assert max(len(q) for seq in result["quotients"]["a"] for q in seq) > 4300
        quotients = json.dumps(result["quotients"])
        monkeypatch.setattr(sys, "stdin", io.StringIO(quotients))
        code, out = run_cli("evaluate", "--format", "json")
        assert (code, json.loads(out)) == (0, {"value": values})
        monkeypatch.setattr(sys, "stdin", io.StringIO(quotients))
        code, out = run_cli("check", "-p", "11", "--unit-numerators")
        assert code == 0
        assert out.startswith("conditions (strict (unit numerators)): hold\n")

    def test_evaluate_12000_rows(self, monkeypatch):
        rows = 12000
        text = json.dumps({"m": 1, "a": [["3"] * rows, ["1"] * rows]})
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out = run_cli("evaluate")
        # the continued fraction [3; 3, ..., 3]: P/Q of x_n = 3 x_(n-1) + x_(n-2)
        num, den = 1, 0
        for _ in range(rows):
            num, den = 3 * num + den, num
        with any_length_ints():
            assert (code, out) == (0, f"value: {F(num, den)}\n")
        assert len(out) > 2 * 4300

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="no limit on the digits of an int string")
    def test_the_callers_limit_is_kept(self):
        class Closed(io.StringIO):
            def write(self, text):
                raise BrokenPipeError

        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(5000)
            assert main(["digits", "-p", "5", "1/3"], out=io.StringIO()) == 0
            assert sys.get_int_max_str_digits() == 5000
            with pytest.raises(BrokenPipeError):
                main(["digits", "-p", "5", "1/3"], out=Closed())
            assert sys.get_int_max_str_digits() == 5000
        finally:
            sys.set_int_max_str_digits(limit)


def test_letter_d_after_the_point_is_a_malformed_literal(capsys):
    # Fraction's own pattern takes "1.d" on Python 3.11-3.12 and then fails in int
    line = "error: cannot parse rational '1.d': Invalid literal for Fraction: '1.d'\n"
    assert _outcome(capsys, ["expand", "-p", "5", "1.d", "1"]) == (1, "", "", line)


class TestNarrowParser:
    """One parser, built once per process, parses every call."""

    @pytest.mark.parametrize("argv", PARSER_CORPUS, ids=lambda a: " ".join(a) or "(none)")
    def test_main_matches_the_full_parser(self, monkeypatch, capsys, tmp_path, argv):
        monkeypatch.setenv("COLUMNS", "80")
        path = tmp_path / "mcf.json"
        path.write_text(TestEvaluateDigitsCheck.MCF_JSON)
        argv = [str(path) if a == "MCF" else a for a in argv]
        cli.build_parser.cache_clear()
        first = _outcome(capsys, argv)
        # a second call reuses the cached parser and says the same
        assert _outcome(capsys, argv) == first
        assert cli.build_parser.cache_info().currsize == 1

    def test_cached_parsers_keep_no_state(self, monkeypatch, capsys, tmp_path):
        path = tmp_path / "mcf.json"
        path.write_text(TestEvaluateDigitsCheck.MCF_JSON)
        cubic = ("expand", "-p", "5", "--minpoly", "x^3-3", "--max-steps", "4")
        calls = [
            ("80", (*cubic, "--elem", "0,1", "--elem", "1,1")),
            ("80", (*cubic, "--elem-expr", "x^2")),
            ("80", ("expand", "-p", "5", "--elem", "0,1")),
            ("80", ("expand", "-p")),
            ("80", ("-h",)),
            ("120", ("-h",)),
            ("80", ("expand", "-h")),
            ("120", ("expand", "-h")),
            ("80", ("check", "-p", "5", "--file", str(path))),
            ("80", ("expand", "-p", "5", "7/3", "11/20")),
            ("80", (*cubic, "--elem", "0,1", "--elem", "1,1")),
        ]

        def run(fresh):
            outcomes = []
            for columns, argv in calls:
                monkeypatch.setenv("COLUMNS", columns)
                if fresh:
                    cli.build_parser.cache_clear()
                outcomes.append(_outcome(capsys, argv))
            return outcomes

        cli.build_parser.cache_clear()
        cached = run(fresh=False)
        assert cli.build_parser.cache_info().misses == 1
        assert cached == run(fresh=True)
        assert cached[6][1] != cached[7][1]  # help is wrapped at COLUMNS

    @pytest.mark.parametrize(
        "argv", [("-h",), ("--help",), ("check", "--help"), ("expand", "-h")]
    )
    def test_help_goes_through_out(self, capsys, argv):
        code, out = run_cli(*argv)
        assert code == 0 and out.startswith("usage: padic-mcf")
        assert capsys.readouterr() == ("", "")  # nothing on the real streams

    @pytest.mark.parametrize("argv", [("--help",), ("check", "--help")])
    def test_module_help_matches_the_full_parser(self, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "padic_mcf", *argv],
            capture_output=True,
            text=True,
            cwd=PACKAGE_ROOT,
        )
        usage = " ".join(("usage: padic-mcf", *argv[:-1]))
        assert proc.returncode == 0 and proc.stdout.startswith(usage + " [-h]")
