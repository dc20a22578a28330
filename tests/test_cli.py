"""Command-line interface: parsing, output formats, exit codes."""

import io
import json
import operator
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import padic_mcf
from padic_mcf.cli import main
from padic_mcf.exprparse import ExprError, evaluate_expression, parse_polynomial
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
            "--root",
            "largest",
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
        code, _ = run_cli(
            "expand", "-p", "5", "--backend", "approx", "--precision", "8",
            "23/5", "14/19",
        )
        assert code == 1
        assert "InsufficientPrecision" in capsys.readouterr().err

    def test_ambiguous_root_selection(self, capsys):
        code, _ = run_cli(
            "expand", "-p", "7", "--minpoly", "x^2-2", "--elem", "0,1", "1/7"
        )
        assert code == 1
        assert "AmbiguousSelection" in capsys.readouterr().err

    def test_verbose_digit_lists(self):
        code, out = run_cli("expand", "-p", "5", "23/5", "14/19", "--verbose")
        assert code == 0
        assert "digits n=0" in out

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

    def test_single_coordinate_rejected(self, capsys):
        code, _ = run_cli("euclid", "-p", "5", "7")
        assert code == 1

    def test_detect_period_is_expand_only(self, capsys):
        # euclid_expand has no period detection, so the flag is not offered
        code, out = run_cli("euclid", "-p", "5", "--detect-period", "437", "70", "95")
        assert code == 1 and out == ""
        assert "unrecognized arguments: --detect-period" in capsys.readouterr().err


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
        "command, text",
        [
            (("evaluate",), "[1,2]"),
            (("check", "-p", "5"), '{"m":"1","a":[["1","2"],["1","1"]]}'),
            (("evaluate",), '{"m":1,"a":[["1",null],["1","1"]]}'),
            (("evaluate",), '{"m":1,"a":[["1",1e400],["1","1"]]}'),
            (("evaluate",), '{"m":1,"a":[["1",0.1],["1","1"]],"finite":true}'),
            (("evaluate",), '{"m":1,"a":[["1",true],["1","1"]],"finite":true}'),
        ],
        ids=["list", "string-m", "null-quotient", "huge-float", "float-quotient",
             "bool-quotient"],
    )
    def test_wrong_shape_is_usage_error(self, monkeypatch, capsys, command, text):
        # well-formed JSON that is not an MCF: an error line, no traceback
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out = run_cli(*command)
        assert code == 1 and out == ""
        err = capsys.readouterr().err
        assert err.startswith("error: bad MCF JSON: ") and err.count("\n") == 1

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


def _readme_cli_examples():
    """(argv, stdin) for each command in the README's CLI block; an
    `echo '...' |` prefix becomes standard input."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", readme, re.S).group(1)
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
