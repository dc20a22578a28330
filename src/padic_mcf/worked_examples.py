"""Bundled worked examples run as a self-verifying suite.

Nine expansion cases over Q_5, Q_7 and Q_11 with recorded outcomes: five
plain rational pairs/triples, one rational pair that terminates away from
its inputs, two periodic cubic pairs, and the cube-root consistency case.
Every comparison is exact.

The cube-root case records a quotient block together with its exact value
(133/48, 5/4); the block is checked to evaluate to that value and to be
reproduced by re-expanding the value (the uniqueness property), and the
embedded cube root itself is checked to terminate with Q-linearly
dependent inputs.  The raw recorded block is not the expansion of the
cube-root pair itself; expanding (cbrt(2), 5/4) gives
[(-2, 4/5, -1/5), (0, -1, 0)] with value (-19/2, 5/4), which the library's
unit tests pin down separately.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import Record
from .jacobi_perron import jp_expand, reexpand_check, verify_termination_dependence
from .mcf import MCF, evaluate_finite
from .numberfield import NumberField, PAdicEmbedding
from .exprparse import evaluate_expression, parse_polynomial


class ExampleCase(Record):
    id: str
    description: str
    kind: str  # "rational" | "periodic" | "consistency"
    params: dict


PAPER_CASES: tuple[ExampleCase, ...] = (
    ExampleCase(
        "c1-q5-pair-a",
        "Q_5 expansion of (23/5, 14/19)",
        "rational",
        {
            "p": 5,
            "inputs": ("23/5", "14/19"),
            "sequences": (("-2/5", "6/5", "6/5", "4/5"), ("1", "1", "-1", "-1")),
            "value": ("23/5", "14/19"),
        },
    ),
    ExampleCase(
        "c2-q5-pair-b",
        "Q_5 expansion of (7/3, 11/20)",
        "rational",
        {
            "p": 5,
            "inputs": ("7/3", "11/20"),
            "sequences": (("-1", "-4/5", "-3/5"), ("9/5", "-1", "0")),
            "value": ("7/3", "11/20"),
        },
    ),
    ExampleCase(
        "c3-q5-cuberoot",
        "Q_5 cube-root pair: recorded block consistency and finiteness",
        "consistency",
        {
            "p": 5,
            "minpoly": "x^3-2",
            "companion": "5/4",
            "sequences": (("1", "4/5", "12/5"), ("0", "1", "0")),
            "value": ("133/48", "5/4"),
        },
    ),
    ExampleCase(
        "c4-q5-cubic-periodic",
        "Q_5 periodic pair from x^3-8/5*x^2-x-1",
        "periodic",
        {
            "p": 5,
            "minpoly": "x^3-8/5*x^2-x-1",
            "second": "1+1/x",
            "preperiod": 0,
            "period": 1,
            "sequences": (("8/5",), ("1",)),
        },
    ),
    ExampleCase(
        "c5-q7-pair",
        "Q_7 expansion of (31/16, 123/7)",
        "rational",
        {
            "p": 7,
            "inputs": ("31/16", "123/7"),
            "sequences": (
                ("-2", "-16/7", "13/7", "17/7", "2/7"),
                ("-24/7", "-2", "2", "-2", "-1"),
            ),
            "value": ("31/16", "123/7"),
        },
    ),
    ExampleCase(
        "c6-q7-cubic-periodic",
        "Q_7 periodic pair from x^3+3/7*x^2+2*x-1",
        "periodic",
        {
            "p": 7,
            "minpoly": "x^3+3/7*x^2+2*x-1",
            "second": "-2+1/x",
            "preperiod": 0,
            "period": 1,
            "sequences": (("-3/7",), ("-2",)),
        },
    ),
    ExampleCase(
        "c7-q11-triple-a",
        "Q_11 expansion of (-5/4, 29/11, 3/4)",
        "rational",
        {
            "p": 11,
            "inputs": ("-5/4", "29/11", "3/4"),
            "sequences": (("-4", "4/11"), ("29/11", "1"), ("-2", "0")),
            "value": ("-5/4", "29/11", "3/4"),
        },
    ),
    ExampleCase(
        "c8-q11-triple-b",
        "Q_11 expansion of (-7/4, 2/5, 1/3)",
        "rational",
        {
            "p": 11,
            "inputs": ("-7/4", "2/5", "1/3"),
            "sequences": (
                ("1", "-3/11", "-5/11", "4/11"),
                ("-4", "-2", "0", "0"),
                ("4", "1", "-4", "0"),
            ),
            "value": ("-7/4", "2/5", "1/3"),
        },
    ),
    ExampleCase(
        "c9-q5-stop",
        "Q_5 pair (1+p/(p^2+1), 1-p/(p^2+1)) stopping away from its inputs",
        "rational",
        {
            "p": 5,
            "inputs": ("31/26", "21/26"),
            "sequences": (("1", "-1/5"), ("1", "-1")),
            "value": ("6", "-4"),
        },
    ),
)


def _joined(values) -> str:
    return ", ".join(map(str, values))


def _fmt_seqs(mcf: MCF) -> str:
    return "; ".join(f"({_joined(s)})" for s in mcf.sequences())


def _run_rational(params) -> tuple[bool, str]:
    p = params["p"]
    inputs = tuple(Fraction(x) for x in params["inputs"])
    expected = MCF.unit_from_sequences(params["sequences"])
    res = jp_expand(inputs, p)
    if not res.is_finite:
        return False, f"expected a finite run, got {res.status}"
    if res.mcf.rows != expected.rows:
        return False, f"quotients {_fmt_seqs(res.mcf)} != recorded {_fmt_seqs(expected)}"
    value = evaluate_finite(res.mcf)
    expected_value = tuple(Fraction(x) for x in params["value"])
    if value != expected_value:
        return False, f"value ({_joined(value)}) != recorded ({_joined(expected_value)})"
    return True, f"{len(res.mcf)} steps, value matches"


def _generator(params):
    """The generator of the case's field, embedded at the case's prime."""
    field = NumberField(parse_polynomial(params["minpoly"]))
    return PAdicEmbedding.create(field, params["p"])(field.generator())


def _run_periodic(params) -> tuple[bool, str]:
    p = params["p"]
    theta = _generator(params)
    second = evaluate_expression(params["second"], theta)
    expected = MCF.unit_from_sequences(params["sequences"])
    res = jp_expand((theta, second), p, detect_period=True)
    if res.status != "periodic":
        return False, f"expected a periodic run, got {res.status}"
    if (res.preperiod, res.period) != (params["preperiod"], params["period"]):
        return False, (
            f"(preperiod, period) = ({res.preperiod}, {res.period}) != "
            f"({params['preperiod']}, {params['period']})"
        )
    if res.mcf.rows != expected.rows:
        return False, f"quotients {_fmt_seqs(res.mcf)} != recorded {_fmt_seqs(expected)}"
    return True, f"periodic({res.preperiod}, {res.period}), quotients match"


def _run_consistency(params) -> tuple[bool, str]:
    p = params["p"]
    expected_value = tuple(Fraction(x) for x in params["value"])
    report = reexpand_check(MCF.unit_from_sequences(params["sequences"]), p)
    if report.value != expected_value:
        return False, (
            f"recorded block evaluates to ({_joined(report.value)}), "
            f"not ({_joined(expected_value)})"
        )
    if not report:
        return False, "re-expanding the recorded value does not reproduce the block"
    pair = (_generator(params), Fraction(params["companion"]))
    res = jp_expand(pair, p)
    if not res.is_finite:
        return False, f"cube-root pair did not terminate ({res.status})"
    dep = verify_termination_dependence(res, pair)
    return True, (
        f"block evaluates to ({_joined(expected_value)}) and re-expands to itself; "
        f"cube-root pair finite with dependence ({_joined(dep)})"
    )


_RUNNERS = {
    "rational": _run_rational,
    "periodic": _run_periodic,
    "consistency": _run_consistency,
}


def run_paper_examples(cases=None):
    """Execute the recorded cases; returns (all_ok, per-case result dicts).

    Results are sorted by case id and compared exactly; any mismatch names
    the offending case in its detail string.
    """
    cases = PAPER_CASES if cases is None else tuple(cases)
    results = []
    for case in sorted(cases, key=lambda c: c.id):
        try:
            ok, detail = _RUNNERS[case.kind](case.params)
        except Exception as exc:  # a crash is a failure, not a stop
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append(
            {"id": case.id, "description": case.description, "ok": ok, "detail": detail}
        )
    return all(r["ok"] for r in results), results
