"""Polynomials and rational expressions in x, read with the stdlib `ast`.

The grammar is +, -, *, /, ^ with an integer-literal exponent (optionally
negated), unary + and -, parentheses, x and decimal integers (written in
the digits of any script); input is checked against it in full before
anything is evaluated.
"""

import ast
import operator
import re
from fractions import Fraction
from functools import reduce
from itertools import repeat

from .numberfield import _padd, _pmul, _pstrip

_CHARS = frozenset("0123456789+-*/^()x ")
_NODES = (ast.Expression, ast.BinOp, ast.UnaryOp, ast.Constant, ast.Name, ast.Load,
          ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.UAdd, ast.USub)


class ExprError(ValueError):
    """Malformed polynomial or expression input."""


def _parse(s: str):
    src = "".join(str(int(ch)) if ch.isdecimal() else ch for ch in " ".join(s.split()))
    bad = [ch for ch in src if ch not in _CHARS]
    if bad:
        raise ExprError(f"unexpected character {bad[0]!r}")
    if "**" in src:
        raise ExprError("write powers with ^, not **")
    src = re.sub(r"\b0+(?=\d)", "", src).replace("^", "**")  # "07" is no Python int
    try:
        tree = ast.parse(src, mode="eval")
    except SyntaxError as exc:
        raise ExprError(exc.msg) from None
    for node in ast.walk(tree):
        if not isinstance(node, _NODES):
            raise ExprError(f"unsupported syntax: {type(node).__name__}")
        if isinstance(node, (ast.Constant, ast.Name)):
            text = ast.get_source_segment(src, node)  # "0x10" and "x2" parse too
            if not (text.isdigit() or text == "x"):
                raise ExprError(f"not a decimal integer or x: {text}")
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            exp = node.right
            if isinstance(exp, ast.UnaryOp) and isinstance(exp.op, ast.USub):
                exp = exp.operand
            if not isinstance(exp, ast.Constant):
                raise ExprError("an exponent must be an integer literal")
    return tree.body


def _evaluate(s: str, x, const, ops):
    """s at x, literals mapped by const, arithmetic from ops; ^k multiplies."""
    def ev(node):
        if isinstance(node, ast.Constant):
            return const(node.value)
        if isinstance(node, ast.Name):
            return x
        if isinstance(node, ast.UnaryOp):
            return ops[type(node.op)](ev(node.operand))
        if isinstance(node.op, ast.Pow):
            k, base = ast.literal_eval(node.right), ev(node.left)
            acc = reduce(ops[ast.Mult], repeat(base, abs(k)), const(1))
            return ops[ast.Div](const(1), acc) if k < 0 else acc
        return ops[type(node.op)](ev(node.left), ev(node.right))
    try:
        return ev(_parse(s))
    except RecursionError:
        raise ExprError("expression nested too deeply") from None


def _pdiv(a, b):
    if len(b) != 1:
        raise ExprError("division by x is not allowed in a polynomial" if b
                        else "division by zero in polynomial input")
    return _pmul(a, (1 / b[0],))


_FIELD_OPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
              ast.Div: operator.truediv, ast.USub: operator.neg, ast.UAdd: lambda a: a}
_POLY_OPS = {ast.Add: _padd, ast.Sub: lambda a, b: _padd(a, _pmul((-1,), b)),
             ast.Mult: _pmul, ast.Div: _pdiv, ast.USub: lambda a: _pmul((-1,), a),
             ast.UAdd: lambda a: a}


def parse_polynomial(s: str) -> tuple[Fraction, ...]:
    """Little-endian coefficients from "c0,c1,...,cd" or "x^3-8/5*x^2-x-1"."""
    if "," in s:
        return tuple(Fraction(part.strip()) for part in s.split(","))
    x = (Fraction(0), Fraction(1))
    return _evaluate(s, x, lambda n: _pstrip((Fraction(n),)), _POLY_OPS)


def evaluate_expression(s: str, x):
    """Evaluate an expression in x ("1+1/x") over whatever field x lives in."""
    return _evaluate(s, x, Fraction, _FIELD_OPS)
