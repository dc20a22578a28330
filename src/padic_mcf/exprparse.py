"""Polynomials and rational expressions in x, read with the stdlib `ast`.

The grammar is +, -, *, /, ^ with an integer-literal exponent (optionally
negated), unary + and -, parentheses, x and decimal integers (written in
the digits of any script); input is checked against it in full before
anything is evaluated.  A power is multiplied out, so the absolute value
of its exponent times those of the powers around it (an exponent 0
counting as 1) may not exceed MAX_POWER.

read_rational reads every rational that the command line takes as text.
Fraction multiplies out a decimal exponent ("1e999999999" would take
hours), so an exponent beyond MAX_EXPONENT in absolute value is refused;
a longer value is written out in digits, and costs what its text costs.
Only the expression forms import `ast`; the op tables name its node types.
"""

import operator
import re
from fractions import Fraction
from functools import reduce
from itertools import repeat

from .numberfield import _padd, _pmul, _pstrip

MAX_POWER = 256
MAX_EXPONENT = 4300  # so an exponent builds at most a 14285-bit power of 10
#: what `expand --format json` writes; int reads it as Fraction(str) would
_CANONICAL = re.compile(r"(-?)(\d+)(?:/(\d+))?")
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")
_CHARS = frozenset("0123456789+-*/^()x ")
_NODES = frozenset("Expression BinOp UnaryOp Constant Name Load "
                   "Add Sub Mult Div Pow UAdd USub".split())


class ExprError(ValueError):
    """Malformed polynomial or expression input."""


def _parse(s: str):
    import ast
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
        if type(node).__name__ not in _NODES:
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
    outer = {tree.body: 1}  # product of the exponents of the powers around a node
    for node in ast.walk(tree.body):
        scale = outer[node]
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            scale *= max(abs(ast.literal_eval(node.right)), 1)
            if scale > MAX_POWER:
                raise ExprError(f"exponents multiply to more than {MAX_POWER}")
        outer.update(dict.fromkeys(ast.iter_child_nodes(node), scale))
    return tree.body


def _evaluate(s: str, x, const, ops):
    """s at x, literals mapped by const, arithmetic from ops; ^k multiplies."""
    import ast
    def ev(node):
        if isinstance(node, ast.Constant):
            return const(node.value)
        if isinstance(node, ast.Name):
            return x
        if isinstance(node, ast.UnaryOp):
            return ops[type(node.op).__name__](ev(node.operand))
        if isinstance(node.op, ast.Pow):
            k, base = ast.literal_eval(node.right), ev(node.left)
            acc = reduce(ops["Mult"], repeat(base, abs(k)), const(1))
            return ops["Div"](const(1), acc) if k < 0 else acc
        return ops[type(node.op).__name__](ev(node.left), ev(node.right))
    try:
        return ev(_parse(s))
    except RecursionError:
        raise ExprError("expression nested too deeply") from None


def _pdiv(a, b):
    if len(b) != 1:
        raise ExprError("division by x is not allowed in a polynomial" if b
                        else "division by zero in polynomial input")
    return _pmul(a, (1 / b[0],))


_FIELD_OPS = {"Add": operator.add, "Sub": operator.sub, "Mult": operator.mul,
              "Div": operator.truediv, "USub": operator.neg, "UAdd": lambda a: a}
_POLY_OPS = {"Add": _padd, "Sub": lambda a, b: _padd(a, _pmul((-1,), b)),
             "Mult": _pmul, "Div": _pdiv, "USub": lambda a: _pmul((-1,), a),
             "UAdd": lambda a: a}


def read_rational(text: str) -> tuple[int, int]:
    """(numerator, denominator > 0, not reduced) of the value Fraction(text)
    reads, with Fraction's errors; canonical text is read with int, and a
    trailing exponent beyond MAX_EXPONENT is refused before Fraction."""
    match = _CANONICAL.fullmatch(text)
    if match is None:
        exponent = _EXPONENT.search(text)
        if exponent:  # its digit count first: int's work grows with its square
            digits = exponent[1].lstrip("+-").replace("_", "").lstrip("0") or "0"
            if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
                raise ValueError(f"decimal exponent of {text!r} is beyond ±{MAX_EXPONENT}")
        if ".d" in text or ".D" in text:  # Fraction's decimal group is d* on 3.11-3.12
            raise ValueError(f"Invalid literal for Fraction: {text!r}")
        x = Fraction(text)
        return x.numerator, x.denominator
    sign, num, den = match.groups()
    num = -int(num) if sign else int(num)
    den = 1 if den is None else int(den)
    if den == 0:
        raise ZeroDivisionError(f"Fraction({num}, 0)")
    return num, den


def parse_polynomial(s: str) -> tuple[Fraction, ...]:
    """Little-endian coefficients from "c0,c1,...,cd" or "x^3-8/5*x^2-x-1"."""
    if "," in s:
        return tuple(Fraction(*read_rational(part.strip())) for part in s.split(","))
    x = (Fraction(0), Fraction(1))
    return _evaluate(s, x, lambda n: _pstrip((Fraction(n),)), _POLY_OPS)


def evaluate_expression(s: str, x):
    """Evaluate an expression in x ("1+1/x") over whatever field x lives in."""
    return _evaluate(s, x, Fraction, _FIELD_OPS)
