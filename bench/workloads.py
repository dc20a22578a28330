"""Seeded request streams and output checks for the benchmark workloads.

Each workload turns a seed into an endless stream of `padic-mcf` CLI
requests.  Within one stream no input repeats.  The seed only picks values:
the shape of a draw (its prime, dimension and size) depends only on its
place in a round of ROUND_REQUESTS requests, whose sizes sweep the size
range.  A run ends on a round boundary, so every run, whatever its seed and
length, holds whole rounds of one fixed mix of shapes.  That keeps the
percentiles of two runs with different seeds close together; with fewer
shapes per round, the median would sit in a gap between two shapes.

Every request carries a check of its own.  Where the maths allows, the check
is independent of the program: the value printed for a finite rational
expansion must be the value of the printed rows and agree p-adically with
the input tuple, `euclid` must emit the rows `expand` emitted on the same
draw, `check` on an expansion must report the closed-form
determinants, and every emitted row must satisfy the digit range and the
norm conditions of a Jacobi-Perron expansion.  Nothing here imports
`padic_mcf` except the `verify` stream, which builds its input files with
the program before the requests that read them.
"""

from __future__ import annotations

import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator

PRIMES = (3, 5, 7, 11)
_PHI = (math.sqrt(5) - 1) / 2

# Sizes of the draws, as (low, high) inclusive.
RATIONAL_BITS = (100, 600)
ALGEBRAIC_STEPS = (60, 150)
APPROX_PRECISION = (200, 900)
VERIFY_ROWS = (20, 70)
# An approx run stops after precision // APPROX_STEP_DIVISOR steps.  The
# precision budget of these fields is about 0.4 to 0.65 steps per digit, so
# every run ends `truncated` with a wide margin.
APPROX_STEP_DIVISOR = 6


class CheckFailed(Exception):
    """A request's output is not what the check expects."""


@dataclass
class Request:
    """One CLI invocation, its expected exit codes and its output check.

    check(rc, stdout) returns the number of partial-quotient rows the
    request produced or checked, or raises CheckFailed.  field is
    (minpoly coefficients, p, precision) when the request builds a number
    field, else None.
    """

    argv: list
    expected_rc: tuple
    check: Callable[[int, str], int]
    field: tuple | None = None
    ends_round: bool = False


ROUND_REQUESTS = 48  # a multiple of 8: every prime with both dimensions or degrees


def spread(j: int, lo: int, hi: int) -> int:
    """Size of the j-th draw of a round: a golden-ratio sweep over [lo, hi]."""
    return lo + int((hi - lo + 1) * ((j * _PHI) % 1.0))


# ---------------------------------------------------------------------------
# independent p-adic checks
# ---------------------------------------------------------------------------


def _valuation(x: Fraction, p: int):
    if x == 0:
        return math.inf
    v, n, d = 0, x.numerator, x.denominator
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


def check_jp_rows(rows, p: int, m: int) -> None:
    """Rows of a Jacobi-Perron expansion: digits in Z[1/p] ∩ (-p/2, p/2),
    unit last entries, and for n >= 1 |a_n^(1)| > 1 and |a_n^(i)| < |a_n^(1)|."""
    for n, row in enumerate(rows):
        if len(row) != m + 1 or row[m] != 1:
            raise CheckFailed(f"row {n} is not a unit-numerator row of length {m + 1}")
        for a in row[:m]:
            d = a.denominator
            while d % p == 0:
                d //= p
            if d != 1 or 2 * abs(a) >= p:
                raise CheckFailed(f"row {n}: digit {a} outside Z[1/p] ∩ (-p/2, p/2)")
        if n >= 1:
            v1 = _valuation(row[0], p)
            if not v1 < 0 or any(_valuation(a, p) <= v1 for a in row[1:m]):
                raise CheckFailed(f"row {n} breaks the norm conditions")


def _rows_of(quotients: dict, m: int):
    if quotients.get("m") != m or len(quotients.get("a", ())) != m + 1:
        raise CheckFailed("quotients have the wrong dimension")
    seqs = [[Fraction(x) for x in seq] for seq in quotients["a"]]
    return list(zip(*seqs))


def _load_json(stdout: str) -> dict:
    try:
        return json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"output is not JSON: {exc}") from None


def _fmt(values) -> str:
    return ", ".join(str(Fraction(v)) for v in values)


def mcf_value(rows, m: int):
    """Exact value of a finite unit-numerator MCF by backward substitution."""
    alphas = list(rows[-1][:m])
    for n in range(len(rows) - 2, -1, -1):
        lead = alphas[0]
        if lead == 0:
            raise CheckFailed(f"vanishing complete quotient at step {n + 1}")
        alphas = [rows[n][i] + (alphas + [rows[n + 1][m]])[i + 1] / lead for i in range(m)]
    return tuple(alphas)


def check_value(value, inputs, rows, p: int) -> None:
    """The value of a finite expansion agrees with the inputs to at least
    S = sum over n >= 1 of -v_p(a_n^(1)) p-adic digits.

    The value is the last convergent Q_r, and x_i - Q_r^(i) = V_r^(i) / A_r^(m+1)
    with |A_r^(m+1)| = p^S and |V_r^(i)| <= 1.  The value equals the inputs
    when the run ends on complete quotients that are digits; otherwise it is
    a different tuple with the same expansion.
    """
    digits = sum(-_valuation(row[0], p) for row in rows[1:])
    for x, v in zip(inputs, value):
        if _valuation(x - v, p) < digits:
            raise CheckFailed(f"value agrees with the input to fewer than {digits} digits")


# ---------------------------------------------------------------------------
# rational: exact Fraction path, expand and euclid on the same draw
# ---------------------------------------------------------------------------


def _random_rational(rng: random.Random, bits: int) -> Fraction:
    top = 1 << (bits - 1)
    return Fraction(rng.getrandbits(bits) | top, rng.getrandbits(bits) | top)


def _lift(values):
    ell = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (ell // v.denominator) for v in values] + [ell]


def _parse_expand_text(stdout: str, m: int):
    """(steps, per-index sequences as strings, value line) of `expand` text."""
    lines = stdout.splitlines()
    if len(lines) != m + 4 or lines[0] != "status: finite":
        raise CheckFailed(f"unexpected expand output: {lines[:1]}")
    steps = int(lines[1].removeprefix("steps: "))
    seqs = []
    for i in range(m + 1):
        head = f"a({i + 1}): "
        if not lines[2 + i].startswith(head):
            raise CheckFailed(f"missing line {head!r}")
        seqs.append(lines[2 + i][len(head):].split(", "))
        if len(seqs[-1]) != steps:
            raise CheckFailed(f"a({i + 1}) has {len(seqs[-1])} entries, not {steps}")
    return steps, seqs, lines[-1]


def rational(seed: int, workdir: Path | None = None) -> Iterator[Request]:
    """m-tuples of positive rationals; `expand` (text, prints the value) and
    `euclid --format json` on the lifted integer tuple alternate."""
    rng = random.Random(f"rational-{seed}")
    seen = set()
    k = 0
    while True:
        j = k % (ROUND_REQUESTS // 2)  # two requests per draw
        p, m = PRIMES[j % 4], 2 + (j // 4) % 2
        bits = spread(j, *RATIONAL_BITS)
        values = tuple(_random_rational(rng, bits) for _ in range(m))
        if values in seen:
            continue
        seen.add(values)
        k += 1
        expanded = {}

        def check_expand(rc, stdout, p=p, m=m, values=values, expanded=expanded):
            steps, seqs, value_line = _parse_expand_text(stdout, m)
            rows = list(zip(*[[Fraction(x) for x in s] for s in seqs]))
            check_jp_rows(rows, p, m)
            value = mcf_value(rows, m)
            if value_line != "value: " + _fmt(value):
                raise CheckFailed("printed value differs from the value of the printed rows")
            check_value(value, values, rows, p)
            expanded["seqs"] = seqs
            return steps

        def check_euclid(rc, stdout, m=m, expanded=expanded):
            d = _load_json(stdout)
            if d.get("status") != "finite":
                raise CheckFailed(f"euclid status {d.get('status')!r}")
            if "seqs" not in expanded:
                raise CheckFailed("expand on the same draw gave no rows to compare")
            if d["quotients"].get("m") != m or d["quotients"].get("a") != expanded["seqs"]:
                raise CheckFailed("euclid rows differ from expand rows")
            return d["steps"]

        yield Request(["expand", "-p", str(p), *map(str, values)], (0,), check_expand)
        yield Request(
            ["euclid", "-p", str(p), "--format", "json", *map(str, _lift(values))],
            (0,),
            check_euclid,
            ends_round=j == ROUND_REQUESTS // 2 - 1,
        )


# ---------------------------------------------------------------------------
# algebraic / approx: number fields with a unique largest root in Q_p
# ---------------------------------------------------------------------------


def random_field(rng: random.Random, p: int, degree: int) -> tuple:
    """Monic f = x^d + (u/p) x^(d-1) + a_(d-2) x^(d-2) + ... + a_0.

    With u a p-unit and the a_i integers, the Newton polygon of f at p ends
    in a segment of length one and slope 1, so f has exactly one root of
    valuation -1 in Q_p and every other root is smaller.  f is irreducible
    over Q because p^d f(y/p) is Eisenstein at a prime q != p: q divides
    u and every a_i, and q^2 does not divide a_0.
    """
    q = rng.choice([q for q in (2, 3) if q != p])
    u = q * rng.choice([c for c in range(-9, 10) if c and (q * c) % p])
    a0 = q * rng.choice([c for c in range(-9, 10) if c % q])
    middle = [q * rng.randint(-9, 9) for _ in range(degree - 2)]
    return tuple(Fraction(c) for c in [a0, *middle]) + (Fraction(u, p), Fraction(1))


def _elem_args(degree: int):
    args = []
    for i in range(1, degree):
        args += ["--elem", ",".join("1" if j == i else "0" for j in range(degree))]
    return args


def _field_draws(name: str, seed: int, degree_of):
    """(place in the round, p, degree, minpoly), with no (p, minpoly) pair
    repeated."""
    rng = random.Random(f"{name}-{seed}")
    seen = set()
    k = 0
    while True:
        j = k % ROUND_REQUESTS
        p, degree = PRIMES[j % 4], degree_of(j)
        f = random_field(rng, p, degree)
        if (p, f) in seen:
            continue
        seen.add((p, f))
        yield j, p, degree, f
        k += 1


def _check_expansion_json(stdout: str, p: int, m: int, steps: int, statuses) -> int:
    d = _load_json(stdout)
    status = d.get("status")
    if status not in statuses:
        raise CheckFailed(f"status {status!r}")
    rows = _rows_of(d["quotients"], m)
    if d["steps"] != len(rows):
        raise CheckFailed("step count differs from the number of rows")
    if status == "truncated" and len(rows) != steps:
        raise CheckFailed(f"truncated after {len(rows)} steps, not {steps}")
    if status == "periodic" and d["preperiod"] + d["period"] != len(rows):
        raise CheckFailed("periodic block is not preperiod plus one period")
    check_jp_rows(rows, p, m)
    return len(rows)


def _minpoly_arg(f) -> str:
    return "--minpoly=" + ",".join(str(c) for c in f)


def algebraic(seed: int, workdir: Path | None = None) -> Iterator[Request]:
    """(theta, theta^2) for random cubics, exact numberfield backend."""
    for j, p, degree, f in _field_draws("algebraic", seed, lambda j: 3):
        steps = spread(j, *ALGEBRAIC_STEPS)

        def check(rc, stdout, p=p, steps=steps):
            statuses = {0: ("periodic",), 2: ("truncated",)}[rc]
            return _check_expansion_json(stdout, p, 2, steps, statuses)

        argv = ["expand", "-p", str(p), _minpoly_arg(f), *_elem_args(degree),
                "--detect-period", "--format", "json", "--max-steps", str(steps)]
        yield Request(argv, (0, 2), check, (f, p, 64), j == ROUND_REQUESTS - 1)


def approx(seed: int, workdir: Path | None = None) -> Iterator[Request]:
    """(theta, ..., theta^(d-1)) for random cubics and quartics, truncated
    backend, capped well below the precision budget."""
    # the first draw is a quartic, so its set-up imports sympy for the
    # irreducibility check even once cubics no longer need it
    for j, p, degree, f in _field_draws("approx", seed, lambda j: 4 - (j // 4) % 2):
        precision = spread(j, *APPROX_PRECISION)
        steps = precision // APPROX_STEP_DIVISOR

        def check(rc, stdout, p=p, m=degree - 1, steps=steps):
            return _check_expansion_json(stdout, p, m, steps, ("truncated",))

        argv = ["expand", "-p", str(p), _minpoly_arg(f), *_elem_args(degree),
                "--backend", "approx", "--precision", str(precision),
                "--max-steps", str(steps), "--format", "json"]
        yield Request(argv, (2,), check, (f, p, precision), j == ROUND_REQUESTS - 1)


# ---------------------------------------------------------------------------
# verify: the read path of mcf on finite expansions written to files
# ---------------------------------------------------------------------------

# Rows per input bit of the expansion of a rational pair, measured on these
# primes.
_ROWS_PER_BIT = 0.85


def verify(seed: int, workdir: Path) -> Iterator[Request]:
    """`check --unit-numerators` (two draws in three) or `evaluate` on MCF
    JSON files, each the finite expansion of a seeded rational pair and
    written before the request that reads it.  The two commands differ in
    cost by an order of magnitude; an uneven mix keeps the median inside
    the `check` distribution instead of in the gap between the two."""
    from padic_mcf import cli

    rng = random.Random(f"verify-{seed}")
    seen = set()
    k = 0
    while True:
        j = k % ROUND_REQUESTS
        p, m = PRIMES[j % 4], 2
        target = spread(j, *VERIFY_ROWS)
        bits = round(target / _ROWS_PER_BIT)
        values = tuple(_random_rational(rng, bits) for _ in range(m))
        if values in seen:
            continue
        buf = io.StringIO()
        if cli.main(["expand", "-p", str(p), "--format", "json", *map(str, values)], buf) != 0:
            raise RuntimeError(f"could not build a verify input from {values}")
        quotients = json.loads(buf.getvalue())["quotients"]
        rows = _rows_of(quotients, m)
        if abs(len(rows) - target) > 1:  # check costs about rows^3
            continue
        check_jp_rows(rows, p, m)
        value = mcf_value(rows, m)
        check_value(value, values, rows, p)
        seen.add(values)
        path = workdir / f"mcf-{k}.json"
        path.write_text(json.dumps(quotients), encoding="utf-8")

        if j % 3 == 0:
            expected = f"value: {_fmt(value)}\n"
            argv = ["evaluate", "--file", str(path)]
        else:
            expected = "conditions (strict (unit numerators)): hold\n" + "".join(
                f"det B_{n} = {(-1) ** (m * (n + 1))} (matches: True)\n"
                for n in range(len(rows))
            )
            argv = ["check", "-p", str(p), "--unit-numerators", "--file", str(path)]

        def check(rc, stdout, n_rows=len(rows), expected=expected):
            if stdout != expected:
                raise CheckFailed("output differs from the value or the closed-form determinants")
            return n_rows

        yield Request(argv, (0,), check, ends_round=j == ROUND_REQUESTS - 1)
        k += 1


WORKLOADS = {
    "rational": rational,
    "algebraic": algebraic,
    "approx": approx,
    "verify": verify,
}


def first_field(workload: str, seed: int):
    """The field the first request of a run builds, or None."""
    if workload not in ("algebraic", "approx"):
        return None
    return next(WORKLOADS[workload](seed)).field
