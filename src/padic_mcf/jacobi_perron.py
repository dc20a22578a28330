"""The p-adic Jacobi-Perron expansion and its Euclidean form.

Starting from an m-tuple of p-adic values, each step emits the Browkin
truncations of the complete quotients and inverts the last difference:

    a_n^(i) = s(alpha_n^(i))
    alpha_{n+1}^(1) = 1 / (alpha_n^(m) - a_n^(m))
    alpha_{n+1}^(i) = alpha_{n+1}^(1) * (alpha_n^(i-1) - a_n^(i-1))

The run stops exactly when alpha_n^(m) - a_n^(m) = 0.  The equivalent
generalized Euclidean form iterates on an (m+1)-tuple, dividing everything
by the last coordinate.  Rational inputs always terminate; exact algebraic
inputs can repeat a complete-quotient tuple, which is detected as
periodicity by exact equality.  Truncated p-adic inputs never claim
periodicity or termination: an undecidable zero test raises
InsufficientPrecision instead of guessing.

Every digit of a rational run lies in Z[1/p], so rational inputs to
jp_expand and euclid_expand run the Euclidean form on integer tuples with
p-power scaling (`_integer_euclid`) instead of on Fractions; the jp_step
loop serves algebraic, truncated and mixed inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import VerificationFailed
from .mcf import MCF, check_convergence_conditions, evaluate_finite
from .numberfield import rational_linear_dependence
from .padic import (
    browkin_s,
    exact_key,
    in_browkin_range,
    is_zero,
    padic_divide,
    require_odd_prime,
    split_p,
)

DEFAULT_MAX_STEPS = 10_000


@dataclass(frozen=True)
class JPState:
    """Complete quotients at one step of an expansion."""

    prime: int
    alphas: tuple
    n: int

    @property
    def m(self) -> int:
        return len(self.alphas)


@dataclass(frozen=True)
class StepResult:
    """One emitted quotient tuple; next_state is None exactly on termination."""

    quotients: tuple
    next_state: JPState | None


@dataclass(frozen=True)
class ExpansionResult:
    """Outcome of an expansion run.

    status is one of "finite", "truncated", "periodic".  For periodic runs,
    the stored MCF holds the preperiod plus one full period, witness gives
    the two step indices whose complete-quotient tuples coincided, and
    witness_state is the repeated state itself.  period_candidate is
    advisory only (truncated backends).
    """

    mcf: MCF
    status: str
    steps: int
    preperiod: int | None = None
    period: int | None = None
    witness: tuple | None = None
    witness_state: JPState | None = None
    period_candidate: tuple | None = None

    @property
    def is_finite(self) -> bool:
        return self.status == "finite"

    def to_json_dict(self) -> dict:
        return {
            "status": self.status,
            "preperiod": self.preperiod,
            "period": self.period,
            "quotients": self.mcf.to_json_dict(),
            "steps": self.steps,
        }


def _coerce_value(x, p: int):
    """Inputs that carry a prime (p-adic values) must carry p; anything
    else is read as a rational.  A field element with no embedding raises
    ValueError from its `prime`."""
    prime = getattr(x, "prime", None)
    if prime is None:
        return Fraction(x)
    if prime != p:
        raise ValueError("value carries a different prime")
    return x


def jp_step(state: JPState) -> StepResult:
    """One iteration: emit quotients, terminate or build the next state.

    Termination happens exactly when alpha_n^(m) - a_n^(m) = 0; vanishing
    differences in coordinates i < m are legal and propagate as exact
    zeros.
    """
    p = state.prime
    quotients = tuple(browkin_s(a, p) for a in state.alphas)
    last = state.alphas[-1] - quotients[-1]
    if is_zero(last):
        return StepResult(quotients, None)
    lead = 1 / last
    nxt = (lead,) + tuple(
        lead * (state.alphas[i] - quotients[i]) for i in range(state.m - 1)
    )
    return StepResult(quotients, JPState(p, nxt, state.n + 1))


def _state_key(state: JPState):
    """Exact key of the complete quotients; None on a truncated backend."""
    key = tuple(exact_key(a) for a in state.alphas)
    return None if None in key else key


def jp_expand(
    inputs,
    p: int,
    max_steps: int = DEFAULT_MAX_STEPS,
    detect_period: bool = False,
) -> ExpansionResult:
    """Run the expansion on an m-tuple of p-adic values.

    Returns a unit-numerator MCF together with the run status.  Periodicity
    is reported only for exact backends, by exact equality of complete
    quotient tuples; truncated backends may at most get an advisory
    period_candidate over the emitted quotients.
    """
    require_odd_prime(p)
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    alphas = tuple(_coerce_value(x, p) for x in inputs)
    if not alphas:
        raise ValueError("need at least one input value")
    if all(isinstance(a, Fraction) for a in alphas):
        # A rational run always terminates, so it has no period to detect.
        rows = []
        for quotients, parts, _ in _integer_euclid(lift_to_integer_tuple(alphas), p):
            rows.append(quotients + (Fraction(1),))
            if parts[-1] is None or len(rows) >= max_steps:
                break
        finite = parts[-1] is None
        return ExpansionResult(
            MCF(len(alphas), rows, finite),
            "finite" if finite else "truncated",
            len(rows),
        )
    state = JPState(p, alphas, 0)
    exact = _state_key(state) is not None
    seen = {_state_key(state): 0} if detect_period and exact else None
    rows = []
    while True:
        res = jp_step(state)
        rows.append(res.quotients + (Fraction(1),))
        if res.next_state is None:
            return ExpansionResult(
                MCF(state.m, rows, finite=True), "finite", len(rows)
            )
        state = res.next_state
        if seen is not None:
            key = _state_key(state)
            if key in seen:
                first = seen[key]
                return ExpansionResult(
                    MCF(state.m, rows, finite=False),
                    "periodic",
                    len(rows),
                    preperiod=first,
                    period=state.n - first,
                    witness=(first, state.n),
                    witness_state=state,
                )
            seen[key] = state.n
        if len(rows) >= max_steps:
            return ExpansionResult(
                MCF(state.m, rows, finite=False),
                "truncated",
                len(rows),
                period_candidate=None if exact else _quotient_period_candidate(rows),
            )


def _quotient_period_candidate(rows):
    """Smallest (preperiod, period) making the emitted rows eventually
    periodic with at least two full repetitions; advisory only."""
    n = len(rows)
    for period in range(1, n // 2 + 1):
        pre = n - period  # least index from which rows repeat with this period
        while pre > 0 and rows[pre - 1] == rows[pre - 1 + period]:
            pre -= 1
        if pre <= n - 2 * period:
            return (pre, period)
    return None


def euclid_expand(xs, p: int, max_steps: int = DEFAULT_MAX_STEPS):
    """Generalized Euclidean form on an (m+1)-tuple.

    Iterates x_{n+1}^(1) = x_n^(m+1), x_{n+1}^(i) = x_n^(i-1) -
    a_n^(i-1) x_n^(m+1) with a_n^(i) = s(x_n^(i) / x_n^(m+1)), stopping when
    the last coordinate vanishes.  Returns the expansion result plus the
    full trace of tuples; the produced MCF is identical to jp_expand on the
    coordinate ratios.  Rational tuples run on the integer kernel and
    their trace holds the same Fractions.
    """
    require_odd_prime(p)
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    xs = tuple(_coerce_value(x, p) for x in xs)
    if len(xs) < 2:
        raise ValueError("need an (m+1)-tuple with m >= 1")
    m = len(xs) - 1
    if is_zero(xs[-1]):
        raise ZeroDivisionError("last coordinate must be nonzero")
    if all(isinstance(x, Fraction) for x in xs):
        steps = _rational_euclid(xs, p)
    else:
        steps = _value_euclid(xs, p)
    trace = [xs]
    rows = []
    for quotients, nxt in steps:
        rows.append(quotients + (Fraction(1),))
        trace.append(nxt)
        if is_zero(nxt[-1]) or len(rows) >= max_steps:
            break
    status = "finite" if is_zero(trace[-1][-1]) else "truncated"
    return (
        ExpansionResult(MCF(m, rows, finite=status == "finite"), status, len(rows)),
        trace,
    )


def _value_euclid(xs, p: int):
    """Steps (quotients, next tuple) of the Euclidean form on values of any
    backend, up to the step whose last coordinate vanishes.  Each step
    divides every other coordinate by the last with small remainder."""
    while True:
        last = xs[-1]
        quotients, rests = zip(*(padic_divide(x, last, p) for x in xs[:-1]))
        xs = (last,) + rests
        yield quotients, xs
        if is_zero(xs[-1]):
            return


def _rational_euclid(xs, p: int):
    """The steps of _value_euclid on a tuple of Fractions, computed by the
    integer kernel.  Each next tuple is rebuilt as Fractions and, as in
    _value_euclid, starts with the previous tuple's last entry itself."""
    *ints, scale = lift_to_integer_tuple(xs)
    last = xs[-1]
    for quotients, parts, e in _integer_euclid(ints, p):
        nxt = (last,) + tuple(
            Fraction(0)
            if part is None
            else Fraction(part[1] * p ** (part[0] + e), scale)
            for part in parts[1:]
        )
        last = nxt[-1]
        yield quotients, nxt


def _integer_euclid(xs, p: int):
    """Steps of the Euclidean form on a tuple of integers, without fractions.

    xs holds integers with a nonzero last entry.  The tuple is kept as an
    exponent e >= 0 and parts (v, u) with v >= 0 and u prime to p, the
    value of a part being u * p**(v + e); None is an exact zero.  Each step
    yields (quotients, parts, e) for the next tuple, up to the step whose
    last coordinate vanishes.

    With x^(m+1) = u * p**w, a coordinate x^(i) = u_i * p**v_i with
    k = 1 + w - v_i >= 1 has the Browkin digit a^(i) = R / p**(k-1), R the
    symmetric residue of u_i / u mod p**k; for k < 1 the digit is 0.  The
    digit depends only on u_i and u mod p**k, so browkin_s, the one
    implementation of the digit map, is applied to those residues.
    Divided by p**w, the next tuple is integral: its first entry is u and
    (x^(i) - a^(i) x^(m+1)) / p**w = (u_i - R u) / p**(k-1), which p
    divides.  The part prime to p of every coordinate is carried through
    exact integer steps, so no gcd is taken on it.
    """
    m = len(xs) - 1
    parts = [split_p(x, p) if x else None for x in xs]
    e = 0
    while True:
        w, u = parts[m]
        quotients = []
        nxt = [(0, u)]
        for part in parts[:m]:
            if part is None or part[0] > w:
                quotients.append(Fraction(0))
                nxt.append(None if part is None else (part[0] - w, part[1]))
                continue
            mod = p ** (1 + w - part[0])  # p**k
            a = browkin_s(Fraction(part[1] % mod, u % mod * (mod // p)), p)
            quotients.append(a)
            y = (part[1] - a.numerator * u) // a.denominator  # R, p**(k-1)
            nxt.append(split_p(y, p) if y else None)
        parts = nxt
        e += w
        yield tuple(quotients), parts, e
        if parts[m] is None:
            return


def lift_to_integer_tuple(ratios):
    """Scale an m-tuple of rationals by the lcm of denominators, returning
    the (m+1)-tuple of integers whose ratios reproduce it."""
    ratios = [Fraction(x) for x in ratios]
    ell = math.lcm(*(x.denominator for x in ratios))
    return tuple(x.numerator * (ell // x.denominator) for x in ratios) + (ell,)


def verify_termination_dependence(result: ExpansionResult, inputs):
    """For a finite run on exact inputs, exhibit rationals (c_1, ..., c_{m+1})
    with c_1 alpha^(1) + ... + c_m alpha^(m) + c_{m+1} = 0.

    Such a dependence must exist whenever the run terminated; failure to
    find one is reported as VerificationFailed (a defect signal, not a
    legitimate outcome).
    """
    if not result.is_finite:
        raise ValueError("dependence is only guaranteed for finite runs")
    values = list(inputs)
    values.append(values[0] * 0 + 1)
    dep = rational_linear_dependence(values)
    if dep is None:
        raise VerificationFailed("finite run but inputs are Q-linearly independent")
    acc = None
    for c, v in zip(dep, values):
        term = c * v
        acc = term if acc is None else acc + term
    if acc != 0:
        raise VerificationFailed("dependency vector does not annihilate the inputs")
    return dep


@dataclass(frozen=True)
class ReexpandReport:
    """Whether re-expanding the value of a finite MCF reproduces it.

    failed_hypotheses lists which uniqueness hypotheses the block violates
    (digit range, norm conditions, unit numerators) whenever the quotients
    do not match.
    """

    matches: bool
    failed_hypotheses: tuple[str, ...]
    value: tuple
    reexpansion: ExpansionResult

    def __bool__(self) -> bool:
        return self.matches


def reexpand_check(mcf: MCF, p: int, max_steps: int = DEFAULT_MAX_STEPS) -> ReexpandReport:
    """Evaluate a finite MCF exactly and expand its value again.

    Under the uniqueness hypotheses (unit numerators, digits in
    Z[1/p] ∩ (-p/2, p/2), norm conditions from index 1 on) the re-expansion
    must reproduce the quotients exactly.
    """
    require_odd_prime(p)
    failed = []
    if not mcf.is_unit():
        failed.append("unit_numerators")
    for n, row in enumerate(mcf.rows):
        if not all(in_browkin_range(a, p) for a in row[: mcf.m]):
            failed.append(f"digit_range@n={n}")
            break
    rep = check_convergence_conditions(mcf, p, unit_numerators=True)
    if not rep.ok:
        failed.append(f"norm_conditions@n={rep.first_violation}")
    value = evaluate_finite(mcf)
    re = jp_expand(value, p, max_steps=max_steps)
    matches = re.is_finite and re.mcf.rows == mcf.rows
    return ReexpandReport(matches, tuple(failed), value, re)
