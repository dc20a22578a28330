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

Both entry points first read their inputs through `padic.as_value`, which
checks that a p-adic value carries p and reads anything else as a
Fraction; this module never looks at a value's prime itself.  They run an
exact tuple through one loop, `_exact_expand`, on the kernel that
`_exact_run` chooses for its Euclidean (m+1)-tuple.  Every digit of a
rational run lies in Z[1/p], so rationals run on integer tuples with
p-power scaling (`_IntegerEuclid`) instead of on Fractions.  An exact tuple
with a number-field element runs projectively on integer coefficient
vectors, reading digits from their residues modulo a power of p
(`_ProjectiveEuclid`); it confirms a period by exact equality in the field.
Both kernels read each step's digits off unit residues through
`padic.residue_digit`, with one modular inverse per step, and report the
valuation of their last coordinate, which `euclid_expand` returns per step.
A truncated jp_expand runs jp_step while a coordinate is exact, then a
loop on `padic.truncated_triples` by the approx_* rules of PAdicApprox
arithmetic (`_truncated_expand`); a truncated euclid runs `_value_euclid`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import InsufficientPrecision, VerificationFailed
from .mcf import MCF, check_convergence_conditions, evaluate_finite
from .numberfield import MAX_DOUBLINGS, clear_denominators, rational_linear_dependence
from .padic import (
    approx_digit,
    approx_inverse,
    approx_mul,
    as_value,
    browkin_s,
    in_browkin_range,
    integer_lift,
    inverse_mod_pk,
    is_zero,
    padic_divide,
    require_odd_prime,
    residue_digit,
    split_p,
    truncated_triples,
    valuation,
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
    advisory only (truncated backends).  trace_valuations (euclid_expand
    only, not in the JSON form) holds v_p(x_n^(m+1)) for n = 0..steps.
    """

    mcf: MCF
    status: str
    steps: int
    preperiod: int | None = None
    period: int | None = None
    witness: tuple | None = None
    witness_state: JPState | None = None
    period_candidate: tuple | None = None
    trace_valuations: tuple | None = None

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
    alphas = tuple(as_value(x, p) for x in inputs)
    if not alphas:
        raise ValueError("need at least one input value")
    run = _exact_run(alphas + (Fraction(1),), p)
    if run is not None:
        return _exact_expand(run, max_steps, detect_period)
    rows = []
    try:
        finite = _truncated_expand(JPState(p, alphas, 0), max_steps, rows)
    except InsufficientPrecision as exc:
        exc.certified_rows = len(rows)
        raise
    mcf = MCF(len(alphas), rows, finite=finite)
    if finite:
        return ExpansionResult(mcf, "finite", len(rows))
    candidate = _quotient_period_candidate(rows)
    return ExpansionResult(mcf, "truncated", len(rows), period_candidate=candidate)


def _truncated_expand(state: JPState, max_steps: int, rows: list) -> bool:
    """Append a truncated run's rows to rows, up to max_steps; True if it
    finishes.  jp_step runs while a coordinate is exact, at most m steps:
    only an exact last one leaves one (the first), and truncated ones move
    right.  Then jp_step's operations run on triples; that never finishes."""
    p = state.prime
    while (ts := truncated_triples(state.alphas)) is None:
        res = jp_step(state)
        rows.append(res.quotients + (Fraction(1),))
        if res.next_state is None or len(rows) >= max_steps:
            return res.next_state is None
        state = res.next_state
    while len(rows) < max_steps:
        quotients, rests = zip(*(approx_digit(p, t) for t in ts))
        lead = approx_inverse(p, rests[-1])
        ts = (lead,) + tuple(approx_mul(p, lead, t) for t in rests[:-1])
        rows.append(quotients + (Fraction(1),))
    return False


def _exact_run(xs, p: int):
    """The exact kernel for the Euclidean form on the (m+1)-tuple xs: the
    integer kernel for Fractions, the projective kernel for an exact tuple
    with a field element, None for a truncated tuple."""
    if all(isinstance(x, Fraction) for x in xs):
        return _IntegerEuclid(xs, p)
    lift = integer_lift(xs)
    return None if lift is None else _ProjectiveEuclid(lift, p)


def _exact_expand(run, max_steps: int, detect_period=False, vals=None):
    """The expansion computed by an exact kernel, up to max_steps rows.

    With a vals list, the kernel's valuation of the last coordinate of each
    next tuple is appended to it.  Equal complete quotients give equal
    fingerprints, so each tuple is compared exactly only with the earlier
    tuples that share its fingerprint; a kernel whose runs always
    terminate has none."""
    seen = {} if detect_period else None  # fingerprint -> [(n, vectors)]
    rows = []
    while True:
        n = len(rows)
        if seen is not None and (key := run.fingerprint()) is not None:
            for k, vectors in seen.get(key, ()):
                *xs, x_last = run.lift.values(vectors)
                *ys, y_last = run.lift.values(run.vectors)
                # x_i / x_last == y_i / y_last, by exact cross products
                if all(x * y_last == y * x_last for x, y in zip(xs, ys)):
                    inv = 1 / y_last
                    return ExpansionResult(
                        MCF(run.m, rows, finite=False),
                        "periodic",
                        n,
                        preperiod=k,
                        period=n - k,
                        witness=(k, n),
                        witness_state=JPState(
                            run.p, tuple(y * inv for y in ys), n
                        ),
                    )
            seen.setdefault(key, []).append((n, run.vectors))
        if n >= max_steps:
            return ExpansionResult(MCF(run.m, rows, finite=False), "truncated", n)
        rows.append(run.step() + (Fraction(1),))
        if vals is not None:
            vals.append(run.valuation)
        if run.finished:
            return ExpansionResult(MCF(run.m, rows, finite=True), "finite", n + 1)


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
    the last coordinate vanishes.  Returns the expansion result, whose MCF
    is identical to jp_expand on the coordinate ratios and whose
    trace_valuations are v_p(x_n^(m+1)) for n = 0..steps.  The tuples
    x_n themselves follow from the inputs and the rows by the recurrence
    above.  An exact tuple runs on the kernel and loop of jp_expand, which
    reads the valuations off the kernel; a truncated tuple runs
    _value_euclid, and its InsufficientPrecision carries certified_rows as
    jp_expand's does: the rows whose zero test was decided.
    """
    require_odd_prime(p)
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    xs = tuple(as_value(x, p) for x in xs)
    if len(xs) < 2:
        raise ValueError("need an (m+1)-tuple with m >= 1")
    if is_zero(xs[-1]):
        raise ZeroDivisionError("last coordinate must be nonzero")
    run = _exact_run(xs, p)
    if run is not None:
        vals = [run.valuation]
        result = _exact_expand(run, max_steps, vals=vals)
        return replace(result, trace_valuations=tuple(vals))
    rows, lasts = [], [xs[-1]]
    try:
        for quotients, nxt in _value_euclid(xs, p):
            finite = is_zero(nxt[-1])  # a row counts once this is decided
            rows.append(quotients + (Fraction(1),))
            lasts.append(nxt[-1])
            if finite or len(rows) >= max_steps:
                break
    except InsufficientPrecision as exc:
        exc.certified_rows = len(rows)
        raise
    status = "finite" if finite else "truncated"
    vals = tuple(valuation(x, p) for x in lasts)
    mcf = MCF(len(xs) - 1, rows, finite)
    return ExpansionResult(mcf, status, len(rows), trace_valuations=vals)


def _value_euclid(xs, p: int):
    """Steps (quotients, next tuple) of the Euclidean form on values of any
    backend, up to the step whose last coordinate vanishes.  Each step
    divides every other coordinate by the last with small remainder.
    euclid_expand runs it on truncated tuples only."""
    while True:
        last = xs[-1]
        quotients, rests = zip(*(padic_divide(x, last, p) for x in xs[:-1]))
        xs = (last,) + rests
        yield quotients, xs
        if is_zero(xs[-1]):
            return


def _digits(parts, w: int, u: int, p: int) -> tuple:
    """The Browkin digit of u_i * p**v_i / (u * p**w) for each part
    (v_i, u_i), with u and every u_i prime to p; None is an exact zero.

    With k = 1 + w - v_i >= 1 the digit is R / p**(k-1), R the symmetric
    residue of u_i / u mod p**k, which padic.residue_digit, the one digit
    map, reads off u_i * u**-1; for k < 1 it is 0.  u is inverted once,
    mod p**K for the largest k, which fixes u**-1 mod every p**k.
    """
    low = min((part[0] for part in parts if part is not None), default=w + 1)
    inv = inverse_mod_pk(u, p, 1 + w - low) if low <= w else 0
    return tuple(
        Fraction(0) if part is None or part[0] > w
        else residue_digit(part[1] * inv, p, 1 + w - part[0])
        for part in parts
    )


class _IntegerEuclid:
    """The Euclidean form on a tuple of Fractions, run on integers without
    fractions.

    The tuple, scaled to integers x^(i) over a common denominator `scale`
    by lift_to_integer_tuple, has a nonzero last entry.  It is kept as an
    exponent e >= 0 and parts (v, u) with v >= 0 and u prime to p, the
    value of a part being u * p**(v + e) / scale; None is an exact zero.

    With x^(m+1) = u * p**w, a coordinate x^(i) = u_i * p**v_i has the
    digit a^(i) = R / p**(k-1) of _digits when k = 1 + w - v_i >= 1.
    Divided by p**w, the next tuple is integral: its first entry is u and
    (x^(i) - a^(i) x^(m+1)) / p**w = (u_i - R u) / p**(k-1), which p
    divides.  The part prime to p of every coordinate is carried through
    exact integer steps, so no gcd is taken on it, and the valuation of
    the last coordinate is v + e - v_p(scale), with v_p(scale) split once.
    """

    def __init__(self, xs, p: int):
        *ints, scale = lift_to_integer_tuple(xs)
        self.p, self.m, self.e = p, len(ints) - 1, 0
        self.scale_v = split_p(scale, p)[0]
        self.parts = [split_p(x, p) if x else None for x in ints]

    @property
    def finished(self) -> bool:
        return self.parts[-1] is None

    @property
    def valuation(self):
        """The valuation of the current last coordinate; +inf once finished."""
        last = self.parts[-1]
        return math.inf if last is None else last[0] + self.e - self.scale_v

    def fingerprint(self) -> None:
        """None: a rational run always terminates."""
        return None

    def step(self) -> tuple:
        """The quotients of the current tuple; moves on to the next tuple."""
        p = self.p
        *parts, (w, u) = self.parts
        quotients = _digits(parts, w, u, p)
        nxt = [(0, u)]
        for part, a in zip(parts, quotients):
            if not a:
                nxt.append(None if part is None else (part[0] - w, part[1]))
                continue
            y = (part[1] - a.numerator * u) // a.denominator  # R, p**(k-1)
            nxt.append(split_p(y, p) if y else None)
        self.parts = nxt
        self.e += w
        return quotients


#: Digits of the unit of each ratio x^(i) / x^(m+1) that a period
#: fingerprint records, and the cap on the valuation it records.
_FINGERPRINT_DIGITS = 24
#: Precision of the first residues of a projective run.
_START_PRECISION = 32


class _ProjectiveEuclid:
    """The Euclidean form on an IntegerLift, kept projectively.

    The tuple is held as integer coefficient vectors x^(i), the true tuple
    being the vectors times `scale`, and as residues E_i, known modulo
    p**precision, with p**offset * E_i = c * emb(x^(i)) for one p-adic c
    common to every coordinate.  E_i / E_(m+1) is the embedded ratio
    x^(i) / x^(m+1), so the digits are read off the residues by _digits, as
    in _IntegerEuclid.

    With a^(i) = R_i / p**(k_i-1), P = p**s and s = max(k_i-1), a step maps
    the tuple to P * (x^(m+1), x^(i) - a^(i) x^(m+1)), which is integral,
    alike on the vectors and on E.  Every new E_i is divisible by p**(s+w),
    w the valuation of E_(m+1), and is divided by it, which costs as many
    digits of precision.  The vectors are then divided by their content g:
    its p-part only moves the offset, and its unit part joins c, since a
    unit common to every E_i changes no ratio.  Zero tests are on the
    vectors.  When a digit or a fingerprint needs more digits than E
    carries, E is computed again from the vectors with at least twice the
    precision of the last such re-lift; a run takes at most MAX_DOUBLINGS
    re-lifts.
    """

    def __init__(self, lift, p: int):
        self.lift, self.p = lift, p
        self.vectors, self.scale = lift.vectors, lift.scale
        self.m = len(self.vectors) - 1
        self.offset, self.relifts = 0, 0
        self.precision = self._lifted = _START_PRECISION
        self.residues = lift.residues(self.vectors, self.precision)
        self._read_state = None  # _read(keyed=True) of the current tuple

    @property
    def finished(self) -> bool:
        return not any(self.vectors[-1])

    @property
    def valuation(self):  # of the last coordinate, read in the field
        return valuation(self.lift.values(self.vectors[-1:], self.scale)[0], self.p)

    def _read(self, keyed: bool):
        """(w, u, parts) with E_(m+1) = u * p**w and parts[i] = (v_i, u_i),
        E_i = u_i * p**v_i, or None where E_i is 0 mod p**precision (so that
        v_i >= precision > w and the digit is 0).  Re-lifts until every
        digit and, if keyed, the fingerprint is determined."""
        p, t = self.p, _FINGERPRINT_DIGITS
        while True:
            need = self.precision + 1  # while E_(m+1) is 0 mod p**precision
            if self.residues[-1]:
                w, u = split_p(self.residues[-1], p)
                parts = [split_p(e, p) if e else None for e in self.residues[:-1]]
                vs = [part[0] for part in parts if part is not None]
                # u_i and u mod p**(1 + w - v_i) for each digit
                need = max([1 + 2 * w - v for v in vs if v <= w], default=0)
                if keyed:  # the cap test and the units mod p**t
                    need = max(need, w + t, *(v + t for v in vs if v < w + t))
                if need <= self.precision:
                    return w, u, parts
            if self.relifts == MAX_DOUBLINGS:
                raise InsufficientPrecision(
                    f"expansion needs more than {MAX_DOUBLINGS} re-lifts"
                )
            self.relifts += 1
            self.precision = self._lifted = max(2 * self._lifted, need)
            shift = p**self.offset
            self.residues = [
                r // shift
                for r in self.lift.residues(self.vectors, self.offset + self.precision)
            ]

    def fingerprint(self) -> tuple:
        """A function of the complete quotients x^(i) / x^(m+1) alone: for
        each i, None for an exact zero, else the valuation of the ratio
        capped at t, with its unit mod p**t below the cap."""
        w, u, parts = self._read_state = self._read(keyed=True)
        t = _FINGERPRINT_DIGITS
        mod = self.p**t
        inv = inverse_mod_pk(u, self.p, t)
        return tuple(
            None if not any(vec)
            else t if part is None or part[0] - w >= t
            else (part[0] - w, part[1] * inv % mod)
            for vec, part in zip(self.vectors, parts)
        )

    def step(self) -> tuple:
        """The quotients of the current tuple; moves on to the next tuple."""
        w, u, parts = self._read_state or self._read(keyed=False)
        self._read_state = None
        p = self.p
        quotients = _digits(parts, w, u, p)
        big = max(a.denominator for a in quotients)  # P
        coefs = [a.numerator * (big // a.denominator) for a in quotients]  # P * a^(i)
        *xs, last = self.vectors
        *es, e_last = self.residues
        vectors = [[big * c for c in last]] + [
            [big * c - a * l for c, l in zip(x, last)] for x, a in zip(xs, coefs)
        ]
        drop = split_p(big, p)[0] + w  # s + w
        self.precision -= drop
        shift, mod = p**drop, p**self.precision
        self.residues = [u % mod] + [
            (big * e - a * e_last) // shift % mod for e, a in zip(es, coefs)
        ]
        g = math.gcd(*(c for v in vectors for c in v))
        if g > 1:
            vectors = [[c // g for c in v] for v in vectors]
            drop -= split_p(g, p)[0]
        self.vectors = vectors
        self.offset += drop
        self.scale *= Fraction(g, big)
        return quotients


def lift_to_integer_tuple(ratios):
    """Scale an m-tuple of rationals by the lcm of denominators, returning
    the (m+1)-tuple of integers whose ratios reproduce it."""
    ints, ell = clear_denominators([Fraction(x) for x in ratios])
    return (*ints, ell)


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
    if sum(c * v for c, v in zip(dep, values)) != 0:
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
