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
checks that a p-adic value carries p and reads anything else as a Fraction;
this module never looks at a value's prime itself.  They run every tuple
through one loop, `_expand`, on a kernel; for an exact tuple it is the one
`_exact_run` chooses for the Euclidean (m+1)-tuple.  Every digit of a
rational run lies in Z[1/p], so rationals run on integer tuples with
p-power scaling (`_IntegerEuclid`) instead of on Fractions.  An exact tuple
with a number-field element runs projectively on integer coefficient
vectors, reading digits from their residues modulo a power of p
(`_ProjectiveEuclid`); it looks a period up by the keys of its digits
and confirms it by exact equality in the field.
Both kernels read each step's digits off unit residues through
`padic.residue_digit`, with one modular inverse per step, and form the next
tuple from the integer residue R and the k of each digit R / p**(k-1).
Each run owns a table from (R, k) to that digit, so it builds one Fraction
per distinct digit, at most rows * m of them, and its rows share them.  The
kernels report the valuation of their last coordinate, which
`euclid_expand` returns per step.  A truncated tuple runs on
`_TruncatedRun` in jp_expand and on `_ValueEuclid` in euclid_expand.
Once every coordinate is truncated, `_TruncatedRun` steps `_IntegerEuclid`
on the exact representatives and keeps each coordinate's precision in a
ledger beside it, which raises InsufficientPrecision where padic's
truncated arithmetic would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import InsufficientPrecision, VerificationFailed
from .mcf import MCF, check_convergence_conditions, evaluate_finite
from .numberfield import MAX_DOUBLINGS, clear_denominators, rational_linear_dependence
from .padic import (
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
#: The unit last entry of every emitted row, and the zero digit; Fractions
#: are immutable, so rows share them.
_UNIT = (Fraction(1),)
_ZERO = Fraction(0)


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
    alphas = _read_inputs(inputs, p, max_steps, 1, "need at least one input value")
    run = _exact_run(alphas + _UNIT, p) or _TruncatedRun(alphas, p)
    result = _expand(run, max_steps, detect_period)
    if result.status == "truncated" and isinstance(run, _TruncatedRun):
        candidate = _quotient_period_candidate(result.mcf.rows)
        result = replace(result, period_candidate=candidate)
    return result


def _read_inputs(values, p: int, max_steps: int, least: int, message: str) -> tuple:
    """The values read by padic.as_value, after the checks of both entry
    points in their order; fewer than least values raise ValueError."""
    require_odd_prime(p)
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    values = tuple(as_value(x, p) for x in values)
    if len(values) < least:
        raise ValueError(message)
    return values


def _exact_run(xs, p: int):
    """The exact kernel for the Euclidean form on the (m+1)-tuple xs: the
    integer kernel for Fractions, the projective kernel for an exact tuple
    with a field element, None for a truncated tuple."""
    if all(isinstance(x, Fraction) for x in xs):
        return _IntegerEuclid(xs, p)
    lift = integer_lift(xs)
    return None if lift is None else _ProjectiveEuclid(lift, p)


def _expand(run, max_steps: int, detect_period=False, vals=None):
    """The expansion computed by a kernel, up to max_steps rows.

    With a vals list, the kernel's valuation of the last coordinate of each
    next tuple is appended to it.  With detect_period, the kernel's
    `repeat` looks each tuple up among the earlier ones; a kernel that
    never claims a period has repeat None.  The kernel's
    InsufficientPrecision carries certified_rows, the rows emitted before
    it."""
    repeat = run.repeat if detect_period else None
    rows = []
    try:
        while True:
            n = len(rows)
            found = repeat(n) if repeat else None
            if found is not None:
                k, alphas = found
                return ExpansionResult(
                    MCF(run.m, rows, finite=False), "periodic", n, preperiod=k,
                    period=n - k, witness=(k, n), witness_state=JPState(run.p, alphas, n),
                )
            if n >= max_steps:
                return ExpansionResult(MCF(run.m, rows, finite=False), "truncated", n)
            rows.append(run.step() + _UNIT)
            if vals is not None:
                vals.append(run.valuation)
            if run.finished:
                return ExpansionResult(MCF(run.m, rows, finite=True), "finite", n + 1)
    except InsufficientPrecision as exc:
        exc.certified_rows = len(rows)
        raise


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
    above.  It runs jp_expand's loop on an exact kernel or on _ValueEuclid
    and reads the valuations off the kernel.  Its InsufficientPrecision
    carries certified_rows as jp_expand's does; it is 0 when the last
    input coordinate cannot be told from 0.
    """
    xs = _read_inputs(xs, p, max_steps, 2, "need an (m+1)-tuple with m >= 1")
    try:
        if is_zero(xs[-1]):
            raise ZeroDivisionError("last coordinate must be nonzero")
    except InsufficientPrecision as exc:
        exc.certified_rows = 0  # no row's zero test was decided
        raise
    run = _exact_run(xs, p) or _ValueEuclid(xs, p)
    vals = [run.valuation]
    result = _expand(run, max_steps, vals=vals)
    return replace(result, trace_valuations=tuple(vals))


class _TruncatedRun:
    """jp_expand's kernel for a truncated m-tuple: jp_step while a
    coordinate is exact, at most m steps, as only an exact last one leaves
    one (the first) and truncated ones move right; then, once every
    coordinate is a triple (v, u, n), an exact run with a precision ledger,
    which never finishes.  A truncated run claims no period.

    The exact run is _IntegerEuclid on the representatives u * p**v (0 for
    a zero class) and 1; next to it, `precisions` holds each coordinate's
    absolute precision n_i.  A step raises InsufficientPrecision for the
    first n_i < 1 (its digit at exponent 0 is unknown), takes the exact
    step, and reads each remainder's valuation r_i = min(v, n_i), v that
    of the exact remainder alpha^(i) - a^(i) (n_i for an exact zero).  If
    r_m >= n_m, the last remainder cannot be told from 0 and the step
    raises; else n'_1 = n_m - 2 r_m and n'_(i+1) = min(n'_1 + r_i,
    n_i - r_m).

    This emits the rows and raises the errors of jp_step's operations on
    padic's triples, the approx_* rules.  Reduction modulo p**k commutes
    with the ring operations, and the rules are sound (test_padic holds
    them to that): the rule for a - s(a) keeps a's precision, the inverse
    of a remainder at (r, n) has precision n - 2r, and a product of
    factors (va, na) and (vb, nb) has precision min(na + vb, nb + va),
    which for the inverse times remainder i are the updates above.  By
    induction over the steps, every triple is therefore the exact run's
    value reduced modulo p**n_i, and its valuation is min(v_exact, n_i),
    so the ledger's tests are the rules' tests: a zero class of precision
    n is a triple of valuation n.  The digit s(x) depends on x modulo p
    alone, so at n_i >= 1 the triple and the exact value give the same
    digit.  (The cap at n_i never changes an update: an r_i above n_i
    meets n_i - r_m in a min, and an r_m at or above n_m raises.)

    The exact run needs no precision of its own: its integers keep their
    size, and a step costs one inverse modulo a small p**k and products
    of its integers by small ones, where the rules invert and multiply at
    the full precision.
    """

    finished, repeat = False, None

    def __init__(self, alphas, p: int):
        self.p, self.m = p, len(alphas)
        self.state, self.exact = JPState(p, alphas, 0), None
        self._start_exact(alphas)

    def _start_exact(self, alphas) -> None:
        """Switches to the exact run once every coordinate is a triple."""
        triples = truncated_triples(alphas)
        if triples is not None:
            p = self.p
            reps = tuple(
                Fraction(u) * Fraction(p) ** v if u else _ZERO for v, u, _ in triples
            )
            self.exact = _IntegerEuclid(reps + _UNIT, p)
            self.precisions = [n for _, _, n in triples]

    def step(self) -> tuple:
        """The quotients of the current tuple; moves on to the next tuple."""
        if self.exact is None:
            res = jp_step(self.state)
            self.state = res.next_state
            if self.state is None:
                self.finished = True
            else:
                self._start_exact(self.state.alphas)
            return res.quotients
        ns = self.precisions
        for n in ns:
            if n < 1:
                raise InsufficientPrecision(
                    f"digit at exponent 0 unknown at precision O(p^{n})"
                )
        quotients = self.exact.step()
        rs = [  # the remainders' valuations, from the parts after the first
            n if part is None else min(part[0], n)
            for part, n in zip(self.exact.parts[1:], ns)
        ]
        if rs[-1] >= ns[-1]:
            raise InsufficientPrecision(f"cannot distinguish 0 from O(p^{ns[-1]})")
        first = ns[-1] - 2 * rs[-1]
        self.precisions = [first] + [
            min(first + r, n - rs[-1]) for r, n in zip(rs, ns[:-1])
        ]
        return quotients


class _ValueEuclid:
    """euclid_expand's kernel for a truncated (m+1)-tuple: the Euclidean
    form on values of any backend, dividing every other coordinate by the
    last with small remainder (padic_divide).  A step ends with the zero
    test of its new last coordinate, so its row counts once that test is
    decided.  A truncated run claims no period."""

    finished, repeat = False, None

    def __init__(self, xs, p: int):
        self.p, self.m, self.xs = p, len(xs) - 1, xs

    @property
    def valuation(self):  # of the last coordinate
        return valuation(self.xs[-1], self.p)

    def step(self) -> tuple:
        """The quotients of the current tuple; moves on to the next tuple."""
        last = self.xs[-1]
        quotients, rests = zip(*(padic_divide(x, last, self.p) for x in self.xs[:-1]))
        self.xs = (last,) + rests
        self.finished = is_zero(rests[-1])
        return quotients


def _digits(parts, w: int, u: int, p: int, table: dict) -> tuple:
    """(digits, residues): the Browkin digit of u_i * p**v_i / (u * p**w)
    for each part (v_i, u_i), with u and every u_i prime to p and a part
    None for an exact zero; and next to each digit its (R, k), or None
    where the digit is 0.

    With k = 1 + w - v_i >= 1 the digit is R / p**(k-1), R the symmetric
    residue of u_i / u mod p**k, which padic.residue_digit, the one digit
    map, reads off u_i * u**-1; for k < 1 it is 0.  u is inverted once,
    mod p**K for the largest k, which fixes u**-1 mod every p**k.  The
    kernels step on R and k.  table is the run's map from (R, k) to the
    digit, so a run builds one Fraction per distinct digit, at most
    rows * m of them.
    """
    low = min((part[0] for part in parts if part is not None), default=w + 1)
    inv = inverse_mod_pk(u, p, 1 + w - low) if low <= w else 0
    digits, residues = [], []
    for part in parts:
        if part is None or part[0] > w:
            digits.append(_ZERO)
            residues.append(None)
            continue
        k = 1 + w - part[0]
        key = residue_digit(part[1] * inv, p, k), k
        a = table.get(key)
        if a is None:
            a = table[key] = Fraction(key[0], p ** (k - 1))
        digits.append(a)
        residues.append(key)
    return tuple(digits), residues


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
    divides and which is formed from the integers R and k.  The part prime
    to p of every coordinate is carried through exact integer steps, so no
    gcd is taken on it, and the valuation of the last coordinate is
    v + e - v_p(scale), with v_p(scale) split once.  `digits` is the run's
    table of _digits.
    """

    repeat = None  # a rational run always terminates

    def __init__(self, xs, p: int):
        *ints, scale = lift_to_integer_tuple(xs)
        self.p, self.m, self.e = p, len(ints) - 1, 0
        self.scale_v = split_p(scale, p)[0]
        self.parts = [split_p(x, p) if x else None for x in ints]
        self.digits = {}

    @property
    def finished(self) -> bool:
        return self.parts[-1] is None

    @property
    def valuation(self):
        """The valuation of the current last coordinate; +inf once finished."""
        last = self.parts[-1]
        return math.inf if last is None else last[0] + self.e - self.scale_v

    def step(self) -> tuple:
        """The quotients of the current tuple; moves on to the next tuple."""
        p = self.p
        *parts, (w, u) = self.parts
        quotients, residues = _digits(parts, w, u, p, self.digits)
        nxt = [(0, u)]
        for part, key in zip(parts, residues):
            if key is None:
                nxt.append(None if part is None else (part[0] - w, part[1]))
                continue
            r, k = key
            y = (part[1] - r * u) // p ** (k - 1)
            nxt.append(split_p(y, p) if y else None)
        self.parts = nxt
        self.e += w
        return quotients


#: Precision of the first residues of a projective run.
_START_PRECISION = 32
#: Digits to which a period lookup compares complete quotients before it
#: compares them exactly, and the number of tuples of one digit row that
#: it compares with every later one before it files the later ones by
#: those digits.
_INDEX_DIGITS = 8
_UNINDEXED = 8


def _residues_agree(es, fs, precision: int, p: int) -> bool:
    """False when the residue tuples es and fs, both known modulo
    p**precision, certainly belong to different points: some
    e_i * f_last - f_i * e_last is not 0 mod p**precision.  Two tuples
    that are p-adic multiples of each other give 0 for every i."""
    mod = p**precision
    return not any((e * fs[-1] - f * es[-1]) % mod for e, f in zip(es[:-1], fs[:-1]))


class _ProjectiveEuclid:
    """The Euclidean form on an IntegerLift, kept projectively.

    The tuple is held as integer coefficient vectors x^(i), the true tuple
    being the vectors times a rational scale of which only the valuation
    `scale_v` is kept, and as residues E_i, known modulo p**precision, with
    p**offset * E_i = c * emb(x^(i)) for one p-adic c common to every
    coordinate.  E_i / E_(m+1) is the embedded ratio x^(i) / x^(m+1), so
    the digits are read off the residues by _digits, as in _IntegerEuclid.

    With a^(i) = R_i / p**(k_i-1), P = p**s and s = max(k_i-1), a step maps
    the tuple to P * (x^(m+1), x^(i) - a^(i) x^(m+1)), which is integral,
    alike on the vectors and on E, and is formed from the integers R_i and
    k_i; `digits` is the run's table of _digits.  Every new E_i is
    divisible by p**(s+w), w the valuation of E_(m+1), and is divided by
    it, which costs as many digits of precision.  The vectors are then
    divided by their content g: its p-part only moves the offset, and its
    unit part joins c, since a unit common to every E_i changes no ratio.
    Zero tests are on the vectors.  When a digit needs more digits than E
    carries, E is computed again from the vectors with at least twice the
    precision of the last such re-lift; a run takes at most MAX_DOUBLINGS
    re-lifts.

    A tuple's digits are read once, by its period lookup or by its step,
    whichever comes first, and the lookup reads no digit that the step
    would not.  `repeat` files each tuple under two functions of its
    complete quotients: the keys (R_i, k_i) of its digits, None for a zero
    digit, and, once its digit keys have _UNINDEXED tuples without one, its
    `_index`, which is None where the residues do not carry it.  A tuple
    is compared only with the earlier ones of its digit keys whose index
    is its own or None (every one, if its own is None), so a long run,
    whose few digit rows each hold many tuples, does not compare each
    tuple with all of them.  `_same_point` compares two tuples by
    _residues_agree on their residues to at most _INDEX_DIGITS digits,
    which equal points pass, and then by exact products in the field, the
    only test that claims a period.
    """

    def __init__(self, lift, p: int):
        self.lift, self.p = lift, p
        self.vectors, self.scale_v = lift.vectors, valuation(lift.scale, p)
        self.m = len(self.vectors) - 1
        self.offset, self.relifts = 0, 0
        self.digits = {}
        self.precision = self._lifted = _START_PRECISION
        self.residues = lift.residues(self.vectors, self.precision)
        self._row = None  # _read and _digits of the current tuple
        self._index_mod = p**_INDEX_DIGITS
        # digit keys -> {index: [(n, vectors, residues mod p**t, precision <= t)]}
        self._seen = {}

    @property
    def finished(self) -> bool:
        return not any(self.vectors[-1])

    @property
    def valuation(self):  # of the last coordinate, read in the field
        return valuation(self.lift.values(self.vectors[-1:])[0], self.p) + self.scale_v

    def _read(self):
        """(w, u, parts) with E_(m+1) = u * p**w and parts[i] = (v_i, u_i),
        E_i = u_i * p**v_i, or None where E_i is 0 mod p**precision (so that
        v_i >= precision > w and the digit is 0).  Re-lifts until every
        digit is determined."""
        p = self.p
        while True:
            need = self.precision + 1  # while E_(m+1) is 0 mod p**precision
            if self.residues[-1]:
                w, u = split_p(self.residues[-1], p)
                parts = [split_p(e, p) if e else None for e in self.residues[:-1]]
                vs = [part[0] for part in parts if part is not None]
                # u_i and u mod p**(1 + w - v_i) for each digit
                need = max([1 + 2 * w - v for v in vs if v <= w], default=0)
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

    def _digit_row(self) -> tuple:
        """(w, u, parts, digits, keys) of the current tuple, read once."""
        if self._row is None:
            w, u, parts = self._read()
            self._row = (w, u, parts, *_digits(parts, w, u, self.p, self.digits))
        return self._row

    def _index(self, w: int, u: int, parts):
        """The ratios x^(i) / x^(m+1) to t = _INDEX_DIGITS digits: for each
        i, the valuation capped at t, with the unit mod p**t below the cap;
        None unless the residues carry u and each u_i below the cap mod
        p**t."""
        t, precision = _INDEX_DIGITS, self.precision
        if precision < w + t or any(
            part and part[0] < w + t and precision < part[0] + t for part in parts
        ):
            return None
        mod = self._index_mod
        inv = inverse_mod_pk(u, self.p, t)
        return tuple(
            t if part is None or part[0] - w >= t
            else (part[0] - w, part[1] % mod * inv % mod)
            for part in parts
        )

    def repeat(self, n: int):
        """(k, complete quotients) if the current tuple, tuple n, equals an
        earlier tuple k; else None, with tuple n filed for later lookups."""
        w, u, parts, _, keys = self._digit_row()
        mod = self._index_mod
        here = (
            n, self.vectors, [e % mod for e in self.residues],
            min(self.precision, _INDEX_DIGITS),
        )
        groups = self._seen.setdefault(tuple(keys), {})
        unindexed = groups.get(None, ())
        index = self._index(w, u, parts) if len(unindexed) >= _UNINDEXED else None
        candidates = (
            groups.values() if index is None
            else (groups.get(index, ()), unindexed)
        )
        for group in candidates:
            for earlier in group:
                alphas = self._same_point(here, earlier)
                if alphas is not None:
                    return earlier[0], alphas
        groups.setdefault(index, []).append(here)
        return None

    def _same_point(self, here, earlier):
        """The complete quotients of filed tuple here if it and earlier are
        the same point, else None: _residues_agree on their residues first,
        then exact products in the field."""
        _, vectors, residues, precision = here
        _, their_vectors, their_residues, their_precision = earlier
        if not _residues_agree(
            residues, their_residues, min(precision, their_precision), self.p
        ):
            return None
        *xs, x_last = self.lift.values(their_vectors)
        *ys, y_last = self.lift.values(vectors)
        # x_i / x_last == y_i / y_last, by exact cross products
        if not all(x * y_last == y * x_last for x, y in zip(xs, ys)):
            return None
        inv = 1 / y_last
        return tuple(y * inv for y in ys)

    def step(self) -> tuple:
        """The quotients of the current tuple; moves on to the next tuple."""
        w, u, _, quotients, residues = self._digit_row()
        self._row = None
        p = self.p
        s = max((key[1] - 1 for key in residues if key is not None), default=0)
        big = p**s  # P
        coefs = [  # P * a^(i)
            0 if key is None else key[0] * p ** (s + 1 - key[1]) for key in residues
        ]
        *xs, last = self.vectors
        *es, e_last = self.residues
        vectors = [[big * c for c in last]] + [
            [big * c - a * l for c, l in zip(x, last)] for x, a in zip(xs, coefs)
        ]
        drop = s + w
        self.precision -= drop
        shift, mod = p**drop, p**self.precision
        self.residues = [u % mod] + [
            (big * e - a * e_last) // shift % mod for e, a in zip(es, coefs)
        ]
        g = math.gcd(*(c for v in vectors for c in v))
        g_v = 0
        if g > 1:
            vectors = [[c // g for c in v] for v in vectors]
            g_v = split_p(g, p)[0]
        self.vectors = vectors
        self.offset += drop - g_v
        self.scale_v += g_v - s  # the scale times g / P
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
    values.append(Fraction(1))
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


def reexpand_check(mcf: MCF, p: int) -> ReexpandReport:
    """Evaluate a finite MCF exactly and expand its value again.

    Under the uniqueness hypotheses (unit numerators, digits in
    Z[1/p] ∩ (-p/2, p/2), norm conditions from index 1 on) the re-expansion
    must reproduce the quotients exactly.  It is cut at len(mcf.rows) rows:
    a matching one ends at exactly that row, and a longer one cannot match.
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
    re = jp_expand(value, p, max_steps=len(mcf.rows))
    matches = re.is_finite and re.mcf.rows == mcf.rows
    return ReexpandReport(matches, tuple(failed), value, re)
