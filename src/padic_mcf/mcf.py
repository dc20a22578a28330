"""Formal multidimensional continued fractions.

An MCF of dimension m is m+1 sequences of rational partial quotients
a_n^(1), ..., a_n^(m+1); convergents Q_n^(i) = A_n^(i)/A_n^(m+1) follow the
depth-(m+1) linear recurrence A_n^(i) = sum_j a_n^(j) A_{n-j}^(i) seeded
with Kronecker deltas.  That recurrence is run in one place, the rolling
convergent table's unreduced integer window, each column over its own
denominator and never rescaled.  It serves every quantity below: the
determinant identity read off the window (the product of the step
matrices), finite evaluation (checked against backward substitution on
integer vectors, a second route that associates the same product in the
opposite order), the recovery of a starting tuple, and the
strong-convergence quantities V_n^(i) = A_n^(i) - target_i * A_n^(m+1).
The module also checks the p-adic convergence conditions and rescales
weights (which preserves all convergents).

An MCF holds its rows in two views: Fractions, and the integer form
these readers compute on (c over ell, as clear_denominators gives it).
It is built from one view and derives the other once, when first asked.
The JSON reader produces the integer form directly: each string quotient
is read by exprparse.read_rational, the command line's one rational reader.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm, prod
from operator import mul

from .errors import (
    InsufficientPrecision,
    InternalMismatch,
    PrecisionExhausted,
    Record,
    ZeroDenominatorConvergent,
    ZeroIntermediate,
    ZeroWeight,
)
from .exprparse import read_rational
from .numberfield import _bareiss, clear_denominators
from .padic import (
    PLUS_INFINITY,
    as_value,
    is_zero,
    require_odd_prime,
    split_p,
    valuation,
)


def _fraction(x) -> Fraction:
    """x as a Fraction; a Fraction is returned as it is, not rebuilt."""
    return x if type(x) is Fraction else Fraction(x)


class MCF:
    """A finite block of partial quotients, stored as per-step rows.

    Row n is the tuple (a_n^(1), ..., a_n^(m+1)).  The first row must have
    a_0^(m+1) = 1 and no row may have a vanishing last entry.  `finite`
    records whether the block is a complete expansion (as opposed to the
    prefix of a truncated or periodic one).

    The rows have two views: `rows`, tuples of Fractions, and
    `scaled_rows`, each row as the integers c over ell that
    clear_denominators gives, on which every reader below computes.  An
    MCF is built from whichever view its source has (Fractions from the
    constructor and the expansion kernels, integers from from_json_dict)
    and derives the other once, on first use.
    """

    __slots__ = ("m", "finite", "_rows", "_scaled")

    def __init__(self, m: int, rows, finite: bool = True):
        if m < 1:
            raise ValueError("dimension must be >= 1")
        rows = tuple(tuple(map(_fraction, row)) for row in rows)
        if not rows:
            raise ValueError("need at least one row of partial quotients")
        for row in rows:
            if len(row) != m + 1:
                raise ValueError(f"rows must have {m + 1} entries")
            if row[m] == 0:
                raise ValueError("partial quotients a_n^(m+1) must be nonzero")
        if rows[0][m] != 1:
            raise ValueError("a_0^(m+1) must equal 1")
        self.m, self._rows, self._scaled, self.finite = m, rows, None, finite

    @classmethod
    def _of_valid_rows(cls, m: int, rows, finite: bool) -> "MCF":
        """An MCF of rows that already pass __init__'s checks as tuples of
        Fractions, such as an expansion kernel emits: kept as they are,
        not mapped or checked again."""
        mcf = object.__new__(cls)
        mcf.m, mcf._rows, mcf._scaled, mcf.finite = m, tuple(rows), None, finite
        return mcf

    @property
    def rows(self):
        """The rows as tuples of Fractions."""
        if self._rows is None:
            self._rows = tuple(
                tuple(Fraction(x, ell) for x in c) for c, ell in self._scaled
            )
        return self._rows

    @property
    def scaled_rows(self):
        """The rows as clear_denominators gives them: (c, ell), the row
        being c_i/ell with ell > 0 and gcd(c_1, ..., c_(m+1), ell) = 1."""
        if self._scaled is None:
            self._scaled = [clear_denominators(row) for row in self._rows]
        return self._scaled

    @classmethod
    def from_sequences(cls, seqs, finite: bool = True) -> "MCF":
        """Build from m+1 per-index sequences (the transposed layout)."""
        seqs = [list(s) for s in seqs]
        return cls(len(seqs) - 1, _transposed(seqs), finite)

    @classmethod
    def unit_from_sequences(cls, seqs, finite: bool = True) -> "MCF":
        """Build from the first m sequences, filling a_n^(m+1) = 1."""
        seqs = [list(s) for s in seqs]
        ones = [Fraction(1)] * len(seqs[0])
        return cls.from_sequences(seqs + [ones], finite)

    def __len__(self) -> int:
        return len(self._rows if self._rows is not None else self._scaled)

    @property
    def last_index(self) -> int:
        return len(self) - 1

    def sequences(self):
        return tuple(tuple(row[i] for row in self.rows) for i in range(self.m + 1))

    def is_unit(self) -> bool:
        return all(row[self.m] == 1 for row in self.rows)

    def __eq__(self, other):
        return (
            isinstance(other, MCF)
            and (self.m, self.rows, self.finite) == (other.m, other.rows, other.finite)
        )

    def __repr__(self):
        seqs = ", ".join(
            "(" + ", ".join(str(x) for x in s) + ")" for s in self.sequences()
        )
        return f"MCF[m={self.m}; {seqs}]"

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "a": [[str(x) for x in seq] for seq in self.sequences()],
            "finite": self.finite,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "MCF":
        if type(d["a"]) is not list or any(type(seq) is not list for seq in d["a"]):
            # a string would be read one character at a time
            raise ValueError("'a' must be an array of arrays")
        bad = [x for seq in d["a"] for x in seq if type(x) not in (str, int)]
        if bad:  # a JSON float would be read as its binary double, true as 1
            raise ValueError(f"quotient {bad[0]!r} is not a string or an integer")
        m = d["m"]
        if type(m) is not int:  # true and 1.0 would read as 1
            raise ValueError(f"m {m!r} is not an integer")
        seqs = [[(x, 1) if type(x) is int else read_rational(x) for x in seq]
                for seq in d["a"]]
        if len(seqs) != m + 1:
            raise ValueError("'a' must hold m+1 sequences")
        finite = d.get("finite", True)
        if type(finite) is not bool:  # the string "false" would read as true
            raise ValueError(f"finite {finite!r} is not true or false")
        # __init__'s checks, in its order, on the integer rows
        scaled = [_scaled_row(row) for row in _transposed(seqs)]
        if not scaled:
            raise ValueError("need at least one row of partial quotients")
        if any(c[m] == 0 for c, _ in scaled):
            raise ValueError("partial quotients a_n^(m+1) must be nonzero")
        if scaled[0][0][m] != scaled[0][1]:
            raise ValueError("a_0^(m+1) must equal 1")
        mcf = object.__new__(cls)
        mcf.m, mcf._rows, mcf._scaled, mcf.finite = m, None, scaled, finite
        return mcf


def _transposed(seqs):
    """The rows of m+1 per-index sequences."""
    if len(seqs) < 2:
        raise ValueError("need at least two sequences")
    if len({len(s) for s in seqs}) != 1:
        raise ValueError("sequences must share one length")
    return list(zip(*seqs))


def _scaled_row(row):
    """clear_denominators of a row of (numerator, denominator) pairs with
    positive denominators, reduced by one gcd."""
    ell = lcm(*[d for _, d in row])
    if ell == 1:
        return [n for n, _ in row], 1
    c = [n * (ell // d) for n, d in row]
    g = gcd(ell, *c)
    if g > 1:
        c = [x // g for x in c]
        ell //= g
    return c, ell


class ConvergentsTable:
    """Rolling window of the convergent numerators/denominators.

    Seeded with A_{-j}^(i) = delta_ij for j = 1..m+1; each push advances one
    index through the recurrence.  Only the last m+1 columns are kept: a
    caller that needs the whole sequence reads `column(0)` after each push,
    and the seeds as `column(-1 - n)` for n = -(m+1)..-1 before the first.
    Each column A_k is held as integers U_k = D_k*A_k over its own
    denominator D_k = ell_0*...*ell_k, where row k scaled to integers is c
    over ell_k, and is never reduced or rescaled: the new column is
    U_(n+1) = sum_j c_j*(ell_n*...*ell_(n-j+1))*U_(n-j), whose coefficients
    are products of small integers, with no lcm, gcd or Fraction.  The
    window is kept per coordinate (row i holds U_n^(i), ..., U_(n-m)^(i)),
    beside the last m+1 denominators and the last m ells.  `column`,
    `denominator` and `convergents` return Fractions.  In bits, the
    columns are within 0.05% of their reduced form on jp_expand rows and
    13-46% longer on general rows (m = 1..3, 20-300 rows, entries up to 40
    over denominators up to 60).
    """

    def __init__(self, m: int):
        if m < 1:
            raise ValueError("dimension must be >= 1")
        self.m = m
        self.n = -1
        # newest first: _window[i] = U_n^(i), ..., U_(n-m)^(i), the column
        # U_(n-j) over _dens[j]; _ells = ell_n, ..., ell_(n-m+1)
        self._window = [[int(i == j) for j in range(m + 1)] for i in range(m + 1)]
        self._dens = [1] * (m + 1)
        self._ells = [1] * m

    def column(self, back: int = 0):
        """Column A_{n-back}^(i), for back = 0..m."""
        if not 0 <= back <= self.m:
            raise IndexError(f"back must be in 0..{self.m}, got {back}")
        den = self._dens[back]
        return tuple(Fraction(w[back], den) for w in self._window)

    def push(self, row) -> None:
        """Advance by one index with the partial-quotient tuple row."""
        row = tuple(map(_fraction, row))
        if len(row) != self.m + 1:
            raise ValueError(f"need {self.m + 1} partial quotients")
        if row[self.m] == 0:
            raise ValueError("a_n^(m+1) must be nonzero")
        if self.n == -1 and row[self.m] != 1:
            raise ValueError("a_0^(m+1) must equal 1")
        self._advance(*clear_denominators(row))

    def _advance(self, c, ell: int) -> None:
        """Advance with a valid row already scaled to integers c over ell."""
        # c_j times D_n/D_(n-j) = ell_n*...*ell_(n-j+1)
        k = list(map(mul, c, accumulate(self._ells, mul, initial=1)))
        for w in self._window:
            w.insert(0, sum(map(mul, k, w)))
            w.pop()
        dens, ells = self._dens, self._ells
        dens.insert(0, ell * dens[0])
        dens.pop()
        ells.insert(0, ell)
        ells.pop()
        self.n += 1

    def _newest(self):
        """The integer column U_n, over the denominator D_n."""
        return [w[0] for w in self._window]

    def denominator(self):
        return Fraction(self._window[self.m][0], self._dens[0])

    def convergents(self):
        """Q_n^(i) for i = 1..m; raises while the denominator vanishes."""
        nums = self._newest()
        if nums[self.m] == 0:
            raise ZeroDenominatorConvergent(f"A_{self.n}^({self.m + 1}) = 0")
        return tuple(Fraction(nums[i], nums[self.m]) for i in range(self.m))

    def try_convergents(self):
        try:
            return self.convergents()
        except ZeroDenominatorConvergent:
            return None


def convergents_of(mcf: MCF):
    """All defined convergents Q_n, as a list with None at zero denominators."""
    t = ConvergentsTable(mcf.m)
    out = []
    for c, ell in mcf.scaled_rows:
        t._advance(c, ell)
        out.append(t.try_convergents())
    return out


# ---------------------------------------------------------------------------
# determinant identity
# ---------------------------------------------------------------------------


def determinant_check(mcf: MCF):
    """For every n, the exact determinant of the window A_n, ..., A_{n-m}
    and whether it matches the closed form (-1)**(m*(n+1)) * prod(a_j^(m+1)).

    Returns one (det, matches) pair per stored index.  The window is the
    transposed product B_0 ... B_n of the step matrices (first column the
    partial quotients, a shifted identity to its right), and each B_j has
    determinant (-1)**m * a_j^(m+1): expanding along its bottom row crosses
    an m-cycle permutation.  The determinant is taken of the integer
    window, each column over its own denominator, and compared with the
    closed form in integers; a matching det is the closed form itself.
    Both are read off the scaled rows, where a_j^(m+1) = c_m/ell.
    """
    m = mcf.m
    table = ConvergentsTable(m)
    closed = Fraction(1)  # the product of the a_j^(m+1), often 1 throughout
    negated = -closed
    out = []
    for n, (c, ell) in enumerate(mcf.scaled_rows):
        table._advance(c, ell)
        if c[m] != ell:
            closed *= Fraction(c[m], ell)
            negated = -closed
        expected = negated if m * (n + 1) % 2 else closed
        # Bareiss on the transposed integer window: the same determinant
        a = [list(w) for w in table._window]
        r, sign = _bareiss(a)
        num = sign * a[m][m] if r > m else 0
        den = prod(table._dens)
        if num * expected.denominator == expected.numerator * den:
            out.append((expected, True))
        else:
            out.append((Fraction(num, den), False))
    return out


# ---------------------------------------------------------------------------
# convergence conditions
# ---------------------------------------------------------------------------


class ConditionReport(Record):
    """Outcome of the partial-quotient norm conditions for n = 1..last_index.

    In the general form the requirements are |a_n^(1)| >= 1 and
    |a_n^(i)| < |a_n^(1)| for i = 2..m+1; with unit_numerators the first
    becomes strict (> 1) and the second ranges over i = 2..m only.
    """

    unit_numerators: bool
    ok: bool
    first_violation: int | None
    per_index: tuple[tuple[int, bool, bool], ...]  # (n, cond1, cond2)

    def to_json_dict(self) -> dict:
        return {
            "unit_numerators": self.unit_numerators,
            "ok": self.ok,
            "first_violation": self.first_violation,
            "per_index": [list(t) for t in self.per_index],
        }


def _int_valuation(n: int, p: int):
    """v_p(n), PLUS_INFINITY at 0."""
    return split_p(n, p)[0] if n else PLUS_INFINITY


def check_convergence_conditions(
    mcf: MCF, p: int, unit_numerators: bool = False
) -> ConditionReport:
    require_odd_prime(p)
    entries = []
    first = None
    hi = mcf.m if unit_numerators else mcf.m + 1
    for n, (c, ell) in enumerate(mcf.scaled_rows[1:], start=1):
        # v(a_n^(i)) = v(c_i) - v(ell)
        v_ell = split_p(ell, p)[0]
        v1 = _int_valuation(c[0], p) - v_ell
        cond1 = v1 < 0 if unit_numerators else v1 <= 0
        cond2 = all(_int_valuation(c[i], p) - v_ell > v1 for i in range(1, hi))
        entries.append((n, cond1, cond2))
        if first is None and not (cond1 and cond2):
            first = n
    return ConditionReport(unit_numerators, first is None, first, tuple(entries))


# ---------------------------------------------------------------------------
# rescaling
# ---------------------------------------------------------------------------


def rescale(mcf: MCF, weights) -> MCF:
    """Transform a_n^(i) -> (w_{n-i}/w_n) a_n^(i) with w_k = 1 for k < 0.

    All convergents are unchanged; the numerator/denominator columns scale
    by w_n.  Requires w_0 = 1 so the transformed quotients keep
    a_0^(m+1) = 1.
    """
    w = [Fraction(x) for x in weights]
    if len(w) < len(mcf.rows):
        raise ValueError("need one weight per stored index")
    for i, x in enumerate(w):
        if x == 0:
            raise ZeroWeight(f"w_{i} = 0")
    if w[0] != 1:
        raise ValueError("w_0 must equal 1 to preserve a_0^(m+1) = 1")

    def wat(k: int) -> Fraction:
        return w[k] if k >= 0 else Fraction(1)

    rows = [
        tuple(wat(n - (i + 1)) / w[n] * row[i] for i in range(mcf.m + 1))
        for n, row in enumerate(mcf.rows)
    ]
    return MCF(mcf.m, rows, mcf.finite)


def dehomogenize(mcf: MCF) -> MCF:
    """Rescale with w_n = a_n^(m+1) * w_{n-(m+1)} so every a_n^(m+1) becomes 1.

    Convergents are preserved; the norm conditions need not be.
    """
    w = [Fraction(1)]
    for n in range(1, len(mcf.rows)):
        w.append(mcf.rows[n][mcf.m] * (w[n - mcf.m - 1] if n > mcf.m else 1))
    out = rescale(mcf, w)
    assert out.is_unit()
    return out


# ---------------------------------------------------------------------------
# finite evaluation
# ---------------------------------------------------------------------------


def evaluate_finite(mcf: MCF):
    """Exact value (alpha_0^(1), ..., alpha_0^(m)) of a finite MCF.

    Computed twice, from the MCF's scaled rows (row n as integers c over
    ell): forward, as the final column of a ConvergentsTable
    advanced on the scaled rows, and backward through the defining
    relations with alpha_r^(i) = a_r^(i).  The two must agree exactly.  The
    routes multiply the step matrices in opposite orders, so they check
    each other.  The backward route carries y with alpha_n^(i) = y_i/d and
    y_(m+1)/d = a_n^(m+1), steps y <- (c_i*y_1 + ell*y_(i+1) for i = 1..m,
    c_(m+1)*y_1), and ends with d = y_(m+1) because a_0^(m+1) = 1.  Both
    routes apply the scaled step matrices ell_n*B_n without dividing, so
    the final integer column U_r equals y exactly; they are compared as
    integers, and the value is reduced once, at the end.
    """
    if not mcf.finite:
        raise ValueError("only finite MCFs have a value")
    m = mcf.m
    scaled = mcf.scaled_rows
    y = scaled[-1][0]
    for n in range(len(scaled) - 2, -1, -1):
        lead = y[0]
        if lead == 0:
            raise ZeroIntermediate(f"alpha_{n + 1}^(1) = 0 during backward evaluation")
        c, ell = scaled[n]
        y = [c[i] * lead + ell * y[i + 1] for i in range(m)] + [c[m] * lead]
    table = ConvergentsTable(m)
    for c, ell in scaled:  # MCF has validated the rows
        table._advance(c, ell)
    backward = tuple(Fraction(y[i], y[m]) for i in range(m))
    if table._newest() != y:
        forward = table.convergents()
        raise InternalMismatch(
            f"backward value {backward} != final convergent {forward}"
        )
    return backward


def reconstruct_initial(table: ConvergentsTable, alphas):
    """Recover the starting tuple from the complete quotients at the current
    index and the last m+1 convergent columns.

    With the table advanced through index n-1 and alphas the complete
    quotients (alpha_n^(1), ..., alpha_n^(m), alpha_n^(m+1)), returns the
    exact (alpha_0^(1), ..., alpha_0^(m)).
    """
    m = table.m
    if len(alphas) != m + 1:
        raise ValueError("need the m+1 complete quotients at the current index")
    cols = [table.column(j) for j in range(m + 1)]
    zero = alphas[0] * 0
    den = sum((a * col[m] for a, col in zip(alphas, cols)), start=zero)
    return tuple(
        sum((a * col[i] for a, col in zip(alphas, cols)), start=zero) / den
        for i in range(m)
    )


# ---------------------------------------------------------------------------
# strong convergence
# ---------------------------------------------------------------------------


class StrongConvergenceSeq(Record):
    """V_n^(i) = A_n^(i) - target_i * A_n^(m+1) for n = -m .. last index.

    `values[k]` is the tuple at index n = k - m; `valuations` carries the
    matching p-adic valuations (PLUS_INFINITY for exact zeros).
    """

    m: int
    prime: int
    values: tuple
    valuations: tuple

    def at(self, n: int):
        return self.values[n + self.m]

    def valuation_at(self, n: int):
        return self.valuations[n + self.m]

    @property
    def last_index(self) -> int:
        return len(self.values) - 1 - self.m


def strong_convergence_sequence(mcf: MCF, targets, p: int) -> StrongConvergenceSeq:
    """Strong-convergence quantities of an MCF against the given targets.

    The columns A_n for n = -(m+1) .. last index are read from a plain
    convergent table: the seeds before the first push, then `column(0)`
    after each.  Targets are Fractions, embedded algebraic or truncated
    values at p.  The linear recurrence V_n = sum_j a_n^(j) V_{n-j} is
    re-checked for every index as a self-test, from the seed
    V_{-(m+1)} = -target on.  A V_n whose norm the targets' precision
    leaves undetermined raises PrecisionExhausted.
    """
    require_odd_prime(p)
    m = mcf.m
    if len(targets) != m:
        raise ValueError("need one target per dimension")
    targets = [as_value(t, p) for t in targets]
    table = ConvergentsTable(m)
    cols = [table.column(-1 - n) for n in range(-(m + 1), 0)]
    for c, ell in mcf.scaled_rows:
        table._advance(c, ell)
        cols.append(table.column(0))
    # values[k] is V_{k-(m+1)}; a zero A^(m+1) leaves the column exact
    values = [
        tuple(col[i] if col[m] == 0 else col[i] - targets[i] * col[m] for i in range(m))
        for col in cols
    ]
    for n, row in enumerate(mcf.rows):
        for i in range(m):
            acc = sum(row[j - 1] * values[n + m + 1 - j][i] for j in range(1, m + 2))
            try:
                agrees = is_zero(acc - values[n + m + 1][i])
            except InsufficientPrecision:
                agrees = True  # indistinguishable from zero is the best check
            if not agrees:
                raise InternalMismatch(f"V recurrence failed at n={n}, i={i + 1}")
    del values[0]  # the sequence starts at n = -m
    try:
        vals = tuple(tuple(valuation(x, p) for x in row_v) for row_v in values)
    except InsufficientPrecision as exc:
        raise PrecisionExhausted(str(exc)) from None
    return StrongConvergenceSeq(m, p, tuple(values), vals)
