"""Exact p-adic primitives over the rationals.

Valuations, balanced digit expansions (digits in the open interval
(-p/2, p/2)), the Browkin digit-truncation map that plays the role of the
floor function, division with p-adically small remainder, and truncated
p-adic numbers with explicit precision tracking.

Throughout, p is an odd prime and exact rational arithmetic uses
fractions.Fraction; `split_p`, the p-part of an integer in O(log v)
divisions, also serves the integer kernel of jacobi_perron, and
`inverse_mod_pk`, a Newton-lifted inverse modulo p**k, is the one modular
inverse of the package.  Norm comparisons are always valuation comparisons;
no floating point is involved anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import InsufficientPrecision, PrecisionExhausted

#: Valuation of zero.  math.inf interacts correctly with min/+/comparisons,
#: so ultrametric identities hold literally in tests.
PLUS_INFINITY = math.inf


@lru_cache(maxsize=None)
def is_odd_prime(p: int) -> bool:
    """Deterministic Miller-Rabin, restricted to odd primes (p != 2)."""
    if not isinstance(p, int) or p < 3 or p % 2 == 0:
        return False
    d, r = p - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    # These witnesses decide primality for every p < 3.3 * 10^24.
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if a % p == 0:
            continue
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def require_odd_prime(p: int) -> int:
    if not is_odd_prime(p):
        raise ValueError(f"p must be an odd prime, got {p!r}")
    return p


def valuation(x, p: int):
    """p-adic valuation of a value of any backend; PLUS_INFINITY exactly at 0.

    The p-adic norm is |x| = p**(-valuation(x, p)).  A PAdicApprox that is
    0 at its precision raises InsufficientPrecision; an exact algebraic
    value answers through its embedding.
    """
    require_odd_prime(p)
    if not isinstance(x, (int, Fraction)):
        if isinstance(x, PAdicApprox):
            return x.valuation
        return x.valuation()
    if x == 0:
        return PLUS_INFINITY
    return split_p(x.numerator, p)[0] - split_p(x.denominator, p)[0]


def split_p(n: int, q: int) -> tuple[int, int]:
    """(v, u) with n == u * q**v and q not dividing u, for a nonzero integer n.

    v_q(n) = 2 v_{q*q}(n) + (0 or 1): splitting off the q*q-part first and
    then at most one more q takes O(log v) divisions instead of v.
    """
    if n % q:
        return 0, n
    if n == 0:
        raise ValueError("0 has no p-part")  # q would be squared forever
    w, u = split_p(n, q * q)
    d, r = divmod(u, q)
    return (2 * w + 1, d) if r == 0 else (2 * w, u)


@lru_cache(maxsize=1024)
def _power(p: int, e: int) -> int:
    """p**e, from a bounded table: the truncated backend reads the same few
    moduli over and over."""
    return p**e


def inverse_mod_pk(a: int, p: int, k: int) -> int:
    """The inverse of an integer a prime to p modulo p**k, for k >= 1.

    From the inverse y mod p, Newton's step y <- y*(2 - a*y) turns an
    inverse mod p**e into one mod p**(2e), so lifting along the halving
    chain of k takes O(log k) products instead of one extended gcd on
    numbers of k digits (von zur Gathen & Gerhard, Modern Computer Algebra,
    ch. 9).  Every modular inverse of the package goes through here.
    """
    chain = []  # k, ceil(k/2), ceil(k/4), ... above 1
    while k > 1:
        chain.append(k)
        k = (k + 1) // 2
    y = pow(a % p, -1, p)
    for e in reversed(chain):
        mod = _power(p, e)
        y = y * (2 - a % mod * y) % mod
    return y


def is_zero(x) -> bool:
    """Exact zero test.  A PAdicApprox with no known digit cannot be told
    from 0 and raises InsufficientPrecision instead of guessing."""
    if isinstance(x, (int, Fraction)):
        return x == 0
    if isinstance(x, PAdicApprox):
        if x.is_zero_at_precision():
            raise InsufficientPrecision(
                f"cannot distinguish 0 from O(p^{x.precision})"
            )
        return False
    return x.is_zero()


def to_approx(x, p: int, precision: int) -> "PAdicApprox":
    """x truncated modulo p**precision; a PAdicApprox passes through."""
    if isinstance(x, (int, Fraction)):
        return PAdicApprox.from_rational(x, p, precision)
    if isinstance(x, PAdicApprox):
        return x
    return x.to_approx(precision)


def integer_lift(values):
    """The exact tuple `values` as integer coefficient vectors over the
    number field of its field elements (a numberfield.IntegerLift); None
    when a value is a truncated PAdicApprox or every value is rational."""
    if any(isinstance(x, PAdicApprox) for x in values):
        return None
    for x in values:
        if not isinstance(x, (int, Fraction)):
            return x.integer_lift(values)
    return None


def _exact(x):
    """An int or Fraction as it is; anything else read as a Fraction."""
    return x if isinstance(x, (int, Fraction)) else Fraction(x)


def _balanced_residue(r: int, p: int) -> int:
    """Map a residue mod p into the open interval (-p/2, p/2)."""
    r %= p
    return r - p if r > (p - 1) // 2 else r


@dataclass(frozen=True)
class BalancedDigits:
    """Digits x_j of sum(x_j * p**j, j = start, start+1, ...), each in (-p/2, p/2).

    The empty sequence represents zero; otherwise the leading digit is
    nonzero.
    """

    start: int
    digits: tuple[int, ...]

    def value(self, p: int) -> Fraction:
        acc = 0
        for d in reversed(self.digits):
            acc = acc * p + d
        if self.start >= 0:
            return Fraction(acc * _power(p, self.start))
        return Fraction(acc, _power(p, -self.start))

    def to_json_dict(self) -> dict:
        return {"k": self.start, "digits": list(self.digits)}


def balanced_digit_expansion(x, p: int, upto: int) -> BalancedDigits:
    """Balanced digits of a rational x at exponents valuation(x) .. upto-1.

    The digits satisfy x == sum(x_j p^j) modulo p**upto.  Zero yields the
    empty sequence.  Requires upto > valuation(x) for nonzero x.
    """
    require_odd_prime(p)
    x = Fraction(x)
    if x == 0:
        return BalancedDigits(0, ())
    v = valuation(x, p)
    if upto <= v:
        raise ValueError(f"upto={upto} must exceed valuation {v}")
    return PAdicApprox.from_rational(x, p, upto).digits


def in_browkin_range(x, p: int) -> bool:
    """Whether x lies in Z[1/p] intersected with the open interval (-p/2, p/2)."""
    x = Fraction(x)
    d = x.denominator
    while d % p == 0:
        d //= p
    return d == 1 and 2 * abs(x) < p


def browkin_s(x, p: int) -> Fraction:
    """Browkin digit truncation: the sum of balanced digits at exponents <= 0.

    Maps a value of any backend onto Z[1/p] intersected with (-p/2, p/2);
    returns 0 when the valuation is positive.  A PAdicApprox needs
    precision >= 1; an exact algebraic value is embedded at precision 1,
    which fixes every digit through exponent 0.
    """
    require_odd_prime(p)
    if isinstance(x, (int, Fraction)):
        if x == 0:
            return Fraction(0)
        vn, un = split_p(x.numerator, p)
        vd, ud = split_p(x.denominator, p)
        k = 1 - vn + vd  # the number of digits at exponents v .. 0
        if k < 1:
            return Fraction(0)
        # For odd p, the residues of the unit mod p**k in (-p**k/2, p**k/2)
        # are exactly the values of k balanced digits.
        mod = _power(p, k)
        r = un % mod * inverse_mod_pk(ud, p, k) % mod
        return Fraction(r - mod if 2 * r > mod else r, mod // p)
    if not isinstance(x, PAdicApprox):
        if x.is_zero():
            return Fraction(0)
        x = x.to_approx(1)
    if x.prime != p:
        raise ValueError("prime mismatch")
    if x.precision < 1:
        raise InsufficientPrecision(
            f"digit at exponent 0 unknown at precision O(p^{x.precision})"
        )
    if x.is_zero_at_precision() or x.val > 0:
        return Fraction(0)
    return x.with_precision(1).digits.value(p)


def padic_divide(sigma, tau, p: int):
    """Division sigma = q*tau + eta with |eta| < |tau|.

    The quotient q = browkin_s(sigma/tau) is the unique element of Z[1/p]
    with Euclidean absolute value below p/2 satisfying the norm bound.  A
    divisor that is zero, or that cannot be told from zero, raises
    ZeroDivisionError.
    """
    require_odd_prime(p)
    q = browkin_s(sigma / tau, p)
    eta = sigma - q * tau
    return q, eta


class PAdicApprox:
    """A truncated p-adic number p**val * unit, known modulo p**precision.

    Invariants: either unit == 0 and val == precision (the value is
    indistinguishable from zero at this precision), or 0 < unit <
    p**(precision - val) with p not dividing unit.  Instances are immutable
    values; arithmetic propagates precision conservatively and never reports
    digits beyond what the operands support.  Exact int/Fraction operands mix
    freely and only shift precision through valuation bookkeeping.
    """

    __slots__ = ("prime", "val", "unit", "precision")

    def __init__(self, prime: int, val: int, unit: int, precision: int):
        require_odd_prime(prime)
        if precision > val:
            unit %= _power(prime, precision - val)
        else:
            unit = 0
        if unit:
            v, unit = split_p(unit, prime)
            val += v
        if unit == 0 or val >= precision:
            unit, val = 0, precision
        object.__setattr__(self, "prime", prime)
        object.__setattr__(self, "val", val)
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "precision", precision)

    def __setattr__(self, *a):  # immutable value
        raise AttributeError("PAdicApprox is immutable")

    @classmethod
    def from_rational(cls, x, p: int, precision: int) -> "PAdicApprox":
        x = _exact(x)
        if x == 0:
            return cls(p, precision, 0, precision)
        vn, un = split_p(x.numerator, p)
        vd, ud = split_p(x.denominator, p)
        v = vn - vd
        if v >= precision:
            return cls(p, precision, 0, precision)
        k = precision - v
        u = un if ud == 1 else un * inverse_mod_pk(ud, p, k)
        return cls(p, v, u, precision)

    @classmethod
    def zero_at(cls, p: int, precision: int) -> "PAdicApprox":
        """The class of values congruent to 0 modulo p**precision."""
        return cls(p, precision, 0, precision)

    # -- queries ---------------------------------------------------------

    def is_zero_at_precision(self) -> bool:
        return self.unit == 0

    @property
    def valuation(self) -> int:
        if self.unit == 0:
            raise InsufficientPrecision(
                f"value is 0 mod p^{self.precision}; valuation undetermined"
            )
        return self.val

    @property
    def digits(self) -> BalancedDigits:
        if self.unit == 0:
            return BalancedDigits(self.precision, ())
        r = self.unit
        out = []
        for _ in range(self.precision - self.val):
            d = _balanced_residue(r, self.prime)
            out.append(d)
            r = (r - d) // self.prime
        return BalancedDigits(self.val, tuple(out))

    def rational_view(self) -> Fraction:
        """The canonical rational carrying the same digits."""
        return self.digits.value(self.prime)

    def with_precision(self, precision: int) -> "PAdicApprox":
        """Forget digits beyond the given (smaller or equal) precision."""
        if precision > self.precision:
            raise InsufficientPrecision(
                f"cannot raise precision {self.precision} to {precision}"
            )
        return PAdicApprox(self.prime, self.val, self.unit, precision)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PAdicApprox)
            and (self.prime, self.val, self.unit, self.precision)
            == (other.prime, other.val, other.unit, other.precision)
        )

    def __hash__(self):
        return hash((self.prime, self.val, self.unit, self.precision))

    def __repr__(self):
        if self.unit == 0:
            return f"O({self.prime}^{self.precision})"
        terms = []
        for j, d in enumerate(self.digits.digits):
            if d == 0:
                continue
            e = self.val + j
            terms.append(f"{d}" if e == 0 else f"{d}*{self.prime}^{e}")
        terms.append(f"O({self.prime}^{self.precision})")
        return " + ".join(terms)

    # -- arithmetic ------------------------------------------------------

    def _rel(self) -> int:
        return self.precision - self.val

    def _check_prime(self, other: "PAdicApprox"):
        if self.prime != other.prime:
            raise ValueError("prime mismatch")

    def _lift_exact(self, q: Fraction) -> "PAdicApprox":
        """Lift a nonzero exact rational with enough relative precision that
        it never becomes the precision bottleneck in mul/div."""
        v = valuation(q, self.prime)
        return PAdicApprox.from_rational(q, self.prime, v + max(self._rel(), 1))

    def __add__(self, other):
        if not isinstance(other, PAdicApprox):
            q = _exact(other)
            if q == 0:
                return self
            other = PAdicApprox.from_rational(q, self.prime, self.precision)
        self._check_prime(other)
        n = min(self.precision, other.precision)
        base = min(self.val, other.val)
        span = n - base
        if span <= 0:
            # both contributions vanish modulo p**n
            return PAdicApprox.zero_at(self.prime, n)
        s = (
            self.unit * self.prime ** (self.val - base)
            + other.unit * self.prime ** (other.val - base)
        ) % self.prime**span
        return PAdicApprox(self.prime, base, s, n)

    __radd__ = __add__

    def __neg__(self):
        if self.unit == 0:
            return self
        mod = self.prime ** (self.precision - self.val)
        return PAdicApprox(self.prime, self.val, (-self.unit) % mod, self.precision)

    def __sub__(self, other):
        if isinstance(other, PAdicApprox):
            return self + (-other)
        return self + (-_exact(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, PAdicApprox):
            q = _exact(other)
            if q == 0:
                # exact zero: correct at every precision; keep this one's
                return PAdicApprox.zero_at(self.prime, self.precision)
            other = self._lift_exact(q)
        self._check_prime(other)
        n = min(self.precision + other.val, other.precision + self.val)
        if self.unit == 0 or other.unit == 0:
            return PAdicApprox.zero_at(self.prime, n)
        v = self.val + other.val
        span = n - v
        if span <= 0:
            raise PrecisionExhausted("product carries no known digits")
        u = self.unit * other.unit % self.prime**span
        return PAdicApprox(self.prime, v, u, n)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, PAdicApprox):
            q = _exact(other)
            if q == 0:
                raise ZeroDivisionError("division by exact zero")
            other = self._lift_exact(q)
        self._check_prime(other)
        if other.unit == 0:
            raise ZeroDivisionError(
                f"divisor indistinguishable from zero at O(p^{other.precision})"
            )
        if self.unit == 0:
            n = self.precision - other.val
            if n <= 0:
                # weaker than O(p^0): the result would say nothing at all
                raise PrecisionExhausted("quotient carries no known digits")
            return PAdicApprox.zero_at(self.prime, n)
        r = min(self._rel(), other._rel())
        v = self.val - other.val
        u = self.unit * inverse_mod_pk(other.unit, self.prime, r)
        return PAdicApprox(self.prime, v, u, v + r)

    def __rtruediv__(self, other):
        q = _exact(other)
        if self.unit == 0:
            raise ZeroDivisionError(
                f"divisor indistinguishable from zero at O(p^{self.precision})"
            )
        if q == 0:
            return PAdicApprox.zero_at(self.prime, max(self._rel() - self.val, 1))
        return self._lift_exact(q) / self
