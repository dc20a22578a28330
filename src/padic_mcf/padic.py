"""Exact p-adic primitives over the rationals.

Valuations, balanced digit expansions (digits in the open interval
(-p/2, p/2)), the Browkin digit-truncation map that plays the role of the
floor function, division with p-adically small remainder, and truncated
p-adic numbers with explicit precision tracking (PAdicApprox), each of
whose arithmetic operators holds the one copy of its precision rule.

Throughout, p is an odd prime and exact rational arithmetic uses
fractions.Fraction; `split_p`, the p-part of an integer in O(log v)
divisions, also serves the integer kernel of jacobi_perron, and
`inverse_mod_pk`, a Newton-lifted inverse modulo p**k, is the one modular
inverse of the package.  `as_value` is the one place that reads a value's
prime.  Norm comparisons are always valuation comparisons; no floating
point is involved anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import InsufficientPrecision, PrecisionExhausted, Record

#: Valuation of zero.  math.inf interacts correctly with min/+/comparisons,
#: so ultrametric identities hold literally in tests.
PLUS_INFINITY = math.inf


#: The least strong pseudoprime to the 13 prime bases 2..41 (Sorenson and
#: Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 86,
#: 2017), about 3.3 * 10^24.  No fixed set of bases is proven to decide
#: primality beyond it, so is_odd_prime refuses every p from it on.
_PRIME_BOUND = 3317044064679887385961981


@lru_cache(maxsize=None)
def is_odd_prime(p: int) -> bool:
    """Deterministic Miller-Rabin, restricted to odd primes (p != 2) below
    _PRIME_BOUND; False from there on."""
    if not isinstance(p, int) or p < 3 or p % 2 == 0 or p >= _PRIME_BOUND:
        return False
    d, r = p - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    # These witnesses decide primality for every p < _PRIME_BOUND.
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
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


def as_value(x, p: int):
    """x as a value at p: one that carries a prime (a PAdicApprox, or a
    field element through its embedding) must carry p, and anything else is
    read as a Fraction.  Every operation of the protocol that takes p checks
    its values here; a field element with no embedding raises ValueError
    from its `prime`, even when it is zero."""
    if isinstance(x, Fraction):
        return x
    prime = getattr(x, "prime", None)
    if prime is None:
        return Fraction(x)
    if prime != p:
        raise ValueError("value carries a different prime")
    return x


def valuation(x, p: int):
    """p-adic valuation of a value of any backend; PLUS_INFINITY exactly at 0.

    The p-adic norm is |x| = p**(-valuation(x, p)).  A PAdicApprox that is
    0 at its precision raises InsufficientPrecision; an exact algebraic
    value answers through its embedding.
    """
    require_odd_prime(p)
    x = as_value(x, p)
    if not isinstance(x, Fraction):
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


#: inverse_mod_pk seeds its Newton steps with pow's inverse modulo the
#: first p**e of its halving chain below 2**_SEED_BITS.
_SEED_BITS = 40


def inverse_mod_pk(a: int, p: int, k: int) -> int:
    """The inverse of an integer a prime to p modulo p**k, for k >= 1.

    Newton's step y <- y*(2 - a*y) turns an inverse mod p**e into one mod
    p**(2e), so lifting along the halving chain of k takes O(log k)
    products instead of one extended gcd on numbers of k digits (von zur
    Gathen & Gerhard, Modern Computer Algebra, ch. 9).  The chain stops at
    its first exponent e with p**e below 2**_SEED_BITS, or at e = 1, and
    the seed there is pow's inverse mod p**e: on moduli that small one
    extended gcd is faster than the products that would lift to it.
    Every modular inverse of the package goes through here, and each power
    of p along the chain is computed once.
    """
    mods = [p**k]  # p**k, p**ceil(k/2), ... down to the seed's modulus
    while k > 1 and mods[-1] >> _SEED_BITS:
        k = (k + 1) // 2
        mods.append(p**k)
    mod = mods.pop()
    y = pow(a % mod, -1, mod)
    for mod in reversed(mods):
        y = y * (2 - a % mod * y) % mod
    return y


def is_zero(x) -> bool:
    """Exact zero test.  A PAdicApprox with no known digit cannot be told
    from 0 and raises InsufficientPrecision instead of guessing."""
    if isinstance(x, (int, Fraction)):
        return x == 0
    if isinstance(x, PAdicApprox):
        if x.unit == 0:
            raise InsufficientPrecision(
                f"cannot distinguish 0 from O(p^{x.precision})"
            )
        return False
    return x.is_zero()


def to_approx(x, p: int, precision: int) -> "PAdicApprox":
    """x truncated modulo p**precision; a PAdicApprox passes through."""
    x = as_value(x, p)
    if isinstance(x, Fraction):
        return PAdicApprox.from_rational(x, p, precision)
    if isinstance(x, PAdicApprox):
        return x
    return x.to_approx(precision)


def truncated_triples(values):
    """The triples (val, unit, precision) of a tuple of truncated values,
    which jacobi_perron's truncated run reads; None unless every value is a
    PAdicApprox."""
    if all(isinstance(x, PAdicApprox) for x in values):
        return tuple(x.triple for x in values)
    return None


def integer_lift(values):
    """The exact tuple `values` as integer coefficient vectors over the
    number field of its field elements (a numberfield.IntegerLift); None
    when a value is a truncated PAdicApprox.  A tuple of rationals never
    comes here: it runs on jacobi_perron's integer kernel."""
    if any(isinstance(x, PAdicApprox) for x in values):
        return None
    for x in values:
        if not isinstance(x, (int, Fraction)):
            return x.integer_lift(values)


def _balanced_digits(r: int, p: int, n: int) -> list[int]:
    """The n balanced digits of r modulo p**n, lowest first, for n >= 1.

    The first h = n//2 digits sum to the balanced residue lo of r mod p**h,
    and the others are the digits of (r - lo) / p**h, so splitting in halves
    takes big-integer divisions on ever shorter numbers instead of n
    divisions of the whole of r by p.
    """
    if n == 1:
        return [residue_digit(r, p, 1)]
    h = n // 2
    lo = residue_digit(r, p, h)
    hi = (r - lo) // p**h
    return _balanced_digits(lo, p, h) + _balanced_digits(hi, p, n - h)


class BalancedDigits(Record):
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
            return Fraction(acc * p**self.start)
        return Fraction(acc, p**-self.start)

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
    return split_p(x.denominator, p)[1] == 1 and 2 * abs(x) < p


def residue_digit(r: int, p: int, k: int) -> int:
    """R, the residue of r mod p**k in (-p**k/2, p**k/2), for k >= 1, whose
    values for odd p are those of k balanced digits: for a unit u = r mod
    p**k, the Browkin digit of u / p**(k-1) is R / p**(k-1), in lowest
    terms since R is prime to p.  It is the package's one digit map; its
    callers form the digit from R, the exact kernels of jacobi_perron once
    per distinct (R, k) of a run."""
    mod = p**k
    r %= mod
    return r - mod if r > mod // 2 else r


def browkin_s(x, p: int) -> Fraction:
    """Browkin digit truncation: the sum of balanced digits at exponents <= 0.

    Maps a value of any backend onto Z[1/p] intersected with (-p/2, p/2);
    returns 0 when the valuation is positive.  A PAdicApprox needs
    precision >= 1; a rational is read, and an exact algebraic value
    embedded, at precision 1, which fixes every digit through exponent 0.
    """
    require_odd_prime(p)
    x = as_value(x, p)
    if isinstance(x, Fraction):
        x = PAdicApprox.from_rational(x, p, 1)
    elif not isinstance(x, PAdicApprox):
        if x.is_zero():
            return Fraction(0)
        x = x.to_approx(1)
    v, u, n = x.triple
    if n < 1:
        raise InsufficientPrecision(f"digit at exponent 0 unknown at precision O(p^{n})")
    if u == 0 or v > 0:
        return Fraction(0)
    # x = u / p**(k-1) for k = 1 - v >= 1, so s(x) = R / p**(k-1) (residue_digit)
    return Fraction(residue_digit(u, p, 1 - v), p**-v)


def padic_divide(sigma, tau, p: int):
    """Division sigma = q*tau + eta with |eta| < |tau|.

    The quotient q = browkin_s(sigma/tau) is the unique element of Z[1/p]
    with Euclidean absolute value below p/2 satisfying the norm bound.  A
    divisor that is zero, or that cannot be told from zero, raises
    ZeroDivisionError; a truncated quotient with no known digit has no
    known digit at exponent 0 either, and raises InsufficientPrecision.
    """
    require_odd_prime(p)
    try:
        ratio = sigma / tau
    except PrecisionExhausted:
        raise InsufficientPrecision("quotient digit at exponent 0 unknown") from None
    q = browkin_s(ratio, p)
    eta = sigma - q * tau
    return q, eta


class PAdicApprox:
    """A truncated p-adic number p**val * unit, known modulo p**precision.

    Invariants: either unit == 0 and val == precision (the value is
    indistinguishable from zero at this precision), or 0 < unit <
    p**(precision - val) with p not dividing unit, the normal form the
    constructor puts every result in.  Instances are immutable values;
    each operator holds the one copy of its precision rule and never
    reports digits beyond what the operands support.
    Exact operands (int, Fraction, or a field element under an embedding at
    the same prime, on either side) mix freely and only shift precision
    through valuation bookkeeping; an operand at another prime raises the
    ValueError of `as_value`.
    """

    __slots__ = ("prime", "val", "unit", "precision")

    def __init__(self, prime: int, val: int, unit: int, precision: int):
        require_odd_prime(prime)
        unit = unit % prime ** (precision - val) if precision > val else 0
        if unit:
            w, unit = split_p(unit, prime)
            val += w
        else:
            val = precision
        for name, x in zip(self.__slots__, (prime, val, unit, precision)):
            object.__setattr__(self, name, x)

    def __setattr__(self, *a):  # immutable value
        raise AttributeError("PAdicApprox is immutable")

    @classmethod
    def from_rational(cls, x, p: int, precision: int) -> "PAdicApprox":
        x = x if isinstance(x, Fraction) else Fraction(x)
        if x == 0:
            return cls.zero_at(p, precision)
        vn, un = split_p(x.numerator, p)
        vd, ud = split_p(x.denominator, p)
        k = precision - vn + vd
        u = 0 if k < 1 else un if ud == 1 else un * inverse_mod_pk(ud, p, k)
        return cls(p, vn - vd, u, precision)

    @classmethod
    def zero_at(cls, p: int, precision: int) -> "PAdicApprox":
        """The class of values congruent to 0 modulo p**precision."""
        return cls(p, precision, 0, precision)

    # -- queries ---------------------------------------------------------

    @property
    def triple(self) -> tuple:
        return self.val, self.unit, self.precision

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
        digits = _balanced_digits(self.unit, self.prime, self.precision - self.val)
        return BalancedDigits(self.val, tuple(digits))

    def __eq__(self, other) -> bool:
        return isinstance(other, PAdicApprox) and (self.prime, *self.triple) == (
            other.prime, *other.triple
        )

    def __hash__(self):
        return hash((self.prime, *self.triple))

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

    # -- arithmetic, one precision rule per operation --------------------

    def _operand(self, other) -> "PAdicApprox":
        """other as a PAdicApprox; a nonzero exact other (a Fraction, or a field
        element through its embedding) is lifted by to_approx with enough
        relative precision that it never becomes the bottleneck of mul/div."""
        if isinstance(other, PAdicApprox):
            return other
        v, rel = valuation(other, self.prime), max(self.precision - self.val, 1)
        return to_approx(other, self.prime, v + rel)

    def __add__(self, other):
        """self + other, known modulo the lower precision."""
        other = as_value(other, self.prime)
        if not isinstance(other, PAdicApprox):
            if other == 0:
                return self
            other = to_approx(other, self.prime, self.precision)
        p, base = self.prime, min(self.val, other.val)
        s = self.unit * p ** (self.val - base) + other.unit * p ** (other.val - base)
        return PAdicApprox(p, base, s, min(self.precision, other.precision))

    __radd__ = __add__

    def __neg__(self):
        return PAdicApprox(self.prime, self.val, -self.unit, self.precision)

    def __sub__(self, other):
        return self + -as_value(other, self.prime)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """self * other, known modulo p**min(na + vb, nb + va): the lower
        relative precision, which is at least 1 when neither factor is 0."""
        other = as_value(other, self.prime)
        if not isinstance(other, PAdicApprox) and other == 0:
            # exact zero: correct at every precision; keep this one's
            return PAdicApprox.zero_at(self.prime, self.precision)
        b = self._operand(other)
        n = min(self.precision + b.val, b.precision + self.val)
        return PAdicApprox(self.prime, self.val + b.val, self.unit * b.unit, n)

    __rmul__ = __mul__

    def _div(self, b: "PAdicApprox") -> "PAdicApprox":
        """self / b, with the lower relative precision."""
        p = self.prime
        if b.unit == 0:
            raise ZeroDivisionError(f"divisor indistinguishable from zero at O(p^{b.precision})")
        if self.unit == 0:
            if self.precision <= b.val:  # weaker than O(p^0): the result would say nothing
                raise PrecisionExhausted("quotient carries no known digits")
            return PAdicApprox.zero_at(p, self.precision - b.val)
        r = min(self.precision - self.val, b.precision - b.val)
        v = self.val - b.val
        return PAdicApprox(p, v, self.unit * inverse_mod_pk(b.unit, p, r), v + r)

    def __truediv__(self, other):
        other = as_value(other, self.prime)
        if not isinstance(other, PAdicApprox) and other == 0:
            raise ZeroDivisionError("division by exact zero")
        return self._div(self._operand(other))

    def __rtruediv__(self, other):
        q = as_value(other, self.prime)
        if self.unit == 0:
            raise ZeroDivisionError(
                f"divisor indistinguishable from zero at O(p^{self.precision})"
            )
        if q == 0:
            return PAdicApprox.zero_at(self.prime, max(self.precision - 2 * self.val, 1))
        return self._operand(q)._div(self)
