"""Exact arithmetic in Q(theta) and p-adic embeddings.

A NumberField is defined by a monic irreducible polynomial over Q; its
elements are coefficient vectors reduced modulo that polynomial.  Roots of
the polynomial inside Q_p are located by Newton-polygon slope analysis
(only integer slopes can carry Q_p roots), gcd splitting modulo p and Hensel
lifting of simple residues, with a recursive disc subdivision for residues
that are not simple modulo p.  An embedding fixes one such root, lifts it
alone by Newton's method as digits are needed, and evaluates coefficient
vectors at it.  An IntegerLift holds a tuple of field elements as integer
coefficient vectors for the projective expansion kernel of jacobi_perron.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import (
    AmbiguousSelection,
    FieldMismatch,
    InsufficientPrecision,
    LiftingObstruction,
    NoRoot,
)
from .padic import (
    PAdicApprox,
    PLUS_INFINITY,
    inverse_mod_pk,
    is_odd_prime,
    require_odd_prime,
    split_p,
    valuation,
)

#: Largest accepted field degree.  An inverse is a fraction-free elimination
#: of about d^3 integer operations (1.2 s for 64 small random coefficients
#: at d = 64 on a 2-vCPU host).  An expansion step takes no inverse, but
#: confirming a period or building its witness takes products and one.
MAX_DEGREE = 64

#: Precision doublings one exact query may take before it raises
#: InsufficientPrecision: AlgebraicNumber.valuation, and the re-lifts of one
#: expansion run on an IntegerLift.  The other budget is the separation
#: bound of _zp_roots, about half the p-adic valuation of the discriminant
#: (LiftingObstruction); root lifts and embeddings compute their digit
#: counts exactly and never retry.
MAX_DOUBLINGS = 20

#: The primes q at which NumberField reads the factor degrees of its
#: polynomial mod q to prove it irreducible.  A random cubic or quartic is
#: certified within the first few; one reducible mod every prime, such as
#: x^4 + 1, scans them all and is then decided by sympy.
CERTIFICATE_PRIMES = tuple(filter(is_odd_prime, range(3, 200, 2)))

# ---------------------------------------------------------------------------
# dense polynomials over Q, little-endian coefficient tuples
# ---------------------------------------------------------------------------


def _pstrip(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _padd(a, b):
    n = max(len(a), len(b))
    return _pstrip(
        [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]
    )


def _pmul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _pstrip(out)


def _peval(c, x):
    acc = 0
    for coef in reversed(c):
        acc = acc * x + coef
    return acc


# ---------------------------------------------------------------------------
# number fields and their elements
# ---------------------------------------------------------------------------


class NumberField:
    """Q(theta) for theta a root of a monic irreducible polynomial.

    Coefficients may be given with a non-unit leading coefficient; the
    polynomial is normalised to monic form.  Irreducibility over Q is
    always proved at construction (a mod-q degree certificate, or else
    sympy's exact factorisation), so every NumberField is a field and every
    nonzero element is invertible.
    The degree is at most MAX_DEGREE.
    """

    def __init__(self, coeffs):
        c = _pstrip([Fraction(x) for x in coeffs])
        if len(c) < 3:
            raise ValueError("defining polynomial must have degree >= 2")
        if len(c) - 1 > MAX_DEGREE:
            raise ValueError(f"degree {len(c) - 1} exceeds {MAX_DEGREE}")
        lead = c[-1]
        self.minpoly: tuple[Fraction, ...] = tuple(x / lead for x in c)
        if not _is_irreducible(self.minpoly):
            raise ValueError("defining polynomial is reducible over Q")

    @property
    def degree(self) -> int:
        return len(self.minpoly) - 1

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.minpoly == other.minpoly

    def __hash__(self):
        return hash(self.minpoly)

    def __repr__(self):
        return f"NumberField({poly_str(self.minpoly)})"

    def element(self, coeffs) -> "AlgebraicNumber":
        c = [Fraction(x) for x in coeffs]
        if len(c) > self.degree:
            raise ValueError(f"need at most {self.degree} coefficients")
        c += [Fraction(0)] * (self.degree - len(c))
        return AlgebraicNumber(self, tuple(c))

    def generator(self) -> "AlgebraicNumber":
        return self.element([0, 1])


def _is_irreducible(monic: tuple[Fraction, ...]) -> bool:
    """Irreducibility over Q, proved by the mod-q degree certificate where
    one exists and otherwise decided by sympy's exact factorisation."""
    if _irreducibility_certificate(clear_denominators(monic)[0]):
        return True
    import sympy  # only polynomials like x^4 + 1, reducible mod every q

    x = sympy.Symbol("x")
    expr = sum(
        sympy.Rational(c.numerator, c.denominator) * x**i for i, c in enumerate(monic)
    )
    return sympy.Poly(expr, x, domain="QQ").is_irreducible


def _irreducibility_certificate(f) -> bool:
    """True when the factor degrees of the integer polynomial f modulo the
    CERTIFICATE_PRIMES prove it irreducible over Q; False proves nothing.

    At a prime q that leaves f's degree and f squarefree, a factorisation
    f = g*h over Z (Gauss) reduces to one mod q, so deg g is a sum of some
    of the degrees of f's irreducible factors mod q.  If no degree strictly
    between 0 and deg f is such a sum at every q, there is no g (Cohen, A
    Course in Computational Algebraic Number Theory, 3.4).
    """
    possible, df = set(range(1, len(f) - 1)), _pderiv(f)
    for q in CERTIFICATE_PRIMES:
        h = _pstrip([c % q for c in f])
        if len(h) < len(f) or len(_fp_gcd(h, _pstrip([c % q for c in df]), q)) > 1:
            continue
        sums = {0}
        for e in _fp_factor_degrees(h, q):
            sums |= {s + e for s in sums}
        possible &= sums
        if not possible:
            return True
    return False


def poly_str(coeffs) -> str:
    """Human-readable form of a little-endian coefficient tuple."""
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        if i == 0:
            term = str(c)
        else:
            xi = "x" if i == 1 else f"x^{i}"
            if c == 1:
                term = xi
            elif c == -1:
                term = f"-{xi}"
            else:
                term = f"{c}*{xi}"
        parts.append(term)
    if not parts:
        return "0"
    out = parts[0]
    for t in parts[1:]:
        out += t if t.startswith("-") else "+" + t
    return out


class AlgebraicNumber:
    """Element of a NumberField as a length-degree coefficient vector.

    Equality is exact coefficient-wise equality.  Products are reduced by
    the monic minimal polynomial f, rewriting x^d as -(f_0 + ... +
    f_{d-1} x^{d-1}) from the top.  The inverse of x comes from the unique
    Q-linear dependence between x, x*theta, ..., x*theta^(d-1) and 1.

    An element may carry a p-adic embedding `emb` of its field (None for
    plain field arithmetic).  It then behaves as an exact p-adic value:
    field arithmetic stays exact and digit queries go through the embedding
    at whatever precision they need.  A result carries the embedding of
    either operand; operands under two embeddings (two PAdicEmbedding
    objects, even of one root) raise FieldMismatch and compare unequal, and
    emb(x) re-embeds one of them.  Equality and the hash otherwise ignore
    the embedding, and a rational element equals and hashes as its
    Fraction.
    """

    __slots__ = ("field", "coeffs", "emb")

    def __init__(
        self,
        field: NumberField,
        coeffs: tuple[Fraction, ...],
        emb: PAdicEmbedding | None = None,
    ):
        if len(coeffs) != field.degree:
            raise ValueError("coefficient vector has wrong length")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "emb", emb)

    def __setattr__(self, *a):
        raise AttributeError("AlgebraicNumber is immutable")

    def _coerce(self, other):
        if isinstance(other, AlgebraicNumber):
            _join(self.field, self.emb, other)
            return other
        return self.field.element([Fraction(other)])

    @property
    def prime(self) -> int:
        if self.emb is None:
            raise ValueError(f"{self!r} has no p-adic embedding")
        return self.emb.prime

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def to_approx(self, precision: int) -> PAdicApprox:
        self.prime  # raises the ValueError of an element with no embedding
        return embed(self, self.emb, precision)

    def integer_lift(self, values) -> "IntegerLift":
        """The tuple `values`, this element among them, as an IntegerLift."""
        return IntegerLift(values)

    def valuation(self):
        """Exact valuation, found by raising the embedding precision until a
        nonzero digit appears.  PLUS_INFINITY for the exact zero."""
        if self.is_zero():
            return PLUS_INFINITY
        if self.is_rational():
            return valuation(self.coeffs[0], self.prime)
        n = 8  # independent of the cached root precision: most values are
        # far from zero, and starting large would ratchet the cache up
        for _ in range(MAX_DOUBLINGS):
            a = self.to_approx(n)
            if not a.is_zero_at_precision():
                return a.val
            n *= 2
        raise InsufficientPrecision("valuation not resolved; value too close to zero")

    def __eq__(self, other):
        try:
            other = self._coerce(other)
        except (TypeError, ValueError):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs[0] if self.is_rational() else (self.field, self.coeffs))

    def __repr__(self):
        at = "" if self.emb is None else f"@Q_{self.emb.prime}"
        return f"({poly_str(self.coeffs)}){at}"

    def __add__(self, other):
        if isinstance(other, PAdicApprox):  # its reflected operator embeds self
            return NotImplemented
        other = self._coerce(other)
        return AlgebraicNumber(
            self.field,
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
            self.emb or other.emb,
        )

    __radd__ = __add__

    def __neg__(self):
        return AlgebraicNumber(self.field, tuple(-a for a in self.coeffs), self.emb)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, PAdicApprox):
            return NotImplemented
        other = self._coerce(other)
        f, d = self.field.minpoly, self.field.degree
        prod = list(_pmul(self.coeffs, other.coeffs))
        for k in range(len(prod) - 1, d - 1, -1):
            c = prod.pop()
            if c:
                for i in range(d):
                    prod[k - d + i] -= c * f[i]
        prod += [Fraction(0)] * (d - len(prod))
        return AlgebraicNumber(self.field, tuple(prod), self.emb or other.emb)

    __rmul__ = __mul__

    def inverse(self) -> "AlgebraicNumber":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        # Multiplying by self != 0 is injective in a field, so the columns
        # self*theta^j are independent and the dependence below is unique
        # up to scale with a nonzero last entry:
        # self * sum(c_j theta^j) == -c_d.
        theta = self.field.generator()
        cols = [self]
        for _ in range(self.field.degree - 1):
            cols.append(cols[-1] * theta)
        c = rational_linear_dependence(cols + [Fraction(1)])
        return AlgebraicNumber(self.field, tuple(-x / c[-1] for x in c[:-1]), self.emb)

    def __truediv__(self, other):
        if isinstance(other, PAdicApprox):
            return NotImplemented
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()


# ---------------------------------------------------------------------------
# Newton polygon and Hensel lifting
# ---------------------------------------------------------------------------


def _newton_polygon_slopes(coeffs, p: int):
    """Lower-hull segments of the valuation polygon of a polynomial.

    Returns a list of (root_valuation, length) pairs, where root_valuation
    is a Fraction (the negated slope) and length counts the roots carrying
    that valuation in an algebraic closure.
    """
    pts = [(i, valuation(c, p)) for i, c in enumerate(coeffs) if c != 0]
    if len(pts) < 2:
        return []
    hull = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # drop hull points lying on or above the new candidate edge
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    out = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        slope = Fraction(y2 - y1, x2 - x1)
        out.append((-slope, x2 - x1))
    return out


def _pderiv(c):
    return [i * c[i] for i in range(1, len(c))]


def _newton_lift(f, y: int, p: int, k: int):
    """The root of an integer polynomial f near y, modulo p**k, or None.

    With t = v(f(y)) and d = v(f'(y)), Hensel's condition t > 2d gives f
    one root z with v(z - y) > d, and v(z - y) >= t - d.  The Newton step
    y - f(y)/f'(y) keeps d and raises t to at least 2t - 2d, so t - 2d at
    least doubles with every step.  None when the condition fails at y.
    """
    df = _pderiv(f)
    while True:
        fy = _peval(f, y)
        if fy == 0:
            return y % p**k
        dfy = _peval(df, y)
        if dfy == 0:
            return None
        t = split_p(fy, p)[0]
        d, u = split_p(dfy, p)
        if t <= 2 * d:
            return None
        if t - d >= k:
            return y % p**k
        e = 2 * t - 2 * d
        y = (y - fy // p**d * inverse_mod_pk(u, p, e)) % p**e


def _zp_roots(coeffs, p: int, k: int, levels: int | None = None):
    """All roots in Z_p of a squarefree integer polynomial, mod p**k.

    Returns integers r with f(r) == 0 mod p**k, one per genuine Z_p root.
    Residues that are not simple modulo p are separated recursively, at
    most `levels` deep: _separation_levels bounds it on the first descent,
    and a recursion past that bound raises LiftingObstruction.
    """
    shift = min(split_p(c, p)[0] for c in coeffs if c != 0)
    work = [c // p**shift for c in coeffs]
    dwork = _pderiv(work)
    roots = []
    for r in _roots_mod_p(work, p):
        if _peval(dwork, r) % p != 0:
            roots.append(_newton_lift(work, r, p, k))
            continue
        if levels is None:
            levels = _separation_levels(work, p)
        if levels == 0:
            raise LiftingObstruction("root separation did not stabilise")
        # shift into the residue disc r + p*Z_p and recurse
        sub = _compose_affine(work, r, p)
        for z in _zp_roots(sub, p, max(k - 1, 1), levels - 1):
            roots.append((r + p * z) % p**k)
    return roots


def _separation_levels(f, p: int) -> int:
    """ceil(v_p(disc f) / 2) for an integer polynomial f with a coefficient
    prime to p, and 0 when disc f = 0, where no bound exists.

    _zp_roots subdivides a residue disc a j-th time only for two distinct
    roots a, b of f, integral over Z_p, with v(a - b) > j - 1; and v(a - b)
    <= v(disc f) / 2: write f = c * prod(y_i x - x_i), each (x_i, y_i)
    integral with a unit entry; then c is a unit (Gauss) and disc f =
    c^(2n-2) * prod_(i<j) (x_i y_j - x_j y_i)^2, a product of integral
    factors, in which a and b, as (a, 1) and (b, 1), contribute (a - b)^2.
    The discriminant is Res(f, f') / f_n up to sign, the resultant the
    determinant of the Sylvester matrix.
    """
    n, df = len(f) - 1, _pderiv(f)
    rows = [[0] * i + f[::-1] + [0] * (n - 2 - i) for i in range(n - 1)]
    rows += [[0] * i + df[::-1] + [0] * (n - 1 - i) for i in range(n)]
    r, _ = _bareiss(rows)
    if r < len(rows):
        return 0
    return (split_p(rows[-1][-1], p)[0] - split_p(f[-1], p)[0] + 1) // 2


def _fp_divmod(a, b, p: int):
    """(a // b, a mod b) over F_p, for little-endian integer lists with b[-1]
    prime to p."""
    a, inv, quot = list(a), inverse_mod_pk(b[-1], p, 1), []
    while len(a) >= len(b):
        q = a.pop() * inv % p
        quot.append(q)
        for i in range(1, len(b)):
            a[-i] -= q * b[-1 - i]
    return quot[::-1], _pstrip([x % p for x in a])


def _fp_rem(a, b, p: int):
    return _fp_divmod(a, b, p)[1]


def _fp_mulmod(a, b, h, p: int):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _fp_rem(out, h, p)


def _fp_gcd(a, b, p: int):
    while b:
        a, b = b, _fp_rem(a, b, p)
    return a


def _fp_powmod(base, e: int, h, p: int):
    """base**e mod h over F_p, by square-and-multiply."""
    s = [1]
    for bit in bin(e)[2:]:
        s = _fp_mulmod(s, s, h, p)
        if bit == "1":
            s = _fp_mulmod(s, base, h, p)
    return s


def _fp_factor_degrees(h, p: int) -> list[int]:
    """The degrees of the irreducible factors of h, squarefree over F_p.

    Distinct-degree factorisation: with the factors of degree < i divided
    out, gcd(h, x^(p^i) - x) is the product of those of degree i.  What is
    left once 2i exceeds deg h is one factor, or nothing.
    """
    degrees, i, xpi = [], 0, [0, 1]
    while len(h) - 1 >= 2 * (i + 1):
        i += 1
        xpi = _fp_powmod(xpi, p, h, p)
        g = _fp_gcd(h, _fp_rem(_padd(xpi, (0, -1)), h, p), p)
        if len(g) > 1:
            degrees += [i] * ((len(g) - 1) // i)
            h = _fp_divmod(h, g, p)[0]
            xpi = _fp_rem(xpi, h, p)
    if len(h) > 1:
        degrees.append(len(h) - 1)
    return degrees


def _roots_mod_p(coeffs, p: int) -> list[int]:
    """The residues r mod p with f(r) == 0 mod p, ascending, for f != 0 mod p.

    Cantor-Zassenhaus splitting of f mod p at the shifts c = 0, 1, 2, ...: a
    root r != -c of a part h has (r + c)^((p-1)/2) == +-1, and those of each
    sign are the roots of gcd(h, (x + c)^((p-1)/2) -+ 1 mod h), which has no
    repeated factor or one of higher degree.  -c is tested alone, and each
    part is split again at c + 1 until linear; r != r' part by c = -r.
    """
    found, c, parts = [], 0, [_pstrip([x % p for x in coeffs])]
    while parts:
        split = []
        for h in parts:
            if len(h) == 2:
                found.append(-h[0] * inverse_mod_pk(h[1], p, 1) % p)
                continue
            if _peval(h, -c) % p == 0:
                found.append(-c % p)
            s = _fp_powmod([c, 1], (p - 1) // 2, h, p)
            gcds = (_fp_gcd(h, _fp_rem(_padd(s, (e,)), h, p), p) for e in (-1, 1))
            split += [g for g in gcds if len(g) > 1]
        parts, c = split, c + 1
    return sorted(found)


def _compose_affine(coeffs, r: int, p: int):
    """Coefficients of f(r + p*z) as a polynomial in z."""
    acc = []
    for c in reversed(coeffs):
        acc = [r * a + p * b for a, b in zip(acc + [0], [0] + acc)]  # acc*(r+pz)
        acc[0] += c
    return acc


def _unit_root_poly(coeffs, w: int, p: int):
    """(h, shift): h is f(p**w * y) / p**shift, shift the least valuation of
    its coefficients, scaled by a unit to an integer polynomial.  The roots
    of f of valuation w are p**w times the unit roots of h."""
    scaled = [Fraction(c) * Fraction(p) ** (w * i) for i, c in enumerate(coeffs)]
    shift = min(valuation(c, p) for c in scaled if c != 0)
    return clear_denominators([c / Fraction(p) ** shift for c in scaled])[0], shift


def padic_roots(field_or_coeffs, p: int, precision: int):
    """All roots of the defining polynomial inside Q_p.

    Each root is returned with at least `precision` known digits, and its
    stored representative x satisfies v(f(x)) >= precision; when the
    derivative at the root has negative valuation this forces extra digits
    beyond the request, which are kept.  Only Newton-polygon segments with
    integer slopes can carry Q_p roots; the list may legitimately be empty.
    """
    require_odd_prime(p)
    if precision < 1:
        raise ValueError("precision must be >= 1")
    coeffs = (
        field_or_coeffs.minpoly
        if isinstance(field_or_coeffs, NumberField)
        else _pstrip([Fraction(c) for c in field_or_coeffs])
    )
    roots = []
    for w, _count in _newton_polygon_slopes(coeffs, p):
        if w.denominator != 1:
            continue
        w = int(w)
        h, shift = _unit_root_poly(coeffs, w, p)
        # A representative y of a root known to k digits has v(h(y)) >= k,
        # as h is p-integral, so v(f(p^w y)) >= k + shift: this k meets
        # both halves of the contract in one pass.
        k = max(precision - min(w, shift), 1)
        for y in _zp_roots(h, p, k):
            if y % p != 0:  # roots divisible by p belong to other segments
                roots.append(PAdicApprox(p, w, y, w + k))
    roots.sort(key=lambda r: (r.val, r.unit))
    return roots


def _select_largest_root(roots) -> PAdicApprox:
    """The unique root of maximal p-adic norm (minimal valuation)."""
    if not roots:
        raise NoRoot("no roots in Q_p")
    best = min(r.val for r in roots)
    top = [r for r in roots if r.val == best]
    if len(top) > 1:
        raise AmbiguousSelection(
            f"{len(top)} roots share the maximal norm p^{-best}"
        )
    return top[0]


# ---------------------------------------------------------------------------
# embeddings into Q_p
# ---------------------------------------------------------------------------


class PAdicEmbedding:
    """A choice of root of a number field's polynomial inside Q_p.

    The root is cached at some achieved precision and transparently re-lifted
    (by doubling) when more digits are needed; refine_to(n) meets the
    contract of padic_roots(n).
    """

    def __init__(self, field: NumberField, prime: int, root: PAdicApprox):
        self.field = field
        self.prime = require_odd_prime(prime)
        self._root = root
        # the unit roots of h are the roots of f of the root's valuation w
        # over p**w; k digits of the root meet padic_roots(k + low)'s contract
        h, shift = _unit_root_poly(field.minpoly, root.val, prime)
        self._h, self._low = h, min(root.val, shift)

    @classmethod
    def create(
        cls, field: NumberField, prime: int, precision: int = 32
    ) -> "PAdicEmbedding":
        """The embedding at the unique root of maximal p-adic norm."""
        root = _select_largest_root(padic_roots(field, prime, precision))
        return cls(field, prime, root)

    @property
    def root(self) -> PAdicApprox:
        return self._root

    def refine_to(self, precision: int) -> PAdicApprox:
        old = self._root
        p, w = self.prime, old.val
        if old.precision - w + self._low >= precision:
            return old
        target = max(precision, 2 * old.precision)
        k = max(target - self._low, 1)
        y = _newton_lift(self._h, old.unit, p, k)
        # y keeps all the cached digits: a root other than the lifted one
        # agrees with them to at most d places, the lifted one to t - d > d
        if y is not None:
            self._root = PAdicApprox(p, w, y, w + k)
            return self._root
        # Hensel's condition fails at the cached digits: match them again
        for r in padic_roots(self.field, p, target):
            if r.val == w and (r.unit - old.unit) % p ** (old.precision - w) == 0:
                self._root = r
                return self._root
        raise LiftingObstruction("refined roots no longer match the cached root")

    def residue(self, vector, k: int) -> int:
        """p**s * emb(v) mod p**k for an integer vector v = (c_0, ..., c_(d-1)).

        With theta = p**r * u, the fixed shift s = (d-1) * max(0, -r) makes
        it p-integral: the sum of c_j * u**j * p**(r*j + s) needs u mod p**k.
        """
        p, r = self.prime, self._root.val
        mod = p**k
        a = self.refine_to(k + self._low).unit * p ** max(r, 0) % mod
        b = p ** max(-r, 0)  # theta = a / b
        acc, bj = 0, 1  # Horner on the homogeneous sum of c_j a^j b^(d-1-j)
        for c in reversed(vector):
            acc = (acc * a + c * bj) % mod
            bj *= b
        return acc

    def __call__(self, x: AlgebraicNumber) -> AlgebraicNumber:
        if x.field != self.field:
            raise FieldMismatch("element belongs to a different field")
        return AlgebraicNumber(x.field, x.coeffs, self)


def embed(x: AlgebraicNumber, emb: PAdicEmbedding, precision: int) -> PAdicApprox:
    """Evaluate the coefficient vector at the embedded root, correct modulo
    p**precision.  The root is re-lifted as needed."""
    if x.field != emb.field:
        raise FieldMismatch("element belongs to a different field")
    p = emb.prime
    # x = v / ell for an integer vector v, with ell = p**t * ell_unit
    vector, ell = clear_denominators(x.coeffs)
    t, ell_unit = split_p(ell, p)
    s = (x.field.degree - 1) * max(0, -emb.root.val)
    k = precision + s + t
    unit = emb.residue(vector, k) * inverse_mod_pk(ell_unit, p, k)
    return PAdicApprox(p, -s - t, unit, precision)


def _join(field, emb, x: AlgebraicNumber):
    """The field and embedding of the values seen so far (None for none
    yet) joined with those of the element x.  Values of one field combine
    when at most one PAdicEmbedding object is among them; an unembedded
    value joins any embedding."""
    if field is not None and x.field != field:
        raise FieldMismatch("elements of different number fields")
    if emb is not None and x.emb is not None and x.emb is not emb:
        raise FieldMismatch("values use different embeddings")
    return x.field, emb or x.emb


def _integer_vectors(values):
    """(field, emb, vectors, ell) for rationals and field elements that
    _join combines: every value as an integer coefficient vector of length
    the field's degree (1 when no value is a field element), all of them
    over the one denominator ell."""
    field, emb, coeffs = None, None, []
    for x in values:
        if isinstance(x, AlgebraicNumber):
            field, emb = _join(field, emb, x)
            coeffs.append(x.coeffs)
        else:
            coeffs.append((Fraction(x),))
    d = field.degree if field else 1
    flat, ell = clear_denominators(
        [c for vec in coeffs for c in vec + (Fraction(0),) * (d - len(vec))]
    )
    return field, emb, [flat[i : i + d] for i in range(0, len(flat), d)], ell


class IntegerLift:
    """An exact tuple over one number field as integer coefficient vectors.

    Built from values of which at least one is an embedded AlgebraicNumber,
    all of one field and under one embedding (_join); a rational becomes a
    constant vector.  `vectors` times `scale` are the coefficient vectors
    of the values.  The projective kernel of jacobi_perron runs on such
    vectors and asks this class only what needs the field: their residues
    through the embedding, and their values.
    """

    def __init__(self, values):
        self.field, self.emb, self.vectors, ell = _integer_vectors(values)
        self.scale = Fraction(1, ell)

    def values(self, vectors) -> tuple:
        """The embedded field elements with coefficient vectors `vectors`."""
        return tuple(
            AlgebraicNumber(self.field, tuple(map(Fraction, v)), self.emb)
            for v in vectors
        )

    def residues(self, vectors, precision: int) -> list[int]:
        """PAdicEmbedding.residue of each vector: p**s * emb(v) modulo
        p**precision, the fixed shift s making every one p-integral."""
        return [self.emb.residue(v, precision) for v in vectors]


# ---------------------------------------------------------------------------
# exact linear algebra over Q
# ---------------------------------------------------------------------------


def clear_denominators(values) -> tuple[list[int], int]:
    """(v, ell): ell the lcm of the denominators of Fractions, v them times ell."""
    ell = math.lcm(*(x.denominator for x in values))
    return [x.numerator * (ell // x.denominator) for x in values], ell


def _bareiss(a):
    """Forward fraction-free (Bareiss) elimination of an integer matrix in
    place, up to the first column with no pivot.

    Returns (r, sign): r is the first column with no nonzero entry on or
    below row r (the column count if there is none), and sign is that of
    the row permutation.  Each pivot a[i][i], i < r, is then the leading
    (i+1)-minor of the row-permuted matrix, and every division is exact.
    Entries below the pivots are left as they are; nothing reads them.
    """
    n, k = len(a), len(a[0])
    sign, prev = 1, 1
    for c in range(k):
        piv = next((r for r in range(c, n) if a[r][c] != 0), None)
        if piv is None:
            return c, sign
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            sign = -sign
        for r in range(c + 1, n):
            for j in range(c + 1, k):
                a[r][j] = (a[r][j] * a[c][c] - a[r][c] * a[c][j]) // prev
        prev = a[c][c]
    return k, sign


def rational_linear_dependence(values):
    """A nonzero rational vector c with sum(c_j * values_j) == 0, or None.

    Values may be Fractions, ints or AlgebraicNumbers of one common field,
    under at most one embedding (_join); an empty list gives None.  The
    result is the unique dependence among values_0..values_r with
    values_0..values_{r-1} independent, as coprime integers with a positive
    leading entry.

    The values' coefficient vectors, scaled to integers over one common
    denominator, are the columns of an integer matrix, and _bareiss stops
    at its first free column r.  Take c_r = D, the last pivot, which is the
    determinant of the r x r system on the pivot rows.  By Cramer's rule
    each other c_i is then minus the determinant of that system with column
    i replaced by column r, an integer, so the back-substitution divides
    exactly.  The common denominator scales every column alike, so c is a
    dependence of the values themselves.
    """
    cols = _integer_vectors(values)[2]
    if not cols:
        return None
    a = [list(row) for row in zip(*cols)]
    r, _ = _bareiss(a)
    if r == len(cols):
        return None
    c = [0] * len(cols)
    c[r] = a[r - 1][r - 1] if r else 1
    for i in range(r - 1, -1, -1):
        c[i] = -sum(a[i][j] * c[j] for j in range(i + 1, r + 1)) // a[i][i]
    g = math.gcd(*c) * (1 if next(x for x in c if x) > 0 else -1)
    return tuple(Fraction(x // g) for x in c)
