"""Exact arithmetic in Q(theta) and p-adic embeddings.

A NumberField is defined by a monic irreducible polynomial over Q; its
elements are coefficient vectors reduced modulo that polynomial.  Roots of
the polynomial inside Q_p are located by Newton-polygon slope analysis
(only integer slopes can carry Q_p roots) followed by Hensel lifting of
simple residues, with a recursive disc subdivision for residues that are
not simple modulo p.  An embedding fixes one such root and evaluates
coefficient vectors at it to any requested precision.
"""

from __future__ import annotations

import itertools
import math
import threading
from fractions import Fraction

from .errors import (
    AmbiguousSelection,
    FieldMismatch,
    InsufficientPrecision,
    LiftingObstruction,
    NoRoot,
)
from .padic import PAdicApprox, PLUS_INFINITY, require_odd_prime, valuation

#: Largest accepted field degree.  An inverse is a fraction-free elimination
#: of about d^3 integer operations (1.2 s for 64 small random coefficients
#: at d = 64 on a 2-vCPU host), and an expansion step takes several.
MAX_DEGREE = 64

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
    acc = Fraction(0)
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
    always verified at construction (exact factorisation via sympy), so
    every NumberField is a field and every nonzero element is invertible.
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

    def one(self) -> "AlgebraicNumber":
        return self.element([1])

    def zero(self) -> "AlgebraicNumber":
        return self.element([])


def _is_irreducible(monic: tuple[Fraction, ...]) -> bool:
    import sympy

    x = sympy.Symbol("x")
    expr = sum(
        sympy.Rational(c.numerator, c.denominator) * x**i for i, c in enumerate(monic)
    )
    return sympy.Poly(expr, x, domain="QQ").is_irreducible


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
    either operand; operands embedded at different primes raise
    FieldMismatch and compare unequal.  Equality and the hash otherwise
    ignore the embedding, and a rational element equals and hashes as its
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
            if other.field != self.field:
                raise FieldMismatch("elements of different number fields")
            if self.emb and other.emb and other.emb.prime != self.emb.prime:
                raise FieldMismatch("values use different embeddings")
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

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational element")
        return self.coeffs[0]

    def to_approx(self, precision: int) -> PAdicApprox:
        return embed(self, self.emb, precision)

    def exact_key(self):
        """Hashable key of the exact value.  A rational element keys as its
        Fraction, so a value hopping between the Fraction and the
        constant-vector representation keys identically."""
        return self.as_fraction() if self.is_rational() else self.coeffs

    def valuation(self):
        """Exact valuation, found by raising the embedding precision until a
        nonzero digit appears.  PLUS_INFINITY for the exact zero."""
        if self.is_zero():
            return PLUS_INFINITY
        if self.is_rational():
            return valuation(self.as_fraction(), self.prime)
        n = 8  # independent of the cached root precision: most values are
        # far from zero, and starting large would ratchet the cache up
        for _ in range(20):
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
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
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
        other = self._coerce(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()


# ---------------------------------------------------------------------------
# Newton polygon and Hensel lifting
# ---------------------------------------------------------------------------


def newton_polygon_slopes(coeffs, p: int):
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


def _int_poly_mod(coeffs, p: int, k: int):
    """Reduce p-integral rational coefficients modulo p**k to integers."""
    mod = p**k
    out = []
    for c in coeffs:
        c = Fraction(c)
        if c.denominator % p == 0:
            raise ValueError("coefficient is not p-integral")
        out.append(c.numerator % mod * pow(c.denominator % mod, -1, mod) % mod)
    return out


def _hensel_lift(coeffs, p: int, r: int, k: int) -> int:
    """Lift a simple root r of a p-integral polynomial from mod p to mod p**k."""
    have = 1
    root = r % p
    while have < k:
        have = min(2 * have, k)
        ic = _int_poly_mod(coeffs, p, have)
        dc = [(i * ic[i]) for i in range(1, len(ic))]
        mod = p**have
        fx = 0
        for c in reversed(ic):
            fx = (fx * root + c) % mod
        dfx = 0
        for c in reversed(dc):
            dfx = (dfx * root + c) % mod
        root = (root - fx * pow(dfx, -1, mod)) % mod
    return root


def _zp_roots(coeffs, p: int, k: int, depth: int = 0):
    """All roots in Z_p of a squarefree p-integral polynomial, mod p**k.

    Returns integers r with f(r) == 0 mod p**k, one per genuine Z_p root.
    Residues that are not simple modulo p are separated recursively; failure
    to separate raises LiftingObstruction.
    """
    if depth > 64:
        raise LiftingObstruction("root separation did not stabilise")
    vals = [valuation(c, p) for c in coeffs if c != 0]
    if not vals:
        return []
    shift = min(vals)
    work = tuple(Fraction(c) / Fraction(p) ** shift for c in coeffs)
    fp = _int_poly_mod(work, p, 1)
    if all(c == 0 for c in fp):  # cannot happen after normalisation
        raise LiftingObstruction("polynomial vanishes mod p")
    dfp = [(i * fp[i]) % p for i in range(1, len(fp))]
    roots = []
    for r in range(p):
        fr = 0
        for c in reversed(fp):
            fr = (fr * r + c) % p
        if fr != 0:
            continue
        dfr = 0
        for c in reversed(dfp):
            dfr = (dfr * r + c) % p
        if dfr % p != 0:
            roots.append(_hensel_lift(work, p, r, k))
        else:
            # shift into the residue disc r + p*Z_p and recurse
            sub = _compose_affine(work, r, p)
            for z in _zp_roots(sub, p, max(k - 1, 1), depth + 1):
                roots.append((r + p * z) % p**k)
    return roots


def _compose_affine(coeffs, r: int, p: int):
    """Coefficients of f(r + p*z) as a polynomial in z."""
    acc = ()
    lin = (Fraction(r), Fraction(p))
    for c in reversed(coeffs):
        acc = _padd(_pmul(acc, lin), (Fraction(c),))
    return acc


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
    for w, _count in newton_polygon_slopes(coeffs, p):
        if w.denominator != 1:
            continue
        w = int(w)
        # substitute x = p^w * y and renormalise: unit roots y remain
        scaled = [c * Fraction(p) ** (w * i) for i, c in enumerate(coeffs)]
        shift = min(valuation(c, p) for c in scaled if c != 0)
        h = tuple(c / Fraction(p) ** shift for c in scaled)
        k = max(precision - w, 1)
        attempts = 0
        while True:
            attempts += 1
            if attempts > 12:
                raise LiftingObstruction("residual did not reach requested precision")
            deficit = 0
            found = []
            for y in _zp_roots(h, p, k):
                if y % p == 0:
                    continue  # belongs to a different slope segment
                x = Fraction(p) ** w * y
                if valuation(_peval(coeffs, x), p) < precision:
                    deficit = max(deficit, 2)
                    break
                found.append(PAdicApprox(p, w, y, w + k))
            if deficit == 0:
                roots.extend(found)
                break
            # lifting more digits raises the residual valuation one-for-one
            k += max(precision - (w + k), 0) + deficit + 2
    roots.sort(key=lambda r: (r.val, r.unit))
    return roots


def select_largest_root(roots) -> PAdicApprox:
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
    (by doubling) when more digits are needed.  Refinement is serialised with
    a lock; concurrent reads are safe.
    """

    def __init__(self, field: NumberField, prime: int, root: PAdicApprox):
        self.field = field
        self.prime = require_odd_prime(prime)
        self._root = root
        self._lock = threading.Lock()

    @classmethod
    def create(
        cls, field: NumberField, prime: int, precision: int = 32
    ) -> "PAdicEmbedding":
        """The embedding at the unique root of maximal p-adic norm."""
        root = select_largest_root(padic_roots(field, prime, precision))
        return cls(field, prime, root)

    @property
    def root(self) -> PAdicApprox:
        return self._root

    @property
    def achieved_precision(self) -> int:
        return self._root.precision

    def refine_to(self, precision: int) -> PAdicApprox:
        with self._lock:
            if self._root.precision >= precision:
                return self._root
            target = max(precision, 2 * self._root.precision)
            roots = padic_roots(self.field, self.prime, target)
            old = self._root
            for r in roots:
                if r.val == old.val and (r.unit - old.unit) % self.prime ** (
                    old.precision - old.val
                ) == 0:
                    self._root = r
                    return self._root
            raise LiftingObstruction("refined roots no longer match the cached root")

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
    if x.is_rational():
        return PAdicApprox.from_rational(x.coeffs[0], p, precision)
    root_val = emb.root.val
    pad = max(0, -root_val) * max(1, x.field.degree - 1)
    pad += max((max(0, -valuation(c, p)) for c in x.coeffs if c != 0), default=0)
    work = precision + pad + 1
    for _ in range(12):
        root = emb.refine_to(work)
        acc = PAdicApprox.from_rational(x.coeffs[-1], p, work + max(0, -root_val))
        for c in reversed(x.coeffs[:-1]):
            acc = acc * root + c
        achieved = acc.precision
        if achieved >= precision:
            return acc.with_precision(precision)
        work += precision - achieved + pad + 1
    raise InsufficientPrecision("embedding did not reach the requested precision")


# ---------------------------------------------------------------------------
# exact linear algebra over Q
# ---------------------------------------------------------------------------


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
    embedded or not; an empty list gives None.  The result is the unique
    dependence among values_0..values_r with values_0..values_{r-1}
    independent, as coprime integers with a positive leading entry.

    The values' coefficient vectors, each scaled to integers by the lcm of
    its denominators, are the columns of an integer matrix, and _bareiss
    stops at its first free column r.  Take c_r = D, the last pivot, which
    is the determinant of the r x r system on the pivot rows.  By Cramer's
    rule each other c_i is then minus the determinant of that system with
    column i replaced by column r, an integer, so the back-substitution
    divides exactly.
    """
    field, cols, scales = None, [], []
    for v in values:
        if isinstance(v, AlgebraicNumber):
            if field is not None and v.field != field:
                raise FieldMismatch("values in different number fields")
            field, vec = v.field, v.coeffs
        else:
            vec = (Fraction(v),)
        ell = math.lcm(*(x.denominator for x in vec))
        cols.append([x.numerator * (ell // x.denominator) for x in vec])
        scales.append(ell)
    if not cols:
        return None
    a = [list(row) for row in itertools.zip_longest(*cols, fillvalue=0)]
    r, _ = _bareiss(a)
    if r == len(cols):
        return None
    c = [0] * len(cols)
    c[r] = a[r - 1][r - 1] if r else 1
    for i in range(r - 1, -1, -1):
        c[i] = -sum(a[i][j] * c[j] for j in range(i + 1, r + 1)) // a[i][i]
    c = [x * ell for x, ell in zip(c, scales)]
    g = math.gcd(*c) * (1 if next(x for x in c if x) > 0 else -1)
    return tuple(Fraction(x // g) for x in c)
