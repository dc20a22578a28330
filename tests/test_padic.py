"""Valuations, balanced digits, the Browkin truncation, division, and
truncated arithmetic."""

import ast
import itertools
import operator
from fractions import Fraction as F
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import padic_mcf
from padic_mcf.errors import InsufficientPrecision, PrecisionExhausted
from padic_mcf.numberfield import NumberField, PAdicEmbedding
from padic_mcf.padic import (
    _SEED_BITS,
    PLUS_INFINITY,
    BalancedDigits,
    PAdicApprox,
    as_value,
    balanced_digit_expansion,
    browkin_s,
    in_browkin_range,
    inverse_mod_pk,
    is_odd_prime,
    is_zero,
    padic_divide,
    split_p,
    to_approx,
    valuation,
)

PRIMES = (3, 5, 7, 11)

rationals = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6)
nonzero_rationals = rationals.filter(lambda x: x != 0)
prime_st = st.sampled_from(PRIMES)
wide_prime_st = st.sampled_from((3, 5, 7, 11, 13))


big_ints = st.integers(-(2**200), 2**200)
# numerators and denominators of up to 3000 bits times powers of
# 15015 = 3 * 5 * 7 * 11 * 13, so that valuations of either sign occur
big_rationals = st.builds(
    lambda a, b, k, j: F(a * 15015**k, b * 15015**j),
    st.integers(-(2**3000), 2**3000).filter(bool),
    st.integers(1, 2**3000),
    st.integers(0, 40),
    st.integers(0, 40),
)


def unit(a: int, b: int, p: int) -> F:
    """A p-adic unit made from two integers: numerator and denominator are
    a*p and |b|*p plus a residue in 1..p-1."""
    b = abs(b)
    return F(a * p + 1 + a % (p - 1), b * p + 1 + b % (p - 1))


@lru_cache(maxsize=None)
def embedding(p: int) -> PAdicEmbedding:
    """Q(theta), theta^2 + theta + p = 0: x(x + 1) has simple roots mod p,
    so theta embeds into Q_p for every odd p; the largest root is the unit
    one.  The discriminant 1 - 4p < 0 makes the polynomial irreducible."""
    return PAdicEmbedding.create(NumberField([p, 1, 1]), p, 16)


def generator(p: int):
    emb = embedding(p)
    return emb(emb.field.generator())


def oracle_valuation(x: F, p: int):
    """Independent oracle: factor p out by repeated exact division."""
    if x == 0:
        return PLUS_INFINITY
    v = 0
    while x.numerator % p == 0:
        x /= p
        v += 1
    while x.denominator % p == 0:
        x *= p
        v -= 1
    return v


def oracle_approx(x: F, p: int, n: int) -> tuple:
    """(val, unit, precision) of the PAdicApprox of x modulo p**n, the unit
    inverted by pow; zero at precision when v(x) >= n, x = 0 included."""
    v = oracle_valuation(x, p)
    if v >= n:
        return n, 0, n
    t = x / F(p) ** v
    mod = p ** (n - v)
    return v, t.numerator * pow(t.denominator, -1, mod) % mod, n


def fields(a: PAdicApprox) -> tuple:
    return a.val, a.unit, a.precision


def digits_by_loop(r: int, p: int, n: int) -> tuple:
    """The n balanced digits of the integer r modulo p**n, peeled off one
    at a time: r % p taken to (-p/2, p/2), subtracted, and divided out."""
    out = []
    for _ in range(n):
        d = r % p - p if r % p > (p - 1) // 2 else r % p
        out.append(d)
        r = (r - d) // p
    return tuple(out)


# exponents where the halving chain of inverse_mod_pk changes shape
CHAIN_EDGES = (1, 2, 3, 4, 5, 8, 9, 16, 17, 32, 33, 64, 65, 128, 129, 256, 257,
               512, 513, 1024, 1025)
exponents = st.one_of(st.sampled_from(CHAIN_EDGES), st.integers(1, 2000))


class TestInverseModPk:
    @given(p=wide_prime_st, k=exponents, a=st.integers(-(2**8000), 2**8000))
    @settings(max_examples=200, deadline=None)
    def test_matches_pow(self, p, k, a):
        a = a * p + 1 + a % (p - 1)  # prime to p
        y = inverse_mod_pk(a, p, k)
        assert y == pow(a, -1, p**k)

    @pytest.mark.parametrize("p", (3, 5, 7, 11, 13))
    def test_chain_edges(self, p):
        for k in CHAIN_EDGES:
            for a in (1, -1, 2, p - 1, p + 1, p**k - 1, 7 * p**k + 2):
                assert inverse_mod_pk(a, p, k) == pow(a, -1, p**k)

    @pytest.mark.parametrize("p", (3, 11, 257, 2**61 - 1, 3317044064679887385961813))
    def test_seed_boundary(self, p):
        """e is the largest exponent with p**e below 2**_SEED_BITS, where a
        chain from k = e takes its seed and one from k = e + 1 lifts; the
        last two primes are above that bound, so e = 1 and the seed is the
        inverse mod p itself."""
        e = 1
        while p ** (e + 1) < 2**_SEED_BITS:
            e += 1
        for k in sorted({1, e - 1, e, e + 1, 2 * e - 1, 2 * e, 2 * e + 1} - {0}):
            mod = p**k
            for a in (1, -1, 2, p - 1, p + 1, mod - 1, 7 * mod + 2, 5**3000 * p + 1):
                assert inverse_mod_pk(a, p, k) == pow(a, -1, mod)

    def test_non_unit_is_an_error(self):
        with pytest.raises(ValueError):
            inverse_mod_pk(10, 5, 300)


class TestValuation:
    def test_zero_is_plus_infinity(self):
        assert valuation(F(0), 5) == PLUS_INFINITY

    def test_examples(self):
        assert valuation(F(23, 5), 5) == -1
        assert valuation(F(50, 3), 5) == 2

    @given(x=rationals, p=prime_st)
    def test_matches_oracle(self, x, p):
        assert valuation(x, p) == oracle_valuation(x, p)

    @given(p=wide_prime_st, k=st.integers(-3000, 3000), a=big_ints, b=big_ints)
    @example(p=13, k=3000, a=2**200, b=-(2**200))
    @example(p=3, k=-3000, a=-1, b=0)
    @settings(max_examples=60, deadline=None)
    def test_large_powers_match_oracle(self, p, k, a, b):
        x = unit(a, b, p) * F(p) ** k
        assert valuation(x, p) == oracle_valuation(x, p) == k

    def test_split_p_rejects_zero(self):
        # every power of p divides 0, so the squaring loop would not end
        with pytest.raises(ValueError):
            split_p(0, 5)

    @given(x=rationals, y=rationals, p=prime_st)
    def test_multiplicative(self, x, y, p):
        assert valuation(x * y, p) == valuation(x, p) + valuation(y, p)

    @given(x=rationals, y=rationals, p=prime_st)
    def test_ultrametric(self, x, y, p):
        vx, vy = valuation(x, p), valuation(y, p)
        vs = valuation(x + y, p)
        assert vs >= min(vx, vy)
        if vx != vy:
            assert vs == min(vx, vy)

    def test_rejects_even_or_composite(self):
        # 318665857834031151167461 = 399165290221 * 798330580441 is a strong
        # pseudoprime to the bases 2..37, 3317044064679887385961981 to 2..41
        psi_12, psi_13 = 318665857834031151167461, 3317044064679887385961981
        for bad in (2, 4, 9, 1, 0, -5, psi_12, psi_13):
            assert not is_odd_prime(bad)
            with pytest.raises(ValueError, match=f"^p must be an odd prime, got {bad}$"):
                valuation(F(1), bad)

    def test_accepts_the_largest_prime_below_the_bound(self):
        assert is_odd_prime(3317044064679887385961813)


class TestBalancedDigits:
    def test_zero_is_empty(self):
        assert balanced_digit_expansion(0, 5, 3) == BalancedDigits(0, ())

    def test_23_base_5(self):
        bd = balanced_digit_expansion(23, 5, 3)
        assert bd.start == 0 and bd.digits == (-2, 0, 1)

    def test_23_by_brute_force(self):
        # oracle: the only digit vector over {-2..2} summing to 23
        hits = [
            d
            for d in itertools.product(range(-2, 3), repeat=3)
            if sum(x * 5**j for j, x in enumerate(d)) == 23
        ]
        assert hits == [(-2, 0, 1)]

    def test_14_over_19(self):
        bd = balanced_digit_expansion(F(14, 19), 5, 1)
        assert bd.start == 0 and bd.digits == (1,)
        assert 14 * pow(19, -1, 5) % 5 == 1

    def test_upto_must_exceed_valuation(self):
        with pytest.raises(ValueError):
            balanced_digit_expansion(F(25), 5, 2)

    @given(
        start=st.integers(-300, 300),
        digits=st.lists(st.integers(-6, 6), max_size=200),
        p=wide_prime_st,
    )
    @settings(max_examples=100)
    def test_value_matches_fraction_sum(self, start, digits, p):
        digits = [d % p - p if 2 * (d % p) > p else d % p for d in digits]
        want = sum(
            (F(d) * F(p) ** (start + j) for j, d in enumerate(digits)), F(0)
        )
        assert BalancedDigits(start, tuple(digits)).value(p) == want

    @given(x=nonzero_rationals, p=prime_st, extra=st.integers(0, 6))
    def test_round_trip_and_digit_range(self, x, p, extra):
        v = valuation(x, p)
        upto = v + 1 + extra
        bd = balanced_digit_expansion(x, p, upto)
        assert bd.start == v
        assert bd.digits[0] != 0
        assert all(2 * abs(d) < p for d in bd.digits)
        assert valuation(x - bd.value(p), p) >= upto


class TestBrowkin:
    def test_examples(self):
        assert browkin_s(F(0), 5) == 0
        assert browkin_s(F(23, 5), 5) == F(-2, 5)
        assert browkin_s(F(-26, 5), 5) == F(-1, 5)
        assert browkin_s(7, 5) == 2  # 7 = 2 + 1*5

    @given(x=nonzero_rationals, p=prime_st)
    def test_odd_symmetry(self, x, p):
        assert browkin_s(-x, p) == -browkin_s(x, p)

    @given(x=rationals, y=rationals, p=prime_st)
    def test_locally_constant(self, x, y, p):
        same = browkin_s(x, p) == browkin_s(y, p)
        assert same == (valuation(x - y, p) >= 1)

    @given(x=nonzero_rationals, p=prime_st)
    def test_zero_or_norm_at_least_one(self, x, p):
        s = browkin_s(x, p)
        assert s == 0 or valuation(s, p) <= 0

    @given(x=nonzero_rationals, p=prime_st)
    def test_preserves_norm_when_nonzero(self, x, p):
        s = browkin_s(x, p)
        if s != 0:
            assert valuation(s, p) == valuation(x, p)

    @given(x=rationals, p=prime_st)
    def test_range(self, x, p):
        assert in_browkin_range(browkin_s(x, p), p)

    @given(x=nonzero_rationals, p=prime_st)
    def test_difference_is_small(self, x, p):
        # |x - s(x)| < 1 always; additionally < |x| whenever s(x) != 0
        s = browkin_s(x, p)
        assert valuation(x - s, p) >= 1
        if s != 0:
            assert valuation(x - s, p) > valuation(x, p)

    @given(
        x=rationals,
        shift=st.integers(-40, 40),
        p=st.sampled_from((3, 5, 7, 11, 13)),
        n=st.integers(1, 200),
    )
    @settings(max_examples=200)
    def test_truncated_agrees_with_exact(self, x, shift, p, n):
        x *= F(p) ** shift
        assert browkin_s(PAdicApprox.from_rational(x, p, n), p) == browkin_s(x, p)

    @given(p=wide_prime_st, v=st.integers(-2000, 2), a=big_ints, b=big_ints)
    @example(p=11, v=-2000, a=2**200, b=2**200)
    @settings(max_examples=40, deadline=None)
    def test_deep_valuations_match_digit_oracle(self, p, v, a, b):
        x = unit(a, b, p) * F(p) ** v
        want = balanced_digit_expansion(x, p, 1).value(p) if v <= 0 else 0
        assert browkin_s(x, p) == want

    def test_fixes_its_range(self):
        for p in PRIMES:
            for num in range(-(p**2) // 2, p**2 // 2 + 1):
                x = F(num, p)
                if in_browkin_range(x, p):
                    assert browkin_s(x, p) == x


class TestPadicDivide:
    def test_examples(self):
        assert padic_divide(F(23), F(5), 5) == (F(-2, 5), F(25))
        assert padic_divide(F(25), F(5), 5) == (F(0), F(25))
        for x in (F(3), F(-7, 4), F(23, 5)):
            assert padic_divide(x, x, 5) == (F(1), F(0))

    @pytest.mark.parametrize(
        "make_zero",
        [
            lambda: F(0),
            lambda: PAdicApprox.zero_at(5, 4),
            lambda: generator(5) - generator(5),
        ],
        ids=["fraction", "approx", "embedded"],
    )
    def test_zero_divisor(self, make_zero):
        with pytest.raises(ZeroDivisionError):
            padic_divide(F(1), make_zero(), 5)

    @pytest.mark.parametrize("tau_val", (4, 5))
    def test_quotient_with_no_known_digit(self, tau_val):
        # O(5^4) / 5^4 is O(5^0) and O(5^4) / 5^5 weaker still: the
        # Euclidean step needs the digit at exponent 0, which neither knows
        tau = PAdicApprox.from_rational(F(5**tau_val), 5, 10)
        with pytest.raises(InsufficientPrecision):
            padic_divide(PAdicApprox.zero_at(5, 4), tau, 5)

    @given(sigma=rationals, tau=nonzero_rationals, p=prime_st)
    def test_contract(self, sigma, tau, p):
        q, eta = padic_divide(sigma, tau, p)
        assert sigma == q * tau + eta
        assert valuation(eta, p) > valuation(tau, p)
        assert in_browkin_range(q, p)
        assert q == browkin_s(sigma / tau, p)

    @pytest.mark.parametrize("p", (3, 5))
    def test_uniqueness_by_brute_force(self, p):
        # enumerate every candidate quotient with denominator dividing p**2
        # and Euclidean absolute value below p/2; exactly one admits a
        # remainder smaller than the divisor
        cases = [
            (F(7, 9), F(2, 3)),
            (F(23), F(5)),
            (F(-14, 25), F(3, 5)),
            (F(11, 4), F(7, 2)),
        ]
        bound = (p**3 - 1) // 2
        candidates = [F(n, p**2) for n in range(-bound, bound + 1)]
        for sigma, tau in cases:
            q, _ = padic_divide(sigma, tau, p)
            if q not in candidates:
                continue
            witnesses = [
                c
                for c in candidates
                if valuation(sigma - c * tau, p) > valuation(tau, p)
            ]
            assert witnesses == [q]


class TestPAdicApprox:
    def test_add_zero_keeps_precision(self):
        a = PAdicApprox.from_rational(F(23, 5), 5, 6)
        assert a + 0 == a

    def test_unit_multiplication(self):
        one = PAdicApprox.from_rational(1, 5, 4)
        assert one * one == one and (one * one).precision == 4

    def test_subtraction_against_exact_oracle(self):
        a = PAdicApprox.from_rational(F(23, 5), 5, 6)
        b = PAdicApprox.from_rational(F(2, 5), 5, 6)
        c = a - b
        assert c == PAdicApprox.from_rational(F(21, 5), 5, c.precision)

    @given(
        x=big_rationals,
        y=big_rationals,
        p=wide_prime_st,
        n=st.one_of(st.sampled_from(CHAIN_EDGES[:-2]), st.integers(1, 1000)),
    )
    @example(x=F(3**700 + 1, 2**90), y=F(-(2**2000) - 1, 3**5), p=3, n=1000)
    @settings(max_examples=150, deadline=None)
    def test_ops_agree_with_exact(self, x, y, p, n):
        ax = PAdicApprox.from_rational(x, p, n)
        ay = PAdicApprox.from_rational(y, p, n)
        assert fields(ax) == oracle_approx(x, p, n)
        assert fields(ay) == oracle_approx(y, p, n)
        ops = [(ax + ay, x + y), (ax - ay, x - y), (ax + y, x + y), (ax - y, x - y)]
        if not (ax.is_zero_at_precision() or ay.is_zero_at_precision()):
            ops += [(ax * ay, x * y), (ax / ay, x / y), (ax / y, x / y), (x / ay, x / y)]
        for op, exact in ops:
            assert fields(op) == oracle_approx(exact, p, op.precision)

    def test_sum_of_two_zero_at_precision(self):
        z = PAdicApprox.zero_at(5, 3)
        assert (z + z).is_zero_at_precision() and (z + z).precision == 3

    def test_cancellation_reduces_known_span(self):
        a = PAdicApprox.from_rational(F(1), 5, 4)
        b = PAdicApprox.from_rational(F(1 + 125), 5, 4)
        d = b - a  # = 125: only one digit left below precision 4
        assert d.val == 3 and d.precision == 4

    def test_zero_at_precision(self):
        a = PAdicApprox.from_rational(F(23, 5), 5, 6)
        z = a - a
        assert z.is_zero_at_precision() and z.precision == 6
        with pytest.raises(InsufficientPrecision):
            _ = z.valuation

    def test_division_by_zero_at_precision(self):
        a = PAdicApprox.from_rational(F(1), 5, 4)
        z = PAdicApprox.zero_at(5, 4)
        with pytest.raises(ZeroDivisionError):
            a / z

    def test_division_by_exact_zero(self):
        a = PAdicApprox.from_rational(F(1), 5, 4)
        for zero in (0, F(0)):
            with pytest.raises(ZeroDivisionError, match="^division by exact zero$"):
                a / zero

    def test_exact_zero_over_a_truncated_value(self):
        # 1/x for x = 2/25 + O(5^6) is known to 8 digits past valuation 2
        x = PAdicApprox.from_rational(F(2, 25), 5, 6)
        for zero in (0, F(0)):
            assert zero / x == PAdicApprox.zero_at(5, 10)

    def test_immutable(self):
        a = PAdicApprox.from_rational(F(23, 5), 5, 6)
        with pytest.raises(AttributeError, match="^PAdicApprox is immutable$"):
            a.val = 0

    def test_precision_exhausted(self):
        z = PAdicApprox.zero_at(5, 1)
        big = PAdicApprox.from_rational(F(25), 5, 6)
        with pytest.raises(PrecisionExhausted):
            z / big

    def test_exact_operand_only_shifts_precision(self):
        a = PAdicApprox.from_rational(F(23, 5), 5, 6)
        assert (a * F(1, 5)).precision == 5
        assert (a * 5).precision == 7
        assert (a / 5).precision == 5
        assert (a / F(1, 5)).precision == 7

    def test_browkin_needs_digit_at_zero(self):
        a = PAdicApprox.from_rational(F(1, 5), 5, 0)
        with pytest.raises(InsufficientPrecision):
            browkin_s(a, 5)

    def test_browkin_on_approx(self):
        a = PAdicApprox.from_rational(F(23, 5), 5, 3)
        assert browkin_s(a, 5) == F(-2, 5)
        small = PAdicApprox.from_rational(F(25), 5, 3)
        assert browkin_s(small, 5) == 0

    @given(
        p=wide_prime_st,
        val=st.integers(-20, 20),
        span=st.integers(1, 1000),
        seed=st.integers(0, 2**8000),
    )
    @example(p=5, val=0, span=1, seed=2)
    @settings(max_examples=150, deadline=None)
    def test_digits_match_the_digit_loop(self, p, val, span, seed):
        a = PAdicApprox(p, val, seed, val + span)
        want = digits_by_loop(a.unit, p, a.precision - a.val)
        assert a.digits == BalancedDigits(a.val, want)

    @given(
        p=st.sampled_from((3, 5, 7, 11, 1000003)),
        val=st.integers(-5, 5),
        n=st.integers(1, 60),
        unit=st.integers(-(2**1300), -1),
    )
    @example(p=1000003, val=0, n=60, unit=-(1000003**60) // 2)
    @settings(max_examples=100, deadline=None)
    def test_digits_of_a_negative_unit_match_the_digit_loop(self, p, val, n, unit):
        # the loop reads the signed unit; PAdicApprox first reduces it mod p**n
        assume(unit % p)
        a = PAdicApprox(p, val, unit, val + n)
        assert a.digits == BalancedDigits(val, digits_by_loop(unit, p, n))

    def test_equal_values_hash_equally(self):
        a = PAdicApprox.from_rational(F(23, 5), 5, 6)
        b = PAdicApprox(5, -1, 23, 6)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1

    def test_repr(self):
        assert repr(PAdicApprox.from_rational(F(23, 5), 5, 3)) == (
            "-2*5^-1 + 1*5^1 + O(5^3)"
        )
        assert repr(PAdicApprox.from_rational(F(-7, 3), 5, 3)) == (
            "1 + 1*5^1 + -2*5^2 + O(5^3)"
        )
        assert repr(PAdicApprox.zero_at(5, 3)) == "O(5^3)"

    @given(x=rationals, p=prime_st, n=st.integers(1, 8))
    @settings(max_examples=60)
    def test_digits_round_trip(self, x, p, n):
        a = PAdicApprox.from_rational(x, p, n)
        assert valuation(x - a.digits.value(p), p) >= n


def triple_value(t, p: int) -> F:
    """The rational p**v * u that the triple t = (v, u, n) holds."""
    return t[1] * F(p) ** t[0]


def in_class(x: F, t, p: int) -> bool:
    """Whether x is congruent to the value of t modulo p**n."""
    return oracle_valuation(x - triple_value(t, p), p) >= t[2]


def is_browkin_digit(q: F, p: int) -> bool:
    """Whether q lies in Z[1/p] and in the open interval (-p/2, p/2)."""
    d = q.denominator
    return d == p ** -oracle_valuation(F(1, d), p) and 2 * abs(q) < p


class TestTripleRules:
    """PAdicApprox's operators against exact arithmetic on two
    representatives of each operand, x and x + p**n * r with r p-integral.
    Every choice must lie in the class of the result modulo the precision
    the operator reports: so its rule is right, and its precision is no
    higher than the operands support.  The operands' triples come from
    oracle_approx."""

    @given(
        x=rationals,
        y=rationals,
        shift=st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
        p=wide_prime_st,
        na=st.integers(-3, 40),
        nb=st.integers(-3, 40),
        r=st.tuples(st.integers(-(10**6), 10**6), st.integers(-(10**6), 10**6)),
    )
    @example(x=F(3), y=F(1), shift=(0, 0), p=3, na=1, nb=1, r=(1, 1))  # 0 / a unit
    @example(x=F(3), y=F(3), shift=(0, 0), p=3, na=1, nb=5, r=(1, 1))  # no known digit
    @settings(max_examples=150, deadline=None)
    def test_every_representative_lies_in_the_result(self, x, y, shift, p, na, nb, r):
        x, y = x * F(p) ** shift[0], y * F(p) ** shift[1]
        a, b = oracle_approx(x, p, na), oracle_approx(y, p, nb)
        xa, ya = PAdicApprox(p, *a), PAdicApprox(p, *b)
        assert (xa.triple, ya.triple) == (a, b)
        xs = (x, x + F(p) ** na * F(r[0], p * abs(r[1]) + 1))
        ys = (y, y + F(p) ** nb * F(r[1], p * abs(r[0]) + 1))
        results = [(xa + ya, xs, ys, lambda u, w: u + w),
                   (xa * ya, xs, ys, lambda u, w: u * w)]
        if b[1] == 0:
            with pytest.raises(ZeroDivisionError):
                xa / ya
        elif a[1] == 0 and na <= b[0]:
            with pytest.raises(PrecisionExhausted):
                xa / ya
        else:
            results.append((xa / ya, xs, ys, lambda u, w: u / w))
        if a[1] == 0:  # jp_step's zero test comes before its 1 / x
            with pytest.raises(InsufficientPrecision, match="cannot distinguish 0"):
                is_zero(xa)
        else:  # the exact 1 is lifted to the relative precision of x
            results.append((1 / xa, xs, (1,), lambda u, _: 1 / u))
        if na < 1:
            with pytest.raises(InsufficientPrecision, match="digit at exponent 0"):
                browkin_s(xa, p)
        else:
            digit = browkin_s(xa, p)
            # the one element of Z[1/p] in (-p/2, p/2) within |.| < 1 of x
            assert is_browkin_digit(digit, p)
            assert all(oracle_valuation(u - digit, p) >= 1 for u in xs)
            results.append((xa - digit, xs, (digit,), lambda u, w: u - w))
        for result, us, ws, op in results:
            t = result.triple
            assert t == oracle_approx(triple_value(t, p), p, t[2])  # normal form
            assert all(in_class(op(u, w), t, p) for u in us for w in ws)


class TestValueProtocol:
    """valuation, is_zero and to_approx agree across backends."""

    @given(x=nonzero_rationals, p=prime_st)
    @settings(max_examples=60, deadline=None)
    def test_backends_agree_on_a_rational(self, x, p):
        emb = embedding(p)
        alg = emb(emb.field.element([x]))
        v = valuation(x, p)
        approx = PAdicApprox.from_rational(x, p, v + 8)
        assert valuation(approx, p) == v
        assert valuation(alg, p) == v
        assert to_approx(x, p, v + 8) == to_approx(alg, p, v + 8) == approx
        assert to_approx(approx, p, v + 8) is approx
        assert not (is_zero(x) or is_zero(alg) or is_zero(approx))

    @given(p=prime_st, n=st.integers(-3, 12))
    def test_truncated_zero_is_undecidable(self, p, n):
        z = PAdicApprox.zero_at(p, n)
        with pytest.raises(InsufficientPrecision):
            is_zero(z)
        with pytest.raises(InsufficientPrecision):
            valuation(z, p)

    def test_exact_zeros(self):
        theta = generator(5)
        for zero in (F(0), theta - theta):
            assert is_zero(zero)
            assert valuation(zero, 5) == PLUS_INFINITY

    def test_values_at_another_prime_are_refused(self):
        approx = PAdicApprox.from_rational(F(1, 3), 5, 8)
        for x in (approx, generator(5)):
            assert as_value(x, 5) is x
            for query in (
                lambda: valuation(x, 7),
                lambda: to_approx(x, 7, 8),
                lambda: browkin_s(x, 7),
                lambda: padic_divide(x, 1, 7),
            ):
                with pytest.raises(ValueError, match="value carries a different prime"):
                    query()
        other = PAdicApprox.from_rational(F(1, 3), 7, 8)
        for op in (
            lambda: approx + other, lambda: approx - other, lambda: other - approx,
            lambda: approx * other, lambda: approx / other,
        ):
            with pytest.raises(ValueError, match="value carries a different prime"):
                op()

    @pytest.mark.parametrize("x", [F(1, 3), F(7, 25), F(-10, 9), F(125, 2)])
    def test_field_elements_mix_with_truncated_values(self, x):
        # a field element on either side is lifted by to_approx, as a
        # Fraction is: the result is the one of its embedding at ample precision
        emb = PAdicEmbedding.create(NumberField([-2, 0, 0, 1]), 5, 32)
        theta = emb(emb.field.generator())  # the cube root of 2 in Q_5
        a = to_approx(x, 5, 20)
        for y in (theta, 5 * theta * theta + F(1, 5)):
            lifted = to_approx(y, 5, 80)
            for op in (operator.add, operator.sub, operator.mul, operator.truediv):
                assert op(a, y) == op(a, lifted)
                assert op(y, a) == op(lifted, a)

    def test_anything_else_is_read_as_a_fraction(self):
        for x in (3, "-7/5", F(2, 9)):
            assert as_value(x, 5) == F(x) and type(as_value(x, 5)) is F


# Only padic knows the value backends; the protocol clients go through its
# protocol (as_value, valuation, is_zero, to_approx, truncated_triples,
# integer_lift), and only as_value reads a value's prime.  A truncated tuple
# reaches jacobi_perron as plain triples, and an exact tuple with a field
# element as an opaque integer lift, whose field-specific operations live in
# numberfield.  jacobi_perron tells rational tuples from field tuples in one
# function, _exact_run, which chooses the exact kernel of both jp_expand and
# euclid_expand.
BACKEND_NAMES = {"PAdicApprox", "AlgebraicNumber", "is_zero_at_precision"}


def functions_calling(tree, matches):
    """Names of the functions that hold a call for which matches(call)."""
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call) and matches(node):
            found.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "<module>")
    return found


def chooses_kernel(call):
    """An isinstance(..., Fraction) test or an integer_lift call."""
    name = getattr(call.func, "id", getattr(call.func, "attr", None))
    types = call.args[1:] if name == "isinstance" else []
    return name == "integer_lift" or any(
        getattr(t, "id", None) == "Fraction" for a in types for t in ast.walk(a)
    )


def reads_prime(call):
    """A getattr call for the attribute "prime"."""
    return getattr(call.func, "id", None) == "getattr" and any(
        isinstance(a, ast.Constant) and a.value == "prime" for a in call.args[1:2]
    )


def inverts_modulo(call):
    """A pow call with the exponent -1."""
    exps = call.args[1:2] + [k.value for k in call.keywords if k.arg == "exp"]
    return getattr(call.func, "id", None) == "pow" and any(
        ast.unparse(e).replace(" ", "") == "-1" for e in exps
    )


PACKAGE = Path(padic_mcf.__file__).parent
PROTOCOL_CLIENTS = ("jacobi_perron", "mcf", "cli", "exprparse", "worked_examples")


@pytest.mark.parametrize(
    "module",
    [*PROTOCOL_CLIENTS]
    + sorted({f.stem for f in PACKAGE.glob("*.py")} - set(PROTOCOL_CLIENTS)),
)
def test_backends_stay_behind_the_padic_protocol(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    # every modular inverse goes through padic.inverse_mod_pk
    inverters = functions_calling(tree, inverts_modulo)
    assert inverters == ({"inverse_mod_pk"} if module == "padic" else set())
    # and every value's prime is read by padic.as_value
    readers = functions_calling(tree, reads_prime)
    assert readers == ({"as_value"} if module == "padic" else set())
    if module not in PROTOCOL_CLIENTS:
        return
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            named.update(a.name for a in node.names)
        elif isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
    assert not named & BACKEND_NAMES
    if module == "jacobi_perron":
        assert functions_calling(tree, chooses_kernel) == {"_exact_run"}
