"""Number field arithmetic, p-adic root finding, embeddings, dependence."""

import json
import math
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from conftest import eisenstein_field

from padic_mcf import numberfield
from padic_mcf.errors import (
    AmbiguousSelection,
    FieldMismatch,
    InsufficientPrecision,
    LiftingObstruction,
    NoRoot,
)
from padic_mcf.numberfield import (
    CERTIFICATE_PRIMES,
    MAX_DEGREE,
    IntegerLift,
    NumberField,
    PAdicEmbedding,
    _newton_lift,
    _newton_polygon_slopes,
    _roots_mod_p,
    _select_largest_root,
    clear_denominators,
    embed,
    padic_roots,
    rational_linear_dependence,
)
from padic_mcf.padic import PLUS_INFINITY, PAdicApprox, browkin_s, valuation

CUBIC_Q5 = [F(-1), F(-1), F(-8, 5), F(1)]  # x^3 - 8/5 x^2 - x - 1
# (x-1)^3 - 5^11 (x-1) - 5^17 at p = 5: one root in Q_5, 1 + z with v(z) = 6,
# where v(f') = 11; with 8 digits of it v(f) is 19 < 22, so Hensel's
# condition fails, and with 16 digits it holds
HENSEL_FAILS_AT_8 = (-1 + 5**11 - 5**17, 3 - 5**11, -3, 1)


# x^2+2, x^3-8/5x^2-x-1, x^3-3, x^4-3/7x^3+2x-6
ORACLE_MINPOLYS = (
    (2, 0, 1),
    tuple(CUBIC_Q5),
    (-3, 0, 0, 1),
    (-6, 2, 0, F(-3, 7), 1),
)
# (coefficients, p) with roots in Q_p: the cubic above (root valuations
# -1 and 1/2), the same field scaled by 5^3 (-4 and -5/2), a quadratic with
# roots of valuation -4 (shift -8) and 4 (shift 0), and the field whose root
# fails Hensel's condition at 8 digits
RESIDUAL_FIELDS = (
    (CUBIC_Q5, 5),
    ((F(-1, 5**9), F(-1, 5**6), F(-8, 5**4), 1), 5),
    ((-1, F(-1, 7**4), 1), 7),
    (HENSEL_FAILS_AT_8, 5),
)
PRIMES_BELOW_1000 = [q for q in range(3, 1000) if sympy.isprime(q)]
small_fractions = st.fractions(min_value=-99, max_value=99, max_denominator=20)
# Eisenstein at 2, so irreducible: x^d + 2x + 2 for d = 2..8
DEPENDENCE_FIELDS = {d: NumberField([2, 2] + [0] * (d - 2) + [1]) for d in range(2, 9)}


def poly_times(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def _sympy_poly(coeffs):
    """Little-endian Fraction coefficients as a sympy Poly over QQ."""
    big_endian = [sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)]
    return sympy.Poly(big_endian, sympy.Symbol("x"), domain="QQ")


def _from_sympy(poly, degree):
    """A sympy Poly of degree < `degree` as a length-`degree` Fraction tuple."""
    c = [F(int(r.p), int(r.q)) for r in reversed(poly.all_coeffs())]
    return tuple(c + [F(0)] * (degree - len(c)))


def scaled_field(coeffs, p, e):
    """The monic polynomial whose roots are those of `coeffs` over p**e."""
    d = len(coeffs) - 1
    return [F(c) * F(p) ** (e * (i - d)) for i, c in enumerate(coeffs)]


def random_element_coeffs(rng, p, degree):
    """Zero, a rational or a general vector, with p-power and other
    denominators and p-power factors: every valuation is at least -6."""
    kind = rng.randrange(4)
    if kind == 0:
        return [F(0)] * degree
    c = [
        F(rng.randint(-99, 99), rng.choice((1, 2, 9, 13)) * p ** rng.randint(0, 3))
        * F(p) ** rng.randint(-3, 3)
        for _ in range(degree)
    ]
    return c[:1] + [F(0)] * (degree - 1) if kind == 1 else c


def assert_refined(field, p, root, n):
    """root has n digits, v(f(x)) >= n for its representative x, and it
    agrees mod p**n with exactly one root of padic_roots(field, p, n)."""
    assert root.precision >= n
    x = root.digits.value(root.prime)
    assert valuation(sum(c * x**i for i, c in enumerate(field.minpoly)), p) >= n
    known = p ** max(n - root.val, 0)
    matching = [
        r for r in padic_roots(field, p, n)
        if r.val == root.val and (r.unit - root.unit) % known == 0
    ]
    assert len(matching) == 1


@pytest.fixture(scope="module")
def k5():
    return NumberField(CUBIC_Q5)


@pytest.fixture(scope="module")
def emb5(k5):
    return PAdicEmbedding.create(k5, 5, 16)


class TestNumberField:
    def test_rejects_reducible(self):
        with pytest.raises(ValueError):
            NumberField([-1, 0, 1])  # x^2 - 1
        with pytest.raises(ValueError):
            NumberField([0, 1])  # degree 1

    def test_degree_bound(self):
        assert NumberField([-6] + [0] * (MAX_DEGREE - 1) + [1]).degree == 64
        with pytest.raises(ValueError, match="degree 65 exceeds 64"):
            NumberField([-6] + [0] * MAX_DEGREE + [1])

    def test_normalises_to_monic(self):
        k = NumberField([2, 0, 2])  # 2x^2 + 2 -> x^2 + 1
        assert k.minpoly == (F(1), F(0), F(1))

    def test_inverse_roundtrip(self, k5):
        for coeffs in ([1, 2, 3], [F(1, 2), 0, F(-7, 3)], [0, 0, 5]):
            a = k5.element(coeffs)
            assert a * a.inverse() == k5.element([1])

    def test_cube_reduction(self, k5):
        theta = k5.generator()
        assert theta * theta * theta == k5.element([1, 1, F(8, 5)])

    def test_companion_element(self, k5):
        alpha = k5.generator()
        beta = 1 + 1 / alpha
        assert len(beta.coeffs) == 3
        assert alpha * (beta - 1) == k5.element([1])

    def test_field_mismatch(self, k5):
        other = NumberField([-2, 0, 0, 1])
        with pytest.raises(FieldMismatch):
            k5.generator() + other.generator()

    def test_elements_are_immutable(self, k5):
        with pytest.raises(AttributeError, match="^AlgebraicNumber is immutable$"):
            k5.generator().coeffs = ()

    def test_division_by_zero(self, k5):
        with pytest.raises(ZeroDivisionError):
            k5.element([1]) / k5.element([])

    def test_coefficient_vector_length_is_checked(self):
        k = NumberField([-3, 0, 0, 1])
        with pytest.raises(ValueError, match="^need at most 3 coefficients$"):
            k.element([1, 2, 3, 4])
        with pytest.raises(ValueError, match="^coefficient vector has wrong length$"):
            numberfield.AlgebraicNumber(k, (F(1),))

    def test_repr_of_a_negative_power(self):
        assert repr(-NumberField([-3, 0, 0, 1]).generator()) == "(-x)"

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_arithmetic_matches_sympy(self, data):
        minpoly = data.draw(st.sampled_from(ORACLE_MINPOLYS))
        k = NumberField(minpoly)
        coeff_vec = st.lists(small_fractions, min_size=k.degree, max_size=k.degree)
        a = k.element(data.draw(coeff_vec))
        b = k.element(data.draw(coeff_vec))
        f, pa, pb = (_sympy_poly(c) for c in (k.minpoly, a.coeffs, b.coeffs))
        assert (a * b).coeffs == _from_sympy(pa.mul(pb).rem(f), k.degree)
        if not a.is_zero():
            assert a.inverse().coeffs == _from_sympy(pa.invert(f), k.degree)


class TestIrreducibility:
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_certificate_matches_sympy(self, data):
        # random polynomials of degree 2-8, and products of two random
        # factors: a certificate is a proof, so no reducible one gets it
        def poly(low, high):
            lead = data.draw(small_fractions.filter(bool))
            degree = data.draw(st.integers(low, high))
            return [data.draw(small_fractions) for _ in range(degree)] + [lead]

        if data.draw(st.booleans()):
            f = poly(2, 8)
        else:
            f = list(numberfield._pmul(poly(1, 4), poly(1, 4)))
        irreducible = _sympy_poly(f).is_irreducible
        if numberfield._irreducibility_certificate(numberfield.clear_denominators(f)[0]):
            assert irreducible
        assert numberfield._is_irreducible(tuple(f)) == irreducible

    @given(
        q=st.sampled_from((3, 5, 7, 11)),
        coeffs=st.lists(st.integers(0, 10), min_size=2, max_size=10),
    )
    @settings(max_examples=150, deadline=None)
    def test_factor_degrees_match_sympy(self, q, coeffs):
        h = [c % q for c in coeffs] + [1]
        factors = sympy.Poly(h[::-1], sympy.Symbol("x"), modulus=q).factor_list()[1]
        assume(all(k == 1 for _, k in factors))  # squarefree mod q
        want = sorted(g.degree() for g, _ in factors)
        assert sorted(numberfield._fp_factor_degrees(h, q)) == want

    @pytest.mark.parametrize(
        "coeffs",
        ([1, 0, 0, 0, 1], [1, 0, -10, 0, 1], [1] + [0] * 15 + [1]),
        ids=("x^4+1", "x^4-10x^2+1", "x^16+1"),
    )
    def test_no_certificate_falls_back_to_sympy(self, coeffs):
        # irreducible over Q but reducible modulo every prime
        assert not numberfield._irreducibility_certificate(coeffs)
        assert NumberField(coeffs).degree == len(coeffs) - 1

    def test_certificate_primes_are_the_odd_primes_below_200(self):
        # trial division by every smaller integer, a test the package never runs
        odd_primes = [q for q in range(3, 200, 2) if all(q % d for d in range(2, q))]
        assert list(CERTIFICATE_PRIMES) == odd_primes and len(odd_primes) == 45

    def test_bench_style_fields_need_no_sympy(self):
        rng = random.Random(17)
        # a cubic and a quartic drawn as the bench draws them
        fields = [
            ([str(c) for c in eisenstein_field(rng, p, d)], p) for p, d in ((5, 3), (7, 4))
        ]
        script = (
            "import json, sys\n"
            "import padic_mcf.cli\n"
            "from padic_mcf.numberfield import NumberField, PAdicEmbedding\n"
            "for coeffs, p in json.loads(sys.argv[1]):\n"
            "    PAdicEmbedding.create(NumberField(coeffs), p, 64)\n"
            "print('sympy' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, json.dumps(fields)],
            capture_output=True,
            text=True,
            cwd=Path(numberfield.__file__).resolve().parents[1],
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


class TestNewtonPolygon:
    def test_sqrt2_at_7(self):
        assert _newton_polygon_slopes([F(-2), F(0), F(1)], 7) == [(F(0), 2)]

    def test_sqrt5_at_5(self):
        assert _newton_polygon_slopes([F(-5), F(0), F(1)], 5) == [(F(1, 2), 2)]

    def test_cubic_two_segments(self):
        segs = _newton_polygon_slopes(CUBIC_Q5, 5)
        assert segs == [(F(1, 2), 2), (F(-1), 1)]

    def test_fewer_than_two_nonzero_coefficients(self):
        assert _newton_polygon_slopes((F(0), F(1)), 5) == []


class TestPadicRoots:
    def test_sqrt2_in_q7(self):
        roots = padic_roots(NumberField([-2, 0, 1]), 7, 3)
        assert len(roots) == 2
        assert sorted(r.unit % 7 for r in roots) == [3, 4]
        for r in roots:
            x = r.digits.value(r.prime)
            assert valuation(x * x - 2, 7) >= 3

    def test_sqrt5_not_in_q5(self):
        assert padic_roots(NumberField([-5, 0, 1]), 5, 3) == []

    def test_cubic_single_root_of_norm_5(self, k5):
        roots = padic_roots(k5, 5, 6)
        assert len(roots) == 1 and roots[0].val == -1

    def test_roots_sharing_1200_digits(self):
        # (x - 1)^2 - 6 * 5^2400 has the roots 1 +- 5^1200 * sqrt(6), as 6
        # is a square mod 5, and (x - 1)^2 - 2 * 5^2400 has none: each
        # search splits its double residue 1200 times
        f = NumberField([1 - 6 * 5**2400, -2, 1])
        roots = padic_roots(f, 5, 8)
        assert len(roots) == 2
        for r in roots:
            x = r.digits.value(r.prime)
            assert valuation(sum(c * x**i for i, c in enumerate(f.minpoly)), 5) >= 8
        assert padic_roots(NumberField([1 - 2 * 5**2400, -2, 1]), 5, 8) == []

    def test_precision_must_be_positive(self, k5):
        with pytest.raises(ValueError, match="^precision must be >= 1$"):
            padic_roots(k5, 5, precision=0)

    def test_non_simple_residue_with_no_roots(self):
        # x^2 + x + 1 over Q_3: the residue square (x-1)^2 must be separated
        # and correctly rejected
        assert padic_roots(NumberField([1, 1, 1]), 3, 4) == []

    def test_non_simple_residue_with_two_roots(self):
        # x^2 - 17x - 59 over Q_5: both roots sit at 1 mod 5, where the
        # reduction has a double root; separation must find them both
        k = NumberField([-59, -17, 1])
        roots = padic_roots(k, 5, 6)
        assert len(roots) == 2
        for r in roots:
            assert r.unit % 5 == 1
            x = r.digits.value(r.prime)
            assert valuation(x * x - 17 * x - 59, 5) >= 6

    def test_cube_root_at_a_ten_digit_prime(self):
        # p = 2 mod 3, so 3 has one cube root mod p; trying all p residues
        # would take minutes
        roots = padic_roots(NumberField([-3, 0, 0, 1]), 1000000007, 8)
        assert len(roots) == 1
        assert roots[0].unit**3 % 1000000007**8 == 3

    def test_three_cube_roots_at_a_seven_digit_prime(self):
        # p = 1 mod 3 and 3 is a cube mod p: three roots
        assert len(padic_roots(NumberField([-3, 0, 0, 1]), 1000003, 8)) == 3

    def test_double_residue_at_a_seven_digit_prime(self):
        # x^3 - x^2/p - 2 has its root of valuation -1 on the segment of
        # slope 1, and the unit roots of y^3 - y^2 - 2p^3 at the double
        # residue 0 are split again one level down
        p = 1000003
        roots = padic_roots(NumberField([-2, 0, F(-1, p), 1]), p, 8)
        assert [r.val for r in roots] == [-1]

    @given(p=st.sampled_from(PRIMES_BELOW_1000), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_roots_mod_p_match_a_scan(self, p, data):
        # f mod p is a unit times planted linear factors, repeats allowed,
        # and irreducible quadratics x^2 - n t^2 (n a nonresidue), of degree
        # 0 to 8; f itself has its coefficients moved by multiples of p and
        # a top coefficient divisible by p
        n = next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)
        f, degree = [data.draw(st.integers(1, p - 1))], data.draw(st.integers(0, 8))
        while len(f) <= degree:
            if len(f) < degree and data.draw(st.booleans()):
                f = poly_times(f, [-n * data.draw(st.integers(1, p - 1)) ** 2, 0, 1])
            else:
                f = poly_times(f, [-data.draw(st.integers(0, p - 1)), 1])
        f = [c + p * data.draw(st.integers(-3, 3)) for c in f + [0]]
        scan = [r for r in range(p) if sum(c * r**i for i, c in enumerate(f)) % p == 0]
        assert _roots_mod_p(f, p) == scan

    @pytest.mark.parametrize("p", (1000000007, 2**61 - 1))
    def test_residual_invariant_at_large_primes(self, p):
        # x^3 - 3, a double residue 0 below a root of valuation -1, and two
        # planted roots next to the irreducible x^2 + 1 (p = 3 mod 4)
        planted = poly_times(poly_times([-(10**12), 1], [7, 1]), [1, 0, 1])
        for coeffs in ((-3, 0, 0, 1), (-2, 0, F(-1, p), 1), planted):
            roots = numberfield._qp_roots(coeffs, p, 20)
            assert roots
            for r in roots:
                assert r.precision >= 20
                x = r.digits.value(r.prime)
                assert valuation(sum(c * x**i for i, c in enumerate(coeffs)), p) >= 20

    @pytest.mark.parametrize("n", (1, 2, 8, 32, 64))
    def test_residual_invariant(self, n):
        # one pass of padic_roots must give n digits and v(f(x)) >= n, also
        # where the root's valuation w is negative and the shift below w
        for coeffs, p in RESIDUAL_FIELDS:
            k = NumberField(coeffs)
            roots = padic_roots(k, p, n)
            assert roots
            for r in roots:
                assert r.precision >= n
                x = r.digits.value(r.prime)
                mp = sum(c * x**i for i, c in enumerate(k.minpoly))
                assert valuation(mp, p) >= n

    @given(
        p=st.sampled_from((3, 5, 7, 11)),
        a=st.integers(-1000, 1000),
        j=st.integers(0, 60),
        u=st.integers(1, 100),
        k=st.integers(1, 80),
    )
    @settings(max_examples=50, deadline=None)
    def test_planted_close_roots(self, p, a, j, u, k):
        # (x - a)(x - a - p^j u)(x^2 - c), c a nonresidue mod p: the two
        # planted roots share j digits, and x^2 - c has no root; a root 0
        # is not on the Newton polygon
        b = a + p**j * u
        assume(u % p and a and b)
        c = next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)
        f = poly_times(poly_times([-a, 1], [-b, 1]), [-c, 0, 1])
        got = [r.digits.value(r.prime) % p**k for r in numberfield._qp_roots(f, p, k)]
        assert sorted(got) == sorted([a % p**k, b % p**k])

    def test_newton_lift_needs_hensels_condition(self):
        # f = (x - 1)(x - 1 - 5^4).  At 1 + 5^2, t = v(f) = 4 = 2d: no lift,
        # since both roots are as near.  From 1 + 5^5 (t = 9, d = 4) and
        # 1 + 5^4 + 5^9 (t = 13, d = 4) Newton's method reaches the nearer
        # root; from a root it stops at once.
        f = [1 + 5**4, -(2 + 5**4), 1]
        assert _newton_lift(f, 1 + 5**2, 5, 20) is None
        assert _newton_lift(f, 1 + 5**5, 5, 20) == 1
        assert _newton_lift(f, 1 + 5**4 + 5**9, 5, 20) == 1 + 5**4
        assert _newton_lift(f, 1 + 5**4, 5, 3) == 1

    def test_newton_lift_stops_where_the_derivative_vanishes(self):
        # x^2 + 1 at 0: f'(0) = 0, so no Newton step can start
        assert _newton_lift([1, 0, 1], 0, 5, 3) is None

    def test_constructed_ground_truth(self):
        # (x - a)(x - b)(x^2 - c) with c a quadratic nonresidue mod p, so the
        # quadratic factor has no Q_p roots: exactly the two known rational
        # roots must come back, at the right residues
        import random

        rng = random.Random(14)
        nonresidues = {3: 2, 5: 2, 7: 3, 11: 2}
        for p, c in nonresidues.items():
            for _ in range(10):
                a = F(rng.randint(-30, 30))
                b = F(rng.randint(-30, 30))
                if a == b:
                    continue
                quad = (F(-c), F(0), F(1))
                lin = (F(a * b), F(-(a + b)), F(1))
                coeffs = [
                    sum(
                        lin[i] * quad[j]
                        for i in range(3)
                        for j in range(3)
                        if i + j == k
                    )
                    for k in range(5)
                ]
                roots = numberfield._qp_roots(coeffs, p, 8)
                got = sorted(r.digits.value(r.prime) % p**8 for r in roots)
                want = sorted(x % p**8 for x in (a, b))
                assert got == want, (p, a, b, roots)


class TestSelectLargestRoot:
    def test_single(self, k5):
        roots = padic_roots(k5, 5, 4)
        assert _select_largest_root(roots) == roots[0]

    def test_empty(self):
        with pytest.raises(NoRoot):
            _select_largest_root([])

    def test_tie_is_an_error(self):
        roots = padic_roots(NumberField([-2, 0, 1]), 7, 3)
        with pytest.raises(AmbiguousSelection):
            _select_largest_root(roots)


class TestEmbedding:
    def test_rational_constant(self, k5, emb5):
        got = embed(k5.element([F(5, 4)]), emb5, 6)
        assert got == PAdicApprox.from_rational(F(5, 4), 5, 6)

    def test_defining_relation_vanishes(self, k5, emb5):
        theta = embed(k5.generator(), emb5, 8)
        resid = theta * theta * theta - F(8, 5) * (theta * theta) - theta - 1
        # three factors of valuation -1 cost two digits of absolute precision
        assert resid.is_zero_at_precision() and resid.precision >= 6

    def test_browkin_of_embedded_root(self, k5, emb5):
        assert browkin_s(emb5(k5.generator()), 5) == F(8, 5)

    def test_refinement_extends_precision(self, k5):
        e = PAdicEmbedding.create(k5, 5, 8)
        before = e.root.precision
        root = e.refine_to(64)
        assert root.precision >= 64 > before
        x = root.digits.value(root.prime)
        mp = sum(c * x**i for i, c in enumerate(k5.minpoly))
        assert valuation(mp, 5) >= 64
        # f' has valuation -2 at the root, so the cached digits run 2 ahead
        # of v(f(x)); a request between the two must still lift
        for n in range(65, 131):
            assert_refined(k5, 5, e.refine_to(n), n)

    @given(
        p=st.sampled_from((3, 5, 7, 11, 13)),
        degree=st.sampled_from((2, 3, 4)),
        e=st.integers(-2, 3),
        start=st.sampled_from((1, 2, 8)),
        targets=st.lists(st.integers(1, 200), min_size=1, max_size=4),
        rng=st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_refinement_matches_padic_roots(self, p, degree, e, start, targets, rng):
        # roots of valuation -1 - e: from -4 to 1
        field = NumberField(scaled_field(eisenstein_field(rng, p, degree), p, e))
        emb = PAdicEmbedding.create(field, p, start)
        for n in targets:
            root = emb.refine_to(n)
            assert root is emb.root
            assert_refined(field, p, root, n)

    def test_refinement_rematches_where_hensel_fails(self, monkeypatch):
        field = NumberField(HENSEL_FAILS_AT_8)
        embs = {start: PAdicEmbedding.create(field, 5, start) for start in (8, 16)}
        calls = []

        def counting_padic_roots(*args):
            calls.append(args)
            return padic_roots(*args)

        monkeypatch.setattr(numberfield, "padic_roots", counting_padic_roots)
        for start, rematches in ((8, 1), (16, 0)):
            calls.clear()
            root = embs[start].refine_to(40)
            assert len(calls) == rematches
            assert_refined(field, 5, root, 40)

    @given(
        p=st.sampled_from((3, 5, 7, 11, 13)),
        degree=st.sampled_from((2, 3, 4)),
        n=st.integers(1, 200),
        rng=st.randoms(use_true_random=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_embed_and_residues_match_rational_oracle(self, p, degree, n, rng):
        field = NumberField(eisenstein_field(rng, p, degree))
        emb = PAdicEmbedding.create(field, p, rng.choice((1, 8, 32)))
        # The oracle evaluates at a rational x with n + 32 digits of the
        # root, which has valuation -1: with d <= 4 and coefficient
        # valuations >= -6 the evaluation error stays below p**n.
        [root] = [r for r in padic_roots(field, p, n + 32) if r.val == emb.root.val]
        x = root.digits.value(root.prime)
        elements = [random_element_coeffs(rng, p, degree) for _ in range(4)]
        for c in elements:
            want = sum(cj * x**j for j, cj in enumerate(c))
            assert embed(field.element(c), emb, n) == PAdicApprox.from_rational(want, p, n)
        lift = IntegerLift([emb(field.element(c)) for c in elements])
        s = degree - 1  # p**s * x**j is an integer for j < degree
        want = [int(p**s * sum(vj * x**j for j, vj in enumerate(v))) % p**n
                for v in lift.vectors]
        assert lift.residues(lift.vectors, n) == want

    def test_embed_is_homomorphic_up_to_slack(self, k5, emb5):
        a = k5.element([1, F(2, 5), 0])
        b = k5.element([F(-1, 3), 1, 1])
        n = 10
        ea, eb = embed(a, emb5, n), embed(b, emb5, n)
        prod = embed(a * b, emb5, n)
        tot = embed(a + b, emb5, n)
        diff_mul = PAdicApprox(5, prod.val, prod.unit, (ea * eb).precision) - ea * eb
        diff_add = tot - (ea + eb)
        assert diff_mul.is_zero_at_precision()
        assert diff_add.is_zero_at_precision()

    def test_embedded_valuations(self, k5, emb5):
        theta = emb5(k5.generator())
        assert theta.valuation() == -1
        assert (theta - theta).valuation() == PLUS_INFINITY
        assert (1 / theta).valuation() == 1

    def test_wrap_requires_same_field(self, emb5):
        other = NumberField([-2, 0, 0, 1])
        with pytest.raises(FieldMismatch):
            emb5(other.generator())

    def test_embed_requires_same_field(self, emb5):
        other = NumberField([-2, 0, 0, 1])
        with pytest.raises(FieldMismatch, match="^element belongs to a different field$"):
            embed(other.generator(), emb5, 8)

    def test_refining_a_false_root_is_an_obstruction(self):
        # 1 is no root of x^3 - 3 (its root in Q_5 is 2 mod 5), so neither
        # Newton's method nor a new search matches the cached digits
        emb = PAdicEmbedding(NumberField([-3, 0, 0, 1]), 5, PAdicApprox(5, 0, 1, 3))
        with pytest.raises(
            LiftingObstruction, match="^refined roots no longer match the cached root$"
        ):
            emb.refine_to(20)


class TestEmbeddedValues:
    """theta of x^3 - 3 embedded at p = 5 (a) and p = 11 (b), and bare (g)."""

    @pytest.fixture(scope="class")
    def values(self):
        k = NumberField([-3, 0, 0, 1])
        g = k.generator()
        a = PAdicEmbedding.create(k, 5, 16)(g)
        b = PAdicEmbedding.create(k, 11, 16)(g)
        return k, a, b, g

    def test_different_primes_do_not_mix(self, values):
        _, a, b, _ = values
        with pytest.raises(FieldMismatch):
            a + b
        assert a != b

    def test_results_keep_the_embedding(self, values):
        _, a, _, g = values
        assert (g + a).emb is a.emb and (a + g).emb is a.emb
        assert (g * a).emb is a.emb and (1 / a).emb is a.emb
        assert g.emb is None and (g * g).emb is None

    def test_embedded_equals_bare(self, values):
        _, a, _, g = values
        assert a == g and hash(a) == hash(g)
        assert len({a, g}) == 1

    def test_rational_element_hashes_as_its_fraction(self, values):
        k, a, _, _ = values
        half = k.element([F(1, 2)])
        assert k.element([1]) == 1 and len({k.element([1]), 1, F(1)}) == 1
        assert {F(1, 2): "v"}[half] == "v"
        assert hash(a.emb(half)) == hash(half) == hash(F(1, 2))

    def test_repr(self, values):
        k, a, _, _ = values
        assert repr(a) == "(x)@Q_5"
        assert repr(1 / a) == "(1/3*x^2)@Q_5"
        assert repr(k) == "NumberField(x^3-3)"

    def test_unembedded_values_have_no_digits(self, k5):
        for x in (k5.generator(), k5.element([])):  # zero is no exception
            for query in (
                lambda: browkin_s(x, 5), lambda: valuation(x, 5), lambda: x.to_approx(8)
            ):
                with pytest.raises(ValueError, match="has no p-adic embedding"):
                    query()

    def test_valuation_past_the_first_doubling(self):
        emb = PAdicEmbedding.create(NumberField([-3, 0, 0, 1]), 5, 32)
        theta = emb(emb.field.generator())
        # theta minus its first 40 digits: digits 40 and 41 of theta are 0
        assert valuation(theta - theta.to_approx(40).digits.value(5), 5) == 42

    def test_valuation_gives_up_after_max_doublings(self, monkeypatch):
        emb = PAdicEmbedding.create(NumberField([-3, 0, 0, 1]), 5, 32)
        theta = emb(emb.field.generator())
        x = theta - theta.to_approx(40).digits.value(5)  # v(x) = 42, x irrational
        # three doublings read x to 8, 16 and 32 digits, all of them 0
        monkeypatch.setattr(numberfield, "MAX_DOUBLINGS", 3)
        with pytest.raises(InsufficientPrecision) as info:
            x.valuation()
        assert str(info.value) == "valuation not resolved; value too close to zero"
        monkeypatch.setattr(numberfield, "MAX_DOUBLINGS", 4)
        assert x.valuation() == 42


class TestTwoRootsOfOneField:
    """theta of x^2 - 2 under the embeddings e1, e2 at its two roots in Q_7:
    t1 = e1(theta) and t2 = e2(theta) are r1 and r2 = -r1."""

    @pytest.fixture(scope="class")
    def roots(self):
        k = NumberField([-2, 0, 1])
        e1, e2 = (PAdicEmbedding(k, 7, r) for r in padic_roots(k, 7, 8))
        return e1, e1(k.generator()), e2(k.generator())

    @pytest.mark.parametrize(
        "combine",
        [
            lambda t1, t2: t1 + t2,
            lambda t1, t2: t1 * t2,
            lambda t1, t2: rational_linear_dependence([t1, t2]),
        ],
        ids=["add", "mul", "dependence"],
    )
    def test_values_under_two_embeddings_do_not_mix(self, roots, combine):
        _, t1, t2 = roots
        with pytest.raises(FieldMismatch, match="^values use different embeddings$"):
            combine(t1, t2)

    def test_values_under_two_embeddings_are_unequal(self, roots):
        _, t1, t2 = roots
        assert not t1 == t2 and t1 != t2

    def test_re_embedding_one_value_mixes_them(self, roots):
        e1, t1, t2 = roots
        assert (t1 - e1(t2)).is_zero() and (t1 + e1(t2)).emb is e1
        assert rational_linear_dependence([t1, e1(t2)]) == (F(1), F(-1))


class TestLinearDependence:
    def test_all_rational(self):
        vals = [F(1), F(31, 26), F(21, 26)]
        dep = rational_linear_dependence(vals)
        assert dep is not None and any(c != 0 for c in dep)
        assert sum(c * v for c, v in zip(dep, vals)) == 0

    def test_independent_pair(self, k5):
        assert rational_linear_dependence([k5.element([1]), k5.generator()]) is None
        kq = NumberField([-2, 0, 1])
        assert rational_linear_dependence([kq.element([1]), kq.generator()]) is None

    def test_cuberoot_with_rationals(self):
        k = NumberField([-2, 0, 0, 1])
        vals = [k.generator(), k.element([F(5, 4)]), k.element([1])]
        assert rational_linear_dependence(vals) == (F(0), F(4), F(-5))

    def test_none_iff_full_rank(self, k5):
        # cross-check against an independent exact rank computation
        import itertools

        def rank(vectors):
            rows = [list(r) for r in itertools.zip_longest(*vectors, fillvalue=F(0))]
            cols = len(vectors)
            rk = 0
            for c in range(cols):
                piv = next((i for i in range(rk, len(rows)) if rows[i][c] != 0), None)
                if piv is None:
                    continue
                rows[rk], rows[piv] = rows[piv], rows[rk]
                for i in range(len(rows)):
                    if i != rk and rows[i][c] != 0:
                        f = rows[i][c] / rows[rk][c]
                        rows[i] = [x - f * y for x, y in zip(rows[i], rows[rk])]
                rk += 1
            return rk

        theta = k5.generator()
        batches = [
            [k5.element([1]), theta],
            [k5.element([1]), theta, theta * theta],
            [k5.element([1]), theta, 2 * theta + 3],
            [theta, theta * theta, theta * theta * theta],
        ]
        for vals in batches:
            dep = rational_linear_dependence(vals)
            vectors = [v.coeffs for v in vals]
            assert (dep is None) == (rank(vectors) == len(vals))
            if dep is not None:
                acc = k5.element([])
                for c, v in zip(dep, vals):
                    acc = acc + c * v
                assert acc.is_zero()

    def test_mixed_field_rejected(self, k5):
        other = NumberField([-2, 0, 0, 1])
        with pytest.raises(FieldMismatch):
            rational_linear_dependence([k5.generator(), other.generator()])

    def test_empty_is_independent(self):
        assert rational_linear_dependence([]) is None

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_sympy_rank(self, data):
        # The columns of M are the values' coefficient vectors.  The first
        # prefix whose sympy rank drops fixes the index r of the dependence.
        degree = data.draw(st.sampled_from((1,) + tuple(DEPENDENCE_FIELDS)))
        k = DEPENDENCE_FIELDS.get(degree)
        n = data.draw(st.integers(0, degree + 2))
        vecs, values = [], []
        for _ in range(n):
            kind = data.draw(st.sampled_from(("zero", "rational", "element", "combo")))
            if kind == "combo" and vecs:
                w = data.draw(st.lists(small_fractions, min_size=len(vecs),
                                       max_size=len(vecs)))
                vec = [sum(x * v[i] for x, v in zip(w, vecs)) for i in range(degree)]
            elif kind == "element" and k is not None:
                vec = data.draw(st.lists(small_fractions, min_size=degree,
                                         max_size=degree))
            else:
                q = F(0) if kind == "zero" else data.draw(small_fractions)
                vec = [q] + [F(0)] * (degree - 1)
            vecs.append(vec)
            rational = all(x == 0 for x in vec[1:])
            if k is None or (rational and data.draw(st.booleans())):
                values.append(vec[0])
            else:
                values.append(k.element(vec))
        dep = rational_linear_dependence(values)
        flat = [sympy.Rational(x.numerator, x.denominator) for v in vecs for x in v]
        M = sympy.Matrix(n, degree, flat).T
        if M.rank() == n:
            assert dep is None
            return
        r = next(j for j in range(n) if M[:, : j + 1].rank() == j)
        assert dep is not None and len(dep) == n
        assert all(x.denominator == 1 for x in dep)
        c = [int(x) for x in dep]
        assert M * sympy.Matrix(c) == sympy.zeros(degree, 1)
        assert math.gcd(*c) == 1 and next(x for x in c if x) > 0
        assert c[r] != 0 and all(x == 0 for x in c[r + 1 :])

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_rescaled_values_give_the_rescaled_dependence(self, data):
        # Scaling value j by lambda_j != 0 keeps the independent prefixes, so
        # the dependence becomes c_j / lambda_j, normalised again.
        k = DEPENDENCE_FIELDS[3]
        element = st.lists(small_fractions, min_size=3, max_size=3).map(k.element)
        values = data.draw(st.lists(st.one_of(small_fractions, element), min_size=1,
                                    max_size=3))
        w = data.draw(st.lists(small_fractions, min_size=len(values),
                               max_size=len(values)))
        values.append(sum((x * v for x, v in zip(w, values)), F(0)))
        lams = data.draw(st.lists(small_fractions.filter(bool), min_size=len(values),
                                  max_size=len(values)))
        dep = rational_linear_dependence(values)
        scaled = rational_linear_dependence([x * v for x, v in zip(lams, values)])
        want, _ = clear_denominators([c / x for c, x in zip(dep, lams)])
        g = math.gcd(*want) * (1 if next(x for x in want if x) > 0 else -1)
        assert scaled == tuple(F(x // g) for x in want)

    @given(
        a=st.fractions(min_value=-99, max_value=99, max_denominator=20),
        b=st.fractions(min_value=-99, max_value=99, max_denominator=20),
    )
    @settings(max_examples=40)
    def test_two_rationals_always_dependent(self, a, b):
        dep = rational_linear_dependence([a, b])
        assert dep is not None
        assert dep[0] * a + dep[1] * b == 0
