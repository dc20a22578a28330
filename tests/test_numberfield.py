"""Number field arithmetic, p-adic root finding, embeddings, dependence."""

from fractions import Fraction as F

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from padic_mcf.errors import (
    AmbiguousSelection,
    FieldMismatch,
    NoRoot,
)
from padic_mcf.numberfield import (
    NumberField,
    PAdicEmbedding,
    EmbeddedAlgebraic,
    embed,
    newton_polygon_slopes,
    padic_roots,
    rational_linear_dependence,
    select_largest_root,
)
from padic_mcf.padic import PLUS_INFINITY, PAdicApprox, browkin_s, valuation

CUBIC_Q5 = [F(-1), F(-1), F(-8, 5), F(1)]  # x^3 - 8/5 x^2 - x - 1


# x^2+2, x^3-8/5x^2-x-1, x^3-3, x^4-3/7x^3+2x-6
ORACLE_MINPOLYS = (
    (2, 0, 1),
    tuple(CUBIC_Q5),
    (-3, 0, 0, 1),
    (-6, 2, 0, F(-3, 7), 1),
)
small_fractions = st.fractions(min_value=-99, max_value=99, max_denominator=20)


def _sympy_poly(coeffs):
    """Little-endian Fraction coefficients as a sympy Poly over QQ."""
    big_endian = [sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)]
    return sympy.Poly(big_endian, sympy.Symbol("x"), domain="QQ")


def _from_sympy(poly, degree):
    """A sympy Poly of degree < `degree` as a length-`degree` Fraction tuple."""
    c = [F(int(r.p), int(r.q)) for r in reversed(poly.all_coeffs())]
    return tuple(c + [F(0)] * (degree - len(c)))


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

    def test_normalises_to_monic(self):
        k = NumberField([2, 0, 2])  # 2x^2 + 2 -> x^2 + 1
        assert k.minpoly == (F(1), F(0), F(1))

    def test_inverse_roundtrip(self, k5):
        for coeffs in ([1, 2, 3], [F(1, 2), 0, F(-7, 3)], [0, 0, 5]):
            a = k5.element(coeffs)
            assert a * a.inverse() == k5.one()

    def test_cube_reduction(self, k5):
        theta = k5.generator()
        assert theta * theta * theta == k5.element([1, 1, F(8, 5)])

    def test_companion_element(self, k5):
        alpha = k5.generator()
        beta = 1 + 1 / alpha
        assert len(beta.coeffs) == 3
        assert alpha * (beta - 1) == k5.one()

    def test_field_mismatch(self, k5):
        other = NumberField([-2, 0, 0, 1])
        with pytest.raises(FieldMismatch):
            k5.generator() + other.generator()

    def test_division_by_zero(self, k5):
        with pytest.raises(ZeroDivisionError):
            k5.one() / k5.zero()

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


class TestNewtonPolygon:
    def test_sqrt2_at_7(self):
        assert newton_polygon_slopes([F(-2), F(0), F(1)], 7) == [(F(0), 2)]

    def test_sqrt5_at_5(self):
        assert newton_polygon_slopes([F(-5), F(0), F(1)], 5) == [(F(1, 2), 2)]

    def test_cubic_two_segments(self):
        segs = newton_polygon_slopes(CUBIC_Q5, 5)
        assert segs == [(F(1, 2), 2), (F(-1), 1)]


class TestPadicRoots:
    def test_sqrt2_in_q7(self):
        roots = padic_roots(NumberField([-2, 0, 1]), 7, 3)
        assert len(roots) == 2
        assert sorted(r.unit % 7 for r in roots) == [3, 4]
        for r in roots:
            x = r.rational_view()
            assert valuation(x * x - 2, 7) >= 3

    def test_sqrt5_not_in_q5(self):
        assert padic_roots(NumberField([-5, 0, 1]), 5, 3) == []

    def test_cubic_single_root_of_norm_5(self, k5):
        roots = padic_roots(k5, 5, 6)
        assert len(roots) == 1 and roots[0].val == -1

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
            x = r.rational_view()
            assert valuation(x * x - 17 * x - 59, 5) >= 6

    @pytest.mark.parametrize("n", (1, 2, 8, 32))
    def test_residual_invariant(self, k5, n):
        for r in padic_roots(k5, 5, n):
            x = r.rational_view()
            mp = sum(c * x**i for i, c in enumerate(k5.minpoly))
            assert valuation(mp, 5) >= n

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
                roots = padic_roots(coeffs, p, 8)
                got = sorted(r.rational_view() % p**8 for r in roots)
                want = sorted(x % p**8 for x in (a, b))
                assert got == want, (p, a, b, roots)


class TestSelectLargestRoot:
    def test_single(self, k5):
        roots = padic_roots(k5, 5, 4)
        assert select_largest_root(roots) == roots[0]

    def test_empty(self):
        with pytest.raises(NoRoot):
            select_largest_root([])

    def test_tie_is_an_error(self):
        roots = padic_roots(NumberField([-2, 0, 1]), 7, 3)
        with pytest.raises(AmbiguousSelection):
            select_largest_root(roots)


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
        before = e.achieved_precision
        root = e.refine_to(64)
        assert root.precision >= 64 > before
        x = root.rational_view()
        mp = sum(c * x**i for i, c in enumerate(k5.minpoly))
        assert valuation(mp, 5) >= 64

    def test_embed_is_homomorphic_up_to_slack(self, k5, emb5):
        a = k5.element([1, F(2, 5), 0])
        b = k5.element([F(-1, 3), 1, 1])
        n = 10
        ea, eb = embed(a, emb5, n), embed(b, emb5, n)
        prod = embed(a * b, emb5, n)
        tot = embed(a + b, emb5, n)
        diff_mul = prod.with_precision((ea * eb).precision) - ea * eb
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


class TestLinearDependence:
    def test_all_rational(self):
        vals = [F(1), F(31, 26), F(21, 26)]
        dep = rational_linear_dependence(vals)
        assert dep is not None and any(c != 0 for c in dep)
        assert sum(c * v for c, v in zip(dep, vals)) == 0

    def test_independent_pair(self, k5):
        assert rational_linear_dependence([k5.one(), k5.generator()]) is None
        kq = NumberField([-2, 0, 1])
        assert rational_linear_dependence([kq.one(), kq.generator()]) is None

    def test_cuberoot_with_rationals(self):
        k = NumberField([-2, 0, 0, 1])
        vals = [k.generator(), k.element([F(5, 4)]), k.one()]
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
            [k5.one(), theta],
            [k5.one(), theta, theta * theta],
            [k5.one(), theta, 2 * theta + 3],
            [theta, theta * theta, theta * theta * theta],
        ]
        for vals in batches:
            dep = rational_linear_dependence(vals)
            vectors = [v.coeffs for v in vals]
            assert (dep is None) == (rank(vectors) == len(vals))
            if dep is not None:
                acc = k5.zero()
                for c, v in zip(dep, vals):
                    acc = acc + c * v
                assert acc.is_zero()

    def test_mixed_field_rejected(self, k5):
        other = NumberField([-2, 0, 0, 1])
        with pytest.raises(FieldMismatch):
            rational_linear_dependence([k5.generator(), other.generator()])

    @given(
        a=st.fractions(min_value=-99, max_value=99, max_denominator=20),
        b=st.fractions(min_value=-99, max_value=99, max_denominator=20),
    )
    @settings(max_examples=40)
    def test_two_rationals_always_dependent(self, a, b):
        dep = rational_linear_dependence([a, b])
        assert dep is not None
        assert dep[0] * a + dep[1] * b == 0
