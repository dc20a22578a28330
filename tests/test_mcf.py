"""Convergent tables, determinant identities, conditions, rescaling,
finite evaluation, strong convergence."""

import json
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padic_mcf import mcf as mcf_module
from padic_mcf.errors import (
    InternalMismatch,
    ZeroDenominatorConvergent,
    ZeroIntermediate,
    ZeroWeight,
)
from padic_mcf.jacobi_perron import jp_expand
from padic_mcf.mcf import (
    MCF,
    ConvergentsTable,
    _forward_value,
    check_convergence_conditions,
    convergents_of,
    dehomogenize,
    determinant_check,
    evaluate_finite,
    format_rational,
    reconstruct_initial,
    rescale,
    strong_convergence_sequence,
)
from padic_mcf.numberfield import clear_denominators
from padic_mcf.padic import PLUS_INFINITY, valuation

Q5_PAIR = MCF.unit_from_sequences(
    [[F(-2, 5), F(6, 5), F(6, 5), F(4, 5)], [1, 1, -1, -1]]
)


def random_mcf(rng, m, length):
    rows = []
    for n in range(length):
        row = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(m)]
        last = (
            F(1)
            if n == 0
            else F(rng.choice([x for x in range(-5, 6) if x]), rng.randint(1, 5))
        )
        rows.append(tuple(row) + (last,))
    return MCF(m, rows)


def fraction_columns(rows, m):
    """A_n for n = -(m+1) .. len(rows)-1, oldest first, by the plain
    Fraction recurrence A_n^(i) = sum_j a_n^(j) A_{n-j}^(i): the reference
    for the integer columns of ConvergentsTable."""
    cols = [tuple(F(int(i == j)) for i in range(m + 1)) for j in range(m, -1, -1)]
    for row in rows:
        cols.append(
            tuple(
                sum((row[j] * cols[-1 - j][i] for j in range(m + 1)), F(0))
                for i in range(m + 1)
            )
        )
    return cols


def fraction_backward(mcf):
    """Backward substitution on Fractions, alpha_n^(i) = a_n^(i) +
    alpha_(n+1)^(i+1)/alpha_(n+1)^(1) from alpha_r^(i) = a_r^(i): the
    reference for the integer backward route of evaluate_finite."""
    m, r = mcf.m, mcf.last_index
    alphas = list(mcf.rows[r][:m])
    for n in range(r - 1, -1, -1):
        nxt = alphas + [mcf.rows[n + 1][m]]  # alpha_{n+1}^(m+1) = a_{n+1}^(m+1)
        lead = nxt[0]
        if lead == 0:
            raise ZeroIntermediate(f"alpha_{n + 1}^(1) = 0 during backward evaluation")
        alphas = [mcf.rows[n][i] + nxt[i + 1] / lead for i in range(m)]
    return tuple(alphas)


_ENTRY = st.builds(F, st.integers(-40, 40), st.integers(1, 60))
# general rows: m = 1..4, zeros, entries outside Z[1/p], and negative or
# non-unit a_n^(m+1) (a_0^(m+1) is set to 1 by general_rows)
_GENERAL = dict(
    m=st.integers(1, 4),
    rows=st.lists(
        st.lists(st.one_of(st.just(F(0)), _ENTRY), min_size=5, max_size=5),
        min_size=1,
        max_size=12,
    ),
    lasts=st.lists(_ENTRY.filter(bool), min_size=12, max_size=12),
)


def general_rows(m, rows, lasts):
    return [
        tuple(row[:m]) + (F(1) if n == 0 else lasts[n],)
        for n, row in enumerate(rows)
    ]


class TestMCFType:
    def test_requires_unit_leading_numerator(self):
        with pytest.raises(ValueError):
            MCF(2, [(F(1), F(2), F(3))])

    def test_rejects_zero_numerator(self):
        with pytest.raises(ValueError):
            MCF(1, [(F(1), F(1)), (F(2), F(0))])

    def test_json_round_trip(self):
        d = Q5_PAIR.to_json_dict()
        assert MCF.from_json_dict(json.loads(json.dumps(d))) == Q5_PAIR

    def test_entries_of_any_exact_type(self):
        rows = [(F(1, 2), F(-3), F(1)), (F(4, 6), F(0), F(-5, 3))]
        as_int_str = [(F(1, 2), -3, "1"), ("4/6", 0, "-5/3")]
        mcf = MCF(2, as_int_str)
        assert mcf == MCF(2, rows)
        assert all(type(x) is F for row in mcf.rows for x in row)

    def test_fraction_entries_are_kept(self):
        x = F(3, 7)
        mcf = MCF(1, [(x, F(1))])
        assert mcf.rows[0][0] is x


class TestFormatRational:
    def test_reduces_strings(self):
        assert format_rational("4/6") == "2/3"

    def test_integers(self):
        assert format_rational(F(-6)) == "-6"
        assert format_rational(-6) == "-6"
        assert format_rational(10**30) == str(10**30)


class TestConvergentsTable:
    def test_kronecker_seeds(self):
        t = ConvergentsTable(3)
        for j in range(4):
            col = t.column(j)
            assert col == tuple(F(1) if i == j else F(0) for i in range(4))

    def test_first_column_is_first_row(self):
        t = ConvergentsTable(2)
        t.push((F(3, 7), F(-1), F(1)))
        assert t.column(0) == (F(3, 7), F(-1), F(1))

    def test_full_expansion_reaches_inputs(self):
        t = ConvergentsTable(2)
        q = None
        for row in Q5_PAIR.rows:
            t.push(row)
            q = t.try_convergents()
        assert q == (F(23, 5), F(14, 19))

    @given(**_GENERAL)
    @settings(max_examples=60, deadline=None)
    def test_general_rows_match_fraction_recurrence(self, m, rows, lasts):
        # entries outside Z[1/p], zeros and negative a_n^(m+1) included
        rows = general_rows(m, rows, lasts)
        cols = fraction_columns(rows, m)
        t = ConvergentsTable(m)
        for back in range(m + 1):
            assert t.column(back) == cols[m - back]
        for n, row in enumerate(rows):
            t.push(row)
            now = n + m + 1  # index of A_n in cols
            for back in range(m + 1):
                assert t.column(back) == cols[now - back]
            # held over the least common denominator, so integers stay small
            assert t._window[0][1] == math.lcm(*(x.denominator for x in cols[now]))
            den = cols[now][m]
            assert t.denominator() == den
            want = None if den == 0 else tuple(x / den for x in cols[now][:m])
            assert t.try_convergents() == want

    def test_push_accepts_any_exact_type(self):
        by_fraction, by_int_str = ConvergentsTable(2), ConvergentsTable(2)
        for row, same in [
            ((F(3, 7), F(-1), F(1)), ("3/7", -1, 1)),
            ((F(2, 3), F(0), F(-4, 6)), (F(2, 3), "0", "-2/3")),
        ]:
            by_fraction.push(row)
            by_int_str.push(same)
            assert by_int_str._window == by_fraction._window
            assert by_int_str.column(0) == by_fraction.column(0)

    def test_zero_denominator_flagged_at_query_time(self):
        t = ConvergentsTable(1)
        t.push((F(5), F(1)))
        t.push((F(0), F(3)))  # A_1^(2) = 0
        assert t.try_convergents() is None
        with pytest.raises(ZeroDenominatorConvergent):
            t.convergents()


class TestDeterminant:
    def test_single_step_matrix(self):
        # det of one step matrix is (-1)^m * a_0^(m+1)
        for m in (1, 2, 3):
            mcf = MCF(m, [tuple([F(1)] * m) + (F(1),)])
            [(det, ok)] = determinant_check(mcf)
            assert ok and det == F(-1) ** m

    def test_unit_mcf_m2_constant_sign(self):
        mcf = MCF.unit_from_sequences([[1, 2, 3, 4], [5, 6, 7, 8]])
        checks = determinant_check(mcf)
        for n in range(4):
            det, ok = checks[n]
            assert ok and det == 1  # (-1)^(2(n+1)) = +1 for every n

    def test_random_mcfs_against_matrix_oracle(self):
        rng = random.Random(7)

        def oracle_det(mat):
            # cofactor expansion, independent of the library's elimination
            n = len(mat)
            if n == 1:
                return mat[0][0]
            out = F(0)
            for j in range(n):
                if mat[0][j] == 0:
                    continue
                minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
                out += F(-1) ** j * mat[0][j] * oracle_det(minor)
            return out

        def step_matrix(row):
            # partial quotients in the first column, a shifted identity to
            # the right; the product B_0 ... B_n accumulates the columns
            m1 = len(row)
            return [
                [row[i]] + [F(1) if j == i + 1 else F(0) for j in range(1, m1)]
                for i in range(m1)
            ]

        for m in (1, 2, 3):
            for _ in range(12):
                mcf = random_mcf(rng, m, 7)
                checks = determinant_check(mcf)
                assert len(checks) == len(mcf)
                prod = None
                for n, row in enumerate(mcf.rows):
                    sm = step_matrix(row)
                    prod = (
                        sm
                        if prod is None
                        else [
                            [
                                sum(prod[i][k] * sm[k][j] for k in range(m + 1))
                                for j in range(m + 1)
                            ]
                            for i in range(m + 1)
                        ]
                    )
                    det, ok = checks[n]
                    assert ok
                    assert det == oracle_det(prod)


class TestConditions:
    def test_algorithm_output_passes_strict(self):
        rep = check_convergence_conditions(Q5_PAIR, 5, unit_numerators=True)
        assert rep.ok and rep.first_violation is None
        # |6/5| = 5 > 1 and |1| = 1 < 5 at n = 1
        assert valuation(F(6, 5), 5) == -1 and valuation(F(1), 5) == 0

    def test_constant_ones_fail_strict_at_one(self):
        mcf = MCF.unit_from_sequences([[1, 1], [0, 0]])
        rep = check_convergence_conditions(mcf, 5, unit_numerators=True)
        assert not rep.ok and rep.first_violation == 1

    def test_norm_one_leader_passes_general_form_only(self):
        mcf = MCF(2, [(F(1), F(0), F(1)), (F(1), F(5), F(5))])
        assert check_convergence_conditions(mcf, 5, unit_numerators=False).ok
        strict = check_convergence_conditions(mcf, 5, unit_numerators=True)
        assert not strict.ok and strict.first_violation == 1

    def test_dehomogenize_can_break_strict_conditions(self):
        p = 5
        rows = [
            (F(1), F(1), F(1)),
            (F(1, p), F(p), F(p) ** 5),
            (F(1, p), F(1), F(1)),
        ]
        mcf = MCF(2, rows)
        assert check_convergence_conditions(mcf, p).ok
        flat = dehomogenize(mcf)
        assert flat.is_unit()
        rep = check_convergence_conditions(flat, p, unit_numerators=True)
        assert not rep.ok and rep.first_violation == 2
        assert convergents_of(flat) == convergents_of(mcf)


class TestRescale:
    def test_identity_weights(self):
        assert rescale(Q5_PAIR, [1, 1, 1, 1]) == Q5_PAIR

    def test_random_rescale_preserves_convergents(self):
        rng = random.Random(11)
        for m in (1, 2, 3):
            for _ in range(8):
                mcf = random_mcf(rng, m, 6)
                w = [F(1)] + [
                    F(rng.choice([x for x in range(-7, 8) if x]), rng.randint(1, 7))
                    for _ in range(5)
                ]
                assert convergents_of(rescale(mcf, w)) == convergents_of(mcf)

    def test_zero_weight(self):
        with pytest.raises(ZeroWeight):
            rescale(Q5_PAIR, [1, 0, 1, 1])

    def test_nonunit_leading_weight_rejected(self):
        with pytest.raises(ValueError):
            rescale(Q5_PAIR, [2, 1, 1, 1])

    def test_dehomogenize_unit_mcf_is_identity(self):
        assert dehomogenize(Q5_PAIR) == Q5_PAIR

    def test_dehomogenize_power_sequence(self):
        rng = random.Random(3)
        for m in (2, 3):
            rows = []
            for n in range(6):
                row = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(m)]
                rows.append(tuple(row) + (F(1) if n == 0 else F(5**n),))
            mcf = MCF(m, rows)
            flat = dehomogenize(mcf)
            assert flat.is_unit()
            assert convergents_of(flat) == convergents_of(mcf)


class TestEvaluateFinite:
    def test_single_row(self):
        mcf = MCF(3, [(F(1, 2), F(-3), F(7, 5), F(1))])
        assert evaluate_finite(mcf) == (F(1, 2), F(-3), F(7, 5))

    def test_stops_away_from_inputs(self):
        mcf = MCF.unit_from_sequences([[1, F(-1, 5)], [1, -1]])
        assert evaluate_finite(mcf) == (6, -4)  # (1+p, 1-p) at p = 5

    def test_recorded_cuberoot_block(self):
        mcf = MCF.unit_from_sequences([[1, F(4, 5), F(12, 5)], [0, 1, 0]])
        assert evaluate_finite(mcf) == (F(133, 48), F(5, 4))

    def test_zero_intermediate(self):
        mcf = MCF(2, [(F(1), F(1), F(1)), (F(0), F(5), F(1))])
        with pytest.raises(ZeroIntermediate):
            evaluate_finite(mcf)

    def test_non_finite_rejected(self):
        mcf = MCF(1, [(F(5), F(1))], finite=False)
        with pytest.raises(ValueError):
            evaluate_finite(mcf)

    @given(**_GENERAL)
    @settings(max_examples=200, deadline=None)
    def test_integer_route_matches_fraction_backward(self, m, rows, lasts):
        mcf = MCF(m, general_rows(m, rows, lasts))
        try:
            want = fraction_backward(mcf)
        except ZeroIntermediate as exc:
            with pytest.raises(ZeroIntermediate) as got:
                evaluate_finite(mcf)
            assert str(got.value) == str(exc)
        else:
            assert evaluate_finite(mcf) == want

    def test_zero_intermediate_names_the_index(self):
        # alpha_1^(1) = 3 + (-3)/1 cancels to 0
        mcf = MCF(1, [(F(2), F(1)), (F(3), F(3)), (F(1), F(-3))])
        with pytest.raises(ZeroIntermediate, match=r"^alpha_1\^\(1\) = 0 during"):
            evaluate_finite(mcf)

    def test_routes_are_cross_checked(self, monkeypatch):
        mcf = MCF.unit_from_sequences([[1, F(4, 5), F(12, 5)], [0, 1, 0]])
        real = mcf_module._forward_value

        def perturbed(m, scaled):
            first, *rest = real(m, scaled)
            return (first + 1, *rest)

        monkeypatch.setattr(mcf_module, "_forward_value", perturbed)
        with pytest.raises(InternalMismatch, match="!= final convergent"):
            evaluate_finite(mcf)


def outcome(f, *args):
    """f(*args), or the type and message of the error it raises."""
    try:
        return f(*args)
    except (ZeroIntermediate, ZeroDenominatorConvergent) as exc:
        return type(exc), str(exc)


def table_value(m, rows):
    """The final convergent of ConvergentsTable after every row is pushed."""
    table = ConvergentsTable(m)
    for row in rows:
        table.push(row)
    return table.convergents()


def table_evaluation(mcf):
    """evaluate_finite by the Fraction backward route, then the table: the
    reference for both routes, errors and their order included."""
    backward = fraction_backward(mcf)
    assert table_value(mcf.m, mcf.rows) == backward
    return backward


# small integer entries make cancellations, hence both zero errors, likely
_NONZERO = st.builds(
    F, st.sampled_from((-2, -1, 1, 2)) | st.integers(-40, 40).filter(bool), st.integers(1, 60)
)
_WINDOW_ENTRY = st.one_of(st.just(F(0)), _NONZERO)


class TestForwardWindow:
    """The unreduced integer window of evaluate_finite's forward route
    against ConvergentsTable, which reduces every column."""

    @given(
        m=st.integers(1, 4),
        rows=st.lists(
            st.lists(_WINDOW_ENTRY, min_size=5, max_size=5), min_size=1, max_size=80
        ),
        lasts=st.lists(_NONZERO, min_size=80, max_size=80),
    )
    @settings(max_examples=60, deadline=None)
    def test_general_rows(self, m, rows, lasts):
        rows = general_rows(m, rows, lasts)
        scaled = [clear_denominators(row) for row in rows]
        assert outcome(_forward_value, m, scaled) == outcome(table_value, m, rows)
        mcf = MCF(m, rows)
        assert outcome(evaluate_finite, mcf) == outcome(table_evaluation, mcf)

    @given(
        m=st.integers(1, 4),
        p=st.sampled_from((3, 5, 7, 11, 13)),
        rng=st.randoms(use_true_random=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_expansion_rows(self, m, p, rng):
        bound = 10 ** rng.randint(2, 40)
        inputs = [F(rng.randint(-bound, bound), rng.randint(1, bound)) for _ in range(m)]
        mcf = jp_expand(inputs, p).mcf
        scaled = [clear_denominators(row) for row in mcf.rows]
        assert _forward_value(m, scaled) == table_value(m, mcf.rows)
        assert evaluate_finite(mcf) == table_evaluation(mcf)

    def test_zero_denominator_message(self):
        rows = [(F(5), F(1)), (F(0), F(3))]  # A_1^(2) = 0
        scaled = [clear_denominators(row) for row in rows]
        assert outcome(_forward_value, 1, scaled) == (
            ZeroDenominatorConvergent, "A_1^(2) = 0"
        )
        assert outcome(table_value, 1, rows) == outcome(_forward_value, 1, scaled)


class TestReconstructInitial:
    def test_from_first_step(self):
        t = ConvergentsTable(2)
        t.push((F(1), F(1), F(1)))
        got = reconstruct_initial(t, (F(-26, 5), F(-1), F(1)))
        assert got == (F(31, 26), F(21, 26))


class TestConvergentDifferences:
    def test_strict_ultrametric_decrease_of_differences(self):
        # under the strict norm conditions, each convergent difference is
        # p-adically smaller than the largest of the previous m differences
        from padic_mcf.jacobi_perron import jp_expand

        rng = random.Random(23)
        for _ in range(40):
            p = rng.choice((3, 5, 7, 11))
            m = rng.choice((2, 3))
            inputs = tuple(
                F(rng.randint(-(10**5), 10**5), rng.randint(1, 10**5))
                for _ in range(m)
            )
            mcf = jp_expand(inputs, p).mcf
            t = ConvergentsTable(m)
            qs = []
            for row in mcf.rows:
                t.push(row)
                qs.append(t.convergents())
            for i in range(m):
                dv = [
                    valuation(qs[k + 1][i] - qs[k][i], p) for k in range(len(qs) - 1)
                ]
                for k in range(1, len(dv)):
                    prev = dv[max(0, k - m) : k]
                    if all(v == PLUS_INFINITY for v in prev):
                        continue
                    assert dv[k] > min(prev), (p, inputs, i, k, dv)


class TestStrongConvergence:
    def test_vanishes_at_termination(self):
        sc = strong_convergence_sequence(Q5_PAIR, (F(23, 5), F(14, 19)), 5)
        r = sc.last_index
        assert sc.at(r) == (0, 0)
        assert sc.valuation_at(r) == (PLUS_INFINITY, PLUS_INFINITY)

    def test_strict_ultrametric_decrease(self):
        sc = strong_convergence_sequence(Q5_PAIR, (F(23, 5), F(14, 19)), 5)
        for n in range(1, sc.last_index + 1):
            for i in range(2):
                prev = [sc.valuation_at(n - j)[i] for j in range(1, 4)]
                assert sc.valuation_at(n)[i] > min(prev)

    def test_zero_targets_give_numerators(self):
        mcf = MCF(2, [(F(0), F(0), F(1)), (F(1, 5), F(2), F(1))])
        sc = strong_convergence_sequence(mcf, (F(0), F(0)), 5)
        t = ConvergentsTable(2)
        for row in mcf.rows:
            t.push(row)
        col = t.column(0)
        assert sc.at(1) == (col[0], col[1])

    def test_algebraic_targets(self):
        # unrolled periodic block against its exact algebraic limit: valuations
        # must strictly increase (strong convergence)
        from padic_mcf.numberfield import NumberField, PAdicEmbedding

        emb = PAdicEmbedding.create(
            NumberField([F(-1), F(-1), F(-8, 5), F(1)]), 5, 32
        )
        alpha = emb(emb.field.generator())
        beta = 1 + 1 / alpha
        block = MCF(2, [(F(8, 5), F(1), F(1))] * 6, finite=False)
        sc = strong_convergence_sequence(block, (alpha, beta), 5)
        for i in range(2):
            for n in range(1, sc.last_index + 1):
                prev = [sc.valuation_at(n - j)[i] for j in range(1, 4)]
                assert sc.valuation_at(n)[i] > min(prev)
            # the norms tend to zero: valuations grow over a full window
            assert sc.valuation_at(sc.last_index)[i] > sc.valuation_at(0)[i]

    def test_approx_targets(self):
        from padic_mcf.errors import PrecisionExhausted
        from padic_mcf.padic import PAdicApprox

        rows = Q5_PAIR.rows
        # a short prefix evaluates fine at adequate precision
        prefix = MCF(2, rows[:2], finite=False)
        targets = (
            PAdicApprox.from_rational(F(23, 5), 5, 40),
            PAdicApprox.from_rational(F(14, 19), 5, 40),
        )
        sc = strong_convergence_sequence(prefix, targets, 5)
        assert sc.last_index == 1
        # through termination the exact-zero tail has no determinable norm
        with pytest.raises(PrecisionExhausted):
            strong_convergence_sequence(Q5_PAIR, targets, 5)

    def test_targets_must_carry_the_prime(self):
        from padic_mcf.jacobi_perron import jp_expand
        from padic_mcf.numberfield import NumberField, PAdicEmbedding

        emb = PAdicEmbedding.create(NumberField([-3, 0, 0, 1]), 5, 32)
        theta = emb(emb.field.generator())
        targets = (theta, theta * theta)
        mcf = jp_expand(targets, 5, max_steps=6).mcf
        sc = strong_convergence_sequence(mcf, targets, 5)
        assert sc.valuations[-3:] == ((2, 3), (4, 3), (3, 5))
        # the 5-adic valuations must not be reported under another prime
        with pytest.raises(ValueError, match="value carries a different prime"):
            strong_convergence_sequence(mcf, targets, 7)
