"""Convergent tables, determinant identities, conditions, rescaling,
finite evaluation, strong convergence."""

import json
import random
import re
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padic_mcf import exprparse
from padic_mcf import mcf as mcf_module
from padic_mcf.errors import (
    InternalMismatch,
    ZeroDenominatorConvergent,
    ZeroIntermediate,
    ZeroWeight,
)
from padic_mcf.exprparse import read_rational
from padic_mcf.jacobi_perron import jp_expand
from padic_mcf.mcf import (
    MCF,
    ConditionReport,
    ConvergentsTable,
    check_convergence_conditions,
    convergents_of,
    dehomogenize,
    determinant_check,
    evaluate_finite,
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
    for the unreduced integer window of ConvergentsTable."""
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


def _general(max_rows):
    """General rows: m = 1..4, zeros, entries outside Z[1/p], and negative
    or non-unit a_n^(m+1) (a_0^(m+1) is set to 1 by general_rows)."""
    return dict(
        m=st.integers(1, 4),
        rows=st.lists(
            st.lists(st.one_of(st.just(F(0)), _ENTRY), min_size=5, max_size=5),
            min_size=1,
            max_size=max_rows,
        ),
        lasts=st.lists(_ENTRY.filter(bool), min_size=max_rows, max_size=max_rows),
    )


_GENERAL = _general(12)


def fraction_det(matrix):
    """Determinant of a square Fraction matrix by Gaussian elimination with
    Fractions: the reference for determinant_check."""
    a = [list(row) for row in matrix]
    det = F(1)
    for c in range(len(a)):
        piv = next((r for r in range(c, len(a)) if a[r][c]), None)
        if piv is None:
            return F(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, len(a)):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


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

    def test_repr_lists_the_sequences(self):
        mcf = MCF(2, [(F(-2, 5), F(1), F(1)), (F(3), F(1, 5), F(2))])
        assert repr(mcf) == "MCF[m=2; (-2/5, 3), (1, 1/5), (1, 2)]"


ROW = (F(1), F(1))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ConvergentsTable(0), "dimension must be >= 1"),
        (lambda: ConvergentsTable(1).push((F(1),)), "need 2 partial quotients"),
        (lambda: ConvergentsTable(1).push((F(1), F(0))), "a_n^(m+1) must be nonzero"),
        (lambda: ConvergentsTable(1).push((F(1), F(2))), "a_0^(m+1) must equal 1"),
        (lambda: MCF(0, [ROW]), "dimension must be >= 1"),
        (lambda: MCF(1, []), "need at least one row of partial quotients"),
        (lambda: MCF(1, [ROW, (F(1),)]), "rows must have 2 entries"),
        (lambda: MCF.from_sequences([[1]]), "need at least two sequences"),
        (lambda: MCF.from_sequences([[1, 2], [1]]), "sequences must share one length"),
        (lambda: MCF.from_json_dict({"m": 2, "a": [["1"], ["1"]]}),
         "'a' must hold m+1 sequences"),
        (lambda: rescale(MCF(1, [ROW, ROW]), [1]), "need one weight per stored index"),
        (lambda: reconstruct_initial(ConvergentsTable(1), (F(1),)),
         "need the m+1 complete quotients at the current index"),
        (lambda: strong_convergence_sequence(MCF(1, [ROW]), (F(1), F(2)), 5),
         "need one target per dimension"),
    ],
)
def test_validation_errors(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert (type(info.value), str(info.value)) == (ValueError, message)


def fraction_parse(x):
    """A quotient as Fraction(str) reads it: the reference for the reader."""
    x = F(x)
    return x.numerator, x.denominator


def parse_outcome(parse, x):
    """parse(x) reduced, or the type and message of the error it raises."""
    try:
        num, den = parse(x)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)
    g = gcd(num, den)
    return num // g, den // g


class TestQuotientParser:
    """The one reader parses canonical text with int and every other string
    with Fraction: the two must read the same values and raise the same
    errors, except that a trailing exponent beyond 4300 in absolute value
    is refused before Fraction sees it."""

    @pytest.mark.parametrize(
        "text",
        ["1.5", "1e3", " 3/4 ", "1_000", "+3", "2/4", "-0", "0/7", "007",
         "٣/٤", "3/-4", "1/0", "-1/0", "0/0", "abc", "", "-12/18"],
    )
    def test_matches_fraction(self, text):
        got = parse_outcome(read_rational, text)
        assert got == parse_outcome(fraction_parse, text)

    @pytest.mark.parametrize("text", ["1" * 5000, "-" + "1" * 5000, "1/" + "1" * 5000])
    def test_digit_limit_error_is_fractions(self, text):
        got = parse_outcome(read_rational, text)
        assert got == parse_outcome(fraction_parse, text)
        assert got[0] is ValueError and "(4300 digits)" in got[1]

    # Fraction multiplies out an exponent, so "1e999999999" would take hours:
    # a string whose trailing exponent is over the bound never reaches it
    @given(st.text(alphabet="0123456789-/.e_+ ", max_size=14))
    @example("1e4300")
    @example("1e-4300")
    @example("1.5e+4301")
    @example("1e-4301")
    @example("1/2e99999")
    @example("1e999999999 ")
    @settings(max_examples=400, deadline=None)
    def test_drawn_strings(self, text):
        got = parse_outcome(read_rational, text)
        exponent = re.fullmatch(r".*e([-+]?\d+(_\d+)*) *", text)
        if exponent and abs(int(exponent[1])) > 4300:
            assert got == (ValueError, f"decimal exponent of {text!r} is beyond ±4300")
        else:
            assert got == parse_outcome(fraction_parse, text)

    # Fraction's decimal group is d* on Python 3.11-3.12, which reads a
    # literal d; the reader refuses it as 3.10 and 3.13 do
    @pytest.mark.parametrize("text", ["1.d", "1.dd", "1.dE2", "1.D"])
    def test_letter_d_after_the_point(self, text):
        got = parse_outcome(read_rational, text)
        assert got == (ValueError, f"Invalid literal for Fraction: {text!r}")

    def test_canonical_files_build_no_fraction_rows(self, monkeypatch):
        text = {"m": 2, "a": [["3/5", "-2", "0/6"], ["1", "7/10", "2/6"], ["1", 1, "3"]]}

        def refused(*args):
            raise AssertionError("Fraction built while reading")

        monkeypatch.setattr(mcf_module, "Fraction", refused)
        monkeypatch.setattr(exprparse, "Fraction", refused)
        mcf = MCF.from_json_dict(text)
        monkeypatch.undo()
        check_convergence_conditions(mcf, 5)
        determinant_check(mcf)
        value_outcome(mcf)
        assert mcf._rows is None
        assert mcf.scaled_rows == [([3, 5, 5], 5), ([-20, 7, 10], 10), ([0, 1, 9], 3)]
        assert mcf.rows == ((F(3, 5), F(1), F(1)), (F(-2), F(7, 10), F(1)), (0, F(1, 3), 3))


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

    @given(**_general(60))
    @example(  # every column over a different denominator
        m=2,
        rows=[
            [F(1, 2), F(3, 4)], [F(2, 3), F(-1, 5)], [F(5, 7), F(0)], [F(1, 6), F(7, 9)]
        ],
        lasts=[F(1), F(2, 3), F(-5, 4), F(3, 8)],
    )
    @settings(max_examples=60, deadline=None)
    def test_general_rows_match_fraction_recurrence(self, m, rows, lasts):
        # entries outside Z[1/p], zeros and negative or non-unit a_n^(m+1)
        # included, so every column has its own denominator
        rows = general_rows(m, rows, lasts)
        cols = fraction_columns(rows, m)
        dets = determinant_check(MCF(m, rows))
        t = ConvergentsTable(m)
        for back in range(m + 1):
            assert t.column(back) == cols[m - back]
        for n, row in enumerate(rows):
            t.push(row)
            now = n + m + 1  # index of A_n in cols
            for back in range(m + 1):
                assert t.column(back) == cols[now - back]
            den = cols[now][m]
            assert t.denominator() == den
            want = None if den == 0 else tuple(x / den for x in cols[now][:m])
            assert t.try_convergents() == want
            # the closed form holds on any rows, so a wrong denominator of
            # any column of the window shows here
            assert dets[n] == (fraction_det(cols[now : now - m - 1 : -1]), True)

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

    def test_column_index_out_of_range(self):
        t = ConvergentsTable(2)
        t.push((F(3, 7), F(-1), F(1)))
        for back in (-1, -3, 3):  # column(-1) would be A_(n-m)
            with pytest.raises(IndexError, match=rf"^back must be in 0\.\.2, got {back}$"):
                t.column(back)

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

    def test_a_mismatch_gives_the_computed_determinant(self, monkeypatch):
        # rows over denominators, so the computed det is a reduced fraction
        mcf = random_mcf(random.Random(3), 2, 6)
        checks = determinant_check(mcf)
        assert all(ok for _, ok in checks)
        assert any(det.denominator > 1 for det, _ in checks)
        bareiss = mcf_module._bareiss

        def negated(a):  # every window's determinant comes out negated
            r, sign = bareiss(a)
            return r, -sign

        monkeypatch.setattr(mcf_module, "_bareiss", negated)
        assert determinant_check(mcf) == [(-det, False) for det, _ in checks]


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

    def test_valuations_over_a_shared_denominator(self):
        # (1/5, 1/25) scales to (5, 1) over 25: v(a_1^(1)) = v(5) - v(25) = -1
        mcf = MCF.from_json_dict({"m": 1, "a": [["1", "1/5"], ["1", "1/25"]]})
        assert check_convergence_conditions(mcf, 5).per_index == ((1, True, False),)
        strict = check_convergence_conditions(mcf, 5, unit_numerators=True)
        assert strict.per_index == ((1, True, True),)

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
        real = ConvergentsTable._newest

        def perturbed(table):  # the forward route's first coordinate plus 1
            first, *rest = real(table)
            return [first + rest[-1], *rest]

        monkeypatch.setattr(ConvergentsTable, "_newest", perturbed)
        with pytest.raises(InternalMismatch) as info:
            evaluate_finite(mcf)
        assert str(info.value) == (
            "backward value (Fraction(133, 48), Fraction(5, 4)) != final convergent"
            " (Fraction(181, 48), Fraction(5, 4))"
        )


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


def fraction_value(m, rows):
    """The final convergent by the plain Fraction recurrence."""
    last = fraction_columns(rows, m)[-1]
    if last[m] == 0:
        raise ZeroDenominatorConvergent(f"A_{len(rows) - 1}^({m + 1}) = 0")
    return tuple(x / last[m] for x in last[:m])


def fraction_evaluation(mcf):
    """evaluate_finite by the Fraction backward route, then the Fraction
    recurrence: the reference for both routes, errors and their order
    included."""
    backward = fraction_backward(mcf)
    assert fraction_value(mcf.m, mcf.rows) == backward
    return backward


# small integer entries make cancellations, hence both zero errors, likely
_NONZERO = st.builds(
    F, st.sampled_from((-2, -1, 1, 2)) | st.integers(-40, 40).filter(bool), st.integers(1, 60)
)
_WINDOW_ENTRY = st.one_of(st.just(F(0)), _NONZERO)


class TestForwardWindow:
    """The unreduced integer window of ConvergentsTable, which is also
    evaluate_finite's forward route, against the plain Fraction recurrence."""

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
        assert outcome(table_value, m, rows) == outcome(fraction_value, m, rows)
        mcf = MCF(m, rows)
        assert outcome(evaluate_finite, mcf) == outcome(fraction_evaluation, mcf)

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
        assert table_value(m, mcf.rows) == fraction_value(m, mcf.rows)
        assert evaluate_finite(mcf) == fraction_evaluation(mcf)

    def test_zero_denominator_message(self):
        rows = [(F(5), F(1)), (F(0), F(3))]  # A_1^(2) = 0
        assert outcome(table_value, 1, rows) == (
            ZeroDenominatorConvergent, "A_1^(2) = 0"
        )
        assert outcome(fraction_value, 1, rows) == outcome(table_value, 1, rows)


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

    def test_recurrence_self_check_raises(self, monkeypatch):
        # a zero test that never sees 0 makes every re-checked V_n disagree
        monkeypatch.setattr(mcf_module, "is_zero", lambda x: False)
        with pytest.raises(InternalMismatch, match=r"^V recurrence failed at n=0, i=1$"):
            strong_convergence_sequence(Q5_PAIR, (F(23, 5), F(14, 19)), 5)

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


def fraction_conditions(rows, p, unit_numerators):
    """check_convergence_conditions by padic.valuation on the Fraction rows:
    the reference for the conditions read off the integer rows."""
    m = len(rows[0]) - 1
    hi = m if unit_numerators else m + 1
    entries, first = [], None
    for n in range(1, len(rows)):
        v1 = valuation(rows[n][0], p)
        cond1 = v1 < 0 if unit_numerators else v1 <= 0
        cond2 = all(valuation(rows[n][i], p) > v1 for i in range(1, hi))
        entries.append((n, cond1, cond2))
        if first is None and not (cond1 and cond2):
            first = n
    return ConditionReport(unit_numerators, first is None, first, tuple(entries))


def value_outcome(mcf):
    try:
        return evaluate_finite(mcf)
    except (ValueError, ZeroIntermediate) as exc:
        return type(exc), str(exc)


def assert_views_agree(mcf, rows, finite, p):
    """mcf, built from either view, against MCF(m, rows, finite) and the
    Fraction references; the readers run before rows is first read."""
    m = len(rows[0]) - 1
    ref = MCF(m, rows, finite)
    assert determinant_check(mcf) == determinant_check(ref)
    for unit in (False, True):
        want = fraction_conditions(rows, p, unit)
        assert check_convergence_conditions(mcf, p, unit) == want
        assert check_convergence_conditions(ref, p, unit) == want
    assert value_outcome(mcf) == value_outcome(ref)
    if finite:
        try:
            want = fraction_backward(ref)
        except ZeroIntermediate as exc:
            want = (ZeroIntermediate, str(exc))
        assert value_outcome(mcf) == want
    assert convergents_of(mcf) == convergents_of(ref)
    assert (len(mcf), mcf.last_index) == (len(rows), len(rows) - 1)
    assert mcf.scaled_rows == [clear_denominators(row) for row in rows]
    assert mcf.rows == rows and type(mcf.rows) is tuple
    assert all(type(row) is tuple for row in mcf.rows)
    assert all(type(x) is F for row in mcf.rows for x in row)
    assert mcf == ref and ref == mcf
    assert mcf.to_json_dict() == ref.to_json_dict()


_SMALL = st.integers(-30, 30)
_DEN = st.integers(1, 40)
# canonical, unreduced and non-canonical strings, and JSON integers
_QUOTIENT = st.one_of(
    st.builds(lambda n, d: str(F(n, d)), _SMALL, _DEN),
    st.builds(lambda n, d, k: f"{n * k}/{d * k}", _SMALL, _DEN, st.integers(2, 6)),
    _SMALL,
    st.builds(lambda n, d: f" {n}/{d} ", _SMALL, _DEN),
    st.builds(lambda n, k: f"{n}.{k}", _SMALL, st.integers(0, 99)),
    st.builds(lambda n: f"+{abs(n)}", _SMALL),
    st.builds(lambda n, e: f"{n}e{e}", _SMALL, st.integers(-2, 2)),
    st.sampled_from(["0", "-0", "0/7", 0, "007", "-0/3", "٣/٤"]),
)
_LAST = _QUOTIENT.filter(lambda x: F(x) != 0)


class TestViews:
    """An MCF read from JSON (integer rows) and one built from Fractions or
    by a kernel answer every reader alike."""

    @given(
        data=st.data(),
        m=st.integers(1, 3),
        length=st.integers(1, 60),
        p=st.sampled_from((3, 5, 7)),
        finite=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_json_rows(self, data, m, length, p, finite):
        seqs = data.draw(
            st.lists(st.lists(_QUOTIENT, min_size=length, max_size=length),
                     min_size=m, max_size=m)
        )
        first = data.draw(st.sampled_from(["1", 1, "2/2", "+1", "1.0", " 1 "]))
        lasts = [first] + data.draw(
            st.lists(_LAST, min_size=length - 1, max_size=length - 1)
        )
        d = json.loads(json.dumps({"m": m, "a": seqs + [lasts], "finite": finite}))
        rows = tuple(zip(*[[F(x) for x in seq] for seq in d["a"]]))
        assert_views_agree(MCF.from_json_dict(d), rows, finite, p)

    @given(
        m=st.integers(1, 3),
        p=st.sampled_from((3, 5, 7, 11)),
        rng=st.randoms(use_true_random=False),
    )
    @settings(max_examples=30, deadline=None)
    def test_kernel_rows(self, m, p, rng):
        bound = 10 ** rng.randint(1, 25)
        inputs = [F(rng.randint(-bound, bound), rng.randint(1, bound)) for _ in range(m)]
        res = jp_expand(inputs, p, max_steps=rng.randint(1, 60))
        rows = res.mcf.rows
        assert_views_agree(res.mcf, rows, res.mcf.finite, p)
        read = MCF.from_json_dict(json.loads(json.dumps(res.mcf.to_json_dict())))
        assert_views_agree(read, rows, res.mcf.finite, p)
