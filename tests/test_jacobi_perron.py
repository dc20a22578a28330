"""The expansion algorithm, its Euclidean form, termination, periodicity."""

import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from conftest import eisenstein_field, euclid_tuples
from test_mcf import fraction_columns

from padic_mcf import jacobi_perron
from padic_mcf.cli import main
from padic_mcf.errors import (
    FieldMismatch,
    InsufficientPrecision,
    PrecisionExhausted,
    VerificationFailed,
)
from padic_mcf.jacobi_perron import (
    JPState,
    _digits,
    _quotient_period_candidate,
    _ValueEuclid,
    euclid_expand,
    jp_expand,
    jp_step,
    lift_to_integer_tuple,
    reexpand_check,
    verify_termination_dependence,
)
from padic_mcf.mcf import (
    MCF,
    ConvergentsTable,
    check_convergence_conditions,
    determinant_check,
    evaluate_finite,
    reconstruct_initial,
)
from padic_mcf.numberfield import (
    AlgebraicNumber,
    IntegerLift,
    NumberField,
    PAdicEmbedding,
    padic_roots,
)
from padic_mcf.padic import (
    PLUS_INFINITY,
    PAdicApprox,
    balanced_digit_expansion,
    browkin_s,
    in_browkin_range,
    integer_lift,
    inverse_mod_pk,
    residue_digit,
    to_approx,
    valuation,
)


@pytest.fixture(scope="module")
def emb_cubic_q5():
    return PAdicEmbedding.create(NumberField([F(-1), F(-1), F(-8, 5), F(1)]), 5, 32)


@pytest.fixture(scope="module")
def emb_cubic_q7():
    return PAdicEmbedding.create(NumberField([F(-1), F(2), F(3, 7), F(1)]), 7, 32)


@pytest.fixture(scope="module")
def emb_cuberoot2():
    return PAdicEmbedding.create(NumberField([-2, 0, 0, 1]), 5, 32)


def random_inputs(rng, m, bound=10**6):
    return tuple(
        F(rng.randint(-bound, bound), rng.randint(1, bound)) for _ in range(m)
    )


class TestJPStep:
    def test_first_step_of_stop_example(self):
        res = jp_step(JPState(5, (F(31, 26), F(21, 26)), 0))
        assert res.quotients == (1, 1)
        assert res.next_state.alphas == (F(-26, 5), F(-1))
        assert res.next_state.n == 1

    def test_second_step_terminates(self):
        res = jp_step(JPState(5, (F(-26, 5), F(-1)), 1))
        assert res.quotients == (F(-1, 5), F(-1))
        assert res.next_state is None

    def test_first_step_of_q5_pair(self):
        res = jp_step(JPState(5, (F(23, 5), F(14, 19)), 0))
        assert res.quotients == (F(-2, 5), 1)
        assert res.next_state.alphas == (F(-19, 5), F(-19))

    def test_zero_in_inner_coordinate_continues(self):
        # alpha^(1) - a^(1) = 0 is legal for m = 2; only the last coordinate stops
        res = jp_step(JPState(5, (F(1), F(1, 5)), 0))
        assert res.quotients == (1, F(1, 5))
        assert res.next_state is None  # here the last difference is also 0
        res2 = jp_step(JPState(5, (F(1), F(1, 5) + 5), 0))
        assert res2.next_state is not None
        assert res2.next_state.alphas[1] == 0  # exact zero propagates


class TestJPExpand:
    def test_q5_pair_a(self):
        res = jp_expand((F(23, 5), F(14, 19)), 5)
        assert res.is_finite and res.steps == 4
        assert res.mcf.sequences()[:2] == (
            (F(-2, 5), F(6, 5), F(6, 5), F(4, 5)),
            (F(1), F(1), F(-1), F(-1)),
        )
        assert evaluate_finite(res.mcf) == (F(23, 5), F(14, 19))

    def test_q5_pair_b(self):
        res = jp_expand((F(7, 3), F(11, 20)), 5)
        assert res.mcf.sequences()[:2] == (
            (F(-1), F(-4, 5), F(-3, 5)),
            (F(9, 5), F(-1), F(0)),
        )

    def test_q7_pair(self):
        res = jp_expand((F(31, 16), F(123, 7)), 7)
        assert res.mcf.sequences()[:2] == (
            (F(-2), F(-16, 7), F(13, 7), F(17, 7), F(2, 7)),
            (F(-24, 7), F(-2), F(2), F(-2), F(-1)),
        )

    def test_q11_triples(self):
        res = jp_expand((F(-5, 4), F(29, 11), F(3, 4)), 11)
        assert res.mcf.sequences()[:3] == (
            (F(-4), F(4, 11)),
            (F(29, 11), F(1)),
            (F(-2), F(0)),
        )
        res2 = jp_expand((F(-7, 4), F(2, 5), F(1, 3)), 11)
        assert res2.mcf.sequences()[:3] == (
            (F(1), F(-3, 11), F(-5, 11), F(4, 11)),
            (F(-4), F(-2), F(0), F(0)),
            (F(4), F(1), F(-4), F(0)),
        )

    def test_periodic_q5_cubic(self, emb_cubic_q5):
        field = emb_cubic_q5.field
        alpha = emb_cubic_q5(field.generator())
        beta = 1 + 1 / alpha
        res = jp_expand((alpha, beta), 5, detect_period=True)
        assert res.status == "periodic"
        assert (res.preperiod, res.period) == (0, 1)
        assert res.mcf.rows == ((F(8, 5), F(1), F(1)),)
        assert res.witness == (0, 1)

    def test_periodic_q7_cubic(self, emb_cubic_q7):
        field = emb_cubic_q7.field
        gamma = emb_cubic_q7(field.generator())
        delta = -2 + 1 / gamma
        res = jp_expand((gamma, delta), 7, detect_period=True)
        assert (res.status, res.preperiod, res.period) == ("periodic", 0, 1)
        assert res.mcf.rows == ((F(-3, 7), F(-2), F(1)),)

    def test_periodicity_witness_is_reproducible(self, emb_cubic_q5):
        field = emb_cubic_q5.field
        alpha = emb_cubic_q5(field.generator())
        res = jp_expand((alpha, 1 + 1 / alpha), 5, detect_period=True)
        state = res.witness_state
        for _ in range(res.period):
            state = jp_step(state).next_state
        assert tuple(state.alphas) == tuple(res.witness_state.alphas)

    def test_cuberoot_pair_true_expansion(self, emb_cuberoot2):
        # independent routes agree: the quotients below were derived by hand
        # and the value is confirmed by the double evaluation inside
        # evaluate_finite (backward substitution vs final convergent).
        # theta is the unique cube root of 2 in Q_5, theta = 303 (mod 625):
        #   a_0 = (-2, 0)       theta = 3 = -2 (mod 5), v(5/4) = 1
        #   a_1 = (4/5, -1)     from (4/5, 4(theta + 2)/5), the latter = -1 (mod 5)
        #   a_2 = (-1/5, 0)     from (5/(4 theta + 13), 0), 4 theta + 13 = -25 (mod 625)
        # and the second coordinate is then exactly 0 (see test_c02 for the
        # integer congruences behind each step)
        theta = emb_cuberoot2(emb_cuberoot2.field.generator())
        res = jp_expand((theta, F(5, 4)), 5)
        assert res.is_finite
        assert res.mcf.sequences()[:2] == (
            (F(-2), F(4, 5), F(-1, 5)),
            (F(0), F(-1), F(0)),
        )
        assert evaluate_finite(res.mcf) == (F(-19, 2), F(5, 4))

    def test_truncation(self):
        res = jp_expand((F(23, 5), F(14, 19)), 5, max_steps=2)
        assert res.status == "truncated" and res.steps == 2
        # the same 4-step run through both entry points, cut at every length
        for max_steps in range(1, 6):
            eu = euclid_expand((437, 70, 95), 5, max_steps=max_steps)
            assert len(eu.trace_valuations) == eu.steps + 1
            for res in (jp_expand((F(23, 5), F(14, 19)), 5, max_steps=max_steps), eu):
                finite = max_steps >= 4
                assert res.status == ("finite" if finite else "truncated")
                assert res.steps == min(max_steps, 4) and res.mcf.finite == finite

    def test_identity_reconstruction_at_every_step(self):
        inputs = (F(23, 5), F(14, 19))
        state = JPState(5, inputs, 0)
        table = ConvergentsTable(2)
        while True:
            res = jp_step(state)
            table.push(res.quotients + (F(1),))
            if res.next_state is None:
                break
            state = res.next_state
            alphas = state.alphas + (F(1),)
            assert reconstruct_initial(table, alphas) == inputs

    def test_identity_reconstruction_algebraic(self, emb_cubic_q5):
        field = emb_cubic_q5.field
        alpha = emb_cubic_q5(field.generator())
        beta = 1 + 1 / alpha
        state = JPState(5, (alpha, beta), 0)
        table = ConvergentsTable(2)
        for _ in range(3):
            res = jp_step(state)
            table.push(res.quotients + (F(1),))
            state = res.next_state
            alphas = state.alphas + (F(1),)
            got = reconstruct_initial(table, alphas)
            assert got[0] == alpha and got[1] == beta

    def test_output_conditions_and_norm_product(self):
        rng = random.Random(42)
        for _ in range(25):
            p = rng.choice((3, 5, 7, 11))
            m = rng.choice((2, 3))
            res = jp_expand(random_inputs(rng, m, bound=10**4), p)
            assert res.is_finite
            rep = check_convergence_conditions(res.mcf, p, unit_numerators=True)
            assert rep.ok
            table = ConvergentsTable(m)
            acc = 0
            for n, row in enumerate(res.mcf.rows):
                table.push(row)
                if n >= 1:
                    acc += valuation(row[0], p)
                    assert valuation(table.column(0)[m], p) == acc

    def test_rational_inputs_always_terminate(self):
        rng = random.Random(9)
        for _ in range(40):
            p = rng.choice((3, 5, 7, 11))
            m = rng.choice((1, 2, 3))
            res = jp_expand(random_inputs(rng, m), p)
            assert res.is_finite


class TestEuclid:
    def test_lift(self):
        assert lift_to_integer_tuple((F(23, 5), F(14, 19))) == (437, 70, 95)

    def test_equivalence_on_lifted_tuple(self):
        jp = jp_expand((F(23, 5), F(14, 19)), 5)
        eu = euclid_expand((437, 70, 95), 5)
        assert eu.mcf.rows == jp.mcf.rows
        assert eu.is_finite
        assert eu.trace_valuations[-1] == PLUS_INFINITY

    def test_one_dimensional_case(self):
        eu = euclid_expand((F(23, 5), 1), 5)
        jp = jp_expand((F(23, 5),), 5)
        assert eu.mcf.rows == jp.mcf.rows

    def test_trace_norms_strictly_decrease(self):
        rng = random.Random(5)
        for _ in range(30):
            p = rng.choice((3, 5, 7, 11))
            m = rng.choice((1, 2, 3))
            xs = lift_to_integer_tuple(random_inputs(rng, m, bound=10**4))
            res = euclid_expand(xs, p)
            assert res.is_finite
            trace = euclid_tuples(map(F, xs), res.mcf.rows)
            vals = last_valuations(trace, p)
            assert vals == res.trace_valuations and vals[-1] == PLUS_INFINITY
            assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_zero_last_coordinate_rejected(self):
        with pytest.raises(ZeroDivisionError):
            euclid_expand((F(1), F(2), F(0)), 5)

    def test_random_equivalence(self):
        rng = random.Random(17)
        for _ in range(25):
            p = rng.choice((3, 5, 7, 11))
            m = rng.choice((2, 3))
            ratios = random_inputs(rng, m, bound=10**4)
            xs = lift_to_integer_tuple(ratios)
            jp = jp_expand(ratios, p)
            eu = euclid_expand(xs, p)
            assert eu.mcf.rows == jp.mcf.rows


@pytest.mark.parametrize("expand", [jp_expand, euclid_expand])
def test_bare_field_element_needs_embedding(expand):
    theta = NumberField([-3, 0, 0, 1]).generator()
    with pytest.raises(ValueError, match="has no p-adic embedding"):
        expand((theta, F(1)), 5)


def oracle_digit(x, p):
    """The Browkin digit read off the balanced digit expansion."""
    if x == 0 or valuation(x, p) > 0:
        return F(0)
    return balanced_digit_expansion(x, p, 1).value(p)


def fraction_route(inputs, p):
    """Rows of the expansion on Fractions with oracle digits, through the
    step whose last difference vanishes: the slow reference for the
    integer kernel."""
    alphas = tuple(inputs)
    rows = []
    while True:
        digits = tuple(oracle_digit(a, p) for a in alphas)
        rows.append(digits + (F(1),))
        last = alphas[-1] - digits[-1]
        if last == 0:
            return rows
        lead = 1 / last
        alphas = (lead,) + tuple(lead * (a - d) for a, d in zip(alphas, digits[:-1]))


def fraction_euclid_trace(xs, p):
    """The Euclidean form on Fractions with oracle digits: every tuple
    through the terminal zero, and the digit rows it emits."""
    trace, rows = [xs], []
    while xs[-1] != 0:
        last = xs[-1]
        digits = [oracle_digit(x / last, p) for x in xs[:-1]]
        rows.append((*digits, F(1)))
        xs = (last,) + tuple(x - a * last for x, a in zip(xs, digits))
        trace.append(xs)
    return trace, tuple(rows)


def last_valuations(trace, p):
    return tuple(valuation(t[-1], p) for t in trace)


def value_euclid(xs, p):
    """Steps (quotients, next tuple) of _ValueEuclid on values of any
    backend, up to the step whose last coordinate vanishes."""
    run = _ValueEuclid(xs, p)
    while not run.finished:
        yield run.step(), run.xs


def value_euclid_reference(xs, p, steps):
    """The first `steps` rows of _ValueEuclid on xs, and the valuations
    of the last coordinates of xs and of the tuples after those rows."""
    rows, trace = [], [xs]
    for quotients, nxt in itertools.islice(value_euclid(xs, p), steps):
        rows.append(quotients + (F(1),))
        trace.append(nxt)
    return tuple(rows), last_valuations(trace, p)


bits_300 = st.integers(-(2**300), 2**300)


class TestIntegerKernel:
    """jp_expand and euclid_expand on rationals run on integer tuples; the
    Fraction route above is their reference."""

    @given(  # primes above 13 give wide residues R and digits with k > 1
        p=st.sampled_from((3, 5, 7, 11, 13, 257, 65537)),
        m=st.integers(1, 4),
        nums=st.lists(bits_300, min_size=4, max_size=4),
        dens=st.lists(bits_300.filter(bool), min_size=4, max_size=4),
        shifts=st.lists(st.integers(-30, 30), min_size=4, max_size=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_fraction_route(self, p, m, nums, dens, shifts):
        inputs = tuple(
            F(n, d) * F(p) ** k for n, d, k in zip(nums[:m], dens, shifts)
        )
        rows = fraction_route(inputs, p)
        res = jp_expand(inputs, p)
        assert res.is_finite and res.mcf.rows == tuple(rows)

        cols = fraction_columns(rows, m)
        last = cols[-1]
        assert evaluate_finite(res.mcf) == tuple(x / last[m] for x in last[:m])
        assert determinant_check(res.mcf) == [
            ((-1) ** (m * (n + 1)), True) for n in range(len(rows))
        ]

        lifted = lift_to_integer_tuple(inputs)
        eu = euclid_expand(lifted, p)
        assert eu.mcf.rows == res.mcf.rows
        trace, oracle_rows = fraction_euclid_trace(tuple(map(F, lifted)), p)
        assert eu.mcf.rows == oracle_rows
        assert eu.trace_valuations == last_valuations(trace, p)
        # coordinates outside Z: the kernel runs on the tuple scaled to Z
        fractional = inputs + (F(-1, 2 * p),)
        eu = euclid_expand(fractional, p)
        trace, oracle_rows = fraction_euclid_trace(fractional, p)
        assert eu.mcf.rows == oracle_rows
        assert eu.trace_valuations == last_valuations(trace, p)
        assert eu.is_finite and eu.steps == len(trace) - 1


ODD_PRIMES = (3, 5, 7, 11, 13, 257, 65537, 2**31 - 1, 10**9 + 7, 2**61 - 1)
big_units = st.integers(-(2**4000), 2**4000)


def as_unit(a, p):
    return a if a % p else a + 1


def fraction_digit(ui, u, p, k):
    """The digit of u_i / (u * p**(k-1)) as the kernels read it before they
    read residues: browkin_s of a Fraction of u_i and u mod p**k."""
    mod = p**k
    return browkin_s(F(ui % mod, u % mod * (mod // p)), p)


class TestDigitMap:
    """padic.residue_digit, and the one inverse per step of _digits, against
    browkin_s of a Fraction and the balanced digit expansion."""

    @given(p=st.sampled_from(ODD_PRIMES), k=st.integers(1, 40), ui=big_units, u=big_units)
    @example(p=3, k=1, ui=1, u=1)  # R = (p**k - 1) / 2, the top of the range
    @example(p=5, k=3, ui=-62, u=1)  # R = -(p**k - 1) / 2, the bottom
    @settings(max_examples=150, deadline=None)
    def test_residue_digit(self, p, k, ui, u):
        ui, u = as_unit(ui, p), as_unit(u, p)
        a = F(residue_digit(ui * inverse_mod_pk(u, p, k), p, k), p ** (k - 1))
        x = F(ui, u * p ** (k - 1))
        assert a == fraction_digit(ui, u, p, k) == oracle_digit(x, p)
        # the two properties that fix the digit: range, and a = x mod p
        assert in_browkin_range(a, p) and valuation(x - a, p) >= 1

    @given(
        p=st.sampled_from(ODD_PRIMES),
        w=st.integers(0, 39),
        vs=st.lists(st.one_of(st.none(), st.integers(0, 45)), min_size=1, max_size=5),
        units=st.lists(big_units, min_size=6, max_size=6),
    )
    @settings(max_examples=150, deadline=None)
    def test_one_inverse_per_step(self, p, w, vs, units):
        u, *uis = (as_unit(a, p) for a in units)
        parts = [None if v is None else (v, ui) for v, ui in zip(vs, uis)]
        digits, residues = _digits(parts, w, u, p, {})
        assert len(digits) == len(residues) == len(parts)
        for part, a, key in zip(parts, digits, residues):
            if part is None or part[0] > w:
                assert a == 0 and key is None
                continue
            k = 1 + w - part[0]  # the inverse mod p**k, taken afresh
            fresh = residue_digit(part[1] * inverse_mod_pk(u, p, k), p, k)
            assert key == (fresh, k)
            assert a == F(fresh, p ** (k - 1)) == fraction_digit(part[1], u, p, k)

    def test_a_run_builds_each_digit_once(self, emb_cubic_q5):
        alpha = emb_cubic_q5(emb_cubic_q5.field.generator())
        rational = (F(2**200 + 1, 3**90 + 2), F(-(7**80), 2**150 + 3))
        for inputs in [rational, (alpha, 1 + 1 / alpha)]:
            res = jp_expand(inputs, 5, max_steps=40)
            digits = [a for row in res.mcf.rows for a in row[:-1]]
            first = {}  # each value -> the first object holding it
            for a in digits:
                assert first.setdefault(a, a) is a
            assert len(first) < len(digits)  # some digit repeats


def assert_scaling_shifts_valuations(xs, c, p, max_steps):
    res = euclid_expand(xs, p, max_steps=max_steps)
    scaled = euclid_expand(tuple(c * x for x in xs), p, max_steps=max_steps)
    assert (scaled.mcf.rows, scaled.status) == (res.mcf.rows, res.status)
    shift = valuation(c, p)  # +inf, the valuation of 0, stays +inf
    assert scaled.trace_valuations == tuple(v + shift for v in res.trace_valuations)


class TestTraceValuations:
    """euclid_expand reports the valuation of the last coordinate of each
    tuple of its trace, read off the kernel on exact tuples."""

    @given(
        p=st.sampled_from((3, 5, 7, 11, 13)),
        m=st.integers(1, 4),
        nums=st.lists(st.one_of(st.just(0), bits_300), min_size=5, max_size=5),
        dens=st.lists(bits_300.filter(bool), min_size=5, max_size=5),
        shifts=st.lists(st.integers(-30, 30), min_size=5, max_size=5),
        max_steps=st.one_of(st.none(), st.integers(1, 40)),
    )
    @settings(max_examples=60, deadline=None)
    def test_rational(self, p, m, nums, dens, shifts, max_steps):
        xs = tuple(F(n, d) * F(p) ** k for n, d, k in zip(nums, dens, shifts))[: m + 1]
        if xs[-1] == 0:
            xs = xs[:-1] + (F(-1, 2 * p),)
        res = euclid_expand(xs, p, max_steps=max_steps or 10_000)
        trace, rows = fraction_euclid_trace(xs, p)
        assert res.steps == min(len(rows), max_steps or 10_000)
        assert res.mcf.rows == rows[: res.steps]
        assert res.trace_valuations == last_valuations(trace[: res.steps + 1], p)
        assert (res.trace_valuations[-1] == PLUS_INFINITY) == res.is_finite

    @given(
        rs=st.lists(st.fractions(max_denominator=10**6), min_size=2, max_size=2),
        m=st.integers(1, 2),
        precision=st.integers(150, 300),
        max_steps=st.integers(1, 10),
    )
    @settings(max_examples=40, deadline=None)
    def test_truncated(self, emb_cuberoot2, rs, m, precision, max_steps):
        # Q-linearly independent, so the run never ends in an exact zero
        theta = emb_cuberoot2(emb_cuberoot2.field.generator())
        exact = (theta * theta + rs[1], theta + rs[0], F(1))[-(m + 1):]
        xs = tuple(to_approx(x, 5, precision) for x in exact)
        res = euclid_expand(xs, 5, max_steps=max_steps)
        assert (res.status, res.steps) == ("truncated", max_steps)
        rows, vals = value_euclid_reference(xs, 5, max_steps)
        assert (res.mcf.rows, res.trace_valuations) == (rows, vals)

    # scaling every coordinate by c changes no ratio x^(i) / x^(m+1), so no
    # digit, and adds v_p(c) to every valuation
    @given(
        p=st.sampled_from((3, 5, 7, 11, 13)),
        m=st.integers(1, 4),
        nums=st.lists(st.one_of(st.just(0), bits_300), min_size=5, max_size=5),
        dens=st.lists(bits_300.filter(bool), min_size=5, max_size=5),
        shifts=st.lists(st.integers(-30, 30), min_size=5, max_size=5),
        c=st.fractions(max_denominator=2**100).filter(bool),
        c_shift=st.integers(-30, 30),
        max_steps=st.one_of(st.none(), st.integers(1, 40)),
    )
    @settings(max_examples=40, deadline=None)
    def test_scaling_rational(self, p, m, nums, dens, shifts, c, c_shift, max_steps):
        xs = tuple(F(n, d) * F(p) ** k for n, d, k in zip(nums, dens, shifts))[: m + 1]
        if xs[-1] == 0:
            xs = xs[:-1] + (F(-1, 2 * p),)
        assert_scaling_shifts_valuations(xs, c * F(p) ** c_shift, p, max_steps or 10_000)

    @given(c=st.fractions(max_denominator=10**12).filter(bool), c_shift=st.integers(-20, 20))
    @settings(max_examples=20, deadline=None)
    def test_scaling_field(self, emb_cuberoot2, c, c_shift):
        theta = emb_cuberoot2(emb_cuberoot2.field.generator())
        xs = (theta + 1, F(2, 15), theta * theta)
        assert_scaling_shifts_valuations(xs, c * F(5) ** c_shift, 5, 12)

    def test_jp_expand_has_none(self, emb_cuberoot2):
        theta = emb_cuberoot2(emb_cuberoot2.field.generator())
        for inputs in [(F(23, 5), F(14, 19)), (theta, theta * theta)]:
            res = jp_expand(inputs, 5, max_steps=20)
            assert res.trace_valuations is None
            assert "trace_valuations" not in res.to_json_dict()
        eu = euclid_expand((437, 70, 95), 5)
        assert eu.trace_valuations == (1, 2, 3, 4, PLUS_INFINITY)
        assert "trace_valuations" not in eu.to_json_dict()


class TestTerminationDependence:
    @pytest.mark.parametrize(
        "dependence, message",
        [
            (None, "finite run but inputs are Q-linearly independent"),
            ((F(1), F(1), F(1)), "dependency vector does not annihilate the inputs"),
        ],
    )
    def test_failures_are_defects(self, monkeypatch, dependence, message):
        inputs = (F(23, 5), F(14, 19))
        res = jp_expand(inputs, 5)
        monkeypatch.setattr(
            jacobi_perron, "rational_linear_dependence", lambda values: dependence
        )
        with pytest.raises(VerificationFailed) as info:
            verify_termination_dependence(res, inputs)
        assert str(info.value) == message

    def test_rational_inputs(self):
        for inputs in ((F(31, 26), F(21, 26)), (F(23, 5), F(14, 19))):
            res = jp_expand(inputs, 5)
            dep = verify_termination_dependence(res, inputs)
            assert sum(c * v for c, v in zip(dep, inputs + (F(1),))) == 0

    def test_cuberoot_case(self, emb_cuberoot2):
        theta = emb_cuberoot2(emb_cuberoot2.field.generator())
        res = jp_expand((theta, F(5, 4)), 5)
        dep = verify_termination_dependence(res, (theta, F(5, 4)))
        assert dep == (F(0), F(4), F(-5))

    def test_non_finite_rejected(self, emb_cubic_q5):
        alpha = emb_cubic_q5(emb_cubic_q5.field.generator())
        res = jp_expand((alpha, 1 + 1 / alpha), 5, detect_period=True)
        with pytest.raises(ValueError):
            verify_termination_dependence(res, (alpha, 1 + 1 / alpha))


class TestReexpand:
    def test_q5_expansion_reproduces_itself(self):
        res = jp_expand((F(23, 5), F(14, 19)), 5)
        rep = reexpand_check(res.mcf, 5)
        assert rep.matches and not rep.failed_hypotheses

    def test_single_row_fixed_point(self):
        mcf = MCF(2, [(F(-2, 5), F(1), F(1))])
        rep = reexpand_check(mcf, 5)
        assert rep.matches

    def test_recorded_cuberoot_block(self):
        mcf = MCF.unit_from_sequences([[1, F(4, 5), F(12, 5)], [0, 1, 0]])
        rep = reexpand_check(mcf, 5)
        assert rep.matches and rep.value == (F(133, 48), F(5, 4))
        assert not rep.failed_hypotheses

    def test_non_unit_numerators_are_reported(self):
        rep = reexpand_check(MCF(1, [(2, 1), (F(1, 5), 3)]), 5)
        assert rep.failed_hypotheses == ("unit_numerators",)
        assert bool(rep) is False

    def test_a_run_past_the_default_cap_reproduces_itself(self):
        # 11914 rows: a re-expansion cut at DEFAULT_MAX_STEPS could not match
        bits = random.Random(5).getrandbits
        xs = tuple(F(bits(13000), bits(13000) | 1) for _ in range(2))
        mcf = jp_expand(xs, 3, max_steps=12000).mcf
        assert mcf.finite and len(mcf.rows) == 11914
        rep = reexpand_check(mcf, 3)
        assert rep.matches and not rep.failed_hypotheses

    def test_violated_hypotheses_are_reported(self):
        mcf = MCF.unit_from_sequences([[3, 1], [1, 0]])  # |a_1^(1)| = 1, not > 1
        rep = reexpand_check(mcf, 5)
        assert not rep.matches
        assert any(h.startswith("norm_conditions") for h in rep.failed_hypotheses)


class TestApproxBackend:
    def test_termination_is_undecidable(self):
        ax = PAdicApprox.from_rational(F(23, 5), 5, 10)
        ay = PAdicApprox.from_rational(F(14, 19), 5, 10)
        with pytest.raises(InsufficientPrecision):
            jp_expand((ax, ay), 5)

    def test_never_claims_periodic(self, emb_cubic_q5):
        field = emb_cubic_q5.field
        alpha = emb_cubic_q5(field.generator())
        beta = 1 + 1 / alpha
        a = alpha.to_approx(20)
        b = beta.to_approx(20)
        res = jp_expand((a, b), 5, max_steps=4, detect_period=True)
        assert res.status == "truncated"
        assert res.period_candidate == (0, 1)
        assert res.mcf.rows == ((F(8, 5), F(1), F(1)),) * 4

    def test_exact_last_difference_finishes_a_truncated_run(self):
        # the exact 1 leaves an exact zero, so the truncated loop finishes
        res = jp_expand((to_approx(F(1, 3), 5, 20), 1), 5)
        assert res.status == "finite"
        assert res.mcf.rows == ((F(2), F(1), F(1)),)

    def test_euclid_termination_is_undecidable(self):
        xs = tuple(
            PAdicApprox.from_rational(F(v), 5, 10) for v in (437, 70, 95)
        )
        with pytest.raises(InsufficientPrecision):
            euclid_expand(xs, 5)

    def test_euclid_errors_carry_certified_rows(self, capsys):
        exact = (F(7, 3), F(11, 13), F(1))
        xs = tuple(to_approx(x, 5, 12) for x in exact)
        with pytest.raises(InsufficientPrecision) as info:
            euclid_expand(xs, 5)
        assert info.value.certified_rows == 4  # row 5's zero test is undecided
        assert euclid_expand(xs, 5, max_steps=4).mcf.rows == (
            euclid_expand(exact, 5).mcf.rows[:4]
        )
        # the command line reports the error, then the rows certified
        argv = ["euclid", "-p", "5", "--backend", "approx", "--precision", "12",
                "7/3", "11/13", "1"]
        assert main(argv) == 1
        assert capsys.readouterr() == (
            "",
            "error: InsufficientPrecision: cannot distinguish 0 from O(p^10)\n"
            "certified rows: 4\n",
        )
        # a last coordinate that cannot be told from 0 certifies no row
        xs = (to_approx(F(7, 3), 5, 4), to_approx(F(625), 5, 4))
        with pytest.raises(InsufficientPrecision) as info:
            euclid_expand(xs, 5)
        assert info.value.certified_rows == 0
        argv = ["euclid", "-p", "5", "--backend", "approx", "--precision", "4",
                "7/3", "625"]
        assert main(argv) == 1
        assert capsys.readouterr() == (
            "",
            "error: InsufficientPrecision: cannot distinguish 0 from O(p^4)\n"
            "certified rows: 0\n",
        )

    @given(
        p=st.sampled_from((3, 5, 7, 11, 13)),
        m=st.integers(1, 3),
        precision=st.integers(2, 40),
        rng=st.randoms(use_true_random=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_euclid_certified_rows_are_exact_rows(self, p, m, precision, rng):
        # a truncated run cannot tell its last zero, so it always raises;
        # the rows it certified are the exact run's, and a run capped there
        # emits them without raising
        bound = 10 ** rng.randint(2, 30)
        exact = [F(rng.randint(-bound, bound), rng.randint(1, bound)) for _ in range(m)]
        exact.append(F(rng.choice([k for k in range(1, 60) if k % p])))
        xs = tuple(to_approx(x, p, precision) for x in exact)
        with pytest.raises(InsufficientPrecision) as info:
            euclid_expand(xs, p)
        n = info.value.certified_rows
        assert n is not None
        want = euclid_expand(exact, p).mcf.rows[:n]
        assert len(want) == n
        if n:
            assert euclid_expand(xs, p, max_steps=n).mcf.rows == want


def triple_loop_period_candidate(rows):
    """Every (period, preperiod) pair tried in turn, each checked in full:
    the slow reference for the backward scan."""
    n = len(rows)
    for period in range(1, n // 2 + 1):
        for pre in range(0, n - 2 * period + 1):
            if all(rows[i] == rows[i + period] for i in range(pre, n - period)):
                return (pre, period)
    return None


class TestPeriodCandidate:
    @given(
        prefix=st.lists(st.integers(0, 2), max_size=12),
        block=st.lists(st.integers(0, 2), min_size=1, max_size=6),
        repeats=st.integers(0, 5),
        cut=st.integers(0, 5),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_triple_loop(self, prefix, block, repeats, cut):
        rows = [(a,) for a in prefix + block * repeats + block[:cut]]
        assert _quotient_period_candidate(rows) == triple_loop_period_candidate(rows)


# ---------------------------------------------------------------------------
# the projective kernel for exact tuples with a field element
# ---------------------------------------------------------------------------


def coefficient_key(state, degree):
    """The complete quotients as coefficient vectors, a rational as a
    constant vector."""
    return tuple(
        a.coeffs if isinstance(a, AlgebraicNumber) else (F(a),) + (F(0),) * (degree - 1)
        for a in state.alphas
    )


def oracle_expand(inputs, p, max_steps, detect_period):
    """The jp_step loop with exact period lookup on coefficient vectors:
    the slow reference for the projective kernel.  Returns (rows, status,
    witness, witness_state)."""
    degree = next(a.field.degree for a in inputs if isinstance(a, AlgebraicNumber))
    state = JPState(p, tuple(inputs), 0)
    seen = {coefficient_key(state, degree): 0}
    rows = []
    while True:
        res = jp_step(state)
        rows.append(res.quotients + (F(1),))
        if res.next_state is None:
            return rows, "finite", None, None
        state = res.next_state
        key = coefficient_key(state, degree)
        if detect_period and key in seen:
            return rows, "periodic", (seen[key], state.n), state
        seen[key] = state.n
        if len(rows) >= max_steps:
            return rows, "truncated", None, None


def assert_matches_oracle(inputs, p, max_steps, detect_period):
    rows, status, witness, state = oracle_expand(inputs, p, max_steps, detect_period)
    res = jp_expand(inputs, p, max_steps=max_steps, detect_period=detect_period)
    assert res.mcf.rows == tuple(rows)
    assert (res.status, res.steps, res.witness) == (status, len(rows), witness)
    assert res.period_candidate is None
    if status == "periodic":
        assert (res.preperiod, res.period) == (witness[0], witness[1] - witness[0])
        assert res.witness_state.n == state.n
        assert res.witness_state.alphas == state.alphas
    else:
        assert res.preperiod is res.period is res.witness_state is None
    return res


@pytest.fixture
def count_relifts(monkeypatch):
    """Counts the residue computations of IntegerLift: one per run, plus
    one per re-lift."""
    calls = []
    residues = IntegerLift.residues

    def counted(self, vectors, precision):
        calls.append(precision)
        return residues(self, vectors, precision)

    monkeypatch.setattr(IntegerLift, "residues", counted)
    return calls


def assert_lookup_relifts_as_one_more_row(xs, p, max_steps, count_relifts):
    """A run with period lookup that finds no period computes the residues
    of the run of one more row without it, at the same precisions: the
    lookup of the tuple after the last row reads that tuple's digits, which
    the step of one more row reads too."""
    count_relifts.clear()
    found = jp_expand(xs, p, max_steps=max_steps, detect_period=True)
    looked_up = list(count_relifts)
    count_relifts.clear()
    ahead = jp_expand(xs, p, max_steps=max_steps + 1)
    assert found.status != "periodic"
    assert found.mcf.rows == ahead.mcf.rows[:max_steps]
    assert looked_up == count_relifts


def small_rational(rng):
    return F(rng.randint(-30, 30), rng.randint(1, 30))


def paper_periodic_pair(case, emb_cubic_q5, emb_cubic_q7):
    """(p, pair) for the purely periodic pairs of worked examples c4 and c6."""
    if case == "c4":
        alpha = emb_cubic_q5(emb_cubic_q5.field.generator())
        return 5, (alpha, 1 + 1 / alpha)
    gamma = emb_cubic_q7(emb_cubic_q7.field.generator())
    return 7, (gamma, -2 + 1 / gamma)


def back(pair, digits):
    """The pair (a1 + y/x, a2 + 1/x) whose step with the digit row
    (a1, a2) gives pair = (x, y); the row is its row of digits when a1 and
    a2 are digits and y/x and 1/x have valuation at least 1."""
    (x, y), (a1, a2) = pair, digits
    return a1 + y / x, a2 + 1 / x


def random_digit(rng, p, j):
    """A random digit r / p**j, |r| < p**(j+1) / 2, of valuation exactly -j
    for j >= 1."""
    bound = (p ** (j + 1) - 1) // 2
    while True:
        r = rng.randint(-bound, bound)
        if j == 0 or r % p:
            return F(r, p**j)


def random_back_row(rng, p):
    """A digit row (a1, a2), v(a1) = -j <= -1 and v(a2) > -j, for which
    back keeps v(x) <= -1 and v(y / x) >= 1, so that rows can be put in
    front of each other."""
    j = rng.randint(1, 2)
    return random_digit(rng, p, j), random_digit(rng, p, rng.randint(0, j - 1))


def cubic_theta_pair(rng, p):
    """(theta, theta^2) of a random cubic drawn as the bench draws it."""
    field = NumberField(eisenstein_field(rng, p, 3))
    theta = PAdicEmbedding.create(field, p, 16)(field.generator())
    return theta, theta * theta


class TestProjectiveKernel:
    """jp_expand and euclid_expand on exact tuples with a field element
    against the jp_step loop and _ValueEuclid."""

    # quadratic fields too: about one in ten of their m = 1 runs is periodic
    @given(
        p=st.sampled_from((3, 5, 7, 11, 13)),
        degree=st.sampled_from((2, 3, 4)),
        rng=st.randoms(use_true_random=False),
        detect_period=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_jp_step_loop(self, p, degree, rng, detect_period):
        field = NumberField(eisenstein_field(rng, p, degree))
        emb = PAdicEmbedding.create(field, p, 16)
        theta = emb(field.generator())
        m = rng.randint(1, max(2, degree - 1))
        powers = [theta]
        for _ in range(degree - 2):
            powers.append(powers[-1] * theta)
        # theta^1 .. theta^m, some replaced by rationals or shifted by them
        inputs = []
        for i in range(m):
            kind = rng.randrange(3)
            if kind == 0 and i > 0:
                inputs.append(small_rational(rng))
            elif kind == 1:
                inputs.append(powers[i % len(powers)] + small_rational(rng))
            else:
                inputs.append(powers[i % len(powers)])
        rng.shuffle(inputs)
        max_steps = rng.randint(1, 30)
        res = assert_matches_oracle(tuple(inputs), p, max_steps, detect_period)

        scale = theta + small_rational(rng)
        xs = tuple(scale * x for x in inputs) + (scale,)
        eu = euclid_expand(xs, p, max_steps=max_steps)
        rows, vals = value_euclid_reference(xs, p, eu.steps)
        assert (eu.mcf.rows, eu.trace_valuations) == (rows, vals)
        assert eu.is_finite == (vals[-1] == PLUS_INFINITY)
        assert eu.is_finite or eu.steps == max_steps
        assert eu.mcf.rows[: res.steps] == res.mcf.rows[: eu.steps]

    @pytest.mark.parametrize("detect_period", [False, True])
    def test_paper_cubics(self, emb_cubic_q5, emb_cubic_q7, detect_period):
        alpha = emb_cubic_q5(emb_cubic_q5.field.generator())
        gamma = emb_cubic_q7(emb_cubic_q7.field.generator())
        assert_matches_oracle((alpha, 1 + 1 / alpha), 5, 12, detect_period)
        assert_matches_oracle((gamma, -2 + 1 / gamma), 7, 12, detect_period)

    @pytest.mark.parametrize(
        "case, rows, witness",
        [
            ("c4", [(F(2, 5), F(1, 5)), (F(8, 5), F(1))], (1, 2)),
            ("c6", [(F(1, 7), F(3)), (F(-3, 7), F(-2))], (1, 2)),
            ("c6-twice", [(F(-2), F(3, 49)), (F(1, 7), F(3)), (F(-3, 7), F(-2))], (2, 3)),
        ],
    )
    def test_periods_with_a_preperiod(self, emb_cubic_q5, emb_cubic_q7, case, rows, witness):
        # back undoes one step; each row is valid since both added terms
        # have valuation 1
        p, pair = paper_periodic_pair(case[:2], emb_cubic_q5, emb_cubic_q7)
        for digits in reversed(rows[:-1]):
            pair = back(pair, digits)
        res = assert_matches_oracle(pair, p, 50, True)
        assert res.mcf.rows == tuple(r + (F(1),) for r in rows)
        assert (res.preperiod, res.period, res.witness) == (witness[0], 1, witness)
        state = res.witness_state
        for _ in range(res.period):
            state = jp_step(state).next_state
        assert state.alphas == res.witness_state.alphas

    @given(
        case=st.sampled_from(("c4", "c6")),
        preperiod=st.integers(0, 4),
        unindexed=st.sampled_from((0, 1, jacobi_perron._UNINDEXED)),
        start=st.sampled_from((1, 3, 6, jacobi_perron._START_PRECISION)),
        rng=st.randoms(use_true_random=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_periods_after_random_preperiods(
        self, emb_cubic_q5, emb_cubic_q7, case, preperiod, unindexed, start, rng
    ):
        # with _UNINDEXED at 0 or 1, the period lookup files tuples by their
        # index, as in a long run; a low first precision leaves tuples with
        # residues of fewer digits than the index and the cross-check read
        p, pair = paper_periodic_pair(case, emb_cubic_q5, emb_cubic_q7)
        for _ in range(preperiod):
            pair = back(pair, random_back_row(rng, p))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(jacobi_perron, "_UNINDEXED", unindexed)
            patch.setattr(jacobi_perron, "_START_PRECISION", start)
            res = assert_matches_oracle(pair, p, 50, True)
        assert res.status == "periodic"

    @given(
        p=st.sampled_from((3, 5, 7, 11)),
        rng=st.randoms(use_true_random=False),
        max_steps=st.integers(1, 80),
    )
    @settings(max_examples=30, deadline=None)
    def test_period_lookup_keeps_the_rows(self, p, rng, max_steps):
        xs = cubic_theta_pair(rng, p)
        found = jp_expand(xs, p, max_steps=max_steps, detect_period=True)
        assume(found.status != "periodic")
        plain = jp_expand(xs, p, max_steps=max_steps)
        assert (found.mcf.rows, found.status) == (plain.mcf.rows, plain.status)

    @given(
        p=st.sampled_from((3, 5, 7)),
        rng=st.randoms(use_true_random=False),
        starts=st.tuples(st.integers(1, 40), st.integers(1, 40)),
        shift=st.integers(-4, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_lookup_keys_are_functions_of_the_point(self, p, rng, starts, shift):
        # one point, held as two tuples that are multiples of each other and
        # read from two first precisions, has one digit row at every step
        # and, where the residues of both carry it, one index
        theta, square = cubic_theta_pair(rng, p)
        c = F(p) ** shift * (theta + small_rational(rng))
        runs = []
        for xs, start in zip(((theta, square, F(1)), (c * theta, c * square, c)), starts):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(jacobi_perron, "_START_PRECISION", start)
                runs.append(jacobi_perron._ProjectiveEuclid(integer_lift(xs), p))
        for _ in range(12):
            rows = [run._digit_row() for run in runs]
            assert rows[0][4] == rows[1][4]
            indexes = [run._index(w, u, parts) for run, (w, u, parts, *_) in zip(runs, rows)]
            if None not in indexes:
                assert indexes[0] == indexes[1]
            for run in runs:
                run.step()

    def test_period_lookup_compares_few_tuples(self, monkeypatch):
        # a long run at a small prime has few digit rows; filing the tuples
        # of a row by their index keeps a lookup from comparing its tuple
        # with every earlier one of the row
        calls = []
        agree = jacobi_perron._residues_agree

        def counted(*args):
            calls.append(args)
            return agree(*args)

        monkeypatch.setattr(jacobi_perron, "_residues_agree", counted)
        xs = cubic_theta_pair(random.Random(0), 3)
        res = jp_expand(xs, 3, max_steps=3000, detect_period=True)
        assert res.status == "truncated"
        assert len(calls) <= jacobi_perron._UNINDEXED * res.steps

    def test_fingerprint_is_only_a_filter(self, monkeypatch, emb_cubic_q5):
        # with no tuple indexed and the residue cross-check passing every
        # pair, each tuple that shares an earlier tuple's digit keys reaches
        # the exact comparison in the field, and only that comparison tells
        # them apart
        checks = []

        def always_agree(*args):
            checks.append(args)
            return True

        monkeypatch.setattr(jacobi_perron._ProjectiveEuclid, "_index", lambda *args: None)
        monkeypatch.setattr(jacobi_perron, "_residues_agree", always_agree)
        emb = PAdicEmbedding.create(NumberField([-3, 0, 0, 1]), 5, 32)
        theta = emb(emb.field.generator())
        assert_matches_oracle((theta, theta * theta), 5, 60, True)
        assert checks  # unequal tuples shared digit keys
        alpha = emb_cubic_q5(emb_cubic_q5.field.generator())
        beta = 1 + 1 / alpha
        res = assert_matches_oracle((F(2, 5) + beta / alpha, F(1, 5) + 1 / alpha), 5, 50, True)
        assert res.witness == (1, 2)

    @pytest.mark.parametrize(
        "inputs",
        [
            lambda t: (t, t + F(5) ** 80),
            lambda t: (F(5) ** -60 * t, t * t),
            lambda t: (t, t * t + F(5) ** -40),
        ],
        ids=["theta+5^80", "5^-60*theta", "theta^2+5^-40"],
    )
    def test_relifts_match_the_oracle(self, inputs, count_relifts):
        emb = PAdicEmbedding.create(NumberField([-3, 0, 0, 1]), 5, 32)
        values = inputs(emb(emb.field.generator()))
        for detect_period in (False, True):
            count_relifts.clear()
            assert_matches_oracle(values, 5, 40, detect_period)
            assert len(count_relifts) >= 3  # the first residues, two re-lifts
        assert_lookup_relifts_as_one_more_row(values, 5, 40, count_relifts)

    def test_relift_bound(self, monkeypatch):
        emb = PAdicEmbedding.create(NumberField([-3, 0, 0, 1]), 5, 32)
        theta = emb(emb.field.generator())
        monkeypatch.setattr(jacobi_perron, "MAX_DOUBLINGS", 1)
        xs = (F(5) ** -60 * theta, theta * theta)
        for expand, args in ((jp_expand, xs), (euclid_expand, xs + (F(1),))):
            with pytest.raises(InsufficientPrecision, match="re-lifts") as info:
                expand(args, 5, max_steps=40)
            assert info.value.certified_rows == 0  # the cap is hit before row 1

    def test_relift_bound_certifies_the_rows_before_it(self, monkeypatch):
        # the run that hits the cap counts the rows it emitted, and a run
        # capped there emits the rows of the run with the real cap
        emb = PAdicEmbedding.create(NumberField([-3, 0, 0, 1]), 5, 32)
        theta = emb(emb.field.generator())
        xs = (theta, theta * theta + F(5) ** -40)
        full = jp_expand(xs, 5, max_steps=40)
        assert full.steps == 40
        monkeypatch.setattr(jacobi_perron, "MAX_DOUBLINGS", 2)
        for expand, args in ((jp_expand, xs), (euclid_expand, xs + (F(1),))):
            with pytest.raises(InsufficientPrecision, match="re-lifts") as info:
                expand(args, 5, max_steps=40)
            assert info.value.certified_rows == 21
            assert expand(args, 5, max_steps=21).mcf.rows == full.mcf.rows[:21]
        # the period lookup reads no digit that the rows do not, so it
        # spends no re-lift of its own and certifies as many rows
        with pytest.raises(InsufficientPrecision, match="re-lifts") as info:
            jp_expand(xs, 5, max_steps=40, detect_period=True)
        assert info.value.certified_rows == 21
        for detect_period in (False, True):
            with pytest.raises(InsufficientPrecision, match="re-lifts") as info:
                jp_expand((F(5) ** -60 * theta, theta * theta), 5, 40, detect_period)
            assert info.value.certified_rows == 4

    @pytest.mark.parametrize("seed", range(24))
    def test_period_lookup_relifts_as_one_more_row(self, seed, count_relifts):
        rng = random.Random(seed)
        p = rng.choice((3, 5, 7, 11))
        xs = cubic_theta_pair(rng, p)
        assert_lookup_relifts_as_one_more_row(xs, p, rng.randint(60, 150), count_relifts)

    @pytest.mark.parametrize("expand", [jp_expand, euclid_expand])
    def test_errors_stay_the_same(self, expand, emb_cubic_q5, emb_cubic_q7):
        alpha = emb_cubic_q5(emb_cubic_q5.field.generator())
        other = PAdicEmbedding.create(NumberField([-3, 0, 0, 1]), 5, 32)
        with pytest.raises(FieldMismatch):
            expand((alpha, other(other.field.generator())), 5)
        gamma = emb_cubic_q7(emb_cubic_q7.field.generator())
        with pytest.raises(ValueError, match="value carries a different prime"):
            expand((alpha, gamma), 5)

    def test_values_under_two_embeddings_do_not_mix(self):
        # theta of x^2 - 2 at its two roots r1, r2 = -r1 in Q_7: (t1, t2)
        # is (r1, -r1), not (r1, r1), so it may not run on one embedding
        k = NumberField([-2, 0, 1])
        e1, e2 = (PAdicEmbedding(k, 7, r) for r in padic_roots(k, 7, 8))
        t1, t2 = e1(k.generator()), e2(k.generator())
        for expand, args in ((jp_expand, (t1, t2)), (euclid_expand, (t1, t2, F(1)))):
            with pytest.raises(FieldMismatch, match="^values use different embeddings$"):
                expand(args, 7)
        assert jp_expand((t1, -t1), 7).mcf.rows[0] == (3, -3, 1)


@pytest.mark.parametrize(
    "expand, args, message",
    [
        # the prime is checked first, then max_steps, then the inputs
        (jp_expand, ((), 4, 0), "p must be an odd prime, got 4"),
        (euclid_expand, ((), 4, 0), "p must be an odd prime, got 4"),
        (jp_expand, ((F(1, 2),), 5, 0), "max_steps must be >= 1"),
        (jp_expand, ((), 5, 0), "max_steps must be >= 1"),
        (euclid_expand, ((F(1),), 5, 0), "max_steps must be >= 1"),
        (jp_expand, ((), 5), "need at least one input value"),
        (euclid_expand, ((F(1),), 5), "need an (m+1)-tuple with m >= 1"),
    ],
)
def test_argument_errors(expand, args, message):
    with pytest.raises(ValueError) as info:
        expand(*args)
    assert (type(info.value), str(info.value)) == (ValueError, message)


def assert_cuts_the_full_run(inputs, p, cap):
    """jp_expand and euclid_expand at every max_steps from 1 to n + 1 give
    the first max_steps rows of the full run of n rows, at most cap of
    them, and are finite exactly when the full run fits.  Returns the
    jp_expand results by max_steps."""
    full = jp_expand(inputs, p, max_steps=cap)
    n = full.steps
    xs = tuple(inputs) + (F(1),)
    rows, vals = value_euclid_reference(xs, p, n)
    results = {}
    for max_steps in range(1, n + 1 + full.is_finite):
        res = results[max_steps] = jp_expand(inputs, p, max_steps=max_steps)
        assert res.mcf.rows == full.mcf.rows[:max_steps]
        fits = full.is_finite and n <= max_steps
        assert res.status == ("finite" if fits else "truncated")
        assert res.steps == len(res.mcf.rows)
        eu = euclid_expand(xs, p, max_steps=max_steps)
        assert (eu.mcf.rows, eu.status, eu.steps) == (res.mcf.rows, res.status, res.steps)
        assert eu.mcf.rows == rows[: eu.steps]
        assert eu.trace_valuations == vals[: eu.steps + 1]
    return results


class TestLoopBoundaries:
    """One loop runs both exact kernels: a rational run and a run with a
    field element stop at max_steps alike, in jp_expand as in
    euclid_expand."""

    @given(
        p=st.sampled_from((3, 5, 7, 11, 13)),
        m=st.integers(1, 3),
        rng=st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_rational_tuples(self, p, m, rng):
        inputs = random_inputs(rng, m, bound=10**4)
        results = assert_cuts_the_full_run(inputs, p, 10**4)
        for max_steps, res in results.items():
            assert jp_expand(inputs, p, max_steps, detect_period=True) == res

    @given(
        p=st.sampled_from((3, 5, 7, 11, 13)),
        degree=st.sampled_from((2, 3, 4)),
        rng=st.randoms(use_true_random=False),
    )
    @settings(max_examples=20, deadline=None)
    def test_field_tuples(self, p, degree, rng):
        field = NumberField(eisenstein_field(rng, p, degree))
        theta = PAdicEmbedding.create(field, p, 16)(field.generator())
        inputs = [theta]
        for _ in range(rng.randint(0, 2)):
            inputs.append(rng.choice([inputs[-1] * theta, small_rational(rng)]))
        inputs = [x + small_rational(rng) for x in inputs]
        rng.shuffle(inputs)
        assert_cuts_the_full_run(tuple(inputs), p, 40)


def rows_until_precision_runs_out(steps, cap):
    """The first cap rows of a truncated run, or all it emits before it
    raises InsufficientPrecision."""
    rows = []
    try:
        for row in itertools.islice(steps, cap):
            rows.append(row)
    except InsufficientPrecision:
        pass
    return rows


def assert_truncated_rows_are_exact_rows(inputs, p, precision, cap):
    """jp_expand and euclid_expand on the inputs truncated modulo
    p**precision emit the first rows of the exact run, whether they stop at
    cap rows or run out of precision first (then the rows are those that
    the jp_step loop and _ValueEuclid emit before they raise)."""
    exact = jp_expand(inputs, p, max_steps=cap).mcf.rows
    approx = tuple(to_approx(x, p, precision) for x in inputs)

    def jp_rows():
        state = JPState(p, approx, 0)
        while state is not None:
            res = jp_step(state)
            yield res.quotients + (F(1),)
            state = res.next_state

    def euclid_rows():
        for quotients, _ in value_euclid(approx + (F(1),), p):
            yield quotients + (F(1),)

    for run, steps in (
        (lambda: jp_expand(approx, p, max_steps=cap), jp_rows),
        (lambda: euclid_expand(approx + (F(1),), p, max_steps=cap), euclid_rows),
    ):
        try:
            res = run()
        except InsufficientPrecision:
            rows = rows_until_precision_runs_out(steps(), cap)
        else:
            assert res.status == "truncated" and res.steps == cap
            rows = list(res.mcf.rows)
        assert rows == list(exact[: len(rows)])


class TestTruncatedAgainstExact:
    """The truncated backend emits only rows the exact run emits."""

    @given(
        p=st.sampled_from((3, 5, 7, 11, 13)),
        m=st.integers(1, 3),
        precision=st.integers(50, 600),
        rng=st.randoms(use_true_random=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_rational_tuples(self, p, m, precision, rng):
        inputs = random_inputs(rng, m, bound=10 ** rng.randint(2, 60))
        assert_truncated_rows_are_exact_rows(inputs, p, precision, rng.randint(1, precision))

    @given(
        p=st.sampled_from((3, 5, 7, 11, 13)),
        precision=st.integers(50, 600),
        rng=st.randoms(use_true_random=False),
    )
    @settings(max_examples=20, deadline=None)
    def test_cubic_field_tuples(self, p, precision, rng):
        field = NumberField(eisenstein_field(rng, p, 3))
        theta = PAdicEmbedding.create(field, p, 16)(field.generator())
        inputs = [theta]
        for _ in range(rng.randint(0, 2)):
            inputs.append(rng.choice([inputs[-1] * theta, small_rational(rng)]))
        inputs = [x + small_rational(rng) for x in inputs]
        rng.shuffle(inputs)
        assert_truncated_rows_are_exact_rows(
            tuple(inputs), p, precision, rng.randint(1, precision)
        )


# ---------------------------------------------------------------------------
# truncated runs on triples, against the jp_step loop
# ---------------------------------------------------------------------------


def jp_step_outcome(inputs, p, max_steps):
    """A truncated run of the JPState/jp_step loop, the oracle of the triple
    loop: (rows, status, period candidate), or the rows emitted before an
    InsufficientPrecision or PrecisionExhausted with its type and message."""
    state, rows = JPState(p, tuple(inputs), 0), []
    try:
        while True:
            res = jp_step(state)
            rows.append(res.quotients + (F(1),))
            if res.next_state is None:
                return rows, "finite", None
            if len(rows) >= max_steps:
                return rows, "truncated", _quotient_period_candidate(rows)
            state = res.next_state
    except (InsufficientPrecision, PrecisionExhausted) as exc:
        return rows, type(exc), str(exc)


def assert_matches_jp_step_outcome(inputs, p, max_steps):
    """jp_expand gives the oracle's outcome.  After a raise, certified_rows
    counts the rows emitted before it: a run capped there emits them."""
    want = jp_step_outcome(inputs, p, max_steps)
    try:
        res = jp_expand(inputs, p, max_steps=max_steps)
        got = list(res.mcf.rows), res.status, res.period_candidate
    except (InsufficientPrecision, PrecisionExhausted) as exc:
        n = exc.certified_rows
        rows = list(jp_expand(inputs, p, max_steps=n).mcf.rows) if n else []
        got = rows, type(exc), str(exc)
    assert got == want
    return want


def approx(p, precision, *xs):
    return tuple(to_approx(x, p, precision) for x in xs)


BIG = F(3**200 + 1, 2**300 + 1)  # its exact runs take over 100 steps
BIG2 = F(7**60 + 2, 3**90 + 1)


class TestTripleLoop:
    """Truncated jp_expand runs jp_step while a coordinate is exact and then
    a loop on padic's triples; it must match the jp_step loop throughout."""

    @given(
        p=st.sampled_from((3, 5, 7, 11, 13)),
        kind=st.sampled_from(("cubic", "quartic", "rational")),
        precision=st.integers(30, 400),
        rng=st.randoms(use_true_random=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_jp_step_loop(self, p, kind, precision, rng):
        if kind == "rational":
            inputs = random_inputs(rng, rng.randint(1, 3), bound=10 ** rng.randint(2, 60))
        else:  # (theta, ..., theta^(d-1)), as the bench draws them
            field = NumberField(eisenstein_field(rng, p, 3 if kind == "cubic" else 4))
            inputs = [PAdicEmbedding.create(field, p, 16)(field.generator())]
            while len(inputs) < field.degree - 1:
                inputs.append(inputs[-1] * inputs[0])
        values = list(approx(p, precision, *inputs))
        if rng.random() < 0.5:  # exact rationals beside at least one truncated value
            for i in rng.sample(range(len(values)), rng.randint(1, len(values)) - 1):
                values[i] = small_rational(rng) * F(p) ** rng.randint(-2, 2)
        assert_matches_jp_step_outcome(tuple(values), p, rng.randint(1, precision))

    @pytest.mark.parametrize(
        "p, inputs, max_steps, outcome",
        [
            # the digit at exponent 0 of a coordinate at precision < 1
            (3, approx(3, 5, F(32, 9), F(-1863, 64), F(144, 61)), 20,
             "digit at exponent 0 unknown at precision O(p^-1)"),
            (5, approx(5, 0, F(1, 5), F(2)), 20,
             "digit at exponent 0 unknown at precision O(p^0)"),
            # a last difference that is 0 at its precision
            (5, approx(5, 1, F(7, 4)), 20, "cannot distinguish 0 from O(p^1)"),
            (5, approx(5, 10, F(23, 5), F(14, 19)), 20, "cannot distinguish 0 from O(p^6)"),
            # mixed tuples: an exact last coordinate finishes the run or is
            # inverted exactly, and the run goes on on triples
            (5, (*approx(5, 20, F(1, 3)), F(1)), 20, "finite"),
            (5, (*approx(5, 60, BIG), F(2, 7) + F(25, 3)), 4, "truncated"),
            (7, (F(3, 7) + F(49, 5), *approx(7, 60, BIG), F(97, 7) + F(49, 5)), 4,
             "truncated"),
            # a zero class moves right until it is the last remainder
            (5, (PAdicApprox.zero_at(5, 40), *approx(5, 60, BIG)), 20,
             "cannot distinguish 0 from O(p^37)"),
            (5, (*approx(5, 60, BIG), PAdicApprox.zero_at(5, 30), *approx(5, 60, BIG2)),
             20, "cannot distinguish 0 from O(p^29)"),
            # coordinates at different precisions
            (5, (*approx(5, 60, BIG), *approx(5, 20, BIG2)), 40,
             "cannot distinguish 0 from O(p^1)"),
            (5, (*approx(5, 20, BIG), *approx(5, 60, BIG2)), 40,
             "digit at exponent 0 unknown at precision O(p^0)"),
            # the exact run of the representatives 2, 3 finishes at its
            # second step, where the last remainder is 0 at O(p^99)
            (5, approx(5, 100, F(2), F(3)), 20, "cannot distinguish 0 from O(p^99)"),
        ],
    )
    def test_outcomes(self, p, inputs, max_steps, outcome):
        _, status, detail = assert_matches_jp_step_outcome(inputs, p, max_steps)
        assert outcome in (status, detail)

    @given(
        p=st.sampled_from((3, 5, 7, 11, 13)),
        coords=st.lists(
            st.tuples(  # (representative or None for a zero class, shift, precision)
                st.none() | st.builds(F, st.integers(-(10**40), 10**40),
                                      st.integers(1, 10**30)),
                st.integers(-3, 3),
                st.integers(-2, 80),
            ),
            min_size=1,
            max_size=4,
        ),
        max_steps=st.integers(1, 120),
    )
    @settings(max_examples=80, deadline=None)
    def test_precisions_differ_per_coordinate(self, p, coords, max_steps):
        inputs = tuple(
            PAdicApprox.zero_at(p, n) if x is None else to_approx(x * F(p) ** s, p, n)
            for x, s, n in coords
        )
        assert_matches_jp_step_outcome(inputs, p, max_steps)

    def test_field_element_beside_truncated_values(self, emb_cuberoot2):
        # theta * approx and approx * theta embed theta by to_approx, so a
        # tuple that mixes them runs; each run ends when a remainder is 0
        # at its precision, after the rows the jp_step loop emits
        theta = emb_cuberoot2(emb_cuberoot2.field.generator())
        for precision in (20, 200):
            a = to_approx(F(1, 3), 5, precision)
            for inputs in [(a, theta), (theta, a), (a, theta * theta, theta + F(1, 5))]:
                rows, status, _ = assert_matches_jp_step_outcome(inputs, 5, 10)
                assert rows and status is InsufficientPrecision

    def test_errors_carry_certified_rows(self, capsys):
        inputs = approx(3, 5, F(32, 9), F(-1863, 64), F(144, 61))
        with pytest.raises(InsufficientPrecision) as info:
            jp_expand(inputs, 3)
        assert info.value.certified_rows == 2
        assert jp_expand(inputs, 3, max_steps=2).status == "truncated"
        assert InsufficientPrecision("elsewhere").certified_rows is None
        # the command line reports the error, then the rows certified
        argv = ["expand", "-p", "3", "--backend", "approx", "--precision", "5", "--",
                "32/9", "-1863/64", "144/61"]
        assert main(argv) == 1
        assert capsys.readouterr() == (
            "",
            "error: InsufficientPrecision: digit at exponent 0 unknown at precision O(p^-1)\n"
            "certified rows: 2\n",
        )
