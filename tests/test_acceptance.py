"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every comparison is exact (zero tolerance); the randomized suites use a
fixed seed so runs are reproducible.
"""

import functools
import random
import time
from fractions import Fraction as F

from conftest import euclid_tuples

from padic_mcf.jacobi_perron import (
    euclid_expand,
    jp_expand,
    lift_to_integer_tuple,
    reexpand_check,
    verify_termination_dependence,
)
from padic_mcf.mcf import (
    MCF,
    ConvergentsTable,
    check_convergence_conditions,
    convergents_of,
    dehomogenize,
    determinant_check,
    evaluate_finite,
    rescale,
    strong_convergence_sequence,
)
from padic_mcf.numberfield import NumberField, PAdicEmbedding
from padic_mcf.padic import (
    PLUS_INFINITY,
    browkin_s,
    in_browkin_range,
    padic_divide,
    valuation,
)

PRIMES = (3, 5, 7, 11)


def criterion(number, description):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {number:>2}] FAIL  {description}")
                raise
            print(f"[criterion {number:>2}] PASS  {description}")
            return result

        return wrapper

    return deco


def random_rational(rng, bound=10**6):
    return F(rng.randint(-bound, bound), rng.randint(1, bound))


def random_tuple(rng, m, bound=10**6):
    return tuple(random_rational(rng, bound) for _ in range(m))


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


RECORDED_EXPANSIONS = (
    # (p, inputs, recorded per-index sequences)
    (5, (F(23, 5), F(14, 19)), ((F(-2, 5), F(6, 5), F(6, 5), F(4, 5)), (1, 1, -1, -1))),
    (5, (F(7, 3), F(11, 20)), ((-1, F(-4, 5), F(-3, 5)), (F(9, 5), -1, 0))),
    (
        7,
        (F(31, 16), F(123, 7)),
        ((-2, F(-16, 7), F(13, 7), F(17, 7), F(2, 7)), (F(-24, 7), -2, 2, -2, -1)),
    ),
    (
        11,
        (F(-5, 4), F(29, 11), F(3, 4)),
        ((-4, F(4, 11)), (F(29, 11), 1), (-2, 0)),
    ),
    (
        11,
        (F(-7, 4), F(2, 5), F(1, 3)),
        (
            (1, F(-3, 11), F(-5, 11), F(4, 11)),
            (-4, -2, 0, 0),
            (4, 1, -4, 0),
        ),
    ),
)


@criterion(1, "recorded rational expansions reproduce exactly")
def test_c01_recorded_expansions():
    for p, inputs, seqs in RECORDED_EXPANSIONS:
        start = time.perf_counter()
        res = jp_expand(inputs, p)
        elapsed = time.perf_counter() - start
        assert res.is_finite
        expected = tuple(tuple(F(x) for x in s) for s in seqs)
        assert res.mcf.sequences()[: len(expected)] == expected, (p, inputs)
        assert elapsed < 0.25, f"expansion of {inputs} took {elapsed:.3f}s"


@criterion(2, "cube-root pair: recorded quotient block and its value")
def test_c02_cuberoot_case():
    p = 5
    recorded = MCF.unit_from_sequences([[1, F(4, 5), F(12, 5)], [0, 1, 0]])
    value = evaluate_finite(recorded)
    assert value == (F(133, 48), F(5, 4))
    # uniqueness: the recorded block is the expansion of its own value
    again = jp_expand(value, p)
    assert again.is_finite and again.mcf.rows == recorded.rows

    # The pair (theta, 5/4), theta^3 = 2 in Q_5, expands by hand as follows.
    # Cubing is a bijection on Z_5^x (gcd(3, 5 - 1) = 1), so theta is unique
    # and theta = 303 (mod 625), hence 3 (mod 25) and 53 (mod 125).
    #   a_0 = (s(theta), s(5/4)) = (-2, 0)          theta = 3 = -2 (mod 5)
    #   next (4/5, 4(theta + 2)/5)
    #   a_1 = (4/5, -1)                             4(theta + 2)/5 = -1 (mod 5)
    #   next (5/(4 theta + 13), 0)
    #   a_2 = (-1/5, 0)                             4 theta + 13 = -25 (mod 625)
    # The second coordinate is then exactly 0 and the run stops.
    assert [x for x in range(625) if pow(x, 3, 625) == 2] == [303]
    assert 303 % 5 == 5 - 2
    assert 4 * (303 + 2) // 5 % 5 == 5 - 1
    assert (4 * 303 + 13) % 625 == 625 - 25
    expected = MCF.unit_from_sequences([[-2, F(4, 5), F(-1, 5)], [0, -1, 0]])

    emb = PAdicEmbedding.create(NumberField([-2, 0, 0, 1]), p, 64)
    assert emb.root.val == 0 and emb.root.unit % 625 == 303
    theta = emb(emb.field.generator())
    res = jp_expand((theta, F(5, 4)), p)
    assert res.is_finite
    assert res.mcf.rows == expected.rows
    assert evaluate_finite(res.mcf) == (F(-19, 2), F(5, 4))
    # 0 * theta + 4 * (5/4) - 5 = 0
    assert verify_termination_dependence(res, (theta, F(5, 4))) == (F(0), F(4), F(-5))

    # the recorded block starts with the digit 1, which s(theta) never is,
    # so it cannot come from (theta, 5/4)
    assert browkin_s(theta, p) == -2 != recorded.sequences()[0][0]
    assert res.mcf.rows != recorded.rows


@criterion(3, "stop example (31/26, 21/26): two steps, value (6, -4)")
def test_c03_stop_example():
    p = 5
    inputs = (1 + F(p, p**2 + 1), 1 - F(p, p**2 + 1))
    assert inputs == (F(31, 26), F(21, 26))
    res = jp_expand(inputs, p)
    assert res.is_finite and res.steps == 2
    assert res.mcf.sequences()[:2] == ((F(1), F(-1, 5)), (F(1), F(-1)))
    assert evaluate_finite(res.mcf) == (6, -4)


@criterion(4, "periodic cubic pairs report period (0, 1) within a second")
def test_c04_periodicity():
    start = time.perf_counter()
    emb5 = PAdicEmbedding.create(NumberField([F(-1), F(-1), F(-8, 5), F(1)]), 5, 64)
    alpha = emb5(emb5.field.generator())
    res5 = jp_expand((alpha, 1 + 1 / alpha), 5, detect_period=True)
    emb7 = PAdicEmbedding.create(NumberField([F(-1), F(2), F(3, 7), F(1)]), 7, 64)
    gamma = emb7(emb7.field.generator())
    res7 = jp_expand((gamma, -2 + 1 / gamma), 7, detect_period=True)
    elapsed = time.perf_counter() - start
    assert (res5.status, res5.preperiod, res5.period) == ("periodic", 0, 1)
    assert res5.mcf.rows == ((F(8, 5), F(1), F(1)),)
    assert (res7.status, res7.preperiod, res7.period) == ("periodic", 0, 1)
    assert res7.mcf.rows == ((F(-3, 7), F(-2), F(1)),)
    assert elapsed < 1.0, f"periodic runs took {elapsed:.3f}s"


@criterion(5, "1000 random rational tuples terminate; Euclidean norms decrease")
def test_c05_termination_suite():
    rng = random.Random(20260809)
    start = time.perf_counter()
    for _ in range(1000):
        p = rng.choice(PRIMES)
        m = rng.choice((2, 3))
        inputs = random_tuple(rng, m)
        res = jp_expand(inputs, p, max_steps=10_000)
        assert res.is_finite, (p, inputs)
        xs = lift_to_integer_tuple(inputs)
        eu = euclid_expand(xs, p, max_steps=10_000)
        # the tuples rebuilt in Fractions from the inputs and the rows alone
        trace = euclid_tuples(map(F, xs), eu.mcf.rows)
        vals = tuple(valuation(t[-1], p) for t in trace)
        assert vals == eu.trace_valuations and vals[-1] == PLUS_INFINITY, (p, inputs)
        assert all(b > a for a, b in zip(vals, vals[1:])), (p, inputs)
    elapsed = time.perf_counter() - start
    assert elapsed < 60, f"termination suite took {elapsed:.1f}s"


@criterion(6, "outputs satisfy the strict norm conditions and the norm product")
def test_c06_output_conditions():
    rng = random.Random(77)
    corpus = [jp_expand(inputs, p).mcf for p, inputs, _ in RECORDED_EXPANSIONS]
    corpus_primes = [p for p, _, _ in RECORDED_EXPANSIONS]
    for _ in range(100):
        p = rng.choice(PRIMES)
        m = rng.choice((2, 3))
        corpus.append(jp_expand(random_tuple(rng, m, bound=10**4), p).mcf)
        corpus_primes.append(p)
    for mcf, p in zip(corpus, corpus_primes):
        rep = check_convergence_conditions(mcf, p, unit_numerators=True)
        assert rep.ok, (p, mcf)
        table = ConvergentsTable(mcf.m)
        acc = 0
        for n, row in enumerate(mcf.rows):
            table.push(row)
            if n >= 1:
                acc += valuation(row[0], p)
            assert valuation(table.column(0)[mcf.m], p) == acc


@criterion(7, "strong convergence: strict decrease and exact vanishing")
def test_c07_strong_convergence():
    rng = random.Random(4242)
    for _ in range(100):
        p = rng.choice(PRIMES)
        m = rng.choice((2, 3))
        inputs = random_tuple(rng, m, bound=10**4)
        res = jp_expand(inputs, p)
        # V measures distance to the limit of the convergents; a finite block
        # converges to its exact value, which can differ from the raw inputs
        targets = evaluate_finite(res.mcf)
        sc = strong_convergence_sequence(res.mcf, targets, p)
        r = sc.last_index
        assert sc.at(r) == (F(0),) * m
        for n in range(1, r + 1):
            for i in range(m):
                prev = [sc.valuation_at(n - j)[i] for j in range(1, m + 2)]
                if all(v == PLUS_INFINITY for v in prev):
                    continue
                assert sc.valuation_at(n)[i] > min(prev), (p, inputs, n, i)


@criterion(8, "Jacobi-Perron and Euclidean forms emit identical quotients")
def test_c08_equivalence():
    rng = random.Random(3131)
    for _ in range(200):
        p = rng.choice(PRIMES)
        m = rng.choice((2, 3))
        ratios = random_tuple(rng, m, bound=10**4)
        jp = jp_expand(ratios, p)
        eu = euclid_expand(lift_to_integer_tuple(ratios), p)
        assert eu.mcf.rows == jp.mcf.rows, (p, ratios)


@criterion(9, "determinant identity and rescaling invariance")
def test_c09_structural_identities():
    rng = random.Random(999)
    for _ in range(200):
        m = rng.choice((1, 2, 3))
        length = rng.randint(1, 11)
        mcf = random_mcf(rng, m, length)
        n = rng.randint(0, length - 1)
        det, ok = determinant_check(mcf)[n]
        # closed form (-1)**(m*(n+1)) * prod a_j^(m+1); test_mcf checks every
        # det against the exact product of the step matrices
        assert ok, (m, n, det, mcf)
        w = [F(1)] + [
            F(rng.choice([x for x in range(-7, 8) if x]), rng.randint(1, 7))
            for _ in range(length - 1)
        ]
        assert convergents_of(rescale(mcf, w)) == convergents_of(mcf)
        assert convergents_of(dehomogenize(mcf)) == convergents_of(mcf)


@criterion(10, "digit truncation properties and division contract")
def test_c10_browkin_and_divide():
    rng = random.Random(555)
    for p in PRIMES:
        for _ in range(10_000):
            x = random_rational(rng)
            s = browkin_s(x, p)
            assert in_browkin_range(s, p)
            if x == 0:
                assert s == 0
                continue
            assert browkin_s(-x, p) == -s
            assert valuation(x - s, p) >= 1
            assert s == 0 or valuation(s, p) <= 0
            if s != 0:
                assert valuation(s, p) == valuation(x, p)
            else:
                assert valuation(x, p) >= 1
    for _ in range(1000):
        p = rng.choice(PRIMES)
        sigma = random_rational(rng)
        tau = random_rational(rng)
        if tau == 0:
            tau = F(1)
        q, eta = padic_divide(sigma, tau, p)
        assert sigma == q * tau + eta
        assert valuation(eta, p) > valuation(tau, p)
        assert in_browkin_range(q, p)
        assert q == browkin_s(sigma / tau, p)


RECORDED_FINITE_BLOCKS = (
    (5, ((F(-2, 5), F(6, 5), F(6, 5), F(4, 5)), (1, 1, -1, -1))),
    (5, ((-1, F(-4, 5), F(-3, 5)), (F(9, 5), -1, 0))),
    (5, ((1, F(4, 5), F(12, 5)), (0, 1, 0))),
    (7, ((-2, F(-16, 7), F(13, 7), F(17, 7), F(2, 7)), (F(-24, 7), -2, 2, -2, -1))),
    (11, ((-4, F(4, 11)), (F(29, 11), 1), (-2, 0))),
    (
        11,
        ((1, F(-3, 11), F(-5, 11), F(4, 11)), (-4, -2, 0, 0), (4, 1, -4, 0)),
    ),
    (5, ((1, F(-1, 5)), (1, -1))),
)


@criterion(11, "re-expanding each recorded finite block reproduces it")
def test_c11_uniqueness():
    for p, seqs in RECORDED_FINITE_BLOCKS:
        mcf = MCF.unit_from_sequences([[F(x) for x in s] for s in seqs])
        rep = reexpand_check(mcf, p)
        assert not rep.failed_hypotheses, (p, seqs, rep.failed_hypotheses)
        assert rep.matches, (p, seqs, rep.value)
