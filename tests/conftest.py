"""Helpers shared by several test modules."""

from fractions import Fraction as F


def eisenstein_field(rng, p, degree):
    """x^d + (u/p) x^(d-1) + ... + a_0, as the bench draws it: exactly one
    root of valuation -1 in Q_p, irreducible by Eisenstein at q != p after
    scaling."""
    q = rng.choice([q for q in (2, 3) if q != p])
    u = q * rng.choice([c for c in range(-9, 10) if c and (q * c) % p])
    a0 = q * rng.choice([c for c in range(-9, 10) if c % q])
    middle = [q * rng.randint(-9, 9) for _ in range(degree - 2)]
    return [a0, *middle, F(u, p), 1]


def euclid_tuples(xs, rows):
    """The tuples x_0 = xs, x_1, ... of the Euclidean form that emitted the
    rows (a^(1), ..., a^(m), 1): x_{n+1}^(1) = x_n^(m+1) and
    x_{n+1}^(i+1) = x_n^(i) - a_n^(i) x_n^(m+1)."""
    tuples = [tuple(xs)]
    for row in rows:
        *head, last = tuples[-1]
        tuples.append((last,) + tuple(x - a * last for x, a in zip(head, row)))
    return tuples
