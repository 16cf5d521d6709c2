"""The integer-pivoting simplex against the Fraction simplex it replaced:
same status, value and basic solution on seeded LPs, so the pivot path is
the same."""

import random
from fractions import Fraction

from oracles import (
    lp_max_by_fractions,
    positive_kernel_vector_by_fractions,
    strict_solution_by_fractions,
)
from toriq import linprog

N_LPS = 2000


def _entry(rng, rational):
    x = rng.randint(-4, 4)
    if rational and rng.random() < 0.3:
        return Fraction(x, rng.randint(2, 5))
    return x


def random_lp(rng):
    """(c, a_rows, b) with up to 6 rows and 7 columns: integer or rational
    entries, right-hand sides of both signs, and often a redundant row (a
    multiple of another, which leaves a degenerate artificial to pivot
    out) or a right-hand side that makes the LP feasible."""
    m, n = rng.randint(0, 5), rng.randint(1, 7)
    rational = rng.random() < 0.5
    a = [[_entry(rng, rational) for _ in range(n)] for _ in range(m)]
    b = [_entry(rng, rational) for _ in range(m)]
    if m and rng.random() < 0.4:
        k = rng.randrange(m)
        s = rng.choice((-2, -1, Fraction(-1, 2), 1, 3))
        a.append([s * x for x in a[k]])
        b.append(s * b[k])
    if rng.random() < 0.3:
        x0 = [rng.randint(0, 3) for _ in range(n)]
        b = [sum(p * q for p, q in zip(r, x0)) for r in a]
    return [_entry(rng, rational) for _ in range(n)], a, b


def test_lp_max_and_wrappers_match_fraction_simplex(monkeypatch):
    negative_pivots = []
    pivot = linprog._pivot

    def counting_pivot(t, basis, row, col, d):
        if t[row][col] < 0:
            negative_pivots.append((row, col))
        return pivot(t, basis, row, col, d)

    monkeypatch.setattr(linprog, "_pivot", counting_pivot)
    rng = random.Random(8)
    statuses = set()
    for _ in range(N_LPS):
        c, a, b = random_lp(rng)
        got = linprog.lp_max(c, a, b)
        assert got == lp_max_by_fractions(c, a, b), (c, a, b)
        statuses.add(got[0])
        if a:
            columns = [tuple(r[j] for r in a) for j in range(len(a[0]))]
            strict = strict_solution_by_fractions(a, b) is not None
            assert linprog.cone_contains_strict(columns, b) == strict, (a, b)
            assert linprog.positive_kernel_vector(a) == positive_kernel_vector_by_fractions(a), a
    assert statuses == {"optimal", "unbounded", "infeasible"}
    assert negative_pivots


def test_lp_max_returns_fractions():
    status, value, x = linprog.lp_max([1, 1], [[2, 1]], [3])
    assert (status, value, x) == ("optimal", 3, (0, 3))
    assert all(type(v) is Fraction for v in (value, *x))
    assert linprog.lp_max([Fraction(1, 2), 0], [[1, -1]], [0]) == ("unbounded", None, None)
    assert linprog.lp_max([0], [[1]], [-1]) == ("infeasible", None, None)
