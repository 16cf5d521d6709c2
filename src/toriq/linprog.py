"""Exact linear programming, just big enough for cone tests.

Two-phase simplex with Bland's rule in integers (the integer pivoting of
lrs, Avis 2000).  The tableau is a list of integer rows T standing for
T / d with d > 0, the reduced-cost row last.  A pivot on p = T[r][c]
keeps row r and replaces every other row by (p*x - f*y) // d, the
fraction-free step of `intmat._eliminate` (Bareiss 1968): the division is
exact because every entry is a minor of the scaled input, and d becomes
p.  The input is scaled by one common denominator `den`, starting from
d = 1.  A row not yet pivoted stands for den times its rational row, and
a cost row for a positive multiple of the rational reduced costs; such
multiples change no sign and no ratio, so the pivot path and the basic
solutions are those of the same simplex over the rationals (a pivoted
row is exact, and only pivoted rows are read).  The wrappers at the
bottom are the primitives the rest of the library calls: nonnegative
solvability, cone membership / relative-interior membership, and
strictly positive kernel vectors.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .intmat import solve_unique

_ZERO = Fraction(0)


def _pivot(t, basis, row, col, d):
    """Pivot t (standing for t / d) on t[row][col]; returns the new d.

    A negative pivot, which only the artificial clean-up can pick, is
    followed by negating every row, so d stays positive.
    """
    top = t[row]
    p = top[col]
    for i, r in enumerate(t):
        if i != row:
            f = r[col]
            t[i] = [(p * x - f * y) // d for x, y in zip(r, top)]
    basis[row] = col
    if p < 0:
        t[:] = [[-x for x in r] for r in t]
        p = -p
    return p


def _simplex(t, basis, d):
    """Maximize over the tableau t / d in place; returns (status, d) with
    status 'optimal' or 'unbounded'.

    Rows of t: [a_1 ... a_n | b], then the cost row [c_1 ... c_n | value
    cell].  Bland's rule, so termination is guaranteed; the ratio test
    compares b_i / a_i by cross-multiplication (both a_i > 0).
    """
    m = len(basis)
    while True:
        cost = t[-1]
        col = next((j for j in range(len(cost) - 1) if cost[j] > 0), None)
        if col is None:
            return "optimal", d
        row = None
        for i in range(m):
            a = t[i][col]
            if a > 0:
                if row is None:
                    row = i
                    continue
                lhs, rhs = t[i][-1] * t[row][col], t[row][-1] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[row]):
                    row = i
        if row is None:
            return "unbounded", d
        d = _pivot(t, basis, row, col, d)


def _scaled(values, den):
    return [x.numerator * (den // x.denominator) for x in values]


def lp_max(c, a_rows, b):
    """max c.x subject to a_rows x = b, x >= 0 (ints or Fractions).

    Returns (status, value, x) with status in {'optimal', 'unbounded',
    'infeasible'}; on 'optimal' x is an optimal basic solution (a tuple
    of Fractions), on 'unbounded' x is None.
    """
    m = len(a_rows)
    n = len(c)
    den = lcm(*(x.denominator for r in a_rows for x in r), *(y.denominator for y in b))
    t = []
    for i, (r, y) in enumerate(zip(a_rows, b)):
        row = _scaled(r, den)
        rhs = y.numerator * (den // y.denominator)
        if rhs < 0:
            row = [-x for x in row]
            rhs = -rhs
        t.append(row + [den if j == i else 0 for j in range(m)] + [rhs])
    basis = [n + i for i in range(m)]
    # phase 1: maximize -(sum of artificials); reduced costs of the initial
    # basis (all artificial, cost -1 each) give +column-sums on the
    # structural part and 0 on the artificial part
    t.append([sum(r[j] for r in t) for j in range(n)] + [0] * m + [-sum(r[-1] for r in t)])
    status, d = _simplex(t, basis, 1)
    assert status == "optimal"
    t.pop()
    if any(t[i][-1] for i in range(m) if basis[i] >= n):
        return "infeasible", None, None
    # pivot leftover (degenerate) artificials out of the basis, dropping
    # redundant all-zero rows
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if t[i][j]), None)
            if col is not None:
                d = _pivot(t, basis, i, col, d)
    keep = [i for i in range(m) if basis[i] < n]
    t = [t[i][:n] + [t[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]
    # phase 2: the cost row of e*c (e clears c's denominators) in units of 1/d
    e = lcm(*(x.denominator for x in c))
    ec = _scaled(c, e)
    cost = [d * x for x in ec] + [0]
    for r, bi in zip(t, basis):
        f = ec[bi]
        if f:
            cost = [x - f * y for x, y in zip(cost, r)]
    t.append(cost)
    status, d = _simplex(t, basis, d)
    if status == "unbounded":
        return "unbounded", None, None
    x = [_ZERO] * n
    for r, bi in zip(t, basis):
        x[bi] = Fraction(r[-1], d)
    return "optimal", Fraction(-t[-1][-1], d * e), tuple(x)


def nonneg_solution(a_rows, b):
    """Some x >= 0 with A x = b, or None."""
    n = len(a_rows[0]) if a_rows else 0
    status, _, x = lp_max([0] * n, a_rows, b)
    return x if status == "optimal" else None


def cone_contains(generators, w) -> bool:
    """Is w a nonnegative combination of the generator vectors?"""
    w = tuple(w)
    if not generators:
        return not any(w)
    rows = [[g[i] for g in generators] for i in range(len(w))]
    if len(generators) == len(w):
        sol = solve_unique(rows, w)
        if sol is not None:
            return all(x >= 0 for x in sol)
    return nonneg_solution(rows, w) is not None


def cone_contains_strict(generators, w) -> bool:
    """Is w in the relative interior of the cone over the generators?

    For a finitely generated cone the relative interior is exactly the set
    of strictly positive combinations of the generators.
    """
    w = tuple(w)
    if not generators:
        return not any(w)
    rows = [[g[i] for g in generators] for i in range(len(w))]
    if len(generators) == len(w):
        sol = solve_unique(rows, w)
        if sol is not None:
            return all(x > 0 for x in sol)
    # (x, t) > 0 with G x = t w exists exactly when w = G (x / t), x / t > 0
    return positive_kernel_vector([r + [-wi] for r, wi in zip(rows, w)]) is not None


def positive_kernel_vector(a_rows):
    """Some x > 0 with A x = 0, or None if there is none.

    The kernel is a linear subspace, so x > 0 exists iff x >= 1 exists;
    substituting x = 1 + s reduces to plain feasibility, and x = 1 + s is
    returned.  With no rows every vector qualifies; the result is then ().
    """
    if not a_rows:
        return ()
    s = nonneg_solution(a_rows, [-sum(r) for r in a_rows])
    return None if s is None else tuple(1 + x for x in s)
