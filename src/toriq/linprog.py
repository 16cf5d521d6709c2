"""Exact rational linear programming, just big enough for cone tests.

Two-phase simplex with Bland's rule over Fractions. Problem sizes here are
tiny (tens of variables), so simplicity beats speed. The wrappers at the
bottom are the primitives the rest of the library actually calls:
nonnegative solvability, strictly positive solvability, and cone
membership / relative-interior membership.
"""

from __future__ import annotations

from fractions import Fraction

from .intmat import solve_unique

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _pivot(tab, basis, row, col):
    inv = _ONE / tab[row][col]
    tab[row] = [x * inv for x in tab[row]]
    for i, r in enumerate(tab):
        if i != row and r[col]:
            f = r[col]
            tab[i] = [x - f * y for x, y in zip(r, tab[row])]
    basis[row] = col


def _simplex(tab, basis, cost):
    """Maximize cost over the tableau in place; returns 'optimal'/'unbounded'.

    tab rows: [a_1 ... a_n | b]; cost: [c_1 ... c_n | value-cell].
    Bland's rule, so termination is guaranteed.
    """
    m = len(tab)
    while True:
        col = next((j for j, c in enumerate(cost[:-1]) if c > 0), None)
        if col is None:
            return "optimal"
        row, best = None, None
        for i in range(m):
            if tab[i][col] > 0:
                ratio = tab[i][-1] / tab[i][col]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[row]):
                    row, best = i, ratio
        if row is None:
            return "unbounded"
        _pivot(tab, basis, row, col)
        f = cost[col]
        if f:
            cost[:] = [x - f * y for x, y in zip(cost, tab[row])]


def lp_max(c, a_rows, b):
    """max c.x subject to a_rows x = b, x >= 0 (all exact rationals).

    Returns (status, value, x) with status in {'optimal', 'unbounded',
    'infeasible'}; on 'optimal' x is an optimal basic solution, on
    'unbounded' x is None.
    """
    m = len(a_rows)
    n = len(c)
    tab = []
    for i in range(m):
        row = [Fraction(x) for x in a_rows[i]]
        rhs = Fraction(b[i])
        if rhs < 0:
            row = [-x for x in row]
            rhs = -rhs
        tab.append(row + [Fraction(int(i == j)) for j in range(m)] + [rhs])
    basis = [n + i for i in range(m)]
    # phase 1: maximize -(sum of artificials); reduced costs of the initial
    # basis (all artificial, cost -1 each) give +column-sums on the
    # structural part and 0 on the artificial part
    cost = [_ZERO] * (n + m + 1)
    for j in range(n):
        cost[j] = sum(tab[i][j] for i in range(m))
    cost[-1] = -sum(tab[i][-1] for i in range(m))
    status = _simplex(tab, basis, cost)
    assert status == "optimal"
    deficit = sum(tab[i][-1] for i in range(m) if basis[i] >= n)
    if deficit != 0:
        return "infeasible", None, None
    # pivot leftover (degenerate) artificials out of the basis, dropping
    # redundant all-zero rows
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if tab[i][j] != 0), None)
            if col is not None:
                _pivot(tab, basis, i, col)
    keep = [i for i in range(len(basis)) if basis[i] < n]
    tab = [tab[i][:n] + [tab[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]
    # phase 2
    cost = [Fraction(x) for x in c] + [_ZERO]
    for i, bi in enumerate(basis):
        f = cost[bi]
        if f:
            cost = [x - f * y for x, y in zip(cost, tab[i])]
    status = _simplex(tab, basis, cost)
    x = [_ZERO] * n
    for i, bi in enumerate(basis):
        x[bi] = tab[i][-1]
    if status == "unbounded":
        return "unbounded", None, None
    value = sum(Fraction(ci) * xi for ci, xi in zip(c, x))
    return "optimal", value, tuple(x)


def nonneg_solution(a_rows, b):
    """Some x >= 0 with A x = b, or None."""
    n = len(a_rows[0]) if a_rows else 0
    status, _, x = lp_max([_ZERO] * n, a_rows, b)
    return x if status == "optimal" else None


def strict_solution(a_rows, b):
    """Some x > 0 (componentwise) with A x = b, or None.

    Substitutes x = u + eps*1 with u >= 0 and maximizes eps, capped at 1.
    """
    if not a_rows:
        return None
    n = len(a_rows[0])
    if n == 0:
        return None
    rows = []
    for r in a_rows:
        rows.append(list(r) + [sum(Fraction(x) for x in r), _ZERO])
    # eps <= 1 via slack
    rows.append([_ZERO] * n + [_ONE, _ONE])
    rhs = list(b) + [_ONE]
    c = [_ZERO] * n + [_ONE, _ZERO]
    status, value, x = lp_max(c, rows, rhs)
    if status != "optimal" or value is None or value <= 0:
        return None
    eps = x[n]
    return tuple(xi + eps for xi in x[:n])


def cone_contains(generators, w) -> bool:
    """Is w a nonnegative combination of the generator vectors?"""
    w = tuple(Fraction(x) for x in w)
    if not generators:
        return all(x == 0 for x in w)
    rows = [[Fraction(g[i]) for g in generators] for i in range(len(w))]
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
    w = tuple(Fraction(x) for x in w)
    if not generators:
        return all(x == 0 for x in w)
    rows = [[Fraction(g[i]) for g in generators] for i in range(len(w))]
    if len(generators) == len(w):
        sol = solve_unique(rows, w)
        if sol is not None:
            return all(x > 0 for x in sol)
    return strict_solution(rows, w) is not None


def positive_kernel_vector(a_rows):
    """Some x > 0 with A x = 0, or None if there is none.

    The kernel is a linear subspace, so x > 0 exists iff x >= 1 exists;
    substituting x = 1 + s reduces to plain feasibility, and x = 1 + s is
    returned.  With no rows every vector qualifies; the result is then ().
    """
    if not a_rows:
        return ()
    rhs = [-sum(Fraction(x) for x in r) for r in a_rows]
    s = nonneg_solution(a_rows, rhs)
    return None if s is None else tuple(_ONE + x for x in s)
