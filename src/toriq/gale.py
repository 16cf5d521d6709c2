"""Gale duality and the fan/weight matrix predicates.

A fan matrix V (columns = primitive ray generators) and a weight matrix
Q (a Gale dual of V) share the column index space {1..m}; all kernel
computations here preserve that indexing, which is what keeps every
quotient-matrix equation in the covering pipeline literally aligned.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from math import gcd

from .errors import RankDeficient
from .intmat import IntMatrix, hnf, kernel_basis, rank, snf, unimodular_inverse
from .linprog import has_positive_kernel_vector


@dataclass(frozen=True)
class MatrixClassReport:
    """Which of the fan-side (F.a-F.e) and weight-side (W.a-W.f)
    conditions a matrix satisfies."""

    is_F: bool
    is_CF: bool
    is_W: bool
    is_reduced: bool
    violated_conditions: tuple = field(default_factory=tuple)


def _column_content(col) -> int:
    g = 0
    for x in col:
        g = gcd(g, x)
    return g


def _positive_parallel_pair(m: IntMatrix) -> bool:
    seen = {}
    for j in range(m.cols):
        c = m.col(j)
        if not any(c):
            continue
        g = _column_content(c)
        prim = tuple(x // g for x in c)
        if prim in seen:
            return True
        seen[prim] = j
    return False


def _row_lattice_member(h: IntMatrix, v) -> bool:
    """Is v in the lattice spanned by the rows of the HNF matrix h?"""
    v = list(v)
    for row in h.data:
        piv = next((c for c, x in enumerate(row) if x), None)
        if piv is None:
            break
        if v[piv]:
            if v[piv] % row[piv]:
                return False
            q = v[piv] // row[piv]
            v = [a - q * b for a, b in zip(v, row)]
    return not any(v)


def _coordinate_pair_lattice(q: IntMatrix, i: int, j: int):
    """Generators of {(x_i, x_j) : x in L_r(q), x supported on {i, j}}."""
    others = [c for c in range(q.cols) if c not in (i, j)]
    # coefficient vectors y with (y*q) vanishing outside {i, j}
    restricted = q.cols_at(others).t() if others else IntMatrix([[0] * q.rows])
    k = kernel_basis(restricted)
    gens = []
    for t in range(k.cols):
        y = k.col(t)
        x = [sum(a * b for a, b in zip(y, q.col(c))) for c in (i, j)]
        if any(x):
            gens.append(tuple(x))
    return gens


def _fan_conditions(m: IntMatrix) -> tuple:
    """(F.a, F.b, F.c, F.d): full rank, positively spanning columns, no
    zero column, no positively parallel column pair."""
    full_rank = rank(m) == m.rows
    return (
        full_rank,
        full_rank and has_positive_kernel_vector([list(r) for r in m.data]),
        all(any(m.col(j)) for j in range(m.cols)),
        not _positive_parallel_pair(m),
    )


@functools.cache
def classify_matrix(m: IntMatrix) -> MatrixClassReport:
    """Evaluate every fan-matrix and weight-matrix condition on m.

    Fan side: full rank (F.a), positively spanning columns (F.b), no zero
    column (F.c), no positively parallel column pair (F.d), full column
    lattice (F.e, the CF condition). Weight side: full row rank (W.a),
    saturated row lattice (W.b), existence of a nonnegative row basis
    (W.c), no zero column (W.d), no unit vector (W.e) and no two-entry
    opposite-sign vector (W.f) in the row lattice.
    """
    violated = []
    n = m.rows
    full_rank, f_complete, no_zero_col, no_parallel = _fan_conditions(m)
    if not full_rank:
        violated.append("F.a")
        violated.append("W.a")
    if not f_complete:
        violated.append("F.b")
    if not no_zero_col:
        violated.append("F.c")
        violated.append("W.d")
    if not no_parallel:
        violated.append("F.d")
    diag = snf(m).diagonal
    saturated = full_rank and all(d == 1 for d in diag[:n] if d)
    cf = full_rank and f_complete and no_zero_col and no_parallel and saturated and all(diag)
    if not (saturated and all(diag)):
        violated.append("F.e")
        violated.append("W.b")

    is_f = full_rank and f_complete and no_zero_col and no_parallel

    h, _ = hnf(m)
    w_positive = _find_nonnegative_basis(m) is not None
    if not w_positive:
        violated.append("W.c")
    no_unit = True
    for j in range(m.cols):
        e = [0] * m.cols
        e[j] = 1
        if _row_lattice_member(h, e):
            no_unit = False
            break
    if not no_unit:
        violated.append("W.e")
    no_mixed_pair = True
    for i, j in itertools.combinations(range(m.cols), 2):
        gens = _coordinate_pair_lattice(m, i, j)
        if not gens:
            continue
        pair_rank = rank(IntMatrix(gens))
        if pair_rank == 2:
            no_mixed_pair = False
        elif pair_rank == 1:
            a, b = gens[0]
            if a * b < 0:
                no_mixed_pair = False
        if not no_mixed_pair:
            break
    if not no_mixed_pair:
        violated.append("W.f")

    is_w = full_rank and saturated and w_positive and no_zero_col and no_unit and no_mixed_pair
    reduced_f = is_f and all(_column_content(m.col(j)) == 1 for j in range(m.cols))
    reduced_w = is_w and is_reduced_w(m)
    return MatrixClassReport(
        is_F=is_f,
        is_CF=cf,
        is_W=is_w,
        is_reduced=reduced_f if is_f else reduced_w,
        violated_conditions=tuple(violated),
    )


def is_reduced_f(v: IntMatrix) -> bool:
    return all(_column_content(v.col(j)) == 1 for j in range(v.cols))


def is_reduced_w(q: IntMatrix) -> bool:
    """A weight matrix is reduced when its Gale dual is a reduced fan matrix."""
    return is_reduced_f(gale_dual(q))


def _find_nonnegative_basis(m: IntMatrix):
    """Search for a basis of the row lattice of m consisting of
    nonnegative vectors; None if the bounded search finds none.

    Enumerates small integer combinations of the HNF basis rows and then
    looks for a sub-collection spanning the full lattice. Coefficient
    bounds shrink with the rank to keep the enumeration at desk scale.
    """
    h, _ = hnf(m)
    rows = [r for r in h.data if any(r)]
    r = len(rows)
    if r == 0:
        return []
    if all(all(x >= 0 for x in row) for row in rows):
        return rows
    bound = {1: 24, 2: 12, 3: 8, 4: 5}.get(r, 2 if r <= 6 else 1)
    cands = set()
    for coeffs in itertools.product(range(-bound, bound + 1), repeat=r):
        if not any(coeffs):
            continue
        v = tuple(sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(len(rows[0])))
        if all(x >= 0 for x in v) and any(v):
            cands.add(v)
    cands = sorted(cands, key=lambda v: (sum(v), v))[:600]
    target = IntMatrix(rows)
    target_h, _ = hnf(target)

    def dfs(start, chosen):
        if len(chosen) == r:
            got, _ = hnf(IntMatrix(chosen))
            return chosen if got == target_h else None
        for i in range(start, len(cands)):
            nxt = chosen + [cands[i]]
            if rank(IntMatrix(nxt)) == len(nxt):
                found = dfs(i + 1, nxt)
                if found is not None:
                    return found
        return None

    return dfs(0, [])


@functools.cache
def gale_dual(m: IntMatrix) -> IntMatrix:
    """Gale dual: a canonical basis of the saturated kernel of m, as rows.

    The output is the row HNF of the kernel basis, upgraded to a
    deterministic nonnegative basis whenever one exists, so repeated
    calls compare bit-exactly.
    """
    if rank(m) < m.rows:
        raise RankDeficient("Gale dual requires full row rank")
    k = kernel_basis(m)
    g = k.t()
    h, _ = hnf(g)
    rows = [r for r in h.data if any(r)]
    if not rows:
        return IntMatrix([[0] * m.cols][:0])
    basis = _find_nonnegative_basis(IntMatrix(rows))
    if basis is None:
        return IntMatrix(rows)
    return IntMatrix(sorted(basis))


def _colmajor_key(h: IntMatrix, ncols: int):
    return tuple(h[i, j] for j in range(ncols) for i in range(h.rows))


def gl_canonical_form(m: IntMatrix):
    """Canonical form of m under GL_n(Z) x column permutations: the
    lexicographically least row HNF over all column orderings, compared
    column-major (which makes prefix pruning valid, because the leading
    columns of a row HNF depend only on the leading columns of the input).

    Returns (key, perm, H, U): the column-major key of H, the column
    order, and H = U * (m reordered by perm).  Two matrices of one shape
    are GL-equivalent exactly when their keys are equal.
    """
    cols = m.columns()
    best = {"key": None, "perm": None}

    def dfs(chosen, remaining):
        sub = IntMatrix.from_columns([cols[i] for i in chosen])
        h, _ = hnf(sub)
        key = _colmajor_key(h, len(chosen))
        if best["key"] is not None and key > best["key"][: len(key)]:
            return
        if not remaining:
            if best["key"] is None or key < best["key"]:
                best["key"] = key
                best["perm"] = tuple(chosen)
            return
        tried = set()
        for i in remaining:
            c = cols[i]
            if c in tried:
                continue
            tried.add(c)
            dfs(chosen + [i], [x for x in remaining if x != i])

    dfs([], list(range(len(cols))))
    perm = best["perm"]
    h, u = hnf(IntMatrix.from_columns([cols[i] for i in perm]))
    return best["key"], perm, h, u


def gl_equivalent(m1: IntMatrix, m2: IntMatrix):
    """Decide whether m2 = P * m1 * S for some P in GL_n(Z) and a column
    permutation S; on success also return the witness pair (P, S).

    Equality of the canonical forms (`gl_canonical_form`) is exactly
    GL-equivalence.  Returns (equivalent, P, S) with P, S IntMatrix
    witnesses or (False, None, None).
    """
    if (m1.rows, m1.cols) != (m2.rows, m2.cols):
        return False, None, None
    k1, p1, _, u1 = gl_canonical_form(m1)
    k2, p2, _, u2 = gl_canonical_form(m2)
    if k1 != k2:
        return False, None, None
    # u1 * m1 * S(p1) = u2 * m2 * S(p2)  =>  m2 = (u2^-1 u1) m1 S(p1) S(p2)^-1
    s1 = _perm_matrix(p1, m1.cols)
    s2 = _perm_matrix(p2, m2.cols)
    p = unimodular_inverse(u2) * u1
    s = s1 * unimodular_inverse(s2)
    assert p * m1 * s == m2
    return True, p, s


def _perm_matrix(perm, m):
    """Column-selection matrix S with (A*S) = A reordered by perm."""
    return IntMatrix([[1 if perm[j] == i else 0 for j in range(m)] for i in range(m)])

