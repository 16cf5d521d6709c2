"""Gale duality and the fan/weight matrix predicates.

A fan matrix V (columns = primitive ray generators) and a weight matrix
Q (a Gale dual of V) share the column index space {1..m}; all kernel
computations here preserve that indexing, which is what keeps every
quotient-matrix equation in the covering pipeline literally aligned.
"""

from __future__ import annotations

import functools
from math import gcd

from .errors import RankDeficient, Record, check
from .intmat import (
    CACHE_SIZE,
    IntMatrix,
    _coordinates,
    _hermite_rows,
    _hermite_step,
    _maximal_minors,
    hnf,
    kernel_basis,
    rank,
    smith_diagonal,
    unimodular_inverse,
)
from .linprog import _cone_facets, _dot, positive_relation


class MatrixClassReport(Record):
    """Which of the fan-side (F.a-F.e) and weight-side (W.a-W.f)
    conditions a matrix satisfies."""

    is_F: bool
    is_CF: bool
    is_W: bool
    is_reduced: bool
    violated_conditions: tuple = ()


def _positive_parallel_pair(cols) -> bool:
    """Are two of the nonzero vectors cols positive multiples of each other?"""
    seen = set()
    for c in cols:
        if not any(c):
            continue
        g = gcd(*c)
        prim = tuple(x // g for x in c)
        if prim in seen:
            return True
        seen.add(prim)
    return False


def _fan_conditions(m: IntMatrix) -> tuple:
    """(F.a, F.b, F.c, F.d): full rank, positively spanning columns, no
    zero column, no positively parallel column pair."""
    full_rank = rank(m) == m.rows
    return (
        full_rank,
        full_rank and positive_relation(m.columns(), m.rows),
        all(any(m.col(j)) for j in range(m.cols)),
        not _positive_parallel_pair(m.columns()),
    )


def classify_matrix(m: IntMatrix) -> MatrixClassReport:
    """Evaluate every fan-matrix and weight-matrix condition on m.

    Fan side: full rank (F.a), positively spanning columns (F.b), no zero
    column (F.c), no positively parallel column pair (F.d), full column
    lattice (F.e, the CF condition). Weight side: full row rank (W.a),
    saturated row lattice (W.b), existence of a nonnegative row basis
    (W.c), no zero column (W.d), no unit vector (W.e) and no two-entry
    opposite-sign vector (W.f) in the row lattice.

    W.c and W.f are read on a Gale dual g of m (the rows of
    `kernel_basis(m)` are its columns): over Q the row space of m is the
    kernel of g.  W.c holds exactly when a nonnegative basis exists, which
    by Gordan's alternative is when the row space holds a vector positive
    on the support S of m, i.e. when some strictly positive combination
    of g's columns at S is zero (`positive_relation`).  A row-space vector
    supported on {i, j} with opposite signs exists exactly when g's
    columns i and j are both zero or positively parallel (W.f).  W.e
    needs the lattice itself, which may be unsaturated: a unit vector e_j
    is in it when back substitution on the nonzero HNF rows of m finds
    its coordinates (`_coordinates`).
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
    diag = smith_diagonal(m)
    saturated = full_rank and all(d == 1 for d in diag[:n] if d)
    cf = full_rank and f_complete and no_zero_col and no_parallel and saturated and all(diag)
    if not (saturated and all(diag)):
        violated.append("F.e")
        violated.append("W.b")

    is_f = full_rank and f_complete and no_zero_col and no_parallel

    h, _ = hnf(m)
    k = kernel_basis(m)
    support = [j for j in range(m.cols) if any(m.col(j))]
    w_positive = positive_relation([k.row(j) for j in support], k.cols)
    if not w_positive:
        violated.append("W.c")
    basis = [r for r in h.data if any(r)]
    no_unit = all(_coordinates(basis, [int(k == j) for k in range(m.cols)]) is None for j in range(m.cols))
    if not no_unit:
        violated.append("W.e")
    no_mixed_pair = sum(1 for c in k.data if not any(c)) < 2 and not _positive_parallel_pair(k.data)
    if not no_mixed_pair:
        violated.append("W.f")

    is_w = full_rank and saturated and w_positive and no_zero_col and no_unit and no_mixed_pair
    reduced_f = is_f and is_reduced_f(m)
    reduced_w = is_w and is_reduced_w(m)
    return MatrixClassReport(
        is_F=is_f,
        is_CF=cf,
        is_W=is_w,
        is_reduced=reduced_f if is_f else reduced_w,
        violated_conditions=tuple(violated),
    )


def is_reduced_f(v: IntMatrix) -> bool:
    return all(gcd(*v.col(j)) == 1 for j in range(v.cols))


def is_reduced_w(q: IntMatrix) -> bool:
    """A weight matrix is reduced when its Gale dual is a reduced fan matrix."""
    return is_reduced_f(gale_dual(q))


def _nonnegative_basis(rows):
    """A nonnegative basis of the lattice L spanned by the rows of a row
    HNF with a negative entry (so on the support S of L, rank L < |S|),
    or None when L has none.

    By Gordan's alternative L has a nonnegative basis exactly when it holds
    a vector positive on S.  In row coordinates y the vectors of L that
    are nonnegative on S form the pointed cone {y : <col_j, y> >= 0, j in
    S} (the rows are independent on S), and one double description, read
    off the cone cache `linprog._cone_facets`, gives its rays.  A vector
    positive on S exists exactly when no column is tight on every ray, and
    then the sum c of the rays is one.  The L-primitive positive vector p
    with coordinates c / gcd(c) is extended to a basis, every other row is
    lifted by the least multiple of p that makes it nonnegative, and b_i
    is replaced by b_i - b_j while that stays nonnegative (each step
    lowers the entry sum).
    """
    support = [j for j in range(len(rows[0])) if any(r[j] for r in rows)]
    rays = _cone_facets(tuple(tuple(r[j] for r in rows) for j in support), len(rows))[1]
    tight = -1  # the columns tight on every ray; all of them when there is none
    for _, mask in rays:
        tight &= mask
    if tight:
        return None
    c = [sum(col) for col in zip(*(y for y, _ in rays))]
    g = gcd(*c)
    c = [a // g for a in c]
    # u * c = e_1, so c is the first column of the unimodular u^-1
    _, u = hnf(IntMatrix._of([[a] for a in c]))
    basis = [list(b) for b in (unimodular_inverse(u).t() * IntMatrix._of(rows)).data]
    p = basis[0]
    for b in basis[1:]:
        t = max(-(a // q) for a, q in zip(b, p) if q)
        b[:] = [a + t * q for a, q in zip(b, p)]
    reduced = False
    while not reduced:
        reduced = True
        for bi in basis:
            for bj in basis:
                if bi is not bj and all(a >= q for a, q in zip(bi, bj)):
                    t = min(a // q for a, q in zip(bi, bj) if q)
                    bi[:] = [a - t * q for a, q in zip(bi, bj)]
                    reduced = False
    return basis


@functools.lru_cache(maxsize=CACHE_SIZE)
def gale_dual(m: IntMatrix) -> IntMatrix:
    """Gale dual: a basis of the saturated kernel of m, as rows.

    The basis is nonnegative exactly when the kernel lattice has a
    nonnegative basis (decided by one double description, see
    `_nonnegative_basis`); otherwise it is the row HNF.  Either way it is
    computed from the lattice alone, never from m, so equal kernels give
    bit-equal duals.
    """
    h, _ = hnf(kernel_basis(m).t())  # one row per kernel basis vector
    if m.cols - h.rows < m.rows:  # rank(m) = m.cols - dim ker(m)
        raise RankDeficient("Gale dual requires full row rank")
    rows = [r for r in h.data if any(r)]
    if not rows:
        return IntMatrix._of(())
    if all(x >= 0 for r in rows for x in r):
        return IntMatrix._of(sorted(rows))
    basis = _nonnegative_basis(rows)
    return IntMatrix._of(rows if basis is None else sorted(basis))


def _column_cells(m: IntMatrix) -> list:
    """The cell of each column of m, as an int: columns in one cell share
    every invariant below, and the cells are numbered in the order of
    their labels.

    Take the nonzero rows R of the row HNF of m (r of them) and the
    |r x r minors| of R, one per r-subset of the columns.  A column's
    first label is the sorted multiset of |minor| over the r-subsets that
    contain it.  Each round labels a column again by (its label, the
    sorted multiset over those subsets of (|minor|, the sorted labels of
    the subset's other columns)), and numbers the distinct labels in
    sorted order; the rounds stop when the number of cells does not grow.
    """
    rows = [list(r) for r in m.data]
    r = _hermite_rows(rows)
    if r == 0:
        return [0] * m.cols
    incident = [[] for _ in range(m.cols)]
    for s, x in _maximal_minors(rows[:r]).items():
        for j in s:
            incident[j].append((s, abs(x)))
    label = _numbered([tuple(sorted(a for _, a in inc)) for inc in incident])
    cells = len(set(label))
    while cells < m.cols:
        new = _numbered([
            (label[j], tuple(sorted((a, tuple(sorted(label[i] for i in s if i != j))) for s, a in inc)))
            for j, inc in enumerate(incident)
        ])
        grown = len(set(new))
        if grown == cells:
            break
        label, cells = new, grown
    return label


def _numbered(labels) -> list:
    """Each label replaced by its rank among the distinct labels."""
    rank_of = {x: i for i, x in enumerate(sorted(set(labels)))}
    return [rank_of[x] for x in labels]


def gl_canonical_form(m: IntMatrix):
    """Canonical form of m under GL_n(Z) x column permutations: the
    lexicographically least row HNF over the column orderings compatible
    with the cells of `_column_cells` (each cell's columns placed together,
    the cells in their order), compared column-major (which makes prefix
    pruning valid, because the leading columns of a row HNF depend only on
    the leading columns of the input).

    The cells are invariant.  P*m has the same HNF as m, and the nonzero
    HNF rows of m*S and R*S (R those of m) are two bases of one lattice,
    so their r x r minors on corresponding columns agree up to sign:
    every label moves with its column.  So if m2 = P*m1*S, the
    orderings compatible with the cells of m2 are those of m1 composed
    with S, with the same HNFs, and the keys are equal; equal keys give
    m2 = P*m1*S with P read off the two transforms.  Refining first is
    the individualization-refinement idea of McKay & Piperno (Practical
    graph isomorphism II, 2014): the search permutes only within cells.

    Each node of the search extends its parent's HNF by one column c: the
    transform U maps c to U*c, and one Hermite step (`_hermite_step`) on
    that column reduces it.  The rows at and below the rank are zero on
    the earlier columns, so the step leaves those columns as they were:
    the node's key is its parent's key plus the new column, and U is the
    transform `hnf` gives the prefix.

    Returns (key, perm, H, U): the column-major key of H, the column
    order, and H = U * (m reordered by perm).  Two matrices of one shape
    are GL-equivalent exactly when their keys are equal.
    """
    cols = m.columns()
    n = m.rows
    label = _column_cells(m)
    slots = sorted(label)  # the cell each position of the order is filled from
    best = {"key": None, "perm": None, "u": None}

    def dfs(chosen, remaining, key, u, r):
        if best["key"] is not None and key > best["key"][: len(key)]:
            return
        if not remaining:
            if best["key"] is None or key < best["key"]:
                best.update(key=key, perm=tuple(chosen), u=u)
            return
        cell = slots[len(chosen)]
        tried = set()
        for i in remaining:
            c = cols[i]
            if label[i] != cell or c in tried:
                continue
            tried.add(c)
            col = [[_dot(row, c)] for row in u]
            child_u = list(u)
            child_r = _hermite_step(col, child_u, r, 0)
            child_key = key + tuple(x[0] for x in col)
            dfs(chosen + [i], [x for x in remaining if x != i], child_key, child_u, child_r)

    dfs([], list(range(len(cols))), (), [[int(i == j) for j in range(n)] for i in range(n)], 0)
    key = best["key"]
    h = IntMatrix._of(zip(*(key[j : j + n] for j in range(0, len(key), n))))
    return key, best["perm"], h, IntMatrix._of(best["u"])


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
    check(p * m1 * s == m2, "GL witness does not map the first matrix to the second")
    return True, p, s


def _perm_matrix(perm, m):
    """Column-selection matrix S with (A*S) = A reordered by perm."""
    return IntMatrix._of([[1 if perm[j] == i else 0 for j in range(m)] for i in range(m)])

