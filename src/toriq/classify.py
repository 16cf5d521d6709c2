"""Classification engines: torsion matrices, subgroup enumeration,
quotient fan matrices, whole-family enumeration and unitary 1-coverings.

Torsion matrices are canonical only up to automorphisms of the group, so
family fixtures are always compared through the quotient fan matrices
(up to GL-equivalence), never through torsion entries.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd, lcm, prod

from .covering import analyze
from .errors import InconsistentAction, NotFanoWeight, RankDeficient, TooLarge
from .fans import fan_from_point, is_gorenstein_weight
from .gale import gale_dual, gl_canonical_form, is_reduced_f
from .intmat import (
    FiniteAbelianGroup,
    IntMatrix,
    cokernel,
    hnf,
    kernel_basis,
    lattice_index,
    quotient_matrix,
    rank,
    snf,
)


@dataclass(frozen=True)
class TorsionMatrix:
    """Torsion part of the class map: one ambient-group element per ray,
    stored as residue vectors against the ambient invariant factors."""

    ambient: FiniteAbelianGroup
    columns: tuple

    @property
    def rows(self):
        fs = self.ambient.invariant_factors
        return tuple(tuple(col[t] for col in self.columns) for t in range(len(fs)))


def torsion_matrix(v: IntMatrix) -> TorsionMatrix:
    """Split coker(v^T) into free and torsion parts via SNF; the columns
    are the torsion components of the ray classes.

    The free component spans the same row lattice as the Gale dual of v,
    which is asserted.
    """
    n, m = v.rows, v.cols
    if rank(v) < n:
        raise RankDeficient("fan matrix must have full rank")
    dec = snf(v.t())
    diag = dec.diagonal
    tor_rows = [i for i in range(len(diag)) if diag[i] >= 2]
    factors = tuple(diag[i] for i in tor_rows)
    cols = []
    for j in range(m):
        pcol = dec.P.col(j)
        cols.append(tuple(pcol[i] % diag[i] for i in tor_rows))
    free_rows = [dec.P.row(i) for i in range(n, m)]
    if free_rows:
        free_h, _ = hnf(IntMatrix._of(free_rows))
        dual_h, _ = hnf(gale_dual(v))
        assert free_h == dual_h, "free part of the class map disagrees with the Gale dual"
    ambient = FiniteAbelianGroup(factors, 0)
    return TorsionMatrix(ambient=ambient, columns=tuple(cols))


@dataclass(frozen=True)
class SubgroupHandle:
    """Subgroup of a finite abelian group, canonicalized as the row HNF
    of its preimage lattice between diag(d) Z^s and Z^s."""

    ambient: FiniteAbelianGroup
    matrix: IntMatrix
    order: int

    @property
    def generators(self):
        fs = self.ambient.invariant_factors
        return tuple(
            tuple(x % d for x, d in zip(row, fs)) for row in self.matrix.data
        )

    def group_type(self) -> FiniteAbelianGroup:
        fs = self.ambient.invariant_factors
        s = len(fs)
        if s == 0:
            return FiniteAbelianGroup((), 0)
        d = IntMatrix._of([[fs[i] if i == j else 0 for j in range(s)] for i in range(s)])
        x = quotient_matrix(d, self.matrix)
        return cokernel(x.t())

    def contains(self, other: "SubgroupHandle") -> bool:
        if not self.matrix.data:
            return not other.matrix.data
        stack, _ = hnf(self.matrix.vstack(other.matrix))
        top = IntMatrix._of([r for r in stack.data if any(r)])
        return top == self.matrix


def _divisors(n: int):
    return [d for d in range(1, n + 1) if n % d == 0]


def _lattice_contains_diag(mat, fs) -> bool:
    """Does the upper-triangular lattice basis contain diag(fs) Z^s?

    Forward substitution of each d_j e_j against the rows, integer
    remainders checked on the way.
    """
    s = len(fs)
    for j in range(s):
        x = [0] * s
        target = [fs[j] if t == j else 0 for t in range(s)]
        ok = True
        for t in range(s):
            acc = target[t] - sum(x[i] * mat[i][t] for i in range(t))
            q, rem = divmod(acc, mat[t][t])
            if rem:
                ok = False
                break
            x[t] = q
        if not ok:
            return False
    return True


def subgroups(g: FiniteAbelianGroup, order: int | None = None):
    """All subgroups of a finite abelian group (optionally only those of
    a given order), each as a canonical HNF handle; sorted by order then
    lattice matrix.

    Subgroups of Z^s/diag(d)Z^s correspond to intermediate lattices,
    enumerated as upper-triangular HNF matrices with pivots dividing the
    invariant factors.
    """
    if g.free_rank:
        raise TooLarge("subgroup enumeration needs a finite group")
    total = g.order
    if total > 100_000:
        raise TooLarge(f"group order {total} exceeds the enumeration bound")
    fs = g.invariant_factors
    s = len(fs)
    if s == 0:
        return [SubgroupHandle(ambient=g, matrix=IntMatrix._of(()), order=1)]
    out = []
    pos = [(i, j) for j in range(s) for i in range(j)]
    for diag in itertools.product(*[_divisors(f) for f in fs]):
        det = prod(diag)
        if order is not None and total // det != order:
            continue
        for combo in itertools.product(*[range(diag[j]) for (_, j) in pos]):
            mat = [[0] * s for _ in range(s)]
            for t in range(s):
                mat[t][t] = diag[t]
            for val, (i, j) in zip(combo, pos):
                mat[i][j] = val
            if not _lattice_contains_diag(mat, fs):
                continue
            out.append(
                SubgroupHandle(ambient=g, matrix=IntMatrix._of(mat), order=total // det)
            )
    out.sort(key=lambda sub: (sub.order, sub.matrix.data))
    return out


def quotient_by_subgroup(w: IntMatrix, gamma: TorsionMatrix, sub: SubgroupHandle) -> IntMatrix:
    """Fan matrix of the quotient of the variety with fan matrix w by the
    subgroup, acting through the torsion matrix.

    The invariant character lattice M_H is the solution lattice of one
    congruence per subgroup generator; the quotient fan matrix is the
    basis of M_H applied to w.  Raises InconsistentAction when the
    resulting covering group does not match the subgroup.
    """
    if gamma.ambient != sub.ambient:
        raise InconsistentAction("subgroup ambient differs from the action's group")
    fs = gamma.ambient.invariant_factors
    n, m = w.rows, w.cols
    if not fs or sub.order == 1:
        return w
    big = lcm(*fs)
    # per generator a: sum_t (big/d_t) a_t (Gamma_t . (w^T m))_t == 0 (mod big)
    gcols = [
        tuple(
            sum(gamma.columns[i][t] * w[row, i] for i in range(m))
            for row in range(n)
        )
        for t in range(len(fs))
    ]
    crows = []
    for a in sub.generators:
        if not any(a):
            continue
        c = [0] * n
        for t, (at, dt) in enumerate(zip(a, fs)):
            scale = (big // dt) * at
            if scale:
                c = [x + scale * y for x, y in zip(c, gcols[t])]
        crows.append(c)
    if not crows:
        return w
    cmat = IntMatrix._of(crows)
    minus_big = IntMatrix._of(
        [[-big if i == j else 0 for j in range(len(crows))] for i in range(len(crows))]
    )
    k = kernel_basis(cmat.hstack(minus_big))
    mpart = k.rows_at(range(n))
    basis, _ = hnf(mpart.t())
    rows = [r for r in basis.data if any(r)]
    assert len(rows) == n, "invariant lattice lost full rank"
    s_mat = IntMatrix._of(rows)
    v_h = s_mat * w
    x = quotient_matrix(v_h, w)
    if cokernel(x.t()) != sub.group_type():
        raise InconsistentAction(
            f"quotient covering group {cokernel(x.t())} != subgroup {sub.group_type()}"
        )
    return v_h


def _check_spanning_cover(w: IntMatrix) -> None:
    """The columns of the covering fan matrix w span Z^n, so the
    multiplicity of a quotient S*w, the index of its column lattice, is
    |det S|; `quotient_by_subgroup` has matched coker(S^T) to the
    subgroup, so it is the subgroup's order."""
    if lattice_index(w) != 1:
        raise InconsistentAction("covering fan matrix does not span the lattice")


def _gl_classes(entries):
    """Group (subgroup, matrix, mult) triples into GL-equivalence classes
    in order of first appearance, each matrix canonicalised once and
    bucketed by (mult, canonical key); all matrices share one shape."""
    classes = {}
    for entry in entries:
        key = gl_canonical_form(entry[1])[0]
        classes.setdefault((entry[2], key), []).append(entry)
    return list(classes.values())


def enumerate_fano_family(q: IntMatrix):
    """All reflexive-case varieties with weight matrix q, one per
    GL-class: (subgroup, quotient fan matrix, multiplicity).

    The subgroup lattice of the weight group is enumerated, each quotient
    is computed through the torsion action, and GL-equivalent quotients
    are merged (distinct subgroups can give isomorphic varieties).
    """
    fan = fan_from_point(q, tuple(sum(r) for r in q.data))
    if not is_gorenstein_weight(q, fan):
        raise NotFanoWeight("weight matrix admits no anticanonically polarized model")
    cd = analyze(fan.fan_matrix, fan)
    assert cd.k == 1 and cd.k_hat == 1
    _check_spanning_cover(cd.W)
    aw = cd.A * cd.W
    gamma = torsion_matrix(aw)
    assert gamma.ambient == cd.weight_group_type
    entries = []
    for sub in subgroups(gamma.ambient):
        v_h = quotient_by_subgroup(cd.W, gamma, sub)
        assert is_reduced_f(v_h), "reflexive-case quotient must stay reduced"
        entries.append((sub, v_h, sub.order))
    classes = _gl_classes(entries)
    return [cls[0] for cls in classes]


@dataclass(frozen=True)
class QGorensteinFamily:
    """Factor-h classification output: admissible subgroups with their
    quotient fan matrices, plus the rejected subgroups with the column
    witnessing non-reducedness."""

    kept: tuple
    rejected: tuple

    def __iter__(self):
        return iter(self.kept)


def enumerate_qgorenstein_family(q: IntMatrix, h: int) -> QGorensteinFamily:
    """Subgroups of the h-extended weight group whose quotient fan matrix
    is a reduced fan matrix (the parameter set of factor-h varieties).

    kept entries are (subgroup, fan matrix, multiplicity); rejected
    entries are (subgroup, fan matrix, witness column index).
    """
    fan = fan_from_point(q, tuple(sum(r) for r in q.data))
    cd = analyze(fan.fan_matrix, fan)
    _check_spanning_cover(cd.W)
    gamma = torsion_matrix((cd.A * h) * cd.W)
    assert gamma.ambient == cokernel((cd.A * h).t())
    kept = []
    rejected = []
    for sub in subgroups(gamma.ambient):
        v_h = quotient_by_subgroup(cd.W, gamma, sub)
        if is_reduced_f(v_h):
            kept.append((sub, v_h, sub.order))
        else:
            witness = next(
                j
                for j in range(v_h.cols)
                if gcd(*v_h.col(j)) > 1
            )
            rejected.append((sub, v_h, witness))
    return QGorensteinFamily(kept=tuple(kept), rejected=tuple(rejected))


def unitary_cover(v: IntMatrix, fan: FanData) -> IntMatrix:
    """Fan matrix of the intermediate factor-1 quotient: the covering by
    the intersection of the covering group with the weight group.

    The invariant lattice is the join of the two character lattices,
    computed as the HNF basis of the stacked quotient-matrix rows; the
    result always has the covering's Gorenstein index.
    """
    from .polytope import fmatrix_index

    cd = analyze(v, fan)
    stacked = cd.B.vstack(cd.A)
    basis, _ = hnf(stacked)
    rows = [r for r in basis.data if any(r)]
    assert len(rows) == cd.n
    v1 = IntMatrix._of(rows) * cd.W
    assert fmatrix_index(v1) == cd.k_hat, "unitary covering must have factor 1"
    return v1
