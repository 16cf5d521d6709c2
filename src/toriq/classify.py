"""Classification engines: torsion matrices, subgroup enumeration,
quotient fan matrices, whole-family enumeration and unitary 1-coverings.

Torsion matrices are canonical only up to automorphisms of the group, so
family fixtures are always compared through the quotient fan matrices
(up to GL-equivalence), never through torsion entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm, prod

from .covering import analyze
from .errors import (
    InconsistentAction,
    NonIntegerQuotient,
    NotFanoWeight,
    OutOfDomain,
    RankDeficient,
    TooLarge,
)
from .fans import _anticanonical, fan_from_point, is_gorenstein_weight
from .gale import gale_dual, gl_canonical_form, is_reduced_f
from .intmat import (
    FiniteAbelianGroup,
    IntMatrix,
    _hermite_rows,
    cokernel,
    hnf,
    lattice_index,
    rank,
    snf,
)
from .polytope import facet_columns, fmatrix_index, polar_index


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
        """coker(X^T) for the integer X with diag(f) = X * R, R the HNF
        rows.  R is upper triangular with pivots d_t | f_t, so row i of X
        (the coordinates of f_i e_i in the rows) is found by back
        substitution: zero before i, f_i / d_i at i, and each later entry
        solved from its column of R."""
        fs = self.ambient.invariant_factors
        if not fs:
            return FiniteAbelianGroup((), 0)
        r = self.matrix.data
        x = []
        for i, f in enumerate(fs):
            xi = [0] * len(fs)
            xi[i] = f
            for k in range(i, len(fs)):
                xi[k], rem = divmod(xi[k] - _dot(xi[i:k], [row[k] for row in r[i:k]]), r[k][k])
                if rem:
                    raise NonIntegerQuotient(f"diag{fs} is not in the subgroup lattice")
            x.append(xi)
        return cokernel(IntMatrix._of(zip(*x)))


_ENUM_BOUND = 100_000  # most subgroups, and largest group order, enumerated


def _divisors(n: int):
    return [d for d in range(1, n + 1) if n % d == 0]


def _dot(x, y) -> int:
    return sum(a * b for a, b in zip(x, y))


def _column_entries(coords, d):
    """The entries c in [0, d)^t above a pivot d that keep the coordinates
    x_j of every f_j e_j (j < t) integral: x_j . c = 0 (mod d).  x_j is
    zero before entry j, so the congruences are solved bottom-up, one
    entry per step, and only tails that can still be completed are kept.
    """
    tails = [()]
    for j in reversed(range(len(coords))):
        lead, *rest = coords[j][j:]
        grown = []
        for tail in tails:
            r = _dot(rest, tail)
            grown.extend((c,) + tail for c in range(d) if (lead * c + r) % d == 0)
        tails = grown
    return tails


def subgroups(g: FiniteAbelianGroup, order: int | None = None):
    """All subgroups of a finite abelian group (optionally only those of
    a given order), each as a canonical HNF handle; sorted by order then
    lattice matrix.

    Subgroups of Z^s/diag(f)Z^s correspond to the lattices between
    diag(f)Z^s and Z^s, one per upper-triangular row HNF.  The HNF is
    built one column t at a time: a pivot d_t | f_t, then entries in
    [0, d_t) above it.  Alongside, each f_j e_j (j <= t) carries its
    coordinates in the rows, found by forward substitution.  The lattice
    contains diag(f)Z^s exactly when they are all integers, and the
    entries of each new column are solved to keep them so
    (`_column_entries`): every prefix extends to a subgroup, and no
    candidate is built only to be discarded.  So the walk can stop with
    TooLarge as soon as the prefixes outnumber the bound: the subgroups
    do too.
    """
    if g.free_rank:
        raise TooLarge("subgroup enumeration needs a finite group")
    total = g.order
    if total > _ENUM_BOUND:
        raise TooLarge(f"group order {total} exceeds the enumeration bound")
    # prefixes: (HNF rows so far, coordinates of each f_j e_j in them)
    prefixes = [((), ())]
    for t, f in enumerate(g.invariant_factors):
        grown = []
        for rows, coords in prefixes:
            for d in _divisors(f):
                for above in _column_entries(coords, d):
                    pad = (0,) * t
                    grown.append((
                        tuple(r + (c,) for r, c in zip(rows, above)) + (pad + (d,),),
                        tuple(x + (-_dot(x, above) // d,) for x in coords) + (pad + (f // d,),),
                    ))
                if len(grown) > _ENUM_BOUND:
                    raise TooLarge(f"{g} has more than {_ENUM_BOUND} subgroups")
        prefixes = grown
    out = []
    for rows, _ in prefixes:
        sub_order = total // prod(r[i] for i, r in enumerate(rows))
        if order is None or sub_order == order:
            out.append(SubgroupHandle(ambient=g, matrix=IntMatrix._of(rows), order=sub_order))
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
    n = w.rows
    if not fs or sub.order == 1:
        return w
    big = lcm(*fs)
    # per generator a: sum_t (big/d_t) a_t (Gamma_t . (w^T m))_t == 0 (mod big)
    gens = [[(big // d) * x for x, d in zip(a, fs)] for a in sub.generators if any(a)]
    if not gens:
        return w
    cmat = IntMatrix._of(gens) * (w * IntMatrix._of(gamma.columns)).t()
    g = len(gens)
    # the rows (C^T e_i | e_i) and (-big e_t | 0) span {(C m - big t, m)};
    # the first block has rank g, so in their row HNF the rows past its g
    # pivots span the vectors with first block zero, and their second
    # block is the HNF basis of M_H
    rows = [list(c) + [int(i == j) for j in range(n)] for i, c in enumerate(zip(*cmat.data))]
    rows += [[-big * (i == t) for t in range(g)] + [0] * n for i in range(g)]
    _hermite_rows(rows)
    s_mat = IntMatrix._of(row[g:] for row in rows[g:])
    got, want = cokernel(s_mat.t()), sub.group_type()
    if got != want:
        raise InconsistentAction(f"quotient covering group {got} != subgroup {want}")
    return s_mat * w


def _quotients(w: IntMatrix, a: IntMatrix):
    """(subgroup, quotient fan matrix) for every subgroup of coker(a^T),
    acting on the covering fan matrix w through the torsion matrix of a*w.

    The columns of w span Z^n, so the multiplicity of a quotient S*w, the
    index of its column lattice, is |det S|; `quotient_by_subgroup` has
    matched coker(S^T) to the subgroup, so it is the subgroup's order.
    """
    if lattice_index(w) != 1:
        raise InconsistentAction("covering fan matrix does not span the lattice")
    gamma = torsion_matrix(a * w)
    assert gamma.ambient == cokernel(a.t())
    for sub in subgroups(gamma.ambient):
        yield sub, quotient_by_subgroup(w, gamma, sub)


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
    fan = fan_from_point(q, _anticanonical(q))
    if not is_gorenstein_weight(q, fan):
        raise NotFanoWeight("weight matrix admits no anticanonically polarized model")
    cd = analyze(fan.fan_matrix, fan)
    assert cd.k == 1 and cd.k_hat == 1
    entries = []
    for sub, v_h in _quotients(cd.W, cd.A):
        assert is_reduced_f(v_h), "reflexive-case quotient must stay reduced"
        entries.append((sub, v_h, sub.order))
    classes = _gl_classes(entries)
    return [cls[0] for cls in classes]


@dataclass(frozen=True)
class QGorensteinFamily:
    """Factor-h classification output: admissible subgroups with their
    quotient fan matrices, plus the rejected subgroups with the column
    witnessing non-reducedness.  indices runs parallel to kept: the
    Gorenstein index (`fmatrix_index`) of each kept fan matrix."""

    kept: tuple
    rejected: tuple
    indices: tuple

    def __iter__(self):
        return iter(self.kept)


def enumerate_qgorenstein_family(q: IntMatrix, h: int) -> QGorensteinFamily:
    """Subgroups of the h-extended weight group whose quotient fan matrix
    is a reduced fan matrix (the parameter set of factor-h varieties).

    kept entries are (subgroup, fan matrix, multiplicity); rejected
    entries are (subgroup, fan matrix, witness column index).  Every
    quotient S*W is a linear image of the covering fan matrix W, so
    conv(S*W) has the facets of conv(W) on the same column sets: W is
    hulled once and each kept index is read off its polar vertices.
    """
    if h < 1:
        raise OutOfDomain("needs h >= 1")
    fan = fan_from_point(q, _anticanonical(q))
    cd = analyze(fan.fan_matrix, fan)
    facets = facet_columns(cd.W)
    kept = []
    indices = []
    rejected = []
    for sub, v_h in _quotients(cd.W, cd.A * h):
        if is_reduced_f(v_h):
            kept.append((sub, v_h, sub.order))
            indices.append(polar_index(v_h, facets))
        else:
            witness = next(
                j
                for j in range(v_h.cols)
                if gcd(*v_h.col(j)) > 1
            )
            rejected.append((sub, v_h, witness))
    return QGorensteinFamily(kept=tuple(kept), rejected=tuple(rejected), indices=tuple(indices))


def unitary_cover(v: IntMatrix, fan: FanData) -> IntMatrix:
    """Fan matrix of the intermediate factor-1 quotient: the covering by
    the intersection of the covering group with the weight group.

    The invariant lattice is the join of the two character lattices,
    computed as the HNF basis of the stacked quotient-matrix rows; the
    result always has the covering's Gorenstein index.
    """
    cd = analyze(v, fan)
    stacked = cd.B.vstack(cd.A)
    basis, _ = hnf(stacked)
    rows = [r for r in basis.data if any(r)]
    assert len(rows) == cd.n
    v1 = IntMatrix._of(rows) * cd.W
    assert fmatrix_index(v1) == cd.k_hat, "unitary covering must have factor 1"
    return v1
