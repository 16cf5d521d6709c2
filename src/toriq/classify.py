"""Classification engines: torsion matrices, subgroup enumeration,
quotient fan matrices, whole-family enumeration and unitary 1-coverings.

Torsion matrices are canonical only up to automorphisms of the group, so
family fixtures are always compared through the quotient fan matrices
(up to GL-equivalence), never through torsion entries.

A family reads each subgroup's invariant lattice off one frame of its
action (`_frame`: a section and the kernel, checked onto) by one small
Hermite reduction checked by index and pairing (`_invariant_basis`), with
no Smith reduction (Cohen, *A Course in Computational Algebraic Number Theory*).
"""

from __future__ import annotations

from collections import Counter
from math import gcd, lcm, prod

from .covering import analyze
from .errors import (
    InconsistentAction,
    NonIntegerQuotient,
    NotFanoWeight,
    OutOfDomain,
    RankDeficient,
    Record,
    TooLarge,
)
from .fans import _anticanonical, fan_from_point, is_gorenstein_weight
from .gale import gale_dual, gl_canonical_form, is_reduced_f
from .intmat import (
    FiniteAbelianGroup,
    IntMatrix,
    _coordinates,
    _eliminate,
    _hermite_rows,
    cokernel,
    hnf,
    lattice_index,
    rank,
    snf,
)
from .linprog import _dot
from .polytope import _polytope, fmatrix_index, polar_dual


class TorsionMatrix(Record):
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

    The coordinates follow the Smith transforms, so they are one valid
    choice among many: another unimodular pair gives the same group
    with other coordinates (an automorphism of it).  The free component
    spans the same row lattice as the Gale dual of v, which is asserted.
    """
    n, m = v.rows, v.cols
    if rank(v) < n:
        raise RankDeficient("fan matrix must have full rank")
    dec = snf(v.t())
    diag = dec.diagonal
    tor_rows = [i for i in range(len(diag)) if diag[i] >= 2]
    factors = tuple(diag[i] for i in tor_rows)
    cols = tuple(tuple(dec.P[i, j] % diag[i] for i in tor_rows) for j in range(m))
    free_rows = [dec.P.row(i) for i in range(n, m)]
    if free_rows:
        free_h, _ = hnf(IntMatrix._of(free_rows))
        dual_h, _ = hnf(gale_dual(v))
        assert free_h == dual_h, "free part of the class map disagrees with the Gale dual"
    return TorsionMatrix(ambient=FiniteAbelianGroup(factors, 0), columns=cols)


class SubgroupHandle(Record):
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
        """coker(X^T), X = diag(f) R^-1 (`_annihilator`): G/H^perp, which
        is isomorphic to H; off the family path (`_invariant_basis`)."""
        return cokernel(IntMatrix._of(zip(*_annihilator(self))))


def _annihilator(sub: SubgroupHandle) -> list:
    """The rows of X = diag(f) R^-1, R the subgroup's HNF rows; col(X) is
    the preimage of the annihilator H^perp of H under sum_k a_k x_k / f_k.
    Row i of X, the coordinates of f_i e_i in the rows, is found by back
    substitution on R (`_coordinates`)."""
    fs = sub.ambient.invariant_factors
    x = [_coordinates(sub.matrix.data, [f * (k == i) for k in range(len(fs))]) for i, f in enumerate(fs)]
    if None in x:
        raise NonIntegerQuotient(f"diag{fs} is not in the subgroup lattice")
    return x


_ENUM_BOUND = 100_000  # most subgroups, and largest group order, enumerated


def _divisors(n: int):
    return [d for d in range(1, n + 1) if n % d == 0]


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
            out.append(SubgroupHandle(g, IntMatrix._of(rows), sub_order))
    out.sort(key=lambda sub: (sub.order, sub.matrix.data))
    return out


def quotient_by_subgroup(w: IntMatrix, gamma: TorsionMatrix, sub: SubgroupHandle) -> IntMatrix:
    """Fan matrix of the quotient of the variety with fan matrix w by the
    subgroup, acting through the torsion matrix: S * w, S the HNF basis of
    its invariant lattice (`_invariant_basis`), or w for the trivial one.
    InconsistentAction if the action is not onto or S fails a check."""
    if gamma.ambient != sub.ambient:
        raise InconsistentAction("subgroup ambient differs from the action's group")
    if sub.order == 1:
        return w
    action = _action(w, gamma)
    return _invariant_basis(action, _frame(action, sub.ambient.invariant_factors), sub) * w


def _action(w: IntMatrix, gamma: TorsionMatrix) -> IntMatrix:
    """W*Gamma (n x t): column t takes a character m to the t-th torsion
    component of its class, through the rays of w."""
    return w * IntMatrix._of(gamma.columns)


def _frame(action: IntMatrix, fs) -> tuple:
    """The frame (P, K) of phi: Z^n -> G, m -> X m mod f, X = action^T:
    the rows of a section P, X P = I (mod f), and of the HNF basis K of
    ker phi.  The rows (X^T e_i | e_i), (-f_k e_k | 0) span {(X m - f y, m)}
    of rank n + t: their row HNF is [[I, P^T], [0, K]] iff phi is onto."""
    n, t = action.rows, len(fs)
    rows = [list(a) + [int(i == j) for j in range(n)] for i, a in enumerate(action.data)]
    rows += [[-f * (i == k) for k in range(t)] + [0] * n for i, f in enumerate(fs)]
    _hermite_rows(rows)
    if any(rows[k][k] != 1 for k in range(t)):
        raise InconsistentAction("the torsion action does not reach every element of its group")
    return list(zip(*(row[t:] for row in rows[:t]))), [row[t:] for row in rows[t:]]


def _invariant_basis(action: IntMatrix, frame, sub: SubgroupHandle) -> IntMatrix:
    """The HNF basis S of M_H = phi^-1(H^perp), the invariant lattice of
    H, from the frame (P, K) of the action: H^perp has the preimage
    col(X_H) (`_annihilator`), so M_H = ker phi + col(P X_H), the HNF of
    n + t rows.  InconsistentAction unless (i) the pivots of S multiply to
    |H| and (ii) each row s of S pairs integrally with each row a of the
    HNF of H, sum_k a_k (X s)_k / f_k in Z.  As (iii) phi is onto
    (`_frame`), [Z^n : phi^-1(H^perp)] = |G/H^perp| = |H| = [Z^n : row(S)],
    so the inclusion (ii) is equality: Z^n/M_H is G/H^perp, the group of
    `SubgroupHandle.group_type`, with no Smith reduction."""
    section, kernel = frame
    rows = kernel + [[_dot(xc, p) for p in section] for xc in zip(*_annihilator(sub))]
    _hermite_rows(rows)
    s = rows[: action.rows]
    if prod(row[i] for i, row in enumerate(s)) != sub.order:
        raise InconsistentAction(f"invariant lattice does not have the subgroup's index {sub.order}")
    fs = sub.ambient.invariant_factors
    big = lcm(*fs)
    gens = [[big // f * a for f, a in zip(fs, row)] for row in sub.matrix.data]
    ys = [[_dot(row, c) for c in action.columns()] for row in s]
    if any(_dot(g, y) % big for y in ys for g in gens):
        raise InconsistentAction("invariant lattice pairs non-integrally with the subgroup")
    return IntMatrix._of(s)


def _quotients(w: IntMatrix, a: IntMatrix):
    """(subgroup, S, quotient fan matrix S*w) for every subgroup of
    coker(a^T), acting on the covering fan matrix w through the torsion
    matrix of a*w.  The action W*Gamma and its frame (`_frame`) are formed
    once; each S is one small Hermite reduction (`_invariant_basis`).

    The columns of w span Z^n, so the multiplicity of a quotient S*w, the
    index of its column lattice, is |det S|; `_invariant_basis` has
    checked that it is the subgroup's order.
    """
    if lattice_index(w) != 1:
        raise InconsistentAction("covering fan matrix does not span the lattice")
    gamma = torsion_matrix(a * w)
    assert gamma.ambient == cokernel(a.t())
    action = _action(w, gamma)
    frame = _frame(action, gamma.ambient.invariant_factors)
    for sub in subgroups(gamma.ambient):
        s = _invariant_basis(action, frame, sub)
        yield sub, s, IntMatrix._of([[_dot(r, c) for c in w.columns()] for r in s.data])


def _polar_index_of_image(s: IntMatrix, polar: IntMatrix, d: int) -> int:
    """Index of S*W for nonsingular S, given the polar vertices of
    conv(W), the columns of polar/d, read off its hull rows: the facets
    of conv(W) are the facets of conv(S*W) on the same column sets, and
    <x, S w_j> = -1 exactly when <S^T x, w_j> = -1, so the polar vertices
    of S*W are S^-T polar / d.  No `polar_vertex_matrix` checks are
    needed: each hull facet spans its hyperplane, and the origin is
    interior to conv(W) (F.b), so every facet has a polar vertex, and S
    keeps both.  One elimination of [S^T | polar] gives
    e*[I | S^-T polar] (e its last pivot); the index is the lcm of the
    reduced denominators of the columns over e*d.
    """
    n = s.rows
    m, _, e, _ = _eliminate([row + prow for row, prow in zip(s.t().data, polar.data)])
    den = e * d
    return lcm(*(abs(den) // gcd(den, *(row[n + f] for row in m)) for f in range(polar.cols)))


def _gl_classes(entries):
    """Group (subgroup, matrix, mult) triples into GL-equivalence classes
    in order of first appearance, bucketed by (mult, canonical key), the
    key read only where another entry shares the mult (equivalent
    matrices have equal mults); all matrices share one shape."""
    mults = Counter(entry[2] for entry in entries)
    classes = {}
    for entry in entries:
        key = gl_canonical_form(entry[1])[0] if mults[entry[2]] > 1 else None
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
    for sub, _, v_h in _quotients(cd.W, cd.A):
        assert is_reduced_f(v_h), "reflexive-case quotient must stay reduced"
        entries.append((sub, v_h, sub.order))
    return [cls[0] for cls in _gl_classes(entries)]


class QGorensteinFamily(Record):
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
    hulled once, its polar vertices are read off that hull, and each
    kept index is read off one elimination with S
    (`_polar_index_of_image`).  The action W*Gamma and its frame are
    formed once for the family (`_quotients`).
    """
    if h < 1:
        raise OutOfDomain("needs h >= 1")
    fan = fan_from_point(q, _anticanonical(q))
    cd = analyze(fan.fan_matrix, fan)
    polar = polar_dual(_polytope(cd.W))
    points, d = polar.vertices, polar.den
    kept = []
    indices = []
    rejected = []
    for sub, s, v_h in _quotients(cd.W, cd.A * h):
        if is_reduced_f(v_h):
            kept.append((sub, v_h, sub.order))
            indices.append(_polar_index_of_image(s, points, d))
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
