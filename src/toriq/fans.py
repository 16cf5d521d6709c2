"""Fans over fan matrices, bunch-of-cones duality, the secondary-fan
cones (Eff / Mov / Nef), Gorenstein and Q-Fano weight tests, and the
cell-of-a-point fan construction.

Index convention: a maximal cone is stored as the sorted tuple of the
GENERATOR column indices (0-based).  The dual weight-side cone of a
maximal cone uses the complementary index set; `_complement` is the one
conversion point.

Caches, each bounded by CACHE_SIZE: `mov_cone` keyed by the weight
matrix, `nef_cone` keyed by (weight matrix, fan), and the chamber
record `_chambers`, which keeps, per (weight matrix, fan matrix), up to
CACHE_SIZE cell fans that `fan_from_point` has validated, so each
secondary-fan chamber is computed once.  `eff_cone` is not cached: no
pipeline asks for it twice.  Every cone's
facets, behind fan validity, walls, completeness and membership, come
from the one cache of `linprog._cone_facets`.
"""

from __future__ import annotations

import collections
import functools
import itertools

from .errors import InvalidFan, OriginNotInterior, OutOfDomain, OutsideMoving, RankDeficient, Record
from .gale import gale_dual
from .intmat import CACHE_SIZE, IntMatrix, _maximal_minors, rank, solve_integer
from .linprog import _cone_facets, _dot, _facets_contain, cone_contains
from .polytope import _bits, _full_hull, _polytope


class FanData(Record):
    """A fan matrix together with the generator index sets of the
    maximal cones."""

    fan_matrix: IntMatrix
    max_cones: tuple

    def __init__(self, fan_matrix: IntMatrix, max_cones):
        cones = tuple(sorted(tuple(sorted(set(c))) for c in max_cones))
        super().__init__(fan_matrix, cones)
        n = fan_matrix.rows
        for g in cones:
            if any(j < 0 or j >= fan_matrix.cols for j in g):
                raise InvalidFan(f"cone {g} indexes a missing column")
            gens = tuple(map(fan_matrix.col, g))
            eqs, facets = _cone_facets(gens, n)
            if eqs:
                raise InvalidFan(f"cone {g} is not full-dimensional")
            # a square full-dimensional cone is simplicial, hence pointed;
            # otherwise a zero generator is a nonzero nonnegative relation,
            # which counts as a line, and the lineality space is cut out by
            # the facet normals, so the cone is pointed when they span Q^n
            if len(g) > n and (not all(map(any, gens)) or rank(IntMatrix._of(a for a, _ in facets)) != n):
                raise InvalidFan(f"cone {g} contains a line")

    def cones_1based(self):
        return [[j + 1 for j in g] for g in self.max_cones]


def _complement(g, m):
    return tuple(j for j in range(m) if j not in g)


def face_fan(v: IntMatrix) -> FanData:
    """Fan whose maximal cones sit over the facets of conv(v): column x
    lies on the hull row (c, a), the facet <a, x> >= -c, exactly when
    c + <a, x> = 0."""
    rows = [r for r, _ in _full_hull(_polytope(v))]
    if any(c <= 0 for c, *_ in rows):
        raise OriginNotInterior("face fan needs the origin interior to conv(v)")
    cols = v.columns()
    return FanData(v, [[j for j, x in enumerate(cols) if c + _dot(a, x) == 0] for c, *a in rows])


def _cone_walls(v: IntMatrix, g):
    """Facets of the cone over columns g: (inward primitive normal,
    generator indices on the wall)."""
    _, facets = _cone_facets(tuple(map(v.col, g)), v.rows)
    return [(a, tuple(g[t] for t in _bits(mask))) for a, mask in facets]


def _wall_key(a):
    return a if a >= tuple(-x for x in a) else tuple(-x for x in a)


def is_simplicial(fan: FanData) -> bool:
    n = fan.fan_matrix.rows
    return all(len(g) == n for g in fan.max_cones)


def is_complete(fan: FanData) -> bool:
    """Facet-coverage test: there is a maximal cone, and every wall of
    every maximal cone is shared by exactly two maximal cones sitting on
    opposite sides.  The walls are read off the cached facets of each
    cone (`_cone_facets`)."""
    if not fan.max_cones:
        return False
    seen = {}
    for ci, g in enumerate(fan.max_cones):
        for a, wall in _cone_walls(fan.fan_matrix, g):
            key = _wall_key(a)
            side = 1 if key == a else -1
            seen.setdefault((key, wall), []).append((ci, side))
    for members in seen.values():
        if len(members) != 2:
            return False
        (_, s1), (_, s2) = members
        if s1 == s2:
            return False
    return True


class GkzCone(Record):
    """Rational polyhedral cone in divisor-class space, stored by
    primitive integer generators."""

    generators: tuple

    @property
    def dim(self) -> int:
        if not self.generators:
            return 0
        return rank(IntMatrix._of(self.generators))

    def contains(self, w, strict: bool = False) -> bool:
        """Is w in the cone (strict: in its relative interior)?  Read off
        the cone's cached facets (`_cone_facets`)."""
        if not self.generators:
            return not any(w)
        eqs, facets = _cone_facets(self.generators, len(self.generators[0]))
        return _facets_contain(eqs, facets, tuple(w), strict)


def _cone_intersection(gen_lists, dim) -> tuple:
    """Primitive generators of the intersection of finitely many generated
    cones: its extreme rays orthogonal to its lineality space, and both
    signs of a basis of that space."""
    rows = set()
    for gens in gen_lists:
        eqs, facets = _cone_facets(gens, dim)
        rows.update(a for a, _ in facets)
        rows.update(eqs)
        rows.update(tuple(-x for x in e) for e in eqs)
    # {x : <a, x> >= 0 for a in rows} is the dual of the cone over the
    # rows, so its lineality basis and rays are that cone's equalities and
    # facet normals
    lin, rays = _cone_facets(tuple(sorted(rows)), dim)
    gens = {r for r, _ in rays} | set(lin) | {tuple(-x for x in l) for l in lin}
    return tuple(sorted(gens))


def eff_cone(q: IntMatrix) -> GkzCone:
    """Cone spanned by the weight columns (pseudo-effective classes)."""
    return GkzCone(_cone_intersection([tuple(q.columns())], q.rows))


@functools.lru_cache(maxsize=CACHE_SIZE)
def mov_cone(q: IntMatrix) -> GkzCone:
    """Intersection over i of the cones over q with column i removed."""
    m = q.cols
    gen_lists = []
    for i in range(m):
        gen_lists.append(tuple(q.col(j) for j in range(m) if j != i))
    gens = _cone_intersection(gen_lists, q.rows)
    return GkzCone(gens)


@functools.lru_cache(maxsize=CACHE_SIZE)
def nef_cone(q: IntMatrix, fan: FanData) -> GkzCone:
    """Intersection of the dual bunch cones of the fan's maximal cones."""
    m = q.cols
    gen_lists = []
    for g in fan.max_cones:
        comp = _complement(g, m)
        gen_lists.append(tuple(map(q.col, comp)))
    return GkzCone(_cone_intersection(gen_lists, q.rows))


def _anticanonical(q: IntMatrix):
    return tuple(sum(r) for r in q.data)


def is_gorenstein_weight(q: IntMatrix, fan: FanData) -> bool:
    """Integer solvability of Q_I x = Q*1 over every maximal cone's
    complementary index set."""
    b = _anticanonical(q)
    m = q.cols
    for g in fan.max_cones:
        comp = _complement(g, m)
        if solve_integer(q.cols_at(list(comp)), b) is None:
            return False
    return True


def is_qfano_weight(q: IntMatrix, fan: FanData) -> bool:
    """Is the fan complete (as a Q-Fano variety is), with Q*1 strictly
    positively solvable by Q_I x = Q*1 over every maximal cone's
    complementary index set?"""
    b = _anticanonical(q)
    return is_complete(fan) and all(
        cone_contains([q.col(j) for j in _complement(g, q.cols)], b, strict=True) for g in fan.max_cones
    )


def _cell_supports(q: IntMatrix, w) -> set:
    """Supports of the nonnegative solutions of Q_B x = w over the
    r-subsets B of columns with det Q_B != 0, read off one table of the
    maximal minors of [Q | w] by Cramer's rule: x_t = (-1)^(r-1-t)
    minor(B - b_t + w) / det Q_B, since w is the last column."""
    m, r = q.cols, q.rows
    minors = _maximal_minors([row + (x,) for row, x in zip(q.data, w)])
    supports = set()
    for b in itertools.combinations(range(m), r):
        d = minors[b]
        if not d:
            continue
        support = []
        for t, j in enumerate(b):
            x = minors[b[:t] + b[t + 1 :] + (m,)]
            if (r - 1 - t) % 2:
                x = -x
            if x:
                if (x > 0) != (d > 0):
                    break
                support.append(j)
        else:
            supports.add(tuple(support))
    return supports


@functools.lru_cache(maxsize=CACHE_SIZE)
def _chambers(q: IntMatrix, v: IntMatrix) -> collections.deque:
    """The cell fans over v that `fan_from_point` has validated for the
    weight matrix q, each with the `_cone_facets` of its complementary
    weight cones, most recently validated or returned first; at most
    CACHE_SIZE of them, for at most CACHE_SIZE (q, v) pairs."""
    return collections.deque(maxlen=CACHE_SIZE)


def _recorded_cell(q: IntMatrix, v: IntMatrix, w):
    """A recorded cell fan over v that passes `fan_from_point`'s
    validation at w, moved to the front of the record, or None.  Only
    complete fans are recorded, and completeness does not depend on w."""
    record = _chambers(q, v)
    for i, entry in enumerate(record):
        fan, duals = entry
        if all(_facets_contain(*d, w, strict=True) for d in duals):
            del record[i]
            record.appendleft(entry)
            return fan
    return None


def fan_from_point(q: IntMatrix, w, fan_matrix: IntMatrix | None = None) -> FanData:
    """Fan dual to the secondary-fan cell whose relative interior
    contains w.

    The maximal cones are the complements of the inclusion-minimal index
    sets J with w in the relative interior of the cone over Q_J (the
    minimal w-relevant faces).  By Caratheodory such a J is linearly
    independent, so it extends to an r-subset B with Q_B invertible and
    is the support of the unique solution of Q_B x = w.  Conversely the
    support of a nonnegative unique solution on B is minimal: a relevant
    proper subset would give Q_B x = w a second solution.

    So the supports are read off the signs of the maximal minors of
    [Q | w], one table for all r-subsets (`_cell_supports`; Berchtold &
    Hausen 2006, ADHL *Cox Rings* 3.1), with no solve per subset.  The
    result is validated by an independent route (w in the relative
    interior of the complementary weight cone of each maximal cone, plus
    completeness) and never returned silently on failure.

    Each chamber is paid for once per (q, fan matrix): the fans that
    passed that validation are recorded with the facets it read
    (`_chambers`), and w is first put to the same validation against
    each of them.  That is exact.  The complementary cones of a fan Σ
    validated at w0 are its minimal w0-relevant faces, so their
    intersection is the GKZ cone λ(w0) = Nef(Σ).  If w lies in the
    relative interior of each of them, it lies in the relative interior
    of their intersection (Rockafellar, *Convex Analysis*, Thm 6.5), so
    λ(w) = λ(w0), and the cell fan, which depends on w only through
    λ(w), is Σ again.  A point that passes for no recorded fan takes the
    route above.
    """
    m = q.cols
    r = q.rows
    w = tuple(w)
    if len(w) != r:
        raise OutOfDomain(f"point has {len(w)} entries, the weight matrix has {r} rows")
    if not any(w):
        raise OutsideMoving("the zero class spans no cell")
    if not mov_cone(q).contains(w):
        raise OutsideMoving("point lies outside the moving cone")
    v = fan_matrix if fan_matrix is not None else gale_dual(q)
    if v.cols != m:
        raise RankDeficient("fan matrix has the wrong number of columns")
    fan = _recorded_cell(q, v, w)
    if fan is not None:
        return fan

    fan = FanData(v, [_complement(s, m) for s in _cell_supports(q, w)])
    duals = []
    for g in fan.max_cones:
        duals.append(_cone_facets(tuple(map(q.col, _complement(g, m))), r))
        if not _facets_contain(*duals[-1], w, strict=True):
            raise InvalidFan(f"cell point is not interior to the dual cone of {g}")
    if not is_complete(fan):
        raise InvalidFan("cell cones do not form a complete fan")
    _chambers(q, v).appendleft((fan, tuple(duals)))
    return fan


def qfano_representative(v: IntMatrix) -> FanData:
    """Fan over v of the model on which a positive anticanonical multiple is ample (same
    variety up to isomorphism in codimension 1); `fan_from_point` checks it is Q-Fano."""
    q = gale_dual(v)
    return fan_from_point(q, _anticanonical(q), fan_matrix=v)
