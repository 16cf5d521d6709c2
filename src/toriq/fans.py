"""Fans over fan matrices, bunch-of-cones duality, the secondary-fan
cones (Eff / Mov / Nef), Gorenstein and Q-Fano weight tests, and the
cell-of-a-point fan construction.

Index convention: a maximal cone is stored as the sorted tuple of the
GENERATOR column indices (0-based).  The dual weight-side cone of a
maximal cone uses the complementary index set; `_complement` is the one
conversion point.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .errors import InvalidFan, OriginNotInterior, OutOfDomain, OutsideMoving, RankDeficient
from .gale import gale_dual
from .intmat import CACHE_SIZE, IntMatrix, _maximal_minors, rank, solve_integer
from .linprog import _cone_facets, _facets_contain, _simplicial_facets, cone_contains
from .polytope import _bits, _polytope, facet_enumeration


@dataclass(frozen=True)
class FanData:
    """A fan matrix together with the generator index sets of the
    maximal cones."""

    fan_matrix: IntMatrix
    max_cones: tuple

    def __init__(self, fan_matrix: IntMatrix, max_cones):
        cones = tuple(sorted(tuple(sorted(set(c))) for c in max_cones))
        object.__setattr__(self, "fan_matrix", fan_matrix)
        object.__setattr__(self, "max_cones", cones)
        n = fan_matrix.rows
        for g in cones:
            if any(j < 0 or j >= fan_matrix.cols for j in g):
                raise InvalidFan(f"cone {g} indexes a missing column")
            if len(g) == n:
                # full-dimensional when its [G | I] elimination (shared with
                # its walls) pivots only in G, hence simplicial and pointed
                if _simplicial_facets(tuple(map(fan_matrix.col, g))) is None:
                    raise InvalidFan(f"cone {g} is not full-dimensional")
                continue
            cols = fan_matrix.cols_at(list(g))
            if rank(cols) != n:
                raise InvalidFan(f"cone {g} is not full-dimensional")
            if not _pointed(cols):
                raise InvalidFan(f"cone {g} contains a line")

    def cones_1based(self):
        return [[j + 1 for j in g] for g in self.max_cones]


def _pointed(cols: IntMatrix) -> bool:
    """Is the cone over the columns (of full row rank) free of lines?"""
    # a zero generator is a nonzero nonnegative relation, which counts as a
    # line; otherwise the lineality space is cut out by the equalities and
    # the facet normals, so the cone is pointed when they span Q^n
    gens = cols.columns()
    if not all(map(any, gens)):
        return False
    eqs, facets = _cone_facets(gens, cols.rows)
    normals = eqs + [a for a, _ in facets]
    return bool(normals) and rank(IntMatrix._of(normals)) == cols.rows


def _complement(g, m):
    return tuple(j for j in range(m) if j not in g)


def face_fan(v: IntMatrix) -> FanData:
    """Fan whose maximal cones sit over the facets of conv(v)."""
    h = facet_enumeration(_polytope(v))
    if any(f.offset <= 0 for f in h.facets):
        raise OriginNotInterior("face fan needs the origin interior to conv(v)")
    cones = []
    for f in h.facets:
        g = [
            j
            for j in range(v.cols)
            if sum(a * x for a, x in zip(f.normal, v.col(j))) == -f.offset
        ]
        cones.append(tuple(g))
    return FanData(v, cones)


def _cone_walls(v: IntMatrix, g):
    """Facets of the cone over columns g: (inward primitive normal,
    generator indices on the wall)."""
    _, facets = _cone_facets([v.col(j) for j in g], v.rows)
    return [(a, tuple(g[t] for t in _bits(mask))) for a, mask in facets]


def _wall_key(a):
    return a if a >= tuple(-x for x in a) else tuple(-x for x in a)


def is_simplicial(fan: FanData) -> bool:
    n = fan.fan_matrix.rows
    return all(len(g) == n for g in fan.max_cones)


def is_complete(fan: FanData) -> bool:
    """Facet-coverage test: every wall of every maximal cone must be
    shared by exactly two maximal cones sitting on opposite sides."""
    seen = {}
    for ci, g in enumerate(fan.max_cones):
        for a, wall in _cone_walls(fan.fan_matrix, g):
            key = (_wall_key(a), wall)
            side = 1 if _wall_key(a) == a else -1
            seen.setdefault(key, []).append((ci, side))
    for members in seen.values():
        if len(members) != 2:
            return False
        (_, s1), (_, s2) = members
        if s1 == s2:
            return False
    return True


@dataclass(frozen=True)
class GkzCone:
    """Rational polyhedral cone in divisor-class space, stored by
    primitive integer generators."""

    generators: tuple

    @property
    def dim(self) -> int:
        if not self.generators:
            return 0
        return rank(IntMatrix._of(self.generators))

    @functools.cached_property
    def _facets(self):
        return _cone_facets(self.generators, len(self.generators[0]))

    def contains(self, w, strict: bool = False) -> bool:
        """Is w in the cone (strict: in its relative interior)?  The
        facets are computed on the first call and kept."""
        if not self.generators:
            return not any(w)
        return _facets_contain(*self._facets, tuple(w), strict)


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
    lin, rays = _cone_facets(sorted(rows), dim)
    gens = {r for r, _ in rays} | set(lin) | {tuple(-x for x in l) for l in lin}
    return tuple(sorted(gens))


@functools.lru_cache(maxsize=CACHE_SIZE)
def eff_cone(q: IntMatrix) -> GkzCone:
    """Cone spanned by the weight columns (pseudo-effective classes)."""
    return GkzCone(_cone_intersection([q.columns()], q.rows))


@functools.lru_cache(maxsize=CACHE_SIZE)
def mov_cone(q: IntMatrix) -> GkzCone:
    """Intersection over i of the cones over q with column i removed."""
    m = q.cols
    gen_lists = []
    for i in range(m):
        gen_lists.append([q.col(j) for j in range(m) if j != i])
    gens = _cone_intersection(gen_lists, q.rows)
    return GkzCone(gens)


def nef_cone(q: IntMatrix, fan: FanData) -> GkzCone:
    """Intersection of the dual bunch cones of the fan's maximal cones."""
    m = q.cols
    gen_lists = []
    for g in fan.max_cones:
        comp = _complement(g, m)
        gen_lists.append([q.col(j) for j in comp])
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

    fan = FanData(v, [_complement(s, m) for s in _cell_supports(q, w)])
    for g in fan.max_cones:
        comp = _complement(g, m)
        if not cone_contains([q.col(j) for j in comp], w, strict=True):
            raise InvalidFan(
                f"cell point is not interior to the dual cone of {tuple(g)}"
            )
    if not is_complete(fan):
        raise InvalidFan("cell cones do not form a complete fan")
    return fan


def qfano_representative(v: IntMatrix) -> FanData:
    """Fan over v of the model on which a positive anticanonical multiple
    is ample (same variety up to isomorphism in codimension 1)."""
    q = gale_dual(v)
    fan = fan_from_point(q, _anticanonical(q), fan_matrix=v)
    assert is_qfano_weight(q, fan)
    return fan
