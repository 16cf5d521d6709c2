"""Exact cone questions, all answered by a cone's facets.

Every hull, wall, cone intersection and cone predicate in the library
reads a cone's facets off `_cone_facets`, one bounded cache keyed by the
generator tuple, so each cone of a report is computed once however many
of the fan checks, walls, membership tests, nef cones and hulls ask about
it.  A simplicial cone (as many independent generators as dimensions)
gets them in closed form, as the rows of the inverse of its generator
matrix (`_simplicial_facets`); every other cone goes through one exact
integer double-description routine (`_dd`, Fukuda & Prodon 1996), as the
extreme rays of its dual.  By Gordan's alternative (Ziegler, *Lectures on
Polytopes*, 1.4) the linear-programming questions the library asks are
read off those facets: w lies in a cone exactly when every equality
vanishes on it and every facet normal is >= 0 on it (> 0 for the
relative interior), and a strictly positive combination of vectors is
zero exactly when their cone has no facet.
"""

from __future__ import annotations

import functools
import math
from operator import mul

from .intmat import CACHE_SIZE, _eliminate, primitive_kernel


def _dot(a, x):
    return sum(map(mul, a, x))


def _primitive(v) -> tuple:
    g = math.gcd(*v)
    return tuple(x // g for x in v)


def _dd(rows, dim):
    """Extreme rays of the pointed cone {x : <a, x> >= 0 for a in rows}
    (integer rows of rank dim), each as (primitive ray, bitmask of the
    rows it makes tight).

    Double description (Fukuda & Prodon 1996): start from the whole space
    as a lineality basis, pivot rows that meet the lineality space into
    rays, and cut by the others, pairing a positive with a negative ray
    exactly when no third ray is tight on every row both are tight on.
    """
    lin = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    rays = []
    for i, a in enumerate(rows):
        bit = 1 << i
        p = next((j for j, l in enumerate(lin) if _dot(a, l)), None)
        if p is not None:
            piv = lin.pop(p)
            s = _dot(a, piv)
            if s < 0:
                piv, s = tuple(-x for x in piv), -s

            def project(v):
                t = _dot(a, v)
                return _primitive([s * x - t * y for x, y in zip(v, piv)]) if t else v

            lin = [project(l) for l in lin]
            rays = [(project(r), m | bit) for r, m in rays]
            rays.append((piv, bit - 1))
            continue
        vals = [_dot(a, r) for r, _ in rays]
        need = dim - len(lin) - 2
        new = []
        for ri, ((r, mr), vr) in enumerate(zip(rays, vals)):
            if vr <= 0:
                continue
            for si, ((s, ms), vs) in enumerate(zip(rays, vals)):
                if vs >= 0:
                    continue
                common = mr & ms
                if common.bit_count() < need or any(
                    mt & common == common
                    for ti, (_, mt) in enumerate(rays)
                    if ti != ri and ti != si
                ):
                    continue
                new.append((_primitive([vr * y - vs * x for x, y in zip(r, s)]), common | bit))
        rays = [(r, m | bit if v == 0 else m) for (r, m), v in zip(rays, vals) if v >= 0] + new
    return rays


def _simplicial_facets(gens):
    """Facets, as in `_cone_facets`, of the cone over a tuple of n integer
    generators in Q^n, or None when they are dependent.  Row i of G^-1 (G
    has the generators as columns) is 1 on generator i and 0 on the
    others, so it is the inward normal of the facet without generator i;
    one elimination of [G | I] gives them all, and pivots only in G
    exactly when G is nonsingular."""
    dim = len(gens)
    rows = [list(row) + [int(i == j) for j in range(dim)] for i, row in enumerate(zip(*gens))]
    m, pivots, d, _ = _eliminate(rows)
    if pivots != list(range(dim)):
        return None
    full = (1 << dim) - 1
    s = 1 if d > 0 else -1
    return tuple((_primitive([s * x for x in m[i][dim:]]), full ^ (1 << i)) for i in range(dim))


@functools.lru_cache(maxsize=CACHE_SIZE)
def _cone_facets(gens, dim):
    """(equalities, facets) of the cone over a tuple of integer generator
    tuples in Q^dim: a primitive basis of the vectors orthogonal to every
    generator, and each facet as (inward primitive normal in the span of
    the generators, bitmask of the generators on it).  Both are tuples,
    so no caller can change a cached answer.

    Dually: the lineality basis and the extreme rays, with their tight-row
    bitmasks, of {x : <g, x> >= 0 for g in gens}; the rays are the
    canonical ones orthogonal to the lineality space.
    """
    if not gens:
        return tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim)), ()
    if len(gens) == dim:
        facets = _simplicial_facets(gens)
        if facets is not None:
            return (), facets
    eqs = tuple(primitive_kernel(gens))
    if not eqs:
        return (), tuple(_dd(gens, dim))
    if len(eqs) == dim:
        return eqs, ()
    basis = primitive_kernel(eqs)
    projected = [tuple(_dot(b, g) for b in basis) for g in gens]
    facets = []
    for y, mask in _dd(projected, len(basis)):
        a = [sum(c * b[j] for c, b in zip(y, basis)) for j in range(dim)]
        facets.append((_primitive(a), mask))
    return eqs, tuple(facets)


def _facets_contain(eqs, facets, w, strict: bool = False) -> bool:
    """Does the cone with these `_cone_facets` hold w (strict: in its
    relative interior)?"""
    if any(_dot(e, w) for e in eqs):
        return False
    if strict:
        return all(_dot(a, w) > 0 for a, _ in facets)
    return all(_dot(a, w) >= 0 for a, _ in facets)


def cone_contains(generators, w, strict: bool = False) -> bool:
    """Is w a nonnegative combination of the integer generator vectors?
    With `strict`, is it in the relative interior of their cone, i.e. a
    strictly positive combination of them?

    Read off the cone's cached facets (`_cone_facets`) like every other
    cone question, so each generator tuple is solved once however often
    it is asked about.  The dot products with the facet normals are
    exact, so a rational w needs no scaling.
    """
    w = tuple(w)
    return _facets_contain(*_cone_facets(tuple(map(tuple, generators)), len(w)), w, strict)


def positive_relation(vectors, dim) -> bool:
    """Is some strictly positive combination of the integer vectors in
    Q^dim zero?  That holds exactly when their cone is a linear space,
    i.e. has no facet.  With no vectors the empty combination is zero.
    """
    return not _cone_facets(tuple(map(tuple, vectors)), dim)[1]
