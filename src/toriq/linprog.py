"""Exact cone questions, all answered by a cone's facets.

Every hull, wall, cone intersection and cone predicate in the library
reads a cone's facets off `_cone_facets`.  A simplicial cone (as many
independent generators as dimensions) gets them in closed form, as the
rows of the inverse of its generator matrix; every other cone goes
through one exact integer double-description routine (`_dd`, Fukuda &
Prodon 1996), as the extreme rays of its dual.  By Gordan's alternative
(Ziegler, *Lectures on Polytopes*, 1.4) the linear-programming questions
the library asks are read off those facets: w lies in a cone exactly when
every equality vanishes on it and every facet normal is >= 0 on it (> 0
for the relative interior), and a strictly positive combination of
vectors is zero exactly when their cone has no facet.
"""

from __future__ import annotations

import math

from .intmat import _eliminate, primitive_kernel


def _dot(a, x):
    return sum(p * q for p, q in zip(a, x))


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


def _cone_facets(gens, dim):
    """(equalities, facets) of the cone over integer generators in Q^dim:
    a primitive basis of the vectors orthogonal to every generator, and
    each facet as (inward primitive normal in the span of the generators,
    bitmask of the generators on it).

    Dually: the lineality basis and the extreme rays, with their tight-row
    bitmasks, of {x : <g, x> >= 0 for g in gens}; the rays are the
    canonical ones orthogonal to the lineality space.
    """
    gens = list(gens)
    if not gens:
        return [tuple(int(i == j) for j in range(dim)) for i in range(dim)], []
    if len(gens) == dim:
        # a simplicial cone: row i of G^-1 (G has the generators as
        # columns) is 1 on generator i and 0 on the others, so it is the
        # inward normal of the facet without generator i
        ident = [[int(i == j) for j in range(dim)] for i in range(dim)]
        m, pivots, d, _ = _eliminate([list(row) + e for row, e in zip(zip(*gens), ident)])
        if pivots[-1] == dim - 1:  # every pivot of [G | I] falls in G
            full = (1 << dim) - 1
            s = 1 if d > 0 else -1
            return [], [(_primitive([s * x for x in m[i][dim:]]), full ^ (1 << i)) for i in range(dim)]
    eqs = primitive_kernel(gens)
    if not eqs:
        return [], _dd(gens, dim)
    if len(eqs) == dim:
        return eqs, []
    basis = primitive_kernel(eqs)
    projected = [tuple(_dot(b, g) for b in basis) for g in gens]
    facets = []
    for y, mask in _dd(projected, len(basis)):
        a = [sum(c * b[j] for c, b in zip(y, basis)) for j in range(dim)]
        facets.append((_primitive(a), mask))
    return eqs, facets


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

    A square system G x = w with G nonsingular (a simplicial cone in its
    own span) is decided by one elimination of [G | w]: it leaves
    d * G^-1 w in the last column, so x_i has the sign of m[i][n] * d.
    A rational w is first scaled by the lcm of its denominators, which
    keeps membership and strictness and keeps the elimination integral.
    """
    w = tuple(w)
    if not generators:
        return not any(w)
    n = len(w)
    if len(generators) == n:
        den = math.lcm(*(x.denominator for x in w))
        if den != 1:
            w = tuple(x.numerator * (den // x.denominator) for x in w)
        m, pivots, d, _ = _eliminate([[g[i] for g in generators] + [w[i]] for i in range(n)])
        if pivots == list(range(n)):
            signs = [m[i][n] * d for i in range(n)]
            return all(x > 0 for x in signs) if strict else all(x >= 0 for x in signs)
    eqs, facets = _cone_facets(generators, n)
    return _facets_contain(eqs, facets, w, strict)


def positive_relation(vectors, dim) -> bool:
    """Is some strictly positive combination of the integer vectors in
    Q^dim zero?  That holds exactly when their cone is a linear space,
    i.e. has no facet.  With no vectors the empty combination is zero.
    """
    return not _cone_facets(vectors, dim)[1]
