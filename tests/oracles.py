"""Independent oracles used only by the test suite.

The W.f oracle computes, for every column pair, the lattice of row-lattice
vectors supported on that pair, straight from the definition.  The volume
oracle integrates exact cross-section measures over the slabs
between vertex coordinates (trapezoid rule in 2D, Simpson in 3D, both of
which are exact for the piecewise-polynomial sections of a polytope), so
it shares no code path with the library's facet-pyramid triangulation.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from toriq.intmat import IntMatrix, kernel_basis, rank
from toriq.linprog import cone_contains
from toriq.polytope import VPolytope, facet_enumeration

_ZERO = Fraction(0)


def _interval_length_1d(rows):
    """Length of {t : a*t >= -c for all (a, c)} given (a, c) pairs."""
    lo, hi = None, None
    for a, c in rows:
        if a == 0:
            if c < 0:
                return _ZERO
            continue
        bound = Fraction(-c, a)
        if a > 0:
            lo = bound if lo is None else max(lo, bound)
        else:
            hi = bound if hi is None else min(hi, bound)
    if lo is None or hi is None or hi < lo:
        return _ZERO
    return hi - lo


def _area_2d_h(rows):
    """Area of {(y, z) : a*y + b*z >= -c} by slab decomposition over y."""
    ys = set()
    for (a1, b1, c1), (a2, b2, c2) in itertools.combinations(rows, 2):
        det = a1 * b2 - a2 * b1
        if det == 0:
            continue
        y = Fraction(-c1 * b2 + c2 * b1, det)
        z = Fraction(-a1 * c2 + a2 * c1, det)
        if all(a * y + b * z + c >= 0 for a, b, c in rows):
            ys.add(y)
    ys = sorted(ys)
    if len(ys) < 2:
        return _ZERO
    total = _ZERO
    for y0, y1 in zip(ys, ys[1:]):
        w = y1 - y0
        l0 = _interval_length_1d([(b, a * y0 + c) for a, b, c in rows])
        l1 = _interval_length_1d([(b, a * y1 + c) for a, b, c in rows])
        total += w * (l0 + l1) / 2
    return total


def slab_volume(p: VPolytope) -> Fraction:
    """Normalized volume (n! * volume) of a 2- or 3-dimensional polytope
    by exact slab integration; independent of the triangulation path."""
    n = p.dim
    h = facet_enumeration(p)
    rows = [tuple(f.normal) + (f.offset,) for f in h.facets]
    verts = p.vertex_list()
    if n == 2:
        return 2 * _area_2d_h(rows)
    if n != 3:
        raise ValueError("slab oracle covers dimensions 2 and 3")
    xs = sorted({v[0] for v in verts})
    total = _ZERO

    def section(x):
        return _area_2d_h([(a2, a3, a1 * x + c) for a1, a2, a3, c in rows])

    for x0, x1 in zip(xs, xs[1:]):
        w = x1 - x0
        mid = (x0 + x1) / 2
        total += w * (section(x0) + 4 * section(mid) + section(x1)) / 6
    return 6 * total


def rays_covered(fan, rng, trials: int = 40) -> bool:
    """Every random rational direction must land in some maximal cone of
    a complete fan."""
    n = fan.fan_matrix.rows
    cols = {j: fan.fan_matrix.col(j) for j in range(fan.fan_matrix.cols)}
    for _ in range(trials):
        direction = tuple(Fraction(rng.randint(-97, 97), rng.randint(1, 13)) for _ in range(n))
        if all(x == 0 for x in direction):
            continue
        hit = any(
            cone_contains([cols[j] for j in g], direction) for g in fan.max_cones
        )
        if not hit:
            return False
    return True


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


def has_mixed_pair(q: IntMatrix) -> bool:
    """Does the row lattice of q hold a vector with exactly two nonzero
    entries of opposite signs (the negation of W.f)?  Checked pair by
    pair: a rank-2 pair lattice holds every sign pattern, a rank-1 one
    only the signs of its generator."""
    for i, j in itertools.combinations(range(q.cols), 2):
        gens = _coordinate_pair_lattice(q, i, j)
        if not gens:
            continue
        pair_rank = rank(IntMatrix(gens))
        if pair_rank == 2:
            return True
        a, b = gens[0]
        if a * b < 0:
            return True
    return False
