"""Exact rational polytopes and cones: facet enumeration, polar duals,
lattice points, normalized volume, reflexivity and the Gorenstein index of
a fan matrix.

A rational point set is an IntMatrix of numerators over one positive
common denominator D, as in PALP and lrs: the columns of (P, D) are the
points P_j / D.  Every hull goes through the one exact double description
of `linprog` (`_cone_facets`): a polytope is the cone over its points p
lifted to integer rows (D, D*p).  Those rows span the same cone as the
rows (1, p), so the primitive facet normals, their order and the
incidence bitmasks do not depend on D.  These primitive rows (c, a),
the facets <a, x> >= -c with the bitmask of the vertices on them (as in
PALP), are the library's one facet description: polar vertices a/c, the
index lcm(c), reflexivity, the face fan, lattice-point intervals, vertex
pruning, triangulation, fan walls and cone intersections are read off
them, and `facet_enumeration` is their public Fraction view.  Volumes
are determinants of the integer rows, divided once by a power of D.

The library builds the polytope of a matrix in one place, `_polytope`, a
bounded cache keyed by the sorted distinct columns: each point set of a
report (conv(V), conv(W) and conv(Lambda°), the polar sides behind the
degrees) is hulled once, in whichever column order the face fan, the
Gorenstein index, the weight modulus or the covering bundle asks first,
and its callers map vertices back to their columns by value.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from fractions import Fraction

from .errors import DegenerateCone, NotFMatrix, NotFullDimensional, OriginNotInterior, Record
from .gale import _fan_conditions
from .intmat import CACHE_SIZE, IntMatrix, _det, _eliminate
from .linprog import _cone_facets

_PRUNED = "non-vertex columns pruned from polytope input"


def _bits(mask) -> tuple:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def _hull(rows):
    """(equalities, facets) of the cone over the integer rows (D, D*p) of
    points p: a facet normal (c, a) is the facet <a, x> >= -c of
    conv(points), whatever D > 0 is."""
    return _cone_facets(tuple(rows), len(rows[0]))


def _over_lcm(points) -> tuple:
    """(P, D) for the points num/d given as rows (d, *num), d != 0: each
    point in lowest terms, D the lcm of their denominators and P the
    numerator columns over D, so gcd(D, P) = 1."""
    reduced = []
    for d, *num in points:
        s = math.gcd(d, *num) * (1 if d > 0 else -1)
        reduced.append((d // s, [x // s for x in num]))
    den = math.lcm(*(d for d, _ in reduced))
    return IntMatrix._of(zip(*([den // d * x for x in num] for d, num in reduced))), den


def _reduced(matrix: IntMatrix, den: int) -> tuple:
    """(P, D) for the points matrix/den: both divided by the gcd of den
    and every entry, so D == 1 exactly when the points are integral."""
    g = math.gcd(den, *(x for r in matrix.data for x in r))
    if g == 1:
        return matrix, den
    return IntMatrix._of([[x // g for x in r] for r in matrix.data]), den // g


class VPolytope:
    """Convex hull of the rational points given as the columns of an
    IntMatrix divided by a positive common denominator `den`.

    Input columns that are not vertices (duplicates or convex
    combinations of the others) are pruned with a warning; `pruned`
    records whether that happened.  A column is a vertex exactly when
    the facets through it share no other column.  The hull that decides
    this is kept (see `hull`), so it is built once per polytope, and so is
    the normalized volume.  The vertices are stored as the integer rows
    (D, D*v), reduced by the gcd of D and every vertex entry: `den` is D,
    and the polytope is a lattice polytope exactly when `den == 1`.
    """

    __slots__ = ("dim", "pruned", "den", "_rows", "_facets", "_volume")

    def __init__(self, matrix: IntMatrix, den: int = 1, prune: bool = True):
        if den < 1:
            raise ValueError(f"common denominator {den} is not positive")
        rows = [(den, *c) for c in zip(*matrix.data)]
        uniq = list(dict.fromkeys(rows))
        pruned = len(uniq) < len(rows)
        self._facets = self._volume = None
        if prune and len(uniq) > 1:
            eqs, facets = _hull(uniq)
            kept = []
            for i in range(len(uniq)):
                common = (1 << len(uniq)) - 1
                for _, mask in facets:
                    if mask >> i & 1:
                        common &= mask
                if common == 1 << i:
                    kept.append(i)
                else:
                    pruned = True
            uniq = [uniq[i] for i in kept]
            self._facets = eqs, [
                (a, sum(1 << j for j, i in enumerate(kept) if mask >> i & 1))
                for a, mask in facets
            ]
        # the facets do not depend on D, so the kept hull holds after reducing
        g = math.gcd(*(x for r in uniq for x in r))
        if g > 1:
            uniq = [tuple(x // g for x in r) for r in uniq]
        self._rows = uniq
        self.den = uniq[0][0] if uniq else den
        self.dim = len(uniq[0]) - 1 if uniq else 0
        self.pruned = pruned
        if pruned:
            warnings.warn(_PRUNED, stacklevel=2)

    @property
    def vertices(self) -> IntMatrix:
        """The numerators of the vertices, as columns over `den`."""
        return IntMatrix._of(zip(*(r[1:] for r in self._rows)))

    def vertex_list(self):
        return self.vertices.columns()

    def hull(self):
        """`_hull` of the vertices: (equalities, facets), each facet's
        bitmask indexing the vertex columns; computed at most once."""
        if self._facets is None:
            self._facets = _hull(self._rows)
        return self._facets

    def __repr__(self):
        return f"VPolytope(dim={self.dim}, vertices={len(self._rows)}, den={self.den})"


@functools.lru_cache(maxsize=CACHE_SIZE)
def _polytope_cached(matrix: IntMatrix, den: int) -> VPolytope:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return VPolytope(matrix, den)


def _polytope(matrix: IntMatrix, den: int = 1) -> VPolytope:
    """The polytope of the point set of the columns of matrix/den, built
    once per point set and shared by every caller with its hull and
    normalized volume: a bounded cache keyed by (D, sorted distinct
    columns) of the reduced (P, D), so an integral point set shares the
    entry of the equal IntMatrix.  Its vertices come in sorted order,
    not in the matrix's column order, so callers map them to columns by
    value.  Warns on each call, as `VPolytope(matrix, den)` does, when
    some column is not a vertex (or repeats one)."""
    matrix, den = _reduced(matrix, den)
    p = _polytope_cached(IntMatrix._of(zip(*sorted(set(matrix.columns())))), den)
    if len(p._rows) < matrix.cols:
        warnings.warn(_PRUNED, stacklevel=2)
    return p


class Facet(Record):
    """Supporting halfspace <normal, x> >= -offset with primitive integer
    normal; `incident` lists the vertex indices on the facet."""

    normal: tuple
    offset: Fraction
    incident: tuple


class HPolytope(Record):
    facets: tuple

    def contains(self, point, strict: bool = False) -> bool:
        for f in self.facets:
            s = sum(a * x for a, x in zip(f.normal, point)) + f.offset
            if s < 0 or (strict and s == 0):
                return False
        return True


def _full_hull(p: VPolytope):
    eqs, facets = p.hull()
    if eqs:
        raise NotFullDimensional("polytope is not full-dimensional")
    return facets


def facet_enumeration(p: VPolytope) -> HPolytope:
    """The hull rows (c, a) of a full-dimensional polytope as Facets
    (normal a/g, offset c/g for g = gcd(a)), sorted by (normal, offset)."""
    facets = []
    for (c, *a), mask in _full_hull(p):
        g = math.gcd(*a)
        normal = tuple(x // g for x in a)
        facets.append(Facet(normal=normal, offset=Fraction(c, g), incident=_bits(mask)))
    facets.sort(key=lambda f: (f.normal, f.offset))
    return HPolytope(facets=tuple(facets))


def polar_dual(p: VPolytope) -> VPolytope:
    """Polar polytope {u : <u, v> >= -1 for all v in P}; requires the
    origin to be interior.  The facet <a, x> >= -c gives the vertex a/c,
    in lowest terms as the hull row (c, a) is primitive, so the polar's
    `den` is the lcm of the c."""
    rows = [r for r, _ in _full_hull(p)]
    if any(r[0] <= 0 for r in rows):
        raise OriginNotInterior("origin is not an interior point")
    return VPolytope(*_over_lcm(rows), prune=False)


def _simplices(verts, facets, face, d):
    """Triangulate the d-dimensional face (vertex bitmask) of a polytope
    with facet bitmasks `facets`: cone the face's lex-least vertex over
    the triangulated facets of the face that miss it.  The facets of a
    face are its inclusion-maximal proper traces face & facet.  `verts`
    may be the integer rows (D, D*v), which sort like the vertices."""
    idx = _bits(face)
    if len(idx) == d + 1:
        return [idx]
    apex = min(idx, key=verts.__getitem__)
    traces = {face & g for g in facets} - {face}
    out = []
    for t in sorted(traces):
        if t >> apex & 1 or any(t & u == t for u in traces if u != t):
            continue
        out.extend((apex,) + s for s in _simplices(verts, facets, t, d - 1))
    return out


def normalized_volume(p: VPolytope) -> Fraction:
    """n! times the Euclidean volume, exact; an integer for lattice
    polytopes.  Computed once per polytope."""
    if p._volume is None:
        facets = [mask for _, mask in _full_hull(p)]
        rows = p._rows
        # det of the rows (D, D*v_i) is D^(n+1) det(v_i - v_0)
        total = sum(
            abs(_det([rows[i] for i in s]))
            for s in _simplices(rows, facets, (1 << len(rows)) - 1, p.dim)
        )
        p._volume = Fraction(total, p.den ** (p.dim + 1))
    return p._volume


def lattice_points(p: VPolytope, strict: bool = False):
    """All lattice points of P (strict=True: interior only), sorted.

    Line intervals on the hull's integer rows: each facet <a, x> >= -c
    bounds c + <a, x> >= 0.  The coordinate with the widest bounding box
    (the last of equally wide ones) is the line; the others run over the
    bounding box, and for each such prefix every facet bounds the line
    coordinate to an exact integer interval (floor and ceiling by integer
    division, open bounds when strict).  A prefix is dropped at the first
    facet that empties its interval.
    """
    facets = _full_hull(p)
    d = p.den
    # ceil(min / D) and floor(max / D) of each coordinate of the rows D * v
    box = [(-(-min(c) // d), max(c) // d) for c in itertools.islice(zip(*p._rows), 1, None)]
    k = max(range(p.dim), key=lambda i: (box[i][1] - box[i][0], i))
    rows = [(a[:k] + a[k + 1 :], a[k], c) for (c, *a), _ in facets]
    lo_box, hi_box = box.pop(k)
    pts = []
    for prefix in itertools.product(*(range(lo, hi + 1) for lo, hi in box)):
        lo, hi = lo_box, hi_box
        for head, line, c in rows:
            # line * x_k + s >= 0 (> 0 when strict)
            s = c + sum(a * x for a, x in zip(head, prefix))
            if line > 0:
                lo = max(lo, (-s) // line + 1 if strict else -(s // line))
            elif line < 0:
                hi = min(hi, -(s // line) - 1 if strict else s // -line)
            elif s < 0 or (strict and s == 0):
                hi = lo - 1
            if lo > hi:
                break
        else:
            left, right = prefix[:k], prefix[k:]
            pts.extend(left + (x,) + right for x in range(lo, hi + 1))
    if k != p.dim - 1:
        pts.sort()
    return pts


def interior_lattice_points(p: VPolytope):
    """Lattice points strictly inside P (the origin counts when interior)."""
    return lattice_points(p, strict=True)


def is_reflexive(p: VPolytope) -> bool:
    """Lattice polytope with interior origin whose polar is again a
    lattice polytope: every hull row (c, a) has c = 1."""
    if p.den != 1:
        raise OriginNotInterior("reflexivity is defined for lattice polytopes")
    return polar_dual(p).den == 1


@functools.lru_cache(maxsize=CACHE_SIZE)
def fmatrix_index(v: IntMatrix) -> int:
    """Least k making k times the polar of conv(v) a lattice polytope
    (the Gorenstein index when v is the fan matrix of a Q-Fano variety):
    the `den` of the polar read off the hull of conv(v), the lcm of its
    rows' c, all positive as F.b puts the origin inside."""
    if not all(_fan_conditions(v)):
        raise NotFMatrix("index is defined for fan-type matrices only")
    return polar_dual(_polytope(v)).den


def polar_vertex_matrix(v: IntMatrix, fan) -> tuple:
    """One polar point per maximal cone: the solution of <x, v_j> = -1
    over the cone's generators, columns ordered like fan.max_cones.

    Returns (P, d) with the points the columns of P/d: d > 0 is the lcm
    of the reduced denominators of the points, so gcd(d, P) = 1.  Accepts
    anything with a `max_cones` attribute (or a raw list of generator
    index sets).
    """
    max_cones = getattr(fan, "max_cones", fan)
    n = v.rows
    points = []
    for g in max_cones:
        # one elimination of [sub^T | -1]: rank n, and no pivot on the -1 column
        m, pivots, d, _ = _eliminate([v.col(j) + (-1,) for j in g])
        if len(pivots) < n or pivots[n - 1] != n - 1:
            raise DegenerateCone(f"cone {tuple(g)} has no nonsingular n x n submatrix")
        if len(pivots) > n:
            raise DegenerateCone(
                f"cone {tuple(g)} generators do not lie on a common polar hyperplane"
            )
        points.append((d, *(m[i][n] for i in range(n))))
    return _over_lcm(points)
