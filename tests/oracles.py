"""Independent oracles used only by the test suite.

The W.f oracle computes, for every column pair, the lattice of row-lattice
vectors supported on that pair, straight from the definition.  The cell
fan oracle builds the fan of a secondary-fan cell by merging adjacent
simplicial candidates across the walls that contain the point, and the
cell-support oracle solves one system per subset of weight columns where
the library reads every solution off one table of maximal minors.  The volume
oracle integrates exact cross-section measures over the slabs
between vertex coordinates (trapezoid rule in 2D, Simpson in 3D, both of
which are exact for the piecewise-polynomial sections of a polytope), so
it shares no code path with the library's facet-pyramid triangulation.
The simplex oracle is a two-phase Bland simplex over Fractions, against
which the library's cone predicates (read off the facets of one double
description) are checked; the double-description oracle tests each pair
of rays for adjacency by scanning every third ray, where the library
ANDs one bitset of tight rays per common row; and the lattice-point
oracle scans the whole bounding box.  The subgroup oracle builds every upper-triangular HNF
candidate and keeps those whose lattice contains diag(f), where the
library's column walk never builds a candidate that fails.  The
canonical-form oracle runs a full `hnf` on every prefix of its search,
where the library extends the parent's HNF by one column, and finds the
column cells with one `det` per subset, where the library reads every
minor off one Laplace table.  The quotient
oracle finds the invariant lattice of a subgroup as the projection of a
saturated kernel, and the congruence oracle as one wide row HNF of the
subgroup's scaled congruences, checked by two Smith reductions, where the
library reads it off the frame of the action with one small HNF.  The
elimination oracle applies every Bareiss update of a full Gauss-Jordan
pass, where the library skips the updates that cannot change a row and
takes determinants and ranks from a forward pass; `solve_unique` reads a
square system's Fraction solution off it.  The Smith oracle alternates
full `hnf` calls on the matrix and its transpose with IntMatrix
transform products, moves the pivots onto the diagonal with a
permutation and repairs the divisibility chain by adding one column to
another and starting over, where the library runs one Hermite loop and
folds each pivot pair by a Bezout step.  The line-interval oracle for
lattice points always takes the last coordinate as the line, where the
library takes the widest one.  The polar-point oracle solves
<x, v_j> = -1 over each cone's generators by one full elimination, with
its uniqueness checked, where the library reads the point a/c off the
hull row (c, a) whose facet holds the cone; the index oracle takes the
lcm of its denominators over the facets of the public
`facet_enumeration`, where the library reads the lcm of the hull rows'
offsets off the one hull.  The JSON oracle converts a payload to
plain values and leaves the text to `json.dumps`, where the CLI writes it
in one walk.  The integer-solving oracle reads a solution off the Smith
diagonal and both transforms, where the library takes one back
substitution on the Hermite rows of the transpose, and the McMullen
oracle tries every facet count in turn, comparing Fractions, where the
library doubles and bisects in integers.  Oracle checks raise
explicitly, so they also run under `python -O`.
"""

from __future__ import annotations

import itertools
import math
import warnings
from fractions import Fraction

from toriq.classify import SubgroupHandle, TorsionMatrix
from toriq.errors import InconsistentAction, InvalidFan, NotConverged, OutsideMoving, RankDeficient
from toriq.fans import FanData, _cone_walls, _complement, is_complete, mov_cone
from toriq.gale import gale_dual
from toriq.intmat import FiniteAbelianGroup, IntMatrix, SnfDecomposition, cokernel, hnf, kernel_basis, rank, snf
from toriq.linprog import _dot, _primitive, cone_contains
from toriq.polytope import VPolytope, facet_enumeration

_SAFE = 1 << 53

_ZERO = Fraction(0)
_ONE = Fraction(1)


def eliminate_every_row(rows):
    """Fraction-free Gauss-Jordan elimination (Bareiss) that applies every
    update, (piv*row_i - m[i][c]*row_r) // prev to every row but the
    pivot row, also where it cannot change the row; returns (m, pivots,
    d, sign) like `intmat._eliminate`."""
    m = [list(r) for r in rows]
    nr = len(m)
    pivots = []
    prev, sign = 1, 1
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        if r == nr:
            break
        p = next((i for i in range(r, nr) if m[i][c]), None)
        if p is None:
            continue
        if p != r:
            m[r], m[p] = m[p], m[r]
            sign = -sign
        top, piv = m[r], m[r][c]
        for i in range(nr):
            if i != r:
                f = m[i][c]
                m[i] = [(piv * x - f * y) // prev for x, y in zip(m[i], top)]
        prev = piv
        pivots.append(c)
    return m, pivots, prev, sign


def det_by_gauss_jordan(rows) -> int:
    """Determinant of square integer rows read off the full Gauss-Jordan
    `eliminate_every_row`."""
    _, pivots, d, sign = eliminate_every_row(rows)
    return sign * d if len(pivots) == len(rows) else 0


def integral_rows(rows):
    """Rows of ints or Fractions, each scaled by the lcm of its
    denominators to ints."""
    out = []
    for row in rows:
        den = math.lcm(*(x.denominator for x in row))
        out.append([x.numerator * (den // x.denominator) for x in row])
    return out


def solve_unique(rows, b):
    """The unique solution x of rows * x = b (ints or Fractions) as a
    tuple of Fractions, or None when there is none or more than one."""
    n = len(rows[0])
    m, pivots, d, _ = eliminate_every_row(integral_rows([list(r) + [y] for r, y in zip(rows, b)]))
    if pivots != list(range(n)):
        return None
    return tuple(Fraction(m[i][n], d) for i in range(n))


def _frac_pivot(tab, basis, row, col):
    inv = _ONE / tab[row][col]
    tab[row] = [x * inv for x in tab[row]]
    for i, r in enumerate(tab):
        if i != row and r[col]:
            f = r[col]
            tab[i] = [x - f * y for x, y in zip(r, tab[row])]
    basis[row] = col


def _frac_simplex(tab, basis, cost):
    """Maximize cost over the Fraction tableau in place; returns
    'optimal'/'unbounded'.  Bland's rule."""
    m = len(tab)
    while True:
        col = next((j for j, c in enumerate(cost[:-1]) if c > 0), None)
        if col is None:
            return "optimal"
        row, best = None, None
        for i in range(m):
            if tab[i][col] > 0:
                ratio = tab[i][-1] / tab[i][col]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[row]):
                    row, best = i, ratio
        if row is None:
            return "unbounded"
        _frac_pivot(tab, basis, row, col)
        f = cost[col]
        if f:
            cost[:] = [x - f * y for x, y in zip(cost, tab[row])]


def lp_max_by_fractions(c, a_rows, b):
    """max c.x subject to a_rows x = b, x >= 0: the two-phase simplex with
    Bland's rule over Fractions.  Returns (status, value, x) with status in
    {'optimal', 'unbounded', 'infeasible'}; on 'optimal' x is an optimal
    basic solution, otherwise value and x are None."""
    m = len(a_rows)
    n = len(c)
    tab = []
    for i in range(m):
        row = [Fraction(x) for x in a_rows[i]]
        rhs = Fraction(b[i])
        if rhs < 0:
            row = [-x for x in row]
            rhs = -rhs
        tab.append(row + [Fraction(int(i == j)) for j in range(m)] + [rhs])
    basis = [n + i for i in range(m)]
    cost = [_ZERO] * (n + m + 1)
    for j in range(n):
        cost[j] = sum(tab[i][j] for i in range(m))
    cost[-1] = -sum(tab[i][-1] for i in range(m))
    status = _frac_simplex(tab, basis, cost)
    if status != "optimal":
        raise ArithmeticError(f"phase one of the Fraction simplex ended {status}")
    deficit = sum(tab[i][-1] for i in range(m) if basis[i] >= n)
    if deficit != 0:
        return "infeasible", None, None
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if tab[i][j] != 0), None)
            if col is not None:
                _frac_pivot(tab, basis, i, col)
    keep = [i for i in range(len(basis)) if basis[i] < n]
    tab = [tab[i][:n] + [tab[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]
    cost = [Fraction(x) for x in c] + [_ZERO]
    for i, bi in enumerate(basis):
        f = cost[bi]
        if f:
            cost = [x - f * y for x, y in zip(cost, tab[i])]
    status = _frac_simplex(tab, basis, cost)
    x = [_ZERO] * n
    for i, bi in enumerate(basis):
        x[bi] = tab[i][-1]
    if status == "unbounded":
        return "unbounded", None, None
    value = sum(Fraction(ci) * xi for ci, xi in zip(c, x))
    return "optimal", value, tuple(x)


def strict_solution_by_fractions(a_rows, b):
    """Some x > 0 with A x = b, or None: x = u + eps*1 with u >= 0 and
    eps <= 1 maximized, over `lp_max_by_fractions`."""
    if not a_rows or not a_rows[0]:
        return None
    n = len(a_rows[0])
    rows = [[Fraction(x) for x in r] + [sum(Fraction(x) for x in r), _ZERO] for r in a_rows]
    rows.append([_ZERO] * n + [_ONE, _ONE])
    status, value, x = lp_max_by_fractions([_ZERO] * n + [_ONE, _ZERO], rows, list(b) + [_ONE])
    if status != "optimal" or value <= 0:
        return None
    return tuple(xi + x[n] for xi in x[:n])


def positive_kernel_vector_by_fractions(a_rows):
    """Some x > 0 with A x = 0, or None: x = 1 + s with s >= 0 over
    `lp_max_by_fractions` (the kernel is a linear space, so x > 0 exists
    iff x >= 1 does).  With no rows every vector qualifies: ()."""
    if not a_rows:
        return ()
    rhs = [-sum(Fraction(x) for x in r) for r in a_rows]
    status, _, s = lp_max_by_fractions([_ZERO] * len(a_rows[0]), a_rows, rhs)
    return None if status != "optimal" else tuple(_ONE + x for x in s)


def dd_by_third_ray_scan(rows, dim):
    """`linprog._dd` with the adjacency test written out: a positive and a
    negative ray are paired exactly when no third ray is tight on every
    row both are tight on, found by scanning every other ray."""
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


def rational_vertices(p: VPolytope):
    """The vertices of P as tuples of Fractions: its integer numerator
    columns over its common denominator."""
    return [tuple(Fraction(x, p.den) for x in c) for c in p.vertex_list()]


def facet_columns(v: IntMatrix) -> list:
    """The facets of conv(v) as tuples of the indices of every column of
    v on them, read off the public `facet_enumeration`: column x lies on
    the facet <normal, x> >= -offset when equality holds.

    A linear isomorphism S keeps the face lattice, so these are also the
    facets of conv(S*v), on the same column sets."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        facets = facet_enumeration(VPolytope(v)).facets
    cols = v.columns()
    return [
        tuple(j for j, x in enumerate(cols) if sum(a * y for a, y in zip(f.normal, x)) == -f.offset)
        for f in facets
    ]


def polar_points_by_elimination(v: IntMatrix, cones) -> tuple:
    """(P, d) of the solutions x of <x, v_j> = -1 over the generators of
    each cone (column index sets), as `polar_vertex_matrix` gives them:
    one full Gauss-Jordan elimination of [v_j^T | -1] per cone, and the
    points the columns of P/d with d the lcm of their denominators.
    Raises ValueError when a cone's system has no unique solution."""
    n = v.rows
    points = []
    for g in cones:
        m, pivots, d, _ = eliminate_every_row([v.col(j) + (-1,) for j in g])
        if pivots != list(range(n)):
            raise ValueError(f"cone {tuple(g)} has no unique polar point")
        points.append([Fraction(m[i][n], d) for i in range(n)])
    den = math.lcm(*(x.denominator for p in points for x in p))
    return IntMatrix([[int(p[i] * den) for p in points] for i in range(n)]), den


def index_by_facets(v: IntMatrix, facets=None) -> int:
    """The least k making k times the polar points of v on the facets of
    conv(v) (or on the given column sets) integral: one elimination per
    facet (`polar_points_by_elimination`), then the lcm of the
    denominators."""
    return polar_points_by_elimination(v, facet_columns(v) if facets is None else facets)[1]


def lattice_points_by_box(p: VPolytope, strict: bool = False):
    """Lattice points of P (strict=True: interior only), sorted, by testing
    every point of the bounding box against every facet."""
    h = facet_enumeration(p)
    verts = rational_vertices(p)
    ranges = []
    for i in range(p.dim):
        coords = [v[i] for v in verts]
        ranges.append(range(math.ceil(min(coords)), math.floor(max(coords)) + 1))
    return sorted(c for c in itertools.product(*ranges) if h.contains(c, strict=strict))


def lattice_points_last_coordinate(p: VPolytope, strict: bool = False):
    """Lattice points of P (strict=True: interior only), sorted, by line
    intervals that always take the last coordinate as the line and run
    the others over the bounding box."""
    h = facet_enumeration(p)
    verts = rational_vertices(p)
    box = []
    for i in range(p.dim):
        coords = [v[i] for v in verts]
        box.append((math.ceil(min(coords)), math.floor(max(coords))))
    rows = []
    for f in h.facets:
        den = f.offset.denominator
        rows.append(([den * a for a in f.normal[:-1]], den * f.normal[-1], f.offset.numerator))
    lo_box, hi_box = box.pop()
    pts = []
    for prefix in itertools.product(*(range(lo, hi + 1) for lo, hi in box)):
        lo, hi = lo_box, hi_box
        for head, last, c in rows:
            s = c + sum(a * x for a, x in zip(head, prefix))
            if last > 0:
                lo = max(lo, (-s) // last + 1 if strict else -(s // last))
            elif last < 0:
                hi = min(hi, -(s // last) - 1 if strict else s // -last)
            elif s < 0 or (strict and s == 0):
                hi = lo - 1
            if lo > hi:
                break
        else:
            pts.extend(prefix + (x,) for x in range(lo, hi + 1))
    return pts


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
    verts = rational_vertices(p)
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


def cell_supports_by_solving(q: IntMatrix, w) -> set:
    """Supports of the nonnegative solutions of Q_B x = w, one Bareiss
    solve per r-subset B of columns with a unique solution (where the
    library reads every solution off one table of maximal minors)."""
    supports = set()
    for b in itertools.combinations(range(q.cols), q.rows):
        x = solve_unique([[row[j] for j in b] for row in q.data], w)
        if x is not None and all(t >= 0 for t in x):
            supports.add(tuple(j for j, t in zip(b, x) if t))
    return supports


def fan_from_point_by_merging(q: IntMatrix, w, fan_matrix: IntMatrix | None = None) -> FanData:
    """Fan of the secondary-fan cell whose relative interior contains w,
    built without minimal supports: the candidates are the complements of
    the r-subsets J with w in the cone over Q_J; two candidates merge when
    w lies in the cone over the weight columns outside both and their
    cones share a wall from opposite sides, repeated to a fixpoint after
    absorbing subsets.  Validated like `toriq.fans.fan_from_point`."""
    m = q.cols
    r = q.rows
    w = tuple(Fraction(x) for x in w)
    if all(x == 0 for x in w):
        raise OutsideMoving("the zero class spans no cell")
    if not mov_cone(q).contains(w):
        raise OutsideMoving("point lies outside the moving cone")
    v = fan_matrix if fan_matrix is not None else gale_dual(q)
    if v.cols != m:
        raise RankDeficient("fan matrix has the wrong number of columns")

    cands = set()
    for j_set in itertools.combinations(range(m), r):
        qj = q.cols_at(list(j_set))
        if rank(qj) < r:
            continue
        if cone_contains(qj.columns(), w):
            cands.add(frozenset(_complement(j_set, m)))

    def q_cols(idx):
        return [q.col(j) for j in idx]

    def mergeable(g1, g2):
        comp = tuple(sorted(set(range(m)) - (g1 | g2)))
        if not comp or not cone_contains(q_cols(comp), w):
            return False
        walls1 = _cone_walls(v, tuple(sorted(g1)))
        walls2 = {(tuple(-x for x in a), wall) for a, wall in _cone_walls(v, tuple(sorted(g2)))}
        return any((a, wall) in walls2 for a, wall in walls1)

    cones = sorted(cands, key=sorted)
    changed = True
    while changed:
        changed = False
        cones = [g for g in cones if not any(g < h for h in cones)]
        for g1, g2 in itertools.combinations(cones, 2):
            if mergeable(g1, g2):
                merged = g1 | g2
                cones = [c for c in cones if c not in (g1, g2)]
                if merged not in cones:
                    cones.append(merged)
                cones.sort(key=sorted)
                changed = True
                break

    fan = FanData(v, [tuple(sorted(g)) for g in cones])
    for g in fan.max_cones:
        if not cone_contains(q_cols(_complement(g, m)), w, strict=True):
            raise InvalidFan(f"cell point is not interior to the dual cone of {tuple(g)}")
    if not is_complete(fan):
        raise InvalidFan("merged cones do not form a complete fan")
    return fan


def _lattice_contains_diag(mat, fs) -> bool:
    """Does the upper-triangular lattice basis contain diag(fs) Z^s?

    Forward substitution of each f_j e_j against the rows, integer
    remainders checked on the way.
    """
    s = len(fs)
    for j in range(s):
        x = [0] * s
        for t in range(s):
            acc = (fs[j] if t == j else 0) - sum(x[i] * mat[i][t] for i in range(t))
            x[t], rem = divmod(acc, mat[t][t])
            if rem:
                return False
    return True


def subgroups_by_filter(g: FiniteAbelianGroup, order: int | None = None):
    """`toriq.classify.subgroups` by generate-and-filter: every
    upper-triangular matrix with pivots d_t | f_t and entries in [0, d_t)
    above them, kept when its lattice contains diag(f)."""
    fs = g.invariant_factors
    s = len(fs)
    total = g.order
    out = []
    pos = [(i, j) for j in range(s) for i in range(j)]
    for diag in itertools.product(*[[d for d in range(1, f + 1) if f % d == 0] for f in fs]):
        det = math.prod(diag)
        if order is not None and total // det != order:
            continue
        for combo in itertools.product(*[range(diag[j]) for (_, j) in pos]):
            mat = [[diag[t] if i == t else 0 for t in range(s)] for i in range(s)]
            for val, (i, j) in zip(combo, pos):
                mat[i][j] = val
            if _lattice_contains_diag(mat, fs):
                out.append(SubgroupHandle(ambient=g, matrix=IntMatrix(mat), order=total // det))
    out.sort(key=lambda sub: (sub.order, sub.matrix.data))
    return out


def gl_cells_by_det(m: IntMatrix) -> list:
    """The cell of each column, as `gale._column_cells` defines it, with
    one `det` per r-subset of the nonzero HNF rows."""
    h, _ = hnf(m)
    rows = IntMatrix([r for r in h.data if any(r)])
    if not rows.rows:
        return [0] * m.cols
    minor = {s: abs(rows.cols_at(s).det()) for s in itertools.combinations(range(m.cols), rows.rows)}

    def numbered(labels):
        order = sorted(set(labels))
        return [order.index(x) for x in labels]

    label = numbered([tuple(sorted(x for s, x in minor.items() if j in s)) for j in range(m.cols)])
    while True:
        new = numbered([
            (label[j], tuple(sorted(
                (x, tuple(sorted(label[i] for i in s if i != j))) for s, x in minor.items() if j in s
            )))
            for j in range(m.cols)
        ])
        if len(set(new)) == len(set(label)):
            return label
        label = new


def gl_canonical_form_by_prefix_hnf(m: IntMatrix, label=None):
    """(key, perm, H, U) of `gale.gl_canonical_form`, with one full row
    HNF of the reordered prefix at every node of the search; the orders
    searched keep the cells of `gl_cells_by_det` together, in their order.
    label=[0] * m.cols searches every order (the key before cells)."""
    cols = m.columns()
    if label is None:
        label = gl_cells_by_det(m)
    slots = sorted(label)
    best = {"key": None, "perm": None}

    def dfs(chosen, remaining):
        h, _ = hnf(IntMatrix._of(zip(*[cols[i] for i in chosen])))
        key = tuple(h[i, j] for j in range(len(chosen)) for i in range(h.rows))
        if best["key"] is not None and key > best["key"][: len(key)]:
            return
        if not remaining:
            if best["key"] is None or key < best["key"]:
                best["key"] = key
                best["perm"] = tuple(chosen)
            return
        tried = set()
        for i in remaining:
            c = cols[i]
            if label[i] != slots[len(chosen)] or c in tried:
                continue
            tried.add(c)
            dfs(chosen + [i], [x for x in remaining if x != i])

    dfs([], list(range(len(cols))))
    perm = best["perm"]
    h, u = hnf(IntMatrix._of(zip(*[cols[i] for i in perm])))
    return best["key"], perm, h, u


def quotient_fan_matrix_by_kernel(w: IntMatrix, gamma: TorsionMatrix, sub: SubgroupHandle) -> IntMatrix:
    """S * w for the HNF basis S of the invariant lattice M_H = {m : C m
    = 0 (mod big)}: the m-part of the kernel of [C | -big I], then the
    row HNF of its columns."""
    fs = gamma.ambient.invariant_factors
    big = math.lcm(*fs) if fs else 1
    gens = [[(big // d) * x for x, d in zip(a, fs)] for a in sub.generators if any(a)]
    if not gens:
        return w
    cmat = IntMatrix(gens) * (w * IntMatrix(gamma.columns)).t()
    k = kernel_basis(cmat.hstack(IntMatrix.identity(len(gens)) * -big))
    basis, _ = hnf(k.rows_at(range(w.rows)).t())
    return IntMatrix([r for r in basis.data if any(r)]) * w


def invariant_basis_by_congruence_hnf(action: IntMatrix, sub: SubgroupHandle) -> IntMatrix:
    """The HNF basis S of the invariant lattice M_H = {m : C m = 0 (mod
    big)}, C the generators scaled to big = lcm(f) times the action: the
    second block of the row HNF of (C^T e_i | e_i) and (-big e_k | 0)
    past its first pivots, checked by comparing coker(S^T) with the
    subgroup's group type (two Smith reductions)."""
    fs = sub.ambient.invariant_factors
    n = action.rows
    big = math.lcm(*fs) if fs else 1
    gens = [[(big // d) * x for x, d in zip(a, fs)] for a in sub.generators if any(a)]
    if not gens:
        return IntMatrix.identity(n)
    cmat = IntMatrix(gens) * action.t()
    g = len(gens)
    h, _ = hnf(IntMatrix([list(c) + [int(i == j) for j in range(n)] for i, c in enumerate(zip(*cmat.data))]
                         + [[-big * (i == k) for k in range(g)] + [0] * n for i in range(g)]))
    s = IntMatrix([row[g:] for row in h.data[g:]])
    if cokernel(s.t()) != sub.group_type():
        raise InconsistentAction("quotient covering group differs from the subgroup")
    return s


def _encode(obj):
    """The payload as plain JSON values, for `json.dumps(..., sort_keys=True,
    indent=2)` to give the text `cli.emit` writes in one walk: integers
    beyond the 53-bit safe range as decimal strings, a Fraction as "p/q"
    (an integer when q = 1), tuples and IntMatrix rows as lists."""
    if isinstance(obj, dict):
        return {k: _encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_encode(v) for v in obj]
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return str(obj) if abs(obj) > _SAFE else obj
    if isinstance(obj, Fraction):
        if obj.denominator == 1:
            return _encode(obj.numerator)
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, IntMatrix):
        return [_encode(list(r)) for r in obj.data]
    return obj


def _is_diagonal(m: IntMatrix) -> bool:
    return all(m.data[i][j] == 0 for i in range(m.rows) for j in range(m.cols) if i != j)


def snf_by_alternating_hnf(a: IntMatrix) -> SnfDecomposition:
    """Smith normal form with transforms, P*a*U = D, by alternating row
    and column `hnf` calls (transforms multiplied as IntMatrix products)
    until the matrix is diagonal, then permuting the pivots onto the
    diagonal and repairing the divisibility chain by adding column j to
    column i for the first offending pair (i, j) and starting over."""
    m = a
    p = IntMatrix.identity(a.rows)
    u = IntMatrix.identity(a.cols)
    rounds = 0
    while True:
        rounds += 1
        if rounds > 500:
            raise NotConverged("Smith reduction failed to converge")
        while not _is_diagonal(m):
            h, left = hnf(m)
            p = left * p
            m = h
            if _is_diagonal(m):
                break
            ht, right = hnf(m.t())
            u = u * right.t()
            m = ht.t()
        # pull the diagonal entries onto the main diagonal (row HNF can
        # leave pivots in later columns when earlier columns vanish)
        rows = [list(r) for r in m.data]
        perm = []
        used = set()
        for i in range(m.rows):
            piv = next((j for j in range(m.cols) if rows[i][j]), None)
            if piv is not None:
                perm.append(piv)
                used.add(piv)
        perm += [j for j in range(m.cols) if j not in used]
        if perm != list(range(m.cols)):
            s = IntMatrix([[1 if perm[j] == i else 0 for j in range(m.cols)] for i in range(m.cols)])
            m = m * s
            u = u * s
            continue
        diag = [m.data[i][i] for i in range(min(m.rows, m.cols))]
        offender = None
        for i in range(len(diag)):
            for j in range(i + 1, len(diag)):
                if diag[i] and diag[j] % diag[i] != 0 or (diag[i] == 0 and diag[j] != 0):
                    offender = (i, j)
                    break
            if offender:
                break
        if offender is None:
            break
        i, j = offender
        coldata = [[int(r == c) for c in range(m.cols)] for r in range(m.cols)]
        coldata[j][i] = 1  # column i += column j
        col = IntMatrix(coldata)
        m = m * col
        u = u * col

    pdata = [list(r) for r in p.data]
    mdata = [list(r) for r in m.data]
    for i in range(min(m.rows, m.cols)):
        if mdata[i][i] < 0:
            mdata[i] = [-x for x in mdata[i]]
            pdata[i] = [-x for x in pdata[i]]
    return SnfDecomposition(IntMatrix(mdata), IntMatrix(pdata), u)


def solve_integer_by_smith(a: IntMatrix, b):
    """Some integer solution x of a*x = b, or None if none exists, read
    off the Smith decomposition P*a*U = D (checked): y = P*b, z_i = y_i /
    d_i on the diagonal (y_i = 0 where d_i = 0) and x = U*z."""
    dec = snf(a)
    if dec.P * a * dec.U != dec.D:
        raise AssertionError(f"P*a*U is not the Smith form of {a}")
    y = dec.P.mul_vec(tuple(int(x) for x in b))
    diag = dec.diagonal
    z = [0] * a.cols
    for i in range(a.rows):
        d = diag[i] if i < len(diag) else 0
        if d == 0:
            if y[i] != 0:
                return None
        else:
            if y[i] % d:
                return None
            z[i] = y[i] // d
    return dec.U.mul_vec(tuple(z))


def mcmullen_by_linear_search(n: int, r: int) -> int:
    """Least w > n meeting McMullen's parity-split binomial inequality,
    by trying w = n + 1, n + 2, ... in turn (the even case in Fractions)."""
    half, odd = divmod(n, 2)
    w = n
    while True:
        w += 1
        if odd:
            if 2 * math.comb(w - half - 1, half) >= 2 * half + r + 1:
                return w
        else:
            if Fraction(w, half) * math.comb(w - half - 1, half - 1) >= 2 * half + r:
                return w
