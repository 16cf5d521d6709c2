import glob
import itertools
import math
import os
import random
import warnings
from fractions import Fraction

from collections import Counter

import pytest

from conftest import FIXTURES
from oracles import lattice_points_by_box, lattice_points_last_coordinate, slab_volume
from toriq.errors import NotFullDimensional, OriginNotInterior
from toriq.fans import FanData
from toriq.intmat import IntMatrix
from toriq.polytope import (
    VPolytope,
    facet_enumeration,
    fmatrix_index,
    interior_lattice_points,
    is_reflexive,
    lattice_points,
    normalized_volume,
    polar_dual,
    polar_vertex_matrix,
)

BLUP_V = IntMatrix([[1, 0, 0, 0, -1, 1], [0, 1, 0, 0, -1, 1], [0, 0, 1, -1, -1, 1]])
BAUERLE_V = IntMatrix([[1, 9, -7], [0, 16, -12]])
BAUERLE_W = IntMatrix([[1, 1, -1], [0, 4, -3]])
P2P1_W = IntMatrix([[1, 0, -1, 0, 0], [0, 1, -1, 0, 0], [0, 0, 0, 1, -1]])


def over_common_denominator(cols):
    """(P, D): columns of ints or Fractions as integer numerator columns
    over the lcm D of their denominators."""
    cols = [[Fraction(x) for x in c] for c in cols]
    den = math.lcm(*(x.denominator for c in cols for x in c))
    return IntMatrix.from_columns([[x.numerator * (den // x.denominator) for x in c] for c in cols]), den


def simplex_matrix(n):
    cols = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    cols.append([-1] * n)
    return IntMatrix.from_columns(cols)


def test_facets_of_standard_simplex():
    for n in (2, 3, 4):
        h = facet_enumeration(VPolytope(simplex_matrix(n)))
        assert len(h.facets) == n + 1
        assert all(f.offset == 1 for f in h.facets)


def test_facets_of_product_polytope():
    h = facet_enumeration(VPolytope(P2P1_W))
    assert len(h.facets) == 6


def test_facet_postconditions():
    p = VPolytope(BLUP_V)
    h = facet_enumeration(p)
    verts = p.vertex_list()
    for f in h.facets:
        assert all(
            sum(a * x for a, x in zip(f.normal, v)) >= -f.offset for v in verts
        )
        assert len(f.incident) >= p.dim


def test_not_full_dimensional():
    with pytest.raises(NotFullDimensional):
        facet_enumeration(VPolytope(IntMatrix([[0, 1], [0, 0]])))


def test_nonvertex_columns_pruned():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        p = VPolytope(IntMatrix([[2, 0, -2, 0, 1], [0, 2, -2, 0, 1]]))
    assert p.pruned
    assert p.vertices.cols == 3
    assert caught


def test_hull_built_once_per_polytope(monkeypatch):
    import toriq.polytope as polytope

    calls = []
    hull = polytope._hull
    monkeypatch.setattr(polytope, "_hull", lambda pts: calls.append(pts) or hull(pts))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p = VPolytope(IntMatrix([[0, 2, 1, 0, -2, 0, 1], [0, 0, 0, 2, -2, 0, 1]]))
    facets = facet_enumeration(p)
    volume = normalized_volume(p)
    points = polytope.lattice_points(p)
    assert len(calls) == 1
    # the pruning hull's facet bitmasks, re-indexed to the kept vertices,
    # equal those of a hull built on the vertices alone
    fresh = VPolytope(p.vertices, p.den)
    assert facet_enumeration(fresh) == facets
    assert normalized_volume(fresh) == volume == 12
    assert polytope.lattice_points(fresh) == points
    assert len(calls) == 2


def test_normalized_volume_values():
    assert normalized_volume(VPolytope(BLUP_V)) == 8
    vpol = IntMatrix(
        [[-1, -1, -1, -1, 1, 1, 3], [-1, 1, 1, 3, -1, -1, -1], [1, -1, 1, -1, -1, 1, -1]]
    )
    assert normalized_volume(VPolytope(vpol)) == 48
    unit = IntMatrix.from_columns([[0, 0], [1, 0], [0, 1]])
    assert normalized_volume(VPolytope(unit)) == 1


def test_volume_against_slab_oracle():
    for m in (BLUP_V, BAUERLE_V, BAUERLE_W, P2P1_W, simplex_matrix(3)):
        p = VPolytope(m)
        assert normalized_volume(p) == slab_volume(p)


def _random_polytopes(rng, count):
    """Full-dimensional integer polytopes of dimension 1-4 (vertices in
    [-2, 2]) and, when the origin is interior, their rational polars."""
    out = []
    while len(out) < count:
        n = rng.randint(1, 4)
        cols = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(n + 1, n + 4))]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            p = VPolytope(IntMatrix.from_columns(cols))
        try:
            facet_enumeration(p)
        except NotFullDimensional:
            continue
        out.append(p)
        try:
            out.append(polar_dual(p))
        except OriginNotInterior:
            pass
    return out


def test_lattice_points_match_box_scan():
    # conv(V) of the product bauerle x dim2_r1_1: a 3*3*17*29 box, 153
    # prefixes for the line intervals
    product = IntMatrix(
        [
            [1, 0, -1, 0, 0, 0],
            [0, 1, -1, 0, 0, 0],
            [0, 0, 0, 1, 9, -7],
            [0, 0, 0, 0, 16, -12],
        ]
    )
    polytopes = [VPolytope(product), polar_dual(VPolytope(product))]
    polytopes += _random_polytopes(random.Random(3), 80)
    assert {p.dim for p in polytopes} == {1, 2, 3, 4}
    assert any(p.den > 1 for p in polytopes)
    for p in polytopes:
        for strict in (False, True):
            assert lattice_points(p, strict) == lattice_points_by_box(p, strict)


def test_rational_volume_against_slab_oracle():
    # rational points with denominators 1-6: the determinants of the
    # integer rows (D, D*v), divided once by D^(n+1), against slab
    # integration
    rng = random.Random(31)
    checked = Counter()
    while sum(checked.values()) < 300:
        n, top = rng.randint(2, 3), rng.randint(1, 6)
        cols = [
            [Fraction(rng.randint(-4, 4), den) for _ in range(n)]
            for den in (rng.randint(1, top) for _ in range(rng.randint(n + 1, n + 3)))
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            p = VPolytope(*over_common_denominator(cols))
        try:
            facet_enumeration(p)
        except NotFullDimensional:
            continue
        assert normalized_volume(p) == slab_volume(p), cols
        checked[p.dim, p.den > 1] += 1
    assert min(checked.values()) >= 20 and len(checked) == 4, checked


def _block_diag(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    return IntMatrix(
        [row + (0,) * b.cols for row in a.data] + [(0,) * a.cols + row for row in b.data]
    )


def _gl_variant(rng, v: IntMatrix) -> IntMatrix:
    """U * v with U a signed coordinate permutation times one shear, and
    the columns permuted."""
    n = v.rows
    perm = rng.sample(range(n), n)
    u = [[rng.choice((-1, 1)) if j == perm[i] else 0 for j in range(n)] for i in range(n)]
    if n >= 2:
        i, j = rng.sample(range(n), 2)
        u[i] = [a + rng.choice((-1, 1)) * b for a, b in zip(u[i], u[j])]
    moved = IntMatrix(u) * v
    return moved.cols_at(rng.sample(range(v.cols), v.cols))


def test_widest_line_matches_last_coordinate_line():
    # the widest coordinate as the line gives the same sorted points as
    # the last coordinate, on GL x permutation variants of the fixture
    # polytopes, of 40 of the products of two fixture surfaces, and of
    # their polars
    from toriq.cli import load_document, resolve_variety

    fans = [resolve_variety(load_document(p))[0] for p in sorted(glob.glob(os.path.join(FIXTURES, "*.json")))]
    surfaces = [v for v in fans if v.rows == 2]
    rng = random.Random(37)
    pairs = rng.sample(list(itertools.combinations(surfaces, 2)), 40)
    bases = fans + [_block_diag(a, b) for a, b in pairs]
    checked = Counter()
    for base in bases:
        for _ in range(2):
            v = _gl_variant(rng, base)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                polytopes = [VPolytope(v)]
            try:
                polytopes.append(polar_dual(polytopes[0]))
            except OriginNotInterior:
                pass
            for p in polytopes:
                for strict in (False, True):
                    assert lattice_points(p, strict) == lattice_points_last_coordinate(p, strict), v
                checked[p.dim, p.den == 1] += 1
    assert sum(checked.values()) >= 200 and len(checked) >= 4, checked


def test_widest_line_prefix_count(monkeypatch):
    # conv(V) of bauerle x dim2_r1_1 in block order has a 17 x 29 x 3 x 3
    # box: the last coordinate as the line scans 17 * 29 * 3 = 1,479
    # prefixes, the widest (29) 17 * 3 * 3 = 153
    import oracles
    import toriq.polytope as polytope

    p = VPolytope(_block_diag(BAUERLE_V, IntMatrix([[1, 0, -1], [0, 1, -1]])))
    counts = Counter()
    product = itertools.product

    def counted(*ranges):
        for prefix in product(*ranges):
            counts["prefixes"] += 1
            yield prefix

    monkeypatch.setattr(polytope.itertools, "product", counted)
    assert oracles.itertools is polytope.itertools
    want = lattice_points_last_coordinate(p)
    assert counts.pop("prefixes") == 1479
    assert lattice_points(p) == want
    assert counts.pop("prefixes") == 153


def test_interior_lattice_points():
    assert len(interior_lattice_points(VPolytope(BAUERLE_W))) == 2
    assert len(interior_lattice_points(VPolytope(BAUERLE_V))) == 9
    vq = IntMatrix([[1, 1, -2, 0, 0], [0, 3, -3, 1, -1], [0, 0, 0, 2, -2]])
    assert interior_lattice_points(VPolytope(vq)) == [(0, 0, 0)]


def test_is_reflexive():
    assert is_reflexive(VPolytope(P2P1_W))
    assert is_reflexive(VPolytope(simplex_matrix(3)))
    vq = IntMatrix([[1, 1, -2, 0, 0], [0, 3, -3, 1, -1], [0, 0, 0, 2, -2]])
    assert not is_reflexive(VPolytope(vq))


def test_polar_involution():
    for m in (P2P1_W, simplex_matrix(3), BLUP_V):
        p = VPolytope(m)
        back = polar_dual(polar_dual(p))
        assert back.den == p.den == 1
        assert set(back.vertices.columns()) == set(p.vertices.columns())


def test_polar_dual_is_the_shared_polytope_in_sorted_order():
    # polar_dual returns the one cached polytope of the polar points, so
    # its vertices come in sorted column order, not in hull-row order, and
    # a second call returns the same object
    from toriq.polytope import _polytope

    for m in (P2P1_W, simplex_matrix(3), BLUP_V, BAUERLE_V):
        polar = polar_dual(VPolytope(m))
        cols = polar.vertices.columns()
        assert cols == sorted(cols), m
        assert polar is _polytope(polar.vertices, polar.den) is polar_dual(VPolytope(m))


def test_polar_requires_interior_origin():
    shifted = IntMatrix.from_columns([[1, 0], [2, 0], [1, 1]])
    with pytest.raises(OriginNotInterior):
        polar_dual(VPolytope(shifted))


def test_fmatrix_index():
    assert fmatrix_index(BAUERLE_V) == 6
    assert fmatrix_index(BAUERLE_W) == 3
    assert fmatrix_index(P2P1_W) == 1
    assert fmatrix_index(simplex_matrix(3)) == 1


@pytest.mark.filterwarnings("ignore:non-vertex columns pruned")
def test_hull_rows_match_the_per_facet_solve():
    # the index, reflexivity and the face fan, read off the hull rows
    # (c, a), agree with one polar point solved per facet of the public
    # facet_enumeration, on V and W of every complete fixture, on the
    # fan-type matrices of the CLI fuzz (seeds 1-3), and on a seeded
    # U*v*S of each (U unimodular, S a column permutation), whose face fan
    # cones are permuted back to the columns of v; the polar point of each
    # cone of a fixture's fan (face fans and their refinements), read off
    # the hull row whose facet holds it, is the one solved over its
    # generators, for V and W
    from oracles import facet_columns, index_by_facets, polar_points_by_elimination
    from test_fuzz import _documents
    from test_gale import _scramble
    from toriq.cli import load_document, resolve_variety
    from toriq.covering import analyze
    from toriq.fans import face_fan
    from toriq.gale import _fan_conditions

    mats = []
    for path in sorted(glob.glob(os.path.join(FIXTURES, "*.json"))):
        if os.path.basename(path) == "mds_W.json":
            continue  # deliberately non-complete
        v, fan = resolve_variety(load_document(path))
        cd = analyze(v, fan)
        # k and k̂ come from the cones' polar points; fmatrix_index reads
        # the lcm over every hull row, and is checked against the oracle below
        assert (cd.k, cd.k_hat) == (fmatrix_index(v), fmatrix_index(cd.W)), path
        mats += [v, cd.W]
        for x in mats[-2:]:
            assert polar_vertex_matrix(x, fan) == polar_points_by_elimination(x, fan.max_cones), (path, x)
    complete = len(mats)
    for seed in (1, 2, 3):
        for doc in _documents(random.Random(seed), 600):
            m = IntMatrix(doc["matrix"])
            if all(_fan_conditions(m)):
                mats.append(m)
    rng = random.Random(23)
    reflexive = 0
    for v in mats:
        k = index_by_facets(v)
        on_one = all(f.offset == 1 for f in facet_enumeration(VPolytope(v)).facets)
        facets = sorted(facet_columns(v))
        scrambled, perm = _scramble(rng, v)
        for w, back in ((v, range(v.cols)), (scrambled, perm)):
            assert fmatrix_index(w) == k, (v, w)
            assert is_reflexive(VPolytope(w)) == on_one, (v, w)
            assert sorted(tuple(sorted(back[j] for j in g)) for g in face_fan(w).max_cones) == facets, (v, w)
        reflexive += on_one
    assert complete == 64 and len(mats) > 500 and 0 < reflexive < len(mats)


def test_polar_vertex_matrix_blowup():
    fan = FanData(
        BLUP_V,
        [(1, 3, 4), (1, 2, 4), (0, 3, 4), (0, 2, 4), (0, 1, 3, 5), (1, 2, 5), (0, 2, 5)],
    )
    vpol, d = polar_vertex_matrix(BLUP_V, fan)
    printed = IntMatrix(
        [[-1, -1, -1, -1, 1, 1, 3], [-1, 1, 1, 3, -1, -1, -1], [1, -1, 1, -1, -1, 1, -1]]
    )
    assert d == 1
    assert set(vpol.columns()) == set(printed.columns())


def test_polar_vertex_matrix_rational():
    vq = IntMatrix([[1, 1, -2, 0, 0], [0, 3, -3, 1, -1], [0, 0, 0, 2, -2]])
    from toriq.fans import face_fan

    vpol, d = polar_vertex_matrix(vq, face_fan(vq))
    printed, den = over_common_denominator(
        zip(
            [-1, -1, -1, -1, 2, 2],
            [0, 0, 1, 1, -1, -1],
            [Fraction(-1, 2), Fraction(1, 2), -1, 0, 0, 1],
        )
    )
    assert d == den == 2
    assert set(vpol.columns()) == set(printed.columns())


def test_polar_vertices_of_projective_space():
    v = simplex_matrix(3)
    from toriq.fans import face_fan

    vpol, d = polar_vertex_matrix(v, face_fan(v))
    back = polar_dual(VPolytope(vpol, d))
    assert back.den == 1
    assert set(back.vertices.columns()) == set(v.columns())


def test_mcmullen_facet_lower_bound():
    from toriq.bounds import mcmullen

    for m in (BLUP_V, P2P1_W, simplex_matrix(3)):
        p = VPolytope(m)
        n = p.dim
        r = p.vertices.cols - n
        assert len(facet_enumeration(p).facets) >= mcmullen(n, r)


def test_lattice_polytope_offsets_integral():
    for m in (BLUP_V, BAUERLE_V, P2P1_W):
        for f in facet_enumeration(VPolytope(m)).facets:
            assert f.offset.denominator == 1


def twenty_four_cell():
    # the permutations of (+-1, +-1, 0, 0)
    pts = set()
    for i, j in itertools.combinations(range(4), 2):
        for si, sj in itertools.product((1, -1), repeat=2):
            p = [0] * 4
            p[i], p[j] = si, sj
            pts.add(tuple(p))
    return sorted(pts)


def test_twenty_four_cell():
    verts = twenty_four_cell()
    assert len(verts) == 24
    p = VPolytope(IntMatrix.from_columns(verts))
    h = facet_enumeration(p)
    assert len(h.facets) == 24
    assert all(len(f.incident) == 6 for f in h.facets)
    assert {f.offset for f in h.facets} <= {1, 2}
    assert normalized_volume(p) == 192


def test_twenty_four_cell_prunes_origin_and_edge_midpoints():
    verts = twenty_four_cell()
    # edges join the vertices at squared distance 2
    mids = {
        tuple(Fraction(a + b, 2) for a, b in zip(u, v))
        for u, v in itertools.combinations(verts, 2)
        if sum((a - b) ** 2 for a, b in zip(u, v)) == 2
    }
    assert len(mids) == 96
    cols = verts + [(0, 0, 0, 0)] + sorted(mids)
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        p = VPolytope(*over_common_denominator(cols))
    assert p.pruned
    # the midpoints carry the denominator 2; the vertices are integral
    assert p.den == 1
    assert set(p.vertex_list()) == set(verts)
