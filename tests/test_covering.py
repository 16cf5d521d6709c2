import itertools
import os
import random
from math import lcm

import pytest

from conftest import FIXTURES, fixture_path
from toriq.cli import load_document, resolve_variety
from toriq.covering import (
    analyze,
    fano_splitting,
    mds_multiplicity,
    multiplicity,
    universal_cover,
    weight_modulus,
)
from toriq.errors import InvalidFan, NotFMatrix, NotReflexive, RankDeficient
from toriq.fans import FanData, face_fan, fan_from_point
from toriq.gale import gale_dual, gl_equivalent
from toriq.intmat import FiniteAbelianGroup, IntMatrix, cokernel

BLUP_V = IntMatrix([[1, 0, 0, 0, -1, 1], [0, 1, 0, 0, -1, 1], [0, 0, 1, -1, -1, 1]])
SIGMA = [(1, 3, 4), (1, 2, 4), (0, 3, 4), (0, 2, 4), (0, 1, 3, 5), (1, 2, 5), (0, 2, 5)]
BAUERLE_V = IntMatrix([[1, 9, -7], [0, 16, -12]])
QFC_V = IntMatrix([[1, 1, -2, 0, 0], [0, 3, -3, 1, -1], [0, 0, 0, 2, -2]])
MDS_V = IntMatrix([[1, 0, 5, -2, -3], [0, 1, 3, -3, -2], [0, 0, 6, -3, -3]])


def test_universal_cover_qfanocanonica():
    fan = face_fan(QFC_V)
    w, b, g = universal_cover(QFC_V)
    p2p1 = IntMatrix([[1, 0, -1, 0, 0], [0, 1, -1, 0, 0], [0, 0, 0, 1, -1]])
    assert gl_equivalent(w, p2p1)[0]
    assert g == FiniteAbelianGroup((6,))
    # the input fan's cones, on the same index sets, form a fan over W
    assert FanData(w, fan.max_cones).max_cones == fan.max_cones


def test_universal_cover_bauerle():
    w, b, g = universal_cover(BAUERLE_V)
    assert gl_equivalent(w, IntMatrix([[1, 1, -1], [0, 4, -3]]))[0]
    assert g == FiniteAbelianGroup((4,))
    assert abs(b.det()) == 4


def test_universal_cover_of_cf_matrix_is_trivial():
    w, b, g = universal_cover(BLUP_V)
    assert gl_equivalent(w, BLUP_V)[0]
    assert g.is_trivial()


def test_multiplicity():
    assert multiplicity(QFC_V) == 6
    lam = IntMatrix([[-1, -1, -1, -1, 1, 1], [-1, -1, 1, 1, -1, 1], [-1, 1, -1, 1, 1, -1]])
    assert multiplicity(lam) == 4
    assert multiplicity(BLUP_V) == 1
    with pytest.raises(RankDeficient):
        multiplicity(IntMatrix([[1, 2], [2, 4]]))


def test_weight_modulus():
    q = gale_dual(BLUP_V)
    assert weight_modulus(q) == 8
    cd = analyze(BLUP_V, FanData(BLUP_V, SIGMA))
    assert weight_modulus(cd.Qpolar) == 12
    assert weight_modulus(IntMatrix([[1, 3, 4]])) == 8
    assert weight_modulus(IntMatrix([[1, 1, 1]])) == 3


def test_polar_weight():
    cd = analyze(BLUP_V, FanData(BLUP_V, SIGMA))
    qpol, k = cd.Qpolar, cd.k
    assert k == 1
    printed = IntMatrix(
        [[1, 1, 1, 0, 0, 0, 1], [0, 1, 0, 0, 0, 1, 0], [0, 0, 1, 0, 1, 0, 0], [1, 0, 0, 1, 1, 1, 0]]
    )
    assert gl_equivalent(qpol, printed)[0]
    # rank-1: the polar weight is the weight itself (up to column order,
    # since polar columns are indexed by maximal cones)
    cd_b = analyze(BAUERLE_V, face_fan(BAUERLE_V))
    qpol_b, k_b = cd_b.Qpolar, cd_b.k
    assert k_b == 6
    assert gl_equivalent(qpol_b, IntMatrix([[1, 3, 4]]))[0]


def test_weight_group_bauerle():
    q = IntMatrix([[1, 3, 4]])
    fan = face_fan(gale_dual(q))
    cd = analyze(fan.fan_matrix, fan)
    assert cd.weight_group_type == FiniteAbelianGroup((6,))
    assert cd.weight_order == 6


def test_weight_group_blowup_and_mds():
    fan = FanData(BLUP_V, SIGMA)
    cd = analyze(BLUP_V, fan)
    assert cd.weight_group_type == FiniteAbelianGroup((2, 2))
    q = gale_dual(MDS_V)
    anti = tuple(sum(r) for r in q.data)
    qfan = fan_from_point(q, anti)
    cd_q = analyze(qfan.fan_matrix, qfan)
    assert cd_q.weight_group_type == FiniteAbelianGroup((15, 30))
    assert cd_q.weight_order == 450


def test_h_extension():
    fan = face_fan(BAUERLE_V)
    cd = analyze(BAUERLE_V, fan)
    cd_w = analyze(cd.W, face_fan(cd.W))
    assert cd.h == 2
    assert cd.h_extension_type == FiniteAbelianGroup((2, 12))
    assert cd.h_extension_type.order == 2 ** 2 * cd_w.weight_order
    assert cokernel(cd.A.t()) == cd_w.weight_group_type
    trivial_a = IntMatrix.identity(2)
    assert cokernel(trivial_a * 3) == FiniteAbelianGroup((3, 3))


def test_factor():
    assert analyze(BAUERLE_V, face_fan(BAUERLE_V)).h == 2
    assert analyze(QFC_V, face_fan(QFC_V)).h == 2
    assert analyze(BLUP_V, FanData(BLUP_V, SIGMA)).h == 1


def test_degrees():
    fan = FanData(BLUP_V, SIGMA)
    assert analyze(BLUP_V, fan).degree == 48
    cd = analyze(BAUERLE_V, face_fan(BAUERLE_V))
    assert cd.k == 6
    assert cd.degree_scaled == 48
    p2 = IntMatrix([[1, 0, -1], [0, 1, -1]])
    assert analyze(p2, face_fan(p2)).degree == 9


def test_polar_sides_in_lattice_coordinates():
    # Vpolar = k V°, Wpolar = k̂ W° and Lambda = k̂ Λ = A W; on the face
    # fan the cones' polar points are the columns of Vpolar over k
    from fractions import Fraction

    from toriq.polytope import polar_vertex_matrix

    fan = face_fan(BAUERLE_V)
    cd = analyze(BAUERLE_V, fan)
    assert (cd.k, cd.k_hat, cd.h) == (6, 3, 2)
    assert cd.B.t() * cd.Vpolar == cd.Wpolar * cd.h
    assert cd.Lambda == cd.A * cd.W
    assert cd.degree == Fraction(cd.degree_scaled, 6 ** 2) == Fraction(4, 3)
    assert polar_vertex_matrix(BAUERLE_V, fan) == (cd.Vpolar, cd.k)


def test_fano_splitting_blowup():
    fan = FanData(BLUP_V, SIGMA)
    b, c, a, g, g_pol = fano_splitting(BLUP_V, fan)
    assert g.is_trivial()
    assert g_pol.order == 4
    assert a == c.t() * b


def test_fano_splitting_quotient():
    v1 = IntMatrix([[1, 0, 0, 0, -1, 1], [0, 1, 1, -1, -2, 2], [0, 0, 2, -2, -2, 2]])
    fan = FanData(v1, SIGMA)
    b, c, a, g, g_pol = fano_splitting(v1, fan)
    assert g.order == 2 and g_pol.order == 2
    assert g.direct_sum(g_pol) == FiniteAbelianGroup((2, 2))


def test_fano_splitting_maximal_quotient():
    lam = IntMatrix([[-1, -1, -1, 1, 2], [0, 0, 1, -1, 0], [-1, 2, -1, 1, -1]])
    fan = face_fan(lam)
    b, c, a, g, g_pol = fano_splitting(lam, fan)
    assert g.order == 3 and g_pol.is_trivial()


def test_fano_splitting_requires_reflexive():
    with pytest.raises(NotReflexive):
        fano_splitting(BAUERLE_V, face_fan(BAUERLE_V))


def test_mds_multiplicity():
    q = gale_dual(MDS_V)
    anti = tuple(sum(r) for r in q.data)
    fan = fan_from_point(q, anti, fan_matrix=MDS_V)
    assert mds_multiplicity(q, fan) == 3


def test_covering_identities():
    # mult * |Q| = n! Vol(conv V); mult(X) mult(X0) = g_Q; index divides
    from toriq.polytope import VPolytope, fmatrix_index, normalized_volume

    for v, fan in (
        (BLUP_V, FanData(BLUP_V, SIGMA)),
        (BAUERLE_V, face_fan(BAUERLE_V)),
        (QFC_V, face_fan(QFC_V)),
    ):
        cd = analyze(v, fan)
        assert cd.mult * cd.modulus == normalized_volume(VPolytope(v))
        assert fmatrix_index(cd.W) == cd.k_hat
        assert cd.k % cd.k_hat == 0
        assert cd.weight_order == abs(cd.A.det())
        assert cd.h_extension_order == cd.h ** cd.n * cd.weight_order
        assert cokernel(cd.A).invariant_factors == cokernel(cd.A.t()).invariant_factors


def test_fano_triple_product():
    fan = FanData(BLUP_V, SIGMA)
    cd = analyze(BLUP_V, fan)
    g_pol = cokernel(cd.C.t())
    assert (cd.G.order or 1) * (g_pol.order or 1) == cd.weight_order


def test_analyze_refuses_a_fan_over_another_matrix():
    # the cones are checked on the fan's own matrix, so a fan over another
    # matrix would have certified the wrong one
    v = IntMatrix([[1, 0, -1, 0], [0, 1, 0, -1]])
    cones = [(0, 1), (1, 2), (2, 3), (3, 0)]
    assert analyze(v, FanData(v, cones)).fan.fan_matrix == v
    with pytest.raises(InvalidFan, match="not over"):
        analyze(v, FanData(IntMatrix([[1, 0, -1, -1], [0, 1, 1, -1]]), cones))


def test_mds_multiplicity_checks_the_gale_dual_first():
    # G(q) is checked as a fan matrix before the anticanonical fan of q is
    # built: a repeated column (F.d) raises NotFMatrix, not InvalidFan,
    # and a zero column (F.c) raises NotFMatrix, not OutsideMoving
    p2 = IntMatrix([[1, 0, -1], [0, 1, -1]])
    for v in ([[1, 0, -1, 1], [0, 1, -1, 0]], [[1, 0, -1, 0], [0, 1, -1, 0]]):
        with pytest.raises(NotFMatrix):
            mds_multiplicity(gale_dual(IntMatrix(v)), face_fan(p2))


def test_mds_multiplicity_free_class_group():
    p2 = IntMatrix([[1, 0, -1], [0, 1, -1]])
    q = gale_dual(p2)
    assert mds_multiplicity(q, face_fan(p2)) == 1


def test_product_invariants_follow_the_factors():
    # X x Y has fan matrix V_X + V_Y (block diagonal) with the product
    # cones; its fan polytope is the free sum of the factors', whose polar
    # is the product of their polars.  On a seeded 15 of the 105 products
    # of the 13 reflexive surfaces and bauerle (n = 4): mult and |Q|
    # multiply, k and k-hat are lcms, G is the direct sum, and the degree
    # and cover degree are C(4, 2) = 6 times the product of the factors'.
    # The weight order is not multiplicative: the polar side of a
    # product is not a product
    names = sorted(f[:-5] for f in os.listdir(FIXTURES) if f.startswith("dim2_")) + ["bauerle"]
    assert len(names) == 14
    pairs = random.Random(31).sample(list(itertools.combinations_with_replacement(names, 2)), 15)
    for x, y in pairs:
        (vx, fx), (vy, fy) = (resolve_variety(load_document(fixture_path(name))) for name in (x, y))
        v = IntMatrix([list(r) + [0] * vy.cols for r in vx.data] + [[0] * vx.cols + list(r) for r in vy.data])
        fan = FanData(v, [tuple(g) + tuple(vx.cols + j for j in h) for g in fx.max_cones for h in fy.max_cones])
        cd, cx, cy = analyze(v, fan), analyze(vx, fx), analyze(vy, fy)
        assert cd.mult == cx.mult * cy.mult, (x, y)
        assert cd.modulus == cx.modulus * cy.modulus, (x, y)
        assert (cd.k, cd.k_hat) == (lcm(cx.k, cy.k), lcm(cx.k_hat, cy.k_hat)), (x, y)
        assert cd.G == cx.G.direct_sum(cy.G), (x, y)
        assert cd.degree == 6 * cx.degree * cy.degree, (x, y)
        assert cd.cover_degree == 6 * cx.cover_degree * cy.cover_degree, (x, y)
