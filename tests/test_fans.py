import random

import pytest

from oracles import rays_covered
from toriq.errors import InvalidFan, OriginNotInterior, OutsideMoving
from toriq.fans import (
    FanData,
    eff_cone,
    face_fan,
    fan_from_point,
    is_complete,
    is_gorenstein_weight,
    is_qfano_weight,
    is_simplicial,
    mov_cone,
    nef_cone,
    qfano_representative,
)
from toriq.gale import gale_dual
from toriq.intmat import IntMatrix

BLUP_V = IntMatrix([[1, 0, 0, 0, -1, 1], [0, 1, 0, 0, -1, 1], [0, 0, 1, -1, -1, 1]])
BLUP_Q = IntMatrix([[1, 1, 1, 0, 1, 0], [0, 0, 1, 1, 0, 0], [0, 0, 0, 0, 1, 1]])
SIGMA = [(1, 3, 4), (1, 2, 4), (0, 3, 4), (0, 2, 4), (0, 1, 3, 5), (1, 2, 5), (0, 2, 5)]
SIGMA_HAT = [
    (1, 3, 4), (1, 2, 4), (0, 3, 4), (0, 2, 4),
    (1, 3, 5), (1, 2, 5), (0, 3, 5), (0, 2, 5),
]
MDS_V = IntMatrix([[1, 0, 5, -2, -3], [0, 1, 3, -3, -2], [0, 0, 6, -3, -3]])


def p2_fan():
    v = IntMatrix([[1, 0, -1], [0, 1, -1]])
    return v, face_fan(v)


def test_face_fan_p2():
    _, fan = p2_fan()
    assert len(fan.max_cones) == 3
    assert is_complete(fan) and is_simplicial(fan)


def test_face_fan_needs_interior_origin():
    with pytest.raises(OriginNotInterior):
        face_fan(IntMatrix.from_columns([[1, 0], [0, 1], [1, 1]]))


def test_face_fan_of_canonical_threefold_bipyramid():
    # conv of the maximal-quotient fan matrix is a triangular bipyramid:
    # its face fan has 6 simplicial cones, while the dual side has 5
    # maximal cones, three of them quadrilateral
    lam = IntMatrix([[-1, -1, -1, 1, 2], [0, 0, 1, -1, 0], [-1, 2, -1, 1, -1]])
    fan = face_fan(lam)
    assert len(fan.max_cones) == 6
    assert is_simplicial(fan) and is_complete(fan)
    lam_pol = IntMatrix(
        [[1, 1, 0, 0, -1, -1], [0, 2, 0, 2, -3, -1], [0, 0, 1, 1, -1, -1]]
    )
    dual_fan = face_fan(lam_pol)
    assert len(dual_fan.max_cones) == 5
    assert not is_simplicial(dual_fan) and is_complete(dual_fan)


def test_completeness_and_simpliciality():
    fan = FanData(BLUP_V, SIGMA)
    fan_hat = FanData(BLUP_V, SIGMA_HAT)
    assert is_complete(fan) and not is_simplicial(fan)
    assert is_complete(fan_hat) and is_simplicial(fan_hat)
    partial = FanData(BLUP_V, SIGMA[:3])
    assert not is_complete(partial)


def test_completeness_matches_ray_oracle():
    rng = random.Random(99)
    for cones, expect in ((SIGMA, True), (SIGMA_HAT, True)):
        fan = FanData(BLUP_V, cones)
        assert rays_covered(fan, rng) == expect
    # non-complete fan misses directions
    partial = FanData(MDS_V, [(2, 3, 4), (1, 2, 4), (0, 3, 4), (0, 1, 4), (0, 1, 2)])
    assert not is_complete(partial)
    assert not rays_covered(partial, rng)


def test_eff_and_mov_cones():
    eff = eff_cone(BLUP_Q)
    assert set(eff.generators) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    mov = mov_cone(BLUP_Q)
    assert set(mov.generators) == {(1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1)}
    ray = mov_cone(IntMatrix([[1, 1, 1]]))
    assert ray.generators == ((1,),)


def test_mds_moving_cone():
    q = gale_dual(MDS_V)
    mov = mov_cone(q)
    cols = {q.col(1), q.col(4)}  # second and fifth weight columns
    assert set(mov.generators) == cols


def test_nef_cones():
    fan_hat = FanData(BLUP_V, SIGMA_HAT)
    nef = nef_cone(BLUP_Q, fan_hat)
    assert set(nef.generators) == {(1, 0, 0), (1, 1, 0), (1, 0, 1)}
    fan = FanData(BLUP_V, SIGMA)
    nef2 = nef_cone(BLUP_Q, fan)
    assert set(nef2.generators) == {(1, 1, 0), (1, 0, 1)}
    v, fanp2 = p2_fan()
    assert nef_cone(gale_dual(v), fanp2).generators == ((1,),)


def test_gorenstein_weight():
    for q, expect in ((IntMatrix([[1, 1, 2]]), True), (IntMatrix([[1, 3, 4]]), False)):
        w = gale_dual(q)
        assert is_gorenstein_weight(q, face_fan(w)) is expect
    fan = FanData(BLUP_V, SIGMA)
    assert is_gorenstein_weight(gale_dual(BLUP_V), fan)


def test_qfano_weight():
    q134 = IntMatrix([[1, 3, 4]])
    assert is_qfano_weight(q134, face_fan(gale_dual(q134)))
    v, fanp2 = p2_fan()
    assert is_qfano_weight(IntMatrix([[1, 1, 1]]), fanp2)
    fan = FanData(BLUP_V, SIGMA)
    fan_hat = FanData(BLUP_V, SIGMA_HAT)
    q = gale_dual(BLUP_V)
    assert is_qfano_weight(q, fan)
    assert not is_qfano_weight(q, fan_hat)


def test_fan_from_point_blowup():
    q = gale_dual(BLUP_V)
    anti = tuple(sum(r) for r in q.data)
    fan = fan_from_point(q, anti, fan_matrix=BLUP_V)
    assert set(fan.max_cones) == set(FanData(BLUP_V, SIGMA).max_cones)


def test_fan_from_point_mds_contraction():
    q = gale_dual(MDS_V)
    anti = tuple(sum(r) for r in q.data)
    fan = fan_from_point(q, anti, fan_matrix=MDS_V)
    assert (0, 1, 3, 4) in fan.max_cones  # the contracted non-simplicial cone
    assert is_complete(fan)
    assert is_qfano_weight(q, fan)


def test_fan_from_point_p2():
    q = IntMatrix([[1, 1, 1]])
    fan = fan_from_point(q, (3,))
    assert len(fan.max_cones) == 3
    assert is_simplicial(fan)


def test_fan_from_point_outside_moving():
    q = gale_dual(MDS_V)
    with pytest.raises(OutsideMoving):
        fan_from_point(q, (1, 0))
    with pytest.raises(OutsideMoving):
        fan_from_point(q, (0, 0))


def test_qfano_representative():
    fan = qfano_representative(BLUP_V)
    assert set(fan.max_cones) == set(FanData(BLUP_V, SIGMA).max_cones)
    # an already anticanonically polarized face fan is reproduced
    v, fanp2 = p2_fan()
    rep = qfano_representative(v)
    assert set(rep.max_cones) == set(fanp2.max_cones)


def test_anticanonical_always_movable():
    for v in (BLUP_V, MDS_V, IntMatrix([[1, 9, -7], [0, 16, -12]])):
        q = gale_dual(v)
        anti = tuple(sum(r) for r in q.data)
        assert mov_cone(q).contains(anti)


def test_nef_of_cell_fan_contains_point():
    q = gale_dual(MDS_V)
    for w in ((1, 1), (2, 1), (1, 2), (3, 2)):
        if not mov_cone(q).contains(w):
            continue
        fan = fan_from_point(q, w)
        assert nef_cone(q, fan).contains(w)


def test_invalid_cone_rejected():
    with pytest.raises(InvalidFan):
        FanData(BLUP_V, [(0, 1)])  # not full-dimensional


def test_gorenstein_implies_qfano_on_reflexive_face_fans():
    from toriq.polytope import VPolytope, is_reflexive

    p2p1 = IntMatrix([[1, 0, -1, 0, 0], [0, 1, -1, 0, 0], [0, 0, 0, 1, -1]])
    lam = IntMatrix([[-1, -1, -1, 1, 2], [0, 0, 1, -1, 0], [-1, 2, -1, 1, -1]])
    for v in (BLUP_V, p2p1, lam):
        assert is_reflexive(VPolytope(v))
        fan = face_fan(v)
        q = gale_dual(v)
        assert is_gorenstein_weight(q, fan)
        assert is_qfano_weight(q, fan)


def test_eff_cone_of_a_half_plane():
    # (-1,0) and (1,0) each lie in the cone of the other: the cone is the
    # half-plane y >= 0, not the line
    half = eff_cone(IntMatrix([[-1, 3, 1, 0, -1, 0], [0, 2, 0, 1, 1, 0]]))
    for w in ((0, 1), (1, 0), (-1, 0), (-5, 2)):
        assert half.contains(w)
    for w in ((0, -1), (3, -1)):
        assert not half.contains(w)
    assert half.dim == 2


def test_eff_cone_of_the_whole_plane():
    # (0,3), (0,-1), (1,3) and (-1,3) span the whole plane
    plane = eff_cone(IntMatrix([[0, 0, 1, 3, -1, 3], [3, -1, 3, 3, 3, 3]]))
    for w in ((0, 1), (0, -1), (1, 0), (-1, 0), (-2, -7)):
        assert plane.contains(w)
