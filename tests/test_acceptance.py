"""Acceptance suite: every stated criterion at its stated tolerance
(bit-equality; all arithmetic exact). One pass/fail line prints per
criterion.

Erratum in criterion 2: the stated scaled degree (-6K_X)^2 = 16 of the
index-6 fake weighted projective plane X = P(1,3,4)/(Z/4) is wrong; the
value is 48 (16 = 48 / k_hat). Three derivations agree, none of them
through the library's volume code:

- covering identity: mult * (-kK_X)^n / |Q°| = |Ghat^h| reads
  4 * 48 / 8 = 24, while 16 would give 8 != 24;
- closed form for a fake weighted projective plane with weights q and
  multiplicity mult: (-kK)^2 = k^2 (sum q)^2 / (prod q * mult)
  = 36 * 64 / (12 * 4) = 48;
- the polar triangle by hand: 6 * polar has vertices (-6,3), (-6,4),
  (42,-24) and normalized area |det((0,1),(48,-27))| = 48, which the
  slab oracle in tests/oracles.py also gives.

test_criterion2_scaled_degree_as_stated asserts the corrected value,
derived in the test by the closed form and by the hand-given triangle.
"""

import contextlib
import math
from fractions import Fraction

from conftest import fixture_cones, fixture_matrix
from toriq.bounds import akln_bound, fano_bound, qgorenstein_bound
from toriq.classify import (
    enumerate_fano_family,
    enumerate_qgorenstein_family,
    quotient_by_subgroup,
    subgroups,
    torsion_matrix,
    unitary_cover,
)
from toriq.covering import analyze, mds_multiplicity, multiplicity, weight_modulus
from toriq.fans import FanData, face_fan, fan_from_point, is_complete, is_qfano_weight
from toriq.gale import gale_dual, gl_equivalent
from toriq.intmat import FiniteAbelianGroup, IntMatrix, snf
from toriq.polytope import fmatrix_index


@contextlib.contextmanager
def criterion(tag):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {tag}: FAIL")
        raise
    print(f"ACCEPTANCE {tag}: PASS")


def _analyzed(name):
    v = fixture_matrix(name)
    return analyze(v, FanData(v, fixture_cones(name)))


def _analyzed_face(name):
    v = fixture_matrix(name)
    return analyze(v, face_fan(v))


# -------------------------------------------------------------------------
# criterion 1: the blow-up-of-P3 family


def test_criterion1_blowup_family_full_reproduction():
    with criterion("1 blupP3 family"):
        cd = _analyzed("blupP3_X")
        assert cd.degree_scaled == 48
        assert cd.mult == 1
        assert cd.modulus == 8 and cd.modulus_polar == 12
        assert cd.weight_group_type == FiniteAbelianGroup((2, 2))
        assert cd.dual_cover_degree == 32

        cd1 = _analyzed("blupP3_X1")
        cd2 = _analyzed("blupP3_X2")
        cdz = _analyzed("blupP3_Z")
        assert cd1.degree_scaled == 24 and cd1.mult == 2
        assert cd2.degree_scaled == 24 and cd2.mult == 2
        assert cdz.degree_scaled == 12 and cdz.mult == 4

        # polar side: degrees 32/16/16/8 with multiplicities 1/2/2/4
        pol = {
            "blupP3_Zpolar": (32, 1),
            "blupP3_X1polar": (16, 2),
            "blupP3_X2polar": (16, 2),
            "blupP3_Xpolar": (8, 4),
        }
        for name, (deg, mult) in pol.items():
            cdp = _analyzed_face(name)
            assert cdp.degree_scaled == deg, name
            assert cdp.mult == mult, name

        # five subgroups collapse to four families
        fam = enumerate_fano_family(cd.Q)
        assert len(subgroups(cd.weight_group_type)) == 5
        assert len(fam) == 4
        assert sorted(m for (_, _, m) in fam) == [1, 2, 2, 4]

        # the printed GL-equivalence witness between the two presentations
        # of the order-2 quotient
        v1 = fixture_matrix("blupP3_X1")
        v1p = IntMatrix([[1, 0, 1, -1, -2, 2], [0, 1, 0, 0, -1, 1], [0, 0, 2, -2, -2, 2]])
        a_w = IntMatrix([[1, 0, -1], [0, 1, -1], [0, 0, -1]])
        s_w = IntMatrix(
            [
                [1, 0, 0, 0, 0, 0],
                [0, 1, 0, 0, 0, 0],
                [0, 0, 0, 0, 1, 0],
                [0, 0, 0, 0, 0, 1],
                [0, 0, 1, 0, 0, 0],
                [0, 0, 0, 1, 0, 0],
            ]
        )
        assert a_w * v1 * s_w == v1p
        eq, p, s = gl_equivalent(v1, v1p)
        assert eq and p * v1 * s == v1p


# -------------------------------------------------------------------------
# criterion 2: the index-6 fake weighted projective plane


def test_criterion2_indices_groups_and_normal_forms():
    with criterion("2 bauerle invariants"):
        cd = _analyzed_face("bauerle")
        assert cd.k == 6 and cd.k_hat == 3 and cd.h == 2
        assert cd.weight_group_type == FiniteAbelianGroup((6,))
        assert cd.h_extension_type == FiniteAbelianGroup((2, 12))
        assert snf(cd.B.t()).diagonal == (1, 4)
        assert snf(cd.A.t()).diagonal == (1, 6)
        assert snf((cd.A * 2).t()).diagonal == (2, 12)


def test_criterion2_degrees_consistent():
    with criterion("2 bauerle degrees (consistent values)"):
        cd = _analyzed_face("bauerle")
        assert cd.cover_degree_scaled == 48  # (-3K_Y)^2
        cd1 = _analyzed_face("bauerle_X1")
        assert cd1.degree_scaled == 24  # (-3K_X1)^2
        # the covering identity pins (-6K_X)^2 at 48
        assert cd.degree_scaled == 48
        assert cd.mult * cd.degree_scaled // cd.modulus_polar == cd.h_extension_order


def test_criterion2_scaled_degree_as_stated():
    # Erratum: the stated (-6K_X)^2 = 16 breaks the covering identity
    # mult * (-6K_X)^2 / |Q°| = |Ghat^2| = 24 (4 * 16 / 8 = 8), which 48
    # satisfies.  48 is derived here twice without the library's volume
    # code, then compared with the pipeline's value.
    with criterion("2 bauerle scaled degree as stated"):
        k = 6
        v = fixture_matrix("bauerle")
        (a1, a2, a3), (b1, b2, b3) = v.data

        # closed form (-kK)^2 = k^2 (sum q)^2 / (prod q * mult): the cross
        # product of the two rows lists the 2x2 minors, their gcd is the
        # multiplicity and the primitive vector is the weight vector q
        minors = (a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1)
        mult = math.gcd(*minors)
        q = tuple(x // mult for x in minors)
        assert (mult, q) == (4, (1, 3, 4))
        closed = Fraction(k**2 * sum(q) ** 2, math.prod(q) * mult)

        # 6 * polar of conv(V) = {u : <u, v_i> >= -6}: each vertex lies on
        # two of the three walls and inside the third
        tri = [(-6, 3), (-6, 4), (42, -24)]
        for u in tri:
            pairings = sorted(u[0] * x + u[1] * y for x, y in v.columns())
            assert pairings[:2] == [-k, -k] and pairings[2] > -k, u
        (x0, y0), (x1, y1), (x2, y2) = tri
        area = abs((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0))

        assert closed == area == 48
        cd = _analyzed_face("bauerle")
        assert cd.k == k
        assert set(cd.Vpolar.columns()) == set(tri)
        assert cd.degree_scaled == area


def test_criterion2_family_and_unitary_cover():
    with criterion("2 bauerle classification"):
        q = IntMatrix([[1, 3, 4]])
        fam = enumerate_qgorenstein_family(q, 1)
        assert sorted(s.order for (s, _, _) in fam.kept) == [1, 2]
        rejected = {s.order: (mat, wit) for (s, mat, wit) in fam.rejected}
        assert set(rejected) == {3, 6}
        assert gl_equivalent(rejected[3][0], IntMatrix([[3, 3, -3], [0, 4, -3]]))[0]
        assert gl_equivalent(rejected[6][0], IntMatrix([[21, -3, -3], [-6, 2, 0]]))[0]

        v = fixture_matrix("bauerle")
        v1 = unitary_cover(v, face_fan(v))
        assert gl_equivalent(v1, IntMatrix([[1, 1, -1], [0, 8, -6]]))[0]
        assert fmatrix_index(v1) == 3


# -------------------------------------------------------------------------
# criterion 3: the canonical index-2 threefold and its Fano quotients


def test_criterion3_canonical_threefold():
    with criterion("3 canonical index-2 threefold"):
        cd = _analyzed("qfanocanonica_X")
        assert cd.mult == 6 and cd.k == 2 and cd.h == 2
        assert cd.cover_degree == 54  # (-K_Y)^3
        assert cd.dual_cover_degree == 18  # (-K_Z0)^3
        assert cd.degree_scaled == 72  # (-2K_X)^3
        assert cd.weight_group_type == FiniteAbelianGroup((3,))
        assert cd.r_polar == 3
        q0_printed = IntMatrix(
            [[1, 1, 0, 2, 2, 0], [0, 2, 1, 1, 2, 0], [1, 1, 1, 1, 1, 1]]
        )
        assert gl_equivalent(cd.Qpolar, q0_printed)[0]

        cdz = _analyzed_face("qfanocanonica_Z")
        assert cdz.mult == 3
        assert cdz.degree_scaled == 18  # (-K_Z)^3

        cdy_pol = _analyzed_face("qfanocanonica_Ypolar")
        assert cdy_pol.degree_scaled == 6  # (-K_Y0)^3
        assert cdy_pol.mult == 3

        # Z is the unitary 1-covering of X
        v = fixture_matrix("qfanocanonica_X")
        v1 = unitary_cover(v, face_fan(v))
        assert gl_equivalent(v1, fixture_matrix("qfanocanonica_Z"))[0]


# -------------------------------------------------------------------------
# criterion 4: the Mori-dream-space ambient data


def test_criterion4_mds_toric_side():
    with criterion("4 MDS ambient"):
        v = fixture_matrix("mds_Zprime")
        fan_zp = FanData(v, fixture_cones("mds_Zprime"))
        fan_z = FanData(v, fixture_cones("mds_Z"))
        q = gale_dual(v)

        cd = analyze(v, fan_zp)
        assert cd.weight_group_type == FiniteAbelianGroup((15, 30))
        assert cd.weight_order == 450
        assert qgorenstein_bound(3, max(cd.r, cd.r_polar), 6) == 3456
        assert fmatrix_index(v) == 6

        # the completion is not anticanonically polarized, the small
        # modification is
        assert is_complete(fan_z)
        assert not is_qfano_weight(q, fan_z)
        third_weight = q.col(2)
        fan_from_third = fan_from_point(q, third_weight, fan_matrix=v)
        assert set(fan_from_third.max_cones) == set(fan_zp.max_cones)
        assert is_qfano_weight(q, fan_from_third)

        mult = mds_multiplicity(q, fan_zp)
        assert mult == 3 and 450 % mult == 0


def test_criterion4_mds_variant_quotient():
    with criterion("4 MDS variant quotient"):
        v = fixture_matrix("mds_Zprime")
        fan_zp = FanData(v, fixture_cones("mds_Zprime"))
        cd = analyze(v, fan_zp)
        vprime = IntMatrix(
            [[1, 1, 4, -3, -3], [0, 5, 5, -10, -5], [0, 0, 6, -3, -3]]
        )
        assert multiplicity(vprime) == 15
        # the printed variant has polytope index 18 = 3 * 6, so it lives in
        # the factor-3 extension of the weight group
        assert fmatrix_index(vprime) == 18
        gamma3 = torsion_matrix((cd.A * 3) * cd.W)
        found = False
        for sub in subgroups(gamma3.ambient, order=15):
            vh = quotient_by_subgroup(cd.W, gamma3, sub)
            if gl_equivalent(vh, vprime)[0]:
                found = True
                break
        assert found
        assert 450 % 15 == 0


# -------------------------------------------------------------------------
# criterion 5: the thirteen surface weight matrices


DIM2_EXPECTED = {
    "dim2_r1_1": ((3,), 2),
    "dim2_r1_2": ((2,), 2),
    "dim2_r1_3": ((), 1),
    "dim2_r2_1": ((2,), 2),
    "dim2_r2_2": ((), 1),
    "dim2_r2_3": ((), 1),
    "dim2_r2_4": ((), 1),
    "dim2_r2_5": ((), 1),
    "dim2_r2_6": ((), 1),
    "dim2_r3_1": ((), 1),
    "dim2_r3_2": ((), 1),
    "dim2_r3_3": ((), 1),
    "dim2_r4_1": ((), 1),
}


def test_criterion5_surface_sweep():
    with criterion("5 surface weight sweep"):
        for name, (factors, count) in DIM2_EXPECTED.items():
            q = fixture_matrix(name)
            fan = fan_from_point(q, tuple(sum(r) for r in q.data))
            cd = analyze(fan.fan_matrix, fan)
            assert cd.weight_group_type == FiniteAbelianGroup(factors), name
            fam = enumerate_fano_family(q)
            assert len(fam) == count, name


# -------------------------------------------------------------------------
# criterion 6: bound tables


def test_criterion6_bound_tables():
    with criterion("6 bound tables"):
        assert [fano_bound(3, r) for r in (2, 3, 4, 5, 6)] == [16, 14, 13, 12, 11]
        assert fano_bound(2, 1) == 3
        assert akln_bound(3) == 16
        assert akln_bound(4) == 128


# -------------------------------------------------------------------------
# criterion 7: the randomized property suite


def test_criterion7_property_suite_size():
    with criterion("7 property suite"):
        import test_properties

        assert test_properties.N_INSTANCES >= 200
        assert len(test_properties.INSTANCES) >= 200
        # the suite itself runs as tests/test_properties.py; spot-check one
        # instance of each oracle-backed identity here
        v = test_properties.INSTANCES[0]
        q = gale_dual(v)
        from oracles import slab_volume
        from toriq.polytope import VPolytope, normalized_volume

        p = VPolytope(v)
        vol = normalized_volume(p)
        assert vol == slab_volume(p)
        assert multiplicity(v) * weight_modulus(q) == vol
