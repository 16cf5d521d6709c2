import math
import random

import pytest

from oracles import invariant_basis_by_congruence_hnf, quotient_fan_matrix_by_kernel, subgroups_by_filter
from toriq import classify
from toriq.classify import (
    TorsionMatrix,
    enumerate_fano_family,
    enumerate_qgorenstein_family,
    quotient_by_subgroup,
    subgroups,
    torsion_matrix,
    unitary_cover,
)
from toriq.covering import analyze
from toriq.errors import InconsistentAction, NotFanoWeight, OutOfDomain, ToriqError, TooLarge
from toriq.fans import FanData, face_fan, fan_from_point
from toriq.gale import gale_dual, gl_equivalent
from toriq.intmat import FiniteAbelianGroup, IntMatrix, cokernel, lattice_index, quotient_matrix
from toriq.polytope import fmatrix_index

BLUP_V = IntMatrix([[1, 0, 0, 0, -1, 1], [0, 1, 0, 0, -1, 1], [0, 0, 1, -1, -1, 1]])
SIGMA = [(1, 3, 4), (1, 2, 4), (0, 3, 4), (0, 2, 4), (0, 1, 3, 5), (1, 2, 5), (0, 2, 5)]
BAUERLE_V = IntMatrix([[1, 9, -7], [0, 16, -12]])
QFC_V = IntMatrix([[1, 1, -2, 0, 0], [0, 3, -3, 1, -1], [0, 0, 0, 2, -2]])
MDS_V = IntMatrix([[1, 0, 5, -2, -3], [0, 1, 3, -3, -2], [0, 0, 6, -3, -3]])


def test_torsion_matrix_bauerle():
    gamma = torsion_matrix(BAUERLE_V)
    assert gamma.ambient == FiniteAbelianGroup((4,))
    assert len(gamma.columns) == 3
    # quotient comparisons happen through fan matrices, not entries;
    # the entries must at least generate the full group
    assert any(col[0] % 2 for col in gamma.columns)


def test_torsion_matrix_cf_input():
    gamma = torsion_matrix(BLUP_V)
    assert gamma.ambient.is_trivial()
    assert all(col == () for col in gamma.columns)


def test_torsion_matrix_dual_blowup():
    vpol = IntMatrix(
        [[-1, -1, -1, -1, 1, 1, 3], [-1, 1, 1, 3, -1, -1, -1], [1, -1, 1, -1, -1, 1, -1]]
    )
    gamma = torsion_matrix(vpol)
    assert gamma.ambient == FiniteAbelianGroup((2, 2))


def test_subgroup_counts():
    assert len(subgroups(FiniteAbelianGroup((2, 2)))) == 5
    assert [s.order for s in subgroups(FiniteAbelianGroup((2, 2)))] == [1, 2, 2, 2, 4]
    assert len(subgroups(FiniteAbelianGroup((4,)))) == 3
    assert len(subgroups(FiniteAbelianGroup((6,)))) == 4
    assert len(subgroups(FiniteAbelianGroup((2, 4)))) == 8
    assert len(subgroups(FiniteAbelianGroup((2, 12)))) == 16
    assert len(subgroups(FiniteAbelianGroup((), 0))) == 1


def test_subgroup_order_filter():
    g = FiniteAbelianGroup((15, 30))
    all_subs = subgroups(g)
    filtered = subgroups(g, order=15)
    assert [s.matrix for s in filtered] == [s.matrix for s in all_subs if s.order == 15]


def _random_group(rng):
    """Invariant factors f_1 | f_2 | f_3 (one to three of them), order at
    most 2,000."""
    while True:
        fs = [rng.randint(2, 6)]
        for _ in range(rng.randint(0, 2)):
            fs.append(fs[-1] * rng.randint(1, 5))
        if math.prod(fs) <= 2000:
            return FiniteAbelianGroup(tuple(fs))


def test_subgroups_match_generate_and_filter():
    rng = random.Random(9)
    groups = [FiniteAbelianGroup((2, 6, 12))] + [_random_group(rng) for _ in range(15)]
    assert max(g.order for g in groups) > 1000
    for g in groups:
        subs = subgroups(g)
        assert [(s.order, s.matrix) for s in subs] == [
            (s.order, s.matrix) for s in subgroups_by_filter(g)
        ], g
        for k in sorted({s.order for s in subs}):
            assert subgroups(g, order=k) == [s for s in subs if s.order == k], (g, k)
        assert subgroups(g, order=g.order + 1) == []


def test_subgroup_group_types():
    subs = subgroups(FiniteAbelianGroup((2, 4)))
    types = sorted(str(s.group_type()) for s in subs)
    assert types.count("Z/2") == 3
    assert "Z/2 + Z/2" in types
    assert "Z/4" in str([str(s.group_type()) for s in subs])


def test_group_type_by_back_substitution_matches_quotient_matrix():
    # group_type solves diag(f) = X * R by back substitution; the general
    # division quotient_matrix is the reference for X
    for fs in ((2, 4), (2, 6, 12), (3, 9), (2, 2, 2), (4, 8), (6,)):
        d = IntMatrix([[f if i == j else 0 for j in range(len(fs))] for i, f in enumerate(fs)])
        for sub in subgroups(FiniteAbelianGroup(fs)):
            want = cokernel(quotient_matrix(d, sub.matrix).t())
            assert sub.group_type() == want, (fs, sub.matrix)
            assert want.order == sub.order


def test_subgroups_too_large():
    with pytest.raises(TooLarge):
        subgroups(FiniteAbelianGroup((2,), free_rank=1))
    with pytest.raises(TooLarge):
        subgroups(FiniteAbelianGroup((1_000_003,)))


def test_subgroups_bound_counts_subgroups(monkeypatch):
    # (Z/2)^9 has order 512 but far more than 1,000 subgroups, and (Z/2)^6
    # has 2,825: the walk stops once its prefixes pass the bound, and below
    # it nothing changes
    small = subgroups(FiniteAbelianGroup((2, 6, 12)))
    assert len(subgroups(FiniteAbelianGroup((2,) * 6))) == 2825
    monkeypatch.setattr(classify, "_ENUM_BOUND", 1_000)
    for fs in ((2,) * 9, (2,) * 6):
        with pytest.raises(TooLarge):
            subgroups(FiniteAbelianGroup(fs))
    assert subgroups(FiniteAbelianGroup((2, 6, 12))) == small


def test_quotient_by_subgroup_bauerle():
    # the order-3 subgroup of the weight group gives the printed
    # non-reduced fan matrix
    fan = face_fan(BAUERLE_V)
    cd = analyze(BAUERLE_V, fan)
    gamma = torsion_matrix(cd.A * cd.W)
    subs = subgroups(gamma.ambient)
    quots = {s.order: quotient_by_subgroup(cd.W, gamma, s) for s in subs}
    assert quots[1] == cd.W
    assert gl_equivalent(quots[2], IntMatrix([[1, 1, -1], [0, 8, -6]]))[0]
    assert gl_equivalent(quots[3], IntMatrix([[3, 3, -3], [0, 4, -3]]))[0]
    assert gl_equivalent(quots[6], IntMatrix([[21, -3, -3], [-6, 2, 0]]))[0]
    for s in subs:
        assert lattice_index(quots[s.order]) == s.order


def test_enumerate_fano_family_p2():
    fam = enumerate_fano_family(IntMatrix([[1, 1, 1]]))
    assert sorted(m for (_, _, m) in fam) == [1, 3]


def test_enumerate_fano_family_rejects_non_fano():
    with pytest.raises(NotFanoWeight):
        enumerate_fano_family(IntMatrix([[1, 3, 4]]))


def test_enumerate_fano_family_blowup():
    fam = enumerate_fano_family(gale_dual(BLUP_V))
    assert sorted(m for (_, _, m) in fam) == [1, 2, 2, 4]
    mats = [vh for (_, vh, _) in fam]
    v1 = IntMatrix([[1, 0, 0, 0, -1, 1], [0, 1, 1, -1, -2, 2], [0, 0, 2, -2, -2, 2]])
    v2 = IntMatrix([[1, 1, 0, 0, -2, 2], [0, 2, 0, 0, -2, 2], [0, 0, 1, -1, -1, 1]])
    lam = IntMatrix([[-1, -1, -1, -1, 1, 1], [-1, -1, 1, 1, -1, 1], [-1, 1, -1, 1, 1, -1]])
    for target in (BLUP_V, v1, v2, lam):
        assert any(gl_equivalent(vh, target)[0] for vh in mats)


def test_enumerate_fano_family_merges_gl_classes():
    # five subgroups, four classes: the two isomorphic order-2 quotients
    # collapse
    q = gale_dual(BLUP_V)
    fam = enumerate_fano_family(q)
    assert len(fam) == 4
    cd = analyze(fan_from_point(q, tuple(sum(r) for r in q.data)).fan_matrix,
                 fan_from_point(q, tuple(sum(r) for r in q.data)))
    assert len(subgroups(cd.weight_group_type)) == 5


def test_family_multiplicities_are_column_lattice_indices():
    fano = enumerate_fano_family(gale_dual(BLUP_V))
    factor2 = enumerate_qgorenstein_family(IntMatrix([[1, 3, 4]]), 2).kept
    for sub, v_h, mult in (*fano, *factor2):
        assert mult == sub.order == lattice_index(v_h)


def test_qgorenstein_family_bauerle():
    q = IntMatrix([[1, 3, 4]])
    fam = enumerate_qgorenstein_family(q, 1)
    assert sorted(s.order for (s, _, _) in fam.kept) == [1, 2]
    assert sorted(s.order for (s, _, _) in fam.rejected) == [3, 6]
    for sub, mat, witness in fam.rejected:
        col = mat.col(witness)
        from math import gcd

        assert gcd(*col) > 1


def test_qgorenstein_family_fano_case_matches():
    q = IntMatrix([[1, 1, 1]])
    fam_h1 = enumerate_qgorenstein_family(q, 1)
    fano = enumerate_fano_family(q)
    assert not fam_h1.rejected
    assert sorted(m for (_, _, m) in fam_h1.kept) == sorted(m for (_, _, m) in fano)


def test_qgorenstein_family_factor2_contains_original():
    q = IntMatrix([[1, 3, 4]])
    fam = enumerate_qgorenstein_family(q, 2)
    assert any(gl_equivalent(mat, BAUERLE_V)[0] for (_, mat, _) in fam.kept)


def test_quotients_match_kernel_projection():
    # quotient_by_subgroup reads M_H off one row HNF; the oracle projects a
    # saturated kernel and takes the HNF of the projection
    from toriq.fans import _anticanonical

    checked = 0
    for q in (IntMatrix([[1, 3, 4]]), gale_dual(BLUP_V), gale_dual(MDS_V), gale_dual(QFC_V)):
        fan = fan_from_point(q, _anticanonical(q))
        cd = analyze(fan.fan_matrix, fan)
        for h in (1, 2, 3):
            gamma = torsion_matrix(cd.A * h * cd.W)
            for sub in subgroups(gamma.ambient):
                assert quotient_by_subgroup(cd.W, gamma, sub) == quotient_fan_matrix_by_kernel(cd.W, gamma, sub)
                checked += 1
    assert checked > 500


def _covering(q):
    from toriq.fans import _anticanonical

    fan = fan_from_point(q, _anticanonical(q))
    return analyze(fan.fan_matrix, fan)


def test_frame_gives_the_congruence_hnf_basis():
    # the frame of the action gives, on every subgroup, the S that one wide
    # HNF of the scaled congruences (checked by two Smith reductions) gives
    import json
    import os

    from conftest import FIXTURES

    with open(os.path.join(FIXTURES, "..", "perfbench", "golden.json")) as fh:
        weights = json.load(fh)["weights"]
    checked = 0
    for name, entry in sorted(weights.items()):
        cd = _covering(IntMatrix(entry["q"]))
        for h in (1, 2) if name == "mds_Z" else (1, 2, 3):
            gamma = torsion_matrix(cd.A * h * cd.W)
            action = classify._action(cd.W, gamma)
            frame = classify._frame(action, gamma.ambient.invariant_factors)
            for sub in subgroups(gamma.ambient):
                got = classify._invariant_basis(action, frame, sub)
                assert got == invariant_basis_by_congruence_hnf(action, sub), (name, h, sub.matrix)
                checked += 1
    assert checked == 768 + 1296  # mds_Z at h = 2 has 1,296


def _not_onto(gamma):
    # the first torsion component is zero on every ray, so the action
    # misses every element with a nonzero first component
    return TorsionMatrix(gamma.ambient, tuple((0,) + col[1:] for col in gamma.columns))


def test_an_action_that_is_not_onto_is_refused(monkeypatch):
    cd = _covering(gale_dual(MDS_V))
    gamma = torsion_matrix(cd.A * cd.W)
    bogus = _not_onto(gamma)
    for sub in subgroups(gamma.ambient):
        if sub.order == 1:
            # the trivial subgroup builds no frame, so no action is read
            assert quotient_by_subgroup(cd.W, bogus, sub) == cd.W
            assert quotient_by_subgroup(cd.W, TorsionMatrix(gamma.ambient, ()), sub) == cd.W
        else:
            with pytest.raises(InconsistentAction, match="does not reach"):
                quotient_by_subgroup(cd.W, bogus, sub)
    monkeypatch.setattr(classify, "torsion_matrix", lambda v: _not_onto(torsion_matrix(v)))
    with pytest.raises(InconsistentAction, match="does not reach"):
        next(classify._quotients(cd.W, cd.A))


def test_a_wrong_section_trips_a_check(monkeypatch):
    # a section moved off X P = I (mod f) by one unit in any entry gives a
    # lattice that is not phi^-1(H^perp) on some subgroup: the index check
    # or the pairing check catches each move, and each check catches one
    real = classify._frame
    cd = _covering(gale_dual(MDS_V))
    assert len(list(classify._quotients(cd.W, cd.A))) == 96
    caught = set()
    for i in range(cd.W.rows):
        for k in range(2):

            def moved(action, fs, i=i, k=k):
                section, kernel = real(action, fs)
                rows = [list(p) for p in section]
                rows[i][k] += 1
                return rows, kernel

            monkeypatch.setattr(classify, "_frame", moved)
            with pytest.raises(InconsistentAction, match="index|pairs") as exc:
                list(classify._quotients(cd.W, cd.A))
            caught.add("index" if "index" in str(exc.value) else "pairs")
    assert caught == {"index", "pairs"}


def test_qgorenstein_family_needs_positive_factor():
    for h in (0, -1):
        with pytest.raises(OutOfDomain, match="needs h >= 1"):
            enumerate_qgorenstein_family(IntMatrix([[1, 3, 4]]), h)


def test_family_indices_match_fmatrix_index_on_fixtures():
    # the family hulls the covering fan matrix once; each kept quotient's
    # index is read off its polar vertices on those facets
    import glob
    import os

    from conftest import FIXTURES
    from toriq.cli import load_document, resolve_variety

    families = 0
    for path in sorted(glob.glob(os.path.join(FIXTURES, "*.json"))):
        doc = load_document(path)
        for h in (1, 2):
            try:
                v, _ = resolve_variety(doc)
                fam = enumerate_qgorenstein_family(gale_dual(v), h)
            except ToriqError:
                continue
            families += 1
            assert len(fam.indices) == len(fam.kept)
            for (_, mat, _), index in zip(fam.kept, fam.indices):
                assert index == fmatrix_index(mat), (path, h, mat)
    assert families >= 40


def test_family_indices_from_one_solve_match_polar_index():
    # each kept index comes from one elimination of [S^T | polar points of
    # W]; it must equal the index solved on S*W facet by facet and the
    # index of S*W hulled afresh, for every golden weight matrix at h = 1..3
    import json
    import os

    from conftest import FIXTURES
    from toriq.fans import _anticanonical
    from toriq.polytope import facet_columns, polar_vertex_matrix

    with open(os.path.join(FIXTURES, "..", "perfbench", "golden.json")) as fh:
        weights = json.load(fh)["weights"]
    kept = 0
    for name in sorted(weights):
        q = IntMatrix(weights[name]["q"])
        fan = fan_from_point(q, _anticanonical(q))
        facets = facet_columns(analyze(fan.fan_matrix, fan).W)
        for h in (1, 2, 3):
            fam = enumerate_qgorenstein_family(q, h)
            for (_, v_h, _), index in zip(fam.kept, fam.indices, strict=True):
                assert index == polar_vertex_matrix(v_h, facets)[1] == fmatrix_index(v_h), (name, h, v_h)
                kept += 1
    assert kept > 500


def test_unitary_cover_bauerle():
    v1 = unitary_cover(BAUERLE_V, face_fan(BAUERLE_V))
    assert gl_equivalent(v1, IntMatrix([[1, 1, -1], [0, 8, -6]]))[0]
    assert fmatrix_index(v1) == 3


def test_unitary_cover_qfanocanonica_is_maximal_quotient():
    lam = IntMatrix([[-1, -1, -1, 1, 2], [0, 0, 1, -1, 0], [-1, 2, -1, 1, -1]])
    v1 = unitary_cover(QFC_V, face_fan(QFC_V))
    assert gl_equivalent(v1, lam)[0]


def test_unitary_cover_of_fano_is_identity():
    fan = FanData(BLUP_V, SIGMA)
    v1 = unitary_cover(BLUP_V, fan)
    assert gl_equivalent(v1, BLUP_V)[0]


def test_mds_variant_quotient():
    q = gale_dual(MDS_V)
    anti = tuple(sum(r) for r in q.data)
    fan = fan_from_point(q, anti, fan_matrix=MDS_V)
    cd = analyze(MDS_V, fan)
    gamma3 = torsion_matrix((cd.A * 3) * cd.W)
    vprime = IntMatrix([[1, 1, 4, -3, -3], [0, 5, 5, -10, -5], [0, 0, 6, -3, -3]])
    hits = []
    for sub in subgroups(gamma3.ambient, order=15):
        vh = quotient_by_subgroup(cd.W, gamma3, sub)
        if gl_equivalent(vh, vprime)[0]:
            hits.append(sub)
    assert hits
    assert lattice_index(vprime) == 15
    assert 450 % 15 == 0


def test_polar_pairing_of_family():
    # multiplicities of a variety and its polar partner multiply to the
    # weight order
    fan = FanData(BLUP_V, SIGMA)
    cd = analyze(BLUP_V, fan)
    fam = enumerate_fano_family(cd.Q)
    for sub, mat, mult in fam:
        sub_fan = FanData(mat, fan.max_cones)
        cd_h = analyze(mat, sub_fan)
        polar_mult = abs(cd_h.C.det())
        assert mult * polar_mult == cd.weight_order


def test_subgroups_against_element_enumeration():
    # oracle: generate every subgroup as the closure of an element subset
    import itertools

    def brute_count(factors):
        elems = list(itertools.product(*[range(d) for d in factors]))

        def add(a, b):
            return tuple((x + y) % d for x, y, d in zip(a, b, factors))

        def closure(gens):
            seen = {tuple(0 for _ in factors)}
            frontier = list(seen)
            while frontier:
                nxt = []
                for a in frontier:
                    for g in gens:
                        c = add(a, g)
                        if c not in seen:
                            seen.add(c)
                            nxt.append(c)
                frontier = nxt
            return frozenset(seen)

        subs = {closure([g]) for g in elems}
        changed = True
        while changed:
            changed = False
            for s1 in list(subs):
                for s2 in list(subs):
                    c = closure(list(s1 | s2))
                    if c not in subs:
                        subs.add(c)
                        changed = True
        return len(subs)

    for factors in ((2, 2), (4,), (6,), (2, 4), (3, 3), (2, 6)):
        g = FiniteAbelianGroup(factors)
        assert len(subgroups(g)) == brute_count(factors), factors


def test_subgroup_elements_match_handles():
    # each handle's generator set spans a subgroup of exactly its order
    import itertools

    g = FiniteAbelianGroup((2, 4))
    for sub in subgroups(g):
        factors = g.invariant_factors
        elems = {tuple(0 for _ in factors)}
        frontier = list(elems)
        gens = list(sub.generators)
        while frontier:
            nxt = []
            for a in frontier:
                for h in gens:
                    c = tuple((x + y) % d for x, y, d in zip(a, h, factors))
                    if c not in elems:
                        elems.add(c)
                        nxt.append(c)
            frontier = nxt
        assert len(elems) == sub.order
