import itertools
import json
import os
import random
from collections import Counter

import pytest

from conftest import FIXTURES
from oracles import cell_supports_by_solving, fan_from_point_by_merging, rays_covered, solve_unique
from toriq import fans as fans_module
from toriq import linprog
from toriq.errors import InvalidFan, OriginNotInterior, OutOfDomain, OutsideMoving, ToriqError
from toriq.fans import (
    FanData,
    _cell_supports,
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
from toriq.intmat import IntMatrix, _det, _maximal_minors, rank

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


def test_fan_from_point_rejects_a_point_of_the_wrong_length():
    q = gale_dual(MDS_V)  # r = 2
    for point in ((3,), (3, 3, 3)):
        with pytest.raises(OutOfDomain, match="weight matrix has 2 rows"):
            fan_from_point(q, point)


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


def _golden_weights():
    # the benchmark's weight matrices and their moving-cone rays (read only)
    with open(os.path.join(FIXTURES, "..", "perfbench", "golden.json")) as fh:
        weights = json.load(fh)["weights"]
    assert weights
    return [(name, IntMatrix(e["q"]), [tuple(r) for r in e["mov_rays"]]) for name, e in sorted(weights.items())]


def _combination(rays, coeffs):
    return tuple(sum(c * ray[i] for c, ray in zip(coeffs, rays)) for i in range(len(rays[0])))


def _cell_or_error(build, q, w):
    try:
        return build(q, w).max_cones
    except ToriqError as exc:
        return type(exc)


def test_fan_from_point_matches_merging_oracle_on_golden_weights():
    # anticanonical class, every moving ray, every sum of two rays and three
    # random combinations per weight matrix; points on the boundary of Mov
    # raise InvalidFan, whose message may name another cone, so only the
    # exception type is compared
    rng = random.Random(61)
    fans = errors = 0
    for name, q, rays in _golden_weights():
        points = [tuple(sum(r) for r in q.data)] + list(rays)
        points += [_combination(pair, (1, 1)) for pair in itertools.combinations(rays, 2)]
        points += [_combination(rays, [rng.randint(0, 3) for _ in rays]) for _ in range(3)]
        for w in points:
            got = _cell_or_error(fan_from_point, q, w)
            assert got == _cell_or_error(fan_from_point_by_merging, q, w), (name, w)
            if isinstance(got, tuple):
                fans += 1
            else:
                errors += 1
    assert fans > 100 and errors > 30


def _moving_points(rng, per_matrix=4):
    for name, q, rays in _golden_weights():
        yield name, q, tuple(sum(r) for r in q.data)
        for _ in range(per_matrix):
            yield name, q, _combination(rays, [rng.randint(1, 4) for _ in rays])


def test_cell_cones_have_linearly_independent_positive_complements():
    # the Caratheodory claim behind fan_from_point: the weight columns
    # outside a maximal cone are independent and w is a strictly positive
    # combination of them
    rng = random.Random(62)
    non_simplicial = 0
    for name, q, w in _moving_points(rng):
        fan = fan_from_point(q, w)
        non_simplicial += not is_simplicial(fan)
        assert not any(set(g) < set(h) for g in fan.max_cones for h in fan.max_cones)
        for g in fan.max_cones:
            comp = [j for j in range(q.cols) if j not in g]
            q_j = q.cols_at(comp)
            assert rank(q_j) == len(comp), (name, w, g)
            x = solve_unique(q_j.data, w)
            assert x is not None and all(t > 0 for t in x), (name, w, g)
    assert non_simplicial > 0


def _random_unimodular(rng, n):
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i == j:
            rows[i] = [-x for x in rows[i]]
            continue
        c = rng.choice((-2, -1, 1, 2))
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    rng.shuffle(rows)
    return IntMatrix(rows)


def test_fan_from_point_is_gl_and_permutation_invariant():
    # fan_from_point(U*q*S, U*w) gives the cones of fan_from_point(q, w)
    # with their indices moved by the column permutation S
    rng = random.Random(63)
    for name, q, w in _moving_points(rng, per_matrix=2):
        u = _random_unimodular(rng, q.rows)
        perm = list(range(q.cols))
        rng.shuffle(perm)  # column k of the new matrix is column perm[k] of U*q
        uq = u * q
        q2 = IntMatrix.from_columns([uq.col(j) for j in perm])
        w2 = tuple(sum(a * x for a, x in zip(row, w)) for row in u.data)
        new_index = {j: k for k, j in enumerate(perm)}
        expected = sorted(tuple(sorted(new_index[j] for j in g)) for g in fan_from_point(q, w).max_cones)
        assert fan_from_point(q2, w2).max_cones == tuple(expected), (name, w)


def _random_cell_system(rng):
    """(Q, w) with r <= 5 rows, m <= 9 columns and entries in [-4, 4]:
    often a rank-deficient Q (a row a multiple of another, or their sum),
    and w drawn at random, as 0, or as a combination of a few columns
    with coefficients >= 0 (so on the boundary of many cones)."""
    r = rng.randint(1, 5)
    m = rng.randint(r, 9)
    rows = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(r)]
    if r > 1 and rng.random() < 0.2:
        a, b = rng.sample(range(r), 2)
        s, t = rng.choice((-2, -1, 1, 2)), rng.choice((0, 1))
        rows[b] = [s * x + t * y for x, y in zip(rows[a], rows[b])]
    draw = rng.random()
    if draw < 0.05:
        w = (0,) * r
    elif draw < 0.6:
        coef = [rng.choice((0, 0, 0, 1, 2)) for _ in range(m)]
        w = tuple(sum(c * row[j] for j, c in enumerate(coef)) for row in rows)
    else:
        w = tuple(rng.randint(-4, 4) for _ in range(r))
    return IntMatrix(rows), w


def test_minors_table_matches_determinants_and_solving():
    # every maximal minor of [Q | w] against its own elimination, and the
    # supports read off the table against one solve per r-subset
    rng = random.Random(64)
    seen = {"rank deficient": 0, "boundary support": 0, "no support": 0, "supports": 0}
    for _ in range(2000):
        q, w = _random_cell_system(rng)
        aug = [row + (x,) for row, x in zip(q.data, w)]
        minors = _maximal_minors(aug)
        assert minors == {
            key: _det([[row[j] for j in key] for row in aug])
            for key in itertools.combinations(range(q.cols + 1), q.rows)
        }, (q, w)
        supports = _cell_supports(q, w)
        assert supports == cell_supports_by_solving(q, w), (q, w)
        seen["rank deficient"] += rank(q) < q.rows
        seen["boundary support"] += any(len(s) < q.rows for s in supports)
        seen["no support"] += not supports
        seen["supports"] += bool(supports)
    assert all(count >= 100 for count in seen.values()), seen


def test_minors_table_of_a_small_matrix():
    a = [[1, 2, 3], [4, 5, 6]]
    assert _maximal_minors(a) == {(0, 1): -3, (0, 2): -6, (1, 2): -3}
    assert _maximal_minors([[2, 0, -1]]) == {(0,): 2, (1,): 0, (2,): -1}


def test_square_cone_checks_keep_their_messages():
    # one [G | I] elimination decides a square cone; a singular one is
    # not full-dimensional, and a non-square cone with a line is named so
    v = IntMatrix([[1, 0, 2, -1], [0, 1, 0, 0]])
    with pytest.raises(InvalidFan, match="is not full-dimensional"):
        FanData(v, [(0, 2)])
    with pytest.raises(InvalidFan, match="contains a line"):
        FanData(v, [(0, 1, 3)])
    assert FanData(v, [(0, 1), (1, 3)]).max_cones == ((0, 1), (1, 3))


def _cell_point_system():
    """The dim2_r2_4 x dim2_r3_3 weight matrix and a seeded moving point."""
    weights = {name: (q, rays) for name, q, rays in _golden_weights()}
    (q1, rays1), (q2, rays2) = weights["dim2_r2_4"], weights["dim2_r3_3"]
    q = IntMatrix([row + (0,) * q2.cols for row in q1.data] + [(0,) * q1.cols + row for row in q2.data])
    assert (q.rows, q.cols) == (5, 9)
    rng = random.Random(65)
    w = _combination(rays1, [rng.randint(1, 4) for _ in rays1])
    w += _combination(rays2, [rng.randint(1, 4) for _ in rays2])
    return q, w


def _count_eliminations(monkeypatch):
    """Record the rows of every `_eliminate` call from here on."""
    import sys

    from toriq import intmat

    real, calls = intmat._eliminate, []

    def counted(*args):
        calls.append(args[0])
        return real(*args)

    for name, mod in list(sys.modules.items()):
        if name.startswith("toriq") and getattr(mod, "_eliminate", None) is real:
            monkeypatch.setattr(mod, "_eliminate", counted)
    return calls


def _clear_cell_caches():
    """Empty the cone-facet, nef-cone and chamber caches, so that the next
    cell is computed cold."""
    linprog._cone_facets.cache_clear()
    nef_cone.cache_clear()
    fans_module._chambers.cache_clear()


def test_cell_point_work_counts(monkeypatch):
    # the cells are read off one minors table: the exact eliminations run
    # only in the validation, one closed-form facet set of the V-side cone
    # and one of its Q-side complement per maximal cone, where one solve
    # per 5-subset of the 9 weight columns (126) ran before
    q, w = _cell_point_system()
    _clear_cell_caches()
    # warm the cached moving cone and Gale dual: their work is not the cell's
    mov_cone(q).contains(w)
    gale_dual(q)
    calls = _count_eliminations(monkeypatch)
    fan = fan_from_point(q, w)
    assert len(fan.max_cones) > 1
    assert len(calls) <= 2 * len(fan.max_cones)


def test_cell_point_inverts_each_square_cone_once(monkeypatch):
    # the cell's fan, the fan rebuilt from its cones (as a caller reading
    # the CLI output does) and its nef cone ask about the same square
    # cones: each V-side cone is checked and walled, each Q-side
    # complement validated and intersected, on one [G | I] elimination
    q, w = _cell_point_system()
    _clear_cell_caches()
    mov_cone(q).contains(w)
    gale_dual(q)
    calls = _count_eliminations(monkeypatch)
    fan = fan_from_point(q, w)
    rebuilt = FanData(IntMatrix(fan.fan_matrix.data), fan.max_cones)
    nef = nef_cone(q, rebuilt)
    assert nef.contains(w, strict=True)
    square = Counter()
    for rows in calls:
        n = len(rows)
        if all(len(r) == 2 * n and list(r[n:]) == [int(i == j) for j in range(n)] for i, r in enumerate(rows)):
            square[tuple(zip(*(r[:n] for r in rows)))] += 1
    assert len(square) >= 2 * len(fan.max_cones), square
    assert max(square.values()) == 1, square


def test_second_point_of_a_known_chamber_builds_no_minors_table(monkeypatch):
    # a point in the relative interior of a chamber already met is answered
    # from the chamber record: no minors table and no double description
    q, w = _cell_point_system()
    _clear_cell_caches()
    fan = fan_from_point(q, w)
    nef = nef_cone(q, fan)
    w2 = tuple(3 * x + y for x, y in zip(w, nef.generators[0]))
    assert w2 != w and nef.contains(w2, strict=True)
    calls = Counter()
    real_minors, real_dd = fans_module._maximal_minors, linprog._dd

    def minors(*args):
        calls["minors"] += 1
        return real_minors(*args)

    def dd(*args):
        calls["dd"] += 1
        return real_dd(*args)

    monkeypatch.setattr(fans_module, "_maximal_minors", minors)
    monkeypatch.setattr(linprog, "_dd", dd)
    assert fan_from_point(q, w2) is fan
    assert nef_cone(q, fan) is nef
    assert not calls, calls
    _clear_cell_caches()
    assert fan_from_point(q, w2) == fan
    assert calls["minors"] == 1


def test_warm_chamber_record_matches_cold_cells(monkeypatch):
    # every golden weight matrix at its anticanonical class, its moving
    # rays, the sums of two rays and seeded interior combinations, all in
    # one seeded order: with the chamber record warm and with the fans
    # caches cleared before each point, the cells (or the exception types)
    # agree; the warm pass answers from the record, and a point that
    # raises InvalidFan leaves the record as it was
    rng = random.Random(66)
    points = []
    for name, q, rays in _golden_weights():
        ws = [tuple(sum(r) for r in q.data)] + list(rays)
        ws += [_combination(pair, (1, 1)) for pair in itertools.combinations(rays, 2)]
        ws += [_combination(rays, [rng.randint(1, 4) for _ in rays]) for _ in range(4)]
        points += [(name, q, w) for w in ws]
    rng.shuffle(points)
    caches = [
        fn for fn in vars(fans_module).values()
        if hasattr(fn, "cache_clear") and fn.__module__ == fans_module.__name__
    ] + [linprog._cone_facets]
    cold = []
    for name, q, w in points:
        for fn in caches:
            fn.cache_clear()
        cold.append(_cell_or_error(fan_from_point, q, w))
    for fn in caches:
        fn.cache_clear()
    hits = Counter()
    real = fans_module._recorded_cell

    def recorded(*args):
        fan = real(*args)
        hits[fan is not None] += 1
        return fan

    monkeypatch.setattr(fans_module, "_recorded_cell", recorded)
    invalid = 0
    for (name, q, w), expected in zip(points, cold):
        record = fans_module._chambers(q, gale_dual(q))
        before = list(record)
        got = _cell_or_error(fan_from_point, q, w)
        assert got == expected, (name, w)
        if got is InvalidFan:
            invalid += 1
            assert list(record) == before, (name, w)
    assert hits[True] > 50 and hits[False] > 20 and invalid > 20, (hits, invalid)


def test_chamber_record_is_bounded_per_matrix(monkeypatch):
    # with room for two chambers, walking through more of them keeps the
    # two most recent and still gives every point its own cell
    name, q, rays = next(e for e in _golden_weights() if e[0] == "blupP3_Xpolar")
    v = gale_dual(q)
    rng = random.Random(67)
    points = [_combination(rays, [rng.randint(1, 4) for _ in rays]) for _ in range(12)]
    expected = []
    for w in points:
        _clear_cell_caches()
        expected.append(fan_from_point(q, w))
    assert len(set(expected)) > 2
    monkeypatch.setattr(fans_module, "CACHE_SIZE", 2)
    _clear_cell_caches()
    for w, fan in zip(points, expected):
        assert fan_from_point(q, w) == fan
        record = fans_module._chambers(q, v)
        assert record.maxlen == 2 and len(record) <= 2
        assert record[0][0] == fan
    _clear_cell_caches()  # no record of two outlives the patched bound


def test_incomplete_fan_is_not_qfano():
    # P^2 without its third cone: Q*1 is interior to both remaining dual
    # cones, but a Q-Fano variety is complete
    v = IntMatrix([[1, 0, -1], [0, 1, -1]])
    fan = FanData(v, [(0, 1), (1, 2)])
    assert not is_complete(fan)
    assert not is_qfano_weight(gale_dual(v), fan)
    assert is_qfano_weight(gale_dual(v), face_fan(v))
