"""The cone predicates against the Fraction simplex: membership (closed
and relative-interior), positive relations and pointedness, read off one
double description, must agree with the LP answers on seeded integer
systems."""

import random
from collections import Counter
from fractions import Fraction

from oracles import (
    dd_by_third_ray_scan,
    lp_max_by_fractions,
    positive_kernel_vector_by_fractions,
    strict_solution_by_fractions,
)
from toriq.errors import InvalidFan
from toriq.fans import FanData
from toriq.intmat import CACHE_SIZE, IntMatrix, _det, rank
from toriq.linprog import _cone_facets, _dd, cone_contains, positive_relation

N_SYSTEMS = 2000


def random_system(rng):
    """(generators, w) in Q^n, n <= 4, up to 6 generators with entries in
    [-3, 3]: often a zero generator, a rank-deficient set (a multiple or
    sum of others), or a w = 0; w is drawn at random or as a combination
    of the generators with coefficients >= 0 (some of them 0, so w often
    lies on the boundary)."""
    n, k = rng.randint(1, 4), rng.randint(1, 6)
    gens = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(k)]
    if rng.random() < 0.2:
        gens[rng.randrange(k)] = (0,) * n
    if k > 1 and rng.random() < 0.3:
        a, b = rng.sample(range(k), 2)
        s, t = rng.choice((-2, -1, 1, 2)), rng.choice((0, 1))
        gens[b] = tuple(s * x + t * y for x, y in zip(gens[a], gens[b]))
    draw = rng.random()
    if draw < 0.1:
        w = (0,) * n
    elif draw < 0.6:
        coef = [rng.choice((0, 0, 1, 2, 3)) for _ in gens]
        w = tuple(sum(c * g[i] for c, g in zip(coef, gens)) for i in range(n))
    else:
        w = tuple(rng.randint(-4, 4) for _ in range(n))
    return gens, w


def _line_free_by_fractions(gens, n) -> bool:
    """No x >= 0 with sum(x) = 1 and sum(x_i g_i) = 0: the cone holds no
    line, and no generator is zero."""
    a = [[g[i] for g in gens] for i in range(n)] + [[1] * len(gens)]
    return lp_max_by_fractions([0] * len(gens), a, [0] * n + [1])[0] == "infeasible"


def _pointed(cols) -> bool:
    """Does the one-cone fan over all the columns (of full row rank, more
    columns than rows) accept its cone?  It raises "contains a line"
    exactly when the cone is not pointed."""
    try:
        FanData(cols, [range(cols.cols)])
    except InvalidFan as exc:
        if "contains a line" not in str(exc):
            raise
        return False
    return True


def test_cone_predicates_match_fraction_simplex():
    rng = random.Random(10)
    seen = Counter()
    for _ in range(N_SYSTEMS):
        gens, w = random_system(rng)
        n = len(w)
        a = [[g[i] for g in gens] for i in range(n)]
        closed = lp_max_by_fractions([0] * len(gens), a, w)[0] == "optimal"
        strict = strict_solution_by_fractions(a, w) is not None
        relation = positive_kernel_vector_by_fractions(a) is not None
        assert cone_contains(gens, w) == closed, (gens, w)
        assert cone_contains(gens, w, strict=True) == strict, (gens, w)
        assert positive_relation(gens, n) == relation, gens
        seen["in"] += closed
        seen["boundary"] += closed and not strict
        seen["out"] += not closed
        seen["relation"] += relation
        seen["no relation"] += not relation
        seen["one row"] += n == 1
        seen["zero w"] += not any(w)
        seen["zero generator"] += not all(map(any, gens))
        cols = IntMatrix.from_columns(gens)
        if rank(cols) == n and len(gens) != n:
            pointed = _line_free_by_fractions(gens, n)
            assert _pointed(cols) == pointed, gens
            seen["pointed" if pointed else "not pointed"] += 1
            nonzero = [g for g in gens if any(g)]
            seen["line only by a zero column"] += (
                not pointed and len(nonzero) < len(gens) and _line_free_by_fractions(nonzero, n)
            )
    assert all(seen[key] >= 40 for key in (
        "in", "boundary", "out", "relation", "no relation", "one row", "zero w",
        "zero generator", "pointed", "not pointed", "line only by a zero column",
    )), seen


def test_cone_predicates_edge_cases():
    assert cone_contains([], (0, 0)) and cone_contains([], (0, 0), strict=True)
    assert not cone_contains([], (1, 0))
    assert positive_relation([], 2)
    assert positive_relation([(0, 0)], 2)
    assert positive_relation([(1, 2), (-1, -2)], 2) and not positive_relation([(1, 2)], 2)
    # w = 0 is in every cone; it is interior exactly to a linear space
    assert cone_contains([(1, 0), (0, 1)], (0, 0))
    assert not cone_contains([(1, 0), (0, 1), (1, 1)], (0, 0), strict=True)
    assert cone_contains([(1, 0), (-1, 0)], (0, 0), strict=True)
    # a zero generator counts as a line, though the facets do not show it
    assert not _pointed(IntMatrix([[0, 2, 0]]))
    assert _pointed(IntMatrix([[1, 2, 0], [0, 1, 1]]))
    assert not _pointed(IntMatrix([[1, 2, 0, 0], [0, 1, 1, 0]]))


def test_simplicial_facets_match_double_description():
    # n generators in Q^n: the closed form (rows of G^-1) must give the
    # double description's normals, order and masks.  An appended zero
    # generator changes neither, apart from its own bit on every facet,
    # and sends the set through the general route, so singular square
    # sets are checked against that route.
    rng = random.Random(11)
    seen = Counter()
    while min(seen["nonsingular"], seen["singular"]) < 300:
        n = rng.randint(1, 5)
        gens = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(n)]
        if n > 1 and rng.random() < 0.3:
            a, b = rng.sample(range(n), 2)
            s, t = rng.choice((-2, -1, 1, 2)), rng.choice((0, 1))
            gens[b] = tuple(s * x + t * y for x, y in zip(gens[a], gens[b]))
        got = _cone_facets(tuple(gens), n)
        eqs, facets = _cone_facets(tuple(gens) + ((0,) * n,), n)
        assert got == (eqs, tuple((a, mask & ~(1 << n)) for a, mask in facets)), gens
        if _det(gens):
            assert got == ((), tuple(_dd(gens, n))), gens
            seen["nonsingular"] += 1
        else:
            seen["singular"] += 1
            seen["singular with facets"] += bool(got[1])
    assert seen["singular with facets"] >= 100, seen


def test_double_description_matches_third_ray_scan(monkeypatch):
    # the bitset adjacency test pairs exactly the rays the third-ray scan
    # pairs: same rays and masks, in the same order, on seeded systems of
    # rank dim and on every cone that analyze of dim2_r3_3 x dim2_r4_1
    # sends to the double description
    import toriq
    from toriq import covering, linprog
    from toriq.cli import load_document, resolve_variety

    from conftest import fixture_path

    rng = random.Random(23)
    cuts = 0
    for _ in range(500):
        dim = rng.randint(2, 5)
        rows = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(rng.randint(dim, dim + 6))]
        if rank(IntMatrix(rows)) < dim:
            continue
        rays = _dd(rows, dim)
        assert rays == dd_by_third_ray_scan(rows, dim), rows
        cuts += len(rays) > dim
    assert cuts >= 100, cuts

    calls = []
    real_dd = linprog._dd
    monkeypatch.setattr(linprog, "_dd", lambda rows, dim: calls.append((rows, dim)) or real_dd(rows, dim))
    for mod in (toriq.covering, toriq.fans, toriq.gale, toriq.linprog, toriq.polytope):
        for fn in vars(mod).values():
            if hasattr(fn, "cache_clear") and fn.__module__ == mod.__name__:
                fn.cache_clear()
    (a, fa), (b, fb) = (resolve_variety(load_document(fixture_path(n))) for n in ("dim2_r3_3", "dim2_r4_1"))
    v = IntMatrix([r + (0,) * b.cols for r in a.data] + [(0,) * a.cols + r for r in b.data])
    cones = [g + tuple(a.cols + j for j in h) for g in fa.max_cones for h in fb.max_cones]
    covering.analyze(v, FanData(v, cones))
    assert len(calls) >= 5, len(calls)
    for rows, dim in calls:
        assert real_dd(rows, dim) == dd_by_third_ray_scan(rows, dim), (rows, dim)


def test_square_cone_contains_matches_fraction_simplex():
    # n generators in Q^n: a nonsingular G is decided by its closed-form
    # facets, a singular one by the double description; both against
    # the Fraction simplex, with w inside, on a facet and outside, and
    # with integer and rational w
    rng = random.Random(23)
    seen = Counter()
    for _ in range(N_SYSTEMS):
        n = rng.randint(1, 4)
        gens = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n)]
        if rng.random() < 0.25:
            if n > 1:
                a, b = rng.sample(range(n), 2)
                s = rng.choice((-2, -1, 1, 2))
                gens[b] = tuple(s * x for x in gens[a])
            else:
                gens[0] = (0,)
        draw = rng.random()
        if draw < 0.6:
            # a nonnegative combination; a zero coefficient puts w on a facet
            coef = [rng.choice((0, 1, 2, 3)) for _ in gens]
            w = tuple(sum(c * g[i] for c, g in zip(coef, gens)) for i in range(n))
        else:
            w = tuple(rng.randint(-4, 4) for _ in range(n))
        if rng.random() < 0.3:
            # a rational w: one denominator per coordinate moves it in or
            # out of the cone, and the elimination must stay exact
            w = tuple(Fraction(x, rng.randint(1, 6)) for x in w)
            seen["rational"] += any(x.denominator > 1 for x in w)
        a = [[g[i] for g in gens] for i in range(n)]
        closed = lp_max_by_fractions([0] * n, a, w)[0] == "optimal"
        strict = strict_solution_by_fractions(a, w) is not None
        assert cone_contains(gens, w) == closed, (gens, w)
        assert cone_contains(gens, w, strict=True) == strict, (gens, w)
        singular = not _det(gens)
        seen["singular" if singular else "nonsingular"] += 1
        seen["interior"] += strict
        seen["on a facet"] += closed and not strict and any(w)
        seen["outside"] += not closed
        seen["singular, inside"] += singular and closed
    assert min(seen.values()) >= 100 and len(seen) == 7, seen
    # x = (-1/4, 1/4): outside, though floor division would round it in
    assert not cone_contains([(-1, 1), (1, 1)], (Fraction(1, 2), 0))
    assert cone_contains([(-1, 1), (1, 1)], (0, Fraction(1, 2)), strict=True)


def test_cone_facets_cache_is_bounded_and_immutable():
    # answers are tuples all the way down, so no caller can change the
    # next answer, and the cache keeps at most CACHE_SIZE generator tuples
    for gens in (((1, 0), (1, 2)), ((1, 0), (0, 1), (-1, -1)), ((1, 0),), ()):
        eqs, facets = _cone_facets(gens, 2)
        assert type(eqs) is tuple and all(type(e) is tuple for e in eqs), gens
        assert type(facets) is tuple and all(type(f) is tuple and type(f[0]) is tuple for f in facets), gens
    assert cone_contains([(1, 0), (1, 2)], (1, 1), strict=True)
    assert _cone_facets.cache_parameters()["maxsize"] == CACHE_SIZE
    _cone_facets.cache_clear()
    for k in range(CACHE_SIZE + 10):
        hits = _cone_facets.cache_info().hits
        assert _cone_facets(((1, k), (0, 1)), 2) is _cone_facets(((1, k), (0, 1)), 2)
        assert _cone_facets.cache_info().hits == hits + 1
        assert _cone_facets.cache_info().currsize <= CACHE_SIZE
    assert _cone_facets.cache_info().currsize == CACHE_SIZE
