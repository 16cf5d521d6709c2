import random

import pytest

from oracles import gl_canonical_form_by_prefix_hnf, has_mixed_pair, lp_max_by_fractions
from toriq.errors import RankDeficient
from toriq.gale import _fan_conditions, classify_matrix, gale_dual, gl_canonical_form, gl_equivalent
from toriq.intmat import IntMatrix, hnf, kernel_basis, rank, snf

BLUP_V = IntMatrix([[1, 0, 0, 0, -1, 1], [0, 1, 0, 0, -1, 1], [0, 0, 1, -1, -1, 1]])
BLUP_Q = IntMatrix([[1, 1, 1, 0, 1, 0], [0, 0, 1, 1, 0, 0], [0, 0, 0, 0, 1, 1]])


def test_classify_blowup_fan_matrix():
    rep = classify_matrix(BLUP_V)
    assert rep.is_F and rep.is_CF and rep.is_reduced


def test_classify_weight_vector():
    rep = classify_matrix(IntMatrix([[1, 3, 4]]))
    assert rep.is_W and rep.is_reduced
    assert not rep.is_F  # a single positive row spans no complete cone
    assert "F.b" in rep.violated_conditions


def test_classify_nonreduced():
    rep = classify_matrix(IntMatrix([[3, 3, -3], [0, 4, -3]]))
    assert rep.is_F and not rep.is_reduced


def test_classify_violations():
    rep = classify_matrix(IntMatrix([[1, 0, 0], [0, 1, 0]]))  # not F-complete
    assert not rep.is_F and "F.b" in rep.violated_conditions
    rep = classify_matrix(IntMatrix([[1, 0, 2], [0, 1, 0]]))  # parallel columns
    assert "F.d" in rep.violated_conditions
    rep = classify_matrix(IntMatrix([[1, 0, 0], [0, 1, 1]]))  # unit row vector
    assert "W.e" in rep.violated_conditions


def test_gale_dual_fixed_values():
    assert gale_dual(IntMatrix([[1, 9, -7], [0, 16, -12]])) == IntMatrix([[1, 3, 4]])
    assert gale_dual(IntMatrix([[1, 1, -1], [0, 4, -3]])) == IntMatrix([[1, 3, 4]])
    # identity block with a negative-sum column gives the all-ones weight
    m = IntMatrix([[1, 0, -1], [0, 1, -1]])
    assert gale_dual(m) == IntMatrix([[1, 1, 1]])


def test_gale_dual_blowup():
    q = gale_dual(BLUP_V)
    eq, p, s = gl_equivalent(q, BLUP_Q)
    assert eq
    # row space equals the kernel of the input
    assert all(
        all(x == 0 for x in BLUP_V.mul_vec(row)) for row in q.data
    )


def test_gale_dual_rank_error():
    with pytest.raises(RankDeficient):
        gale_dual(IntMatrix([[1, 2], [2, 4]]))


def test_gl_equivalent_witness():
    v1 = IntMatrix([[1, 0, 0, 0, -1, 1], [0, 1, 1, -1, -2, 2], [0, 0, 2, -2, -2, 2]])
    v1p = IntMatrix([[1, 0, 1, -1, -2, 2], [0, 1, 0, 0, -1, 1], [0, 0, 2, -2, -2, 2]])
    eq, p, s = gl_equivalent(v1, v1p)
    assert eq
    assert p * v1 * s == v1p
    assert abs(p.det()) == 1


def test_gl_equivalent_negative():
    v1 = IntMatrix([[1, 0, 0, 0, -1, 1], [0, 1, 1, -1, -2, 2], [0, 0, 2, -2, -2, 2]])
    v2 = IntMatrix([[1, 1, 0, 0, -2, 2], [0, 2, 0, 0, -2, 2], [0, 0, 1, -1, -1, 1]])
    eq, _, _ = gl_equivalent(v1, v2)
    assert not eq


def test_gl_equivalent_reflexive_on_self():
    eq, p, s = gl_equivalent(BLUP_V, BLUP_V)
    assert eq and p * BLUP_V * s == BLUP_V


def test_gl_equivalence_relation_spot_checks():
    rng = random.Random(13)
    mats = []
    for _ in range(6):
        m = IntMatrix([[rng.randint(-2, 2) for _ in range(4)] for _ in range(2)])
        if rank(m) == 2:
            mats.append(m)
    for a in mats:
        assert gl_equivalent(a, a)[0]
        for b in mats:
            ab = gl_equivalent(a, b)[0]
            ba = gl_equivalent(b, a)[0]
            assert ab == ba
            for c in mats:
                if ab and gl_equivalent(b, c)[0]:
                    assert gl_equivalent(a, c)[0]


def test_double_dual_gl_equivalence():
    for q in (
        IntMatrix([[1, 3, 4]]),
        IntMatrix([[1, 1, 1, 0], [0, 0, 1, 1]]),
        BLUP_Q,
    ):
        w = gale_dual(q)
        qq = gale_dual(w)
        assert gl_equivalent(q, qq)[0]


def test_gale_dual_nonnegative_when_possible():
    q = gale_dual(BLUP_V)
    assert all(x >= 0 for row in q.data for x in row)


def test_gale_dual_w_conditions_on_fixtures():
    for v in (
        BLUP_V,
        IntMatrix([[1, 9, -7], [0, 16, -12]]),
        IntMatrix([[1, 1, -2, 0, 0], [0, 3, -3, 1, -1], [0, 0, 0, 2, -2]]),
        IntMatrix([[1, 0, 5, -2, -3], [0, 1, 3, -3, -2], [0, 0, 6, -3, -3]]),
    ):
        q = gale_dual(v)
        rep = classify_matrix(q)
        assert rep.is_W, (v, q, rep.violated_conditions)
        assert rep.is_reduced


def test_gl_equivalent_against_exhaustive_permutations():
    # oracle: two matrices are equivalent iff some column permutation
    # makes their row HNFs equal; the library's pruned search must agree
    import itertools

    from toriq.intmat import hnf

    def brute(m1, m2):
        cols2 = m2.columns()
        h1, _ = hnf(m1)
        for perm in itertools.permutations(range(len(cols2))):
            h2, _ = hnf(IntMatrix.from_columns([cols2[i] for i in perm]))
            if h1 == h2:
                return True
        return False

    rng = random.Random(271)
    mats = []
    while len(mats) < 14:
        ncols = rng.randint(3, 5)
        m = IntMatrix([[rng.randint(-2, 2) for _ in range(ncols)] for _ in range(2)])
        if rank(m) == 2:
            mats.append(m)
    pairs = 0
    for a in mats:
        for b in mats:
            if (a.rows, a.cols) != (b.rows, b.cols):
                continue
            pairs += 1
            got, p, s = gl_equivalent(a, b)
            assert got == brute(a, b), (a, b)
            if got:
                assert p * a * s == b
    assert pairs > 20


def _family_quotients():
    import glob
    import os

    from conftest import FIXTURES
    from toriq.classify import enumerate_qgorenstein_family
    from toriq.cli import load_document, resolve_variety
    from toriq.errors import ToriqError

    for path in sorted(glob.glob(os.path.join(FIXTURES, "*.json"))):
        try:
            v, _ = resolve_variety(load_document(path))
            fam = enumerate_qgorenstein_family(gale_dual(v), 1)
        except ToriqError:
            continue
        for _, mat, _ in fam.kept + fam.rejected:
            yield mat


def test_gl_canonical_form_matches_prefix_hnf_search():
    # the search extends each parent's HNF by one column; the oracle runs
    # a full hnf on every prefix and must return the same (key, perm, H, U)
    rng = random.Random(41)
    mats = []
    for _ in range(300):
        rows, cols = rng.randint(1, 3), rng.randint(1, 6)
        mats.append(IntMatrix([[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]))
    quotients = list(_family_quotients())
    assert len(quotients) > 50
    for m in mats + quotients:
        key, perm, h, u = gl_canonical_form(m)
        assert (key, perm, h, u) == gl_canonical_form_by_prefix_hnf(m), m
        assert h == u * m.cols_at(perm)


def test_gl_canonical_form_runs_hnf_at_most_once(monkeypatch):
    from toriq import gale, intmat

    calls = []
    real = intmat.hnf

    def counted(a):
        calls.append(a)
        return real(a)

    monkeypatch.setattr(intmat, "hnf", counted)
    monkeypatch.setattr(gale, "hnf", counted)
    mats = list(_family_quotients())[:40] + [BLUP_V, BLUP_Q]
    for m in mats:
        before = len(calls)
        gl_canonical_form(m)
        assert len(calls) - before <= 1


def _scramble(rng, m: IntMatrix):
    """(U * m * S, perm) for a random unimodular U (a signed row
    permutation and shears) and a random column permutation S: column k
    of the result is column perm[k] of U * m."""
    n = m.rows
    perm = rng.sample(range(n), n)
    u = [[rng.choice((-1, 1)) if j == perm[i] else 0 for j in range(n)] for i in range(n)]
    for _ in range(3 if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]
    cols = (IntMatrix(u) * m).columns()
    perm = rng.sample(range(m.cols), m.cols)
    return IntMatrix.from_columns([cols[j] for j in perm]), perm


def _random_gl_matrix(rng, max_cols: int = 12) -> IntMatrix:
    """1-3 rows, 1 to max_cols columns, entries in [-3, 3]; some draws are
    rank-deficient (the last row a combination of the rows above it) and
    some repeat columns."""
    n, m = rng.randint(1, 3), rng.randint(1, max_cols)
    rows = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(n)]
    if n > 1 and rng.random() < 0.25:
        c = rng.randint(-2, 2)
        rows[-1] = [x + c * y for x, y in zip(rows[0], rows[1 % (n - 1)])]
    if m > 1 and rng.random() < 0.3:
        i, j = rng.sample(range(m), 2)
        for row in rows:
            row[i] = row[j]
    return IntMatrix(rows)


def test_gl_canonical_form_is_invariant():
    # a random U * M * S gets M's key, and its cells are M's cells moved
    # by S; symmetric columns (the hexagon's) stay in one cell
    from toriq.gale import _column_cells

    rng = random.Random(17)
    mats = [_random_gl_matrix(rng) for _ in range(150)] + list(_family_quotients())
    for m in mats:
        key, cells = gl_canonical_form(m)[0], _column_cells(m)
        for _ in range(2):
            scrambled, perm = _scramble(rng, m)
            assert gl_canonical_form(scrambled)[0] == key, (m, scrambled)
            assert _column_cells(scrambled) == [cells[j] for j in perm], (m, scrambled)
    hexagon = IntMatrix([[1, -1, 0, 1, 0, -1], [0, 0, 1, -1, -1, 1]])
    assert _column_cells(hexagon) == [0] * 6


def test_gl_keys_partition_family_quotients_like_the_full_search():
    # over the golden families' quotients, the cell-ordered keys are equal
    # exactly when the keys of the search over every column order are, so
    # `_gl_classes` keeps its classes and their order
    import json
    import os

    from conftest import FIXTURES
    from toriq.classify import _gl_classes, enumerate_qgorenstein_family

    with open(os.path.join(FIXTURES, "..", "perfbench", "golden.json")) as fh:
        golden = json.load(fh)

    def classes(entries, key):
        buckets = {}
        for entry in entries:
            buckets.setdefault(key(entry), []).append(entry)
        return list(buckets.values())

    quotients = 0
    for item in sorted(golden["families"]):
        name, h = item.rsplit(":h", 1)
        fam = enumerate_qgorenstein_family(IntMatrix(golden["weights"][name]["q"]), int(h))
        entries = [(sub, mat, sub.order) for sub, mat, _ in fam.kept + fam.rejected]
        old = {id(e): gl_canonical_form_by_prefix_hnf(e[1], [0] * e[1].cols)[0] for e in entries}
        new = {id(e): gl_canonical_form(e[1])[0] for e in entries}
        assert classes(entries, lambda e: new[id(e)]) == classes(entries, lambda e: old[id(e)]), item
        assert _gl_classes(entries) == classes(entries, lambda e: (e[2], old[id(e)])), item
        quotients += len(entries)
    assert quotients > 200


def test_gl_canonical_form_work_count(monkeypatch):
    # refining the columns first leaves the search a few Hermite steps per
    # column on random 3 x 12 matrices (the search over every column order
    # took 10^4 to 10^5 each)
    from toriq import gale

    calls = []
    real = gale._hermite_step

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(gale, "_hermite_step", counted)
    rng = random.Random(12)
    for _ in range(20):
        m = IntMatrix([[rng.randint(-3, 3) for _ in range(12)] for _ in range(3)])
        before = len(calls)
        gl_canonical_form(m)
        assert len(calls) - before <= 4 * m.cols, m


def test_gl_equivalent_shape_mismatch():
    a = IntMatrix([[1, 0], [0, 1]])
    b = IntMatrix([[1, 0, 0], [0, 1, 0]])
    assert gl_equivalent(a, b) == (False, None, None)


def test_gl_equivalent_scrambled_random():
    # scrambling by a random unimodular matrix and a permutation must
    # always be detected, with a working witness
    import itertools

    rng = random.Random(99)
    for _ in range(20):
        m = IntMatrix([[rng.randint(-3, 3) for _ in range(5)] for _ in range(3)])
        if rank(m) < 3:
            continue
        u = IntMatrix.identity(3)
        for _ in range(4):
            i, j = rng.sample(range(3), 2)
            c = rng.randint(-2, 2)
            data = [list(r) for r in u.data]
            data[i] = [x + c * y for x, y in zip(data[i], data[j])]
            u = IntMatrix(data)
        perm = list(range(5))
        rng.shuffle(perm)
        scrambled = IntMatrix.from_columns([(u * m).col(j) for j in perm])
        eq, p, s = gl_equivalent(m, scrambled)
        assert eq and p * m * s == scrambled


def _nonnegative(m: IntMatrix) -> bool:
    return all(x >= 0 for row in m.data for x in row)


def _is_gale_dual_of(q: IntMatrix, v: IntMatrix) -> bool:
    """q's rows are a basis of the saturated kernel of v."""
    return (
        all(not any(v.mul_vec(row)) for row in q.data)
        and hnf(q)[0] == hnf(kernel_basis(v).t())[0]
    )


def test_gale_dual_nonnegative_on_large_weights():
    # a bounded coefficient search found no nonnegative basis here, and
    # the classification then reported a spurious W.c violation
    v = IntMatrix([[1, 88, 75, 43, -56, -68, -83], [0, 112, 96, 56, -71, -87, -106]])
    q = gale_dual(v)
    assert _nonnegative(q)
    assert _is_gale_dual_of(q, v)
    assert "W.c" not in classify_matrix(q).violated_conditions


def _random_plane_fan(rng) -> IntMatrix:
    while True:
        m = rng.randint(7, 8)
        v = IntMatrix([[rng.randint(-9, 9) for _ in range(m)] for _ in range(2)])
        if all(_fan_conditions(v)):
            return v


def test_gale_dual_nonnegative_on_random_plane_fans():
    # positively spanning columns give a positive kernel vector, so by
    # Gordan's alternative a nonnegative kernel basis always exists
    rng = random.Random(5)
    for _ in range(60):
        v = _random_plane_fan(rng)
        q = gale_dual(v)
        assert _nonnegative(q), (v, q)
        assert _is_gale_dual_of(q, v), (v, q)


def _random_weight_side_matrix(rng) -> IntMatrix:
    kind = rng.random()
    rows = rng.randint(2 if kind < 0.2 else 1, 3)
    cols = rng.randint(rows + 1, 6)
    data = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
    if kind < 0.2:  # rank-deficient: a multiple of another row
        c = rng.choice((-2, -1, 2))
        data[-1] = [c * x for x in data[0]]
    elif kind < 0.4:  # a zero column
        j = rng.randrange(cols)
        for r in data:
            r[j] = 0
    elif kind < 0.7:  # mostly nonnegative rows, where W.c tends to hold
        data = [[abs(x) - (x == -3) for x in r] for r in data]
    return IntMatrix(data)


def test_weight_side_against_oracles():
    """W.f against the pairwise definition; W.c against a Gordan
    certificate when reported, and against the double Gale dual when not."""
    rng = random.Random(2024)
    kinds = ("W.c", "not W.c", "W.f", "not W.f", "rank-deficient", "zero column", "double dual")
    counts = dict.fromkeys(kinds, 0)
    for _ in range(400):
        m = _random_weight_side_matrix(rng)
        violated = classify_matrix(m).violated_conditions
        mixed = has_mixed_pair(m)
        assert ("W.f" in violated) == mixed, (m, violated)
        counts["W.f" if mixed else "not W.f"] += 1
        counts["rank-deficient"] += rank(m) < m.rows
        support = [j for j in range(m.cols) if any(m.col(j))]
        counts["zero column"] += len(support) < m.cols
        if "W.c" in violated:
            counts["W.c"] += 1
            # y >= 0, sum(y) = 1, m_S y = 0: no row-space vector is positive on S
            rows = [list(r) for r in m.cols_at(support).data] + [[1] * len(support)]
            _, _, y = lp_max_by_fractions([0] * len(support), rows, [0] * m.rows + [1])
            assert y is not None, (m, violated)
            assert sum(y) == 1 and all(x >= 0 for x in y)
            for r in m.cols_at(support).data:
                assert sum(a * b for a, b in zip(r, y)) == 0
        else:
            counts["not W.c"] += 1
        saturated = rank(m) == m.rows and all(d == 1 for d in snf(m).diagonal)
        if saturated:
            # the double dual is a basis of m's row lattice, nonnegative
            # exactly when such a basis exists
            counts["double dual"] += 1
            w = gale_dual(gale_dual(m))
            assert hnf(w)[0] == hnf(m)[0], m
            assert _nonnegative(w) == ("W.c" not in violated), (m, w, violated)
    assert all(c >= 20 for c in counts.values()), counts


def test_library_caches_are_bounded():
    import toriq
    from toriq.intmat import CACHE_SIZE

    cached = [
        fn
        for mod in (toriq.covering, toriq.fans, toriq.gale, toriq.linprog, toriq.polytope)
        for fn in vars(mod).values()
        if hasattr(fn, "cache_parameters") and fn.__module__ == mod.__name__
    ]
    assert len(cached) == 9
    assert all(fn.cache_parameters()["maxsize"] == CACHE_SIZE for fn in cached)
    # each (weight matrix, fan matrix) keeps at most CACHE_SIZE chambers
    q = IntMatrix([[1, 1, 1]])
    assert toriq.fans._chambers(q, gale_dual(q)).maxlen == CACHE_SIZE
    gale_dual.cache_clear()
    for k in range(CACHE_SIZE + 10):
        hits = gale_dual.cache_info().hits
        assert gale_dual(IntMatrix([[1, k, -1 - k]])) is gale_dual(IntMatrix([[1, k, -1 - k]]))
        assert gale_dual.cache_info().hits == hits + 1
        assert gale_dual.cache_info().currsize <= CACHE_SIZE
    assert gale_dual.cache_info().currsize == CACHE_SIZE


def _largest_entry(m: IntMatrix) -> int:
    return max((abs(x) for row in m.data for x in row), default=0)


def test_gale_dual_entry_size_is_bounded():
    # the nonnegative basis is lifted from one vector, and the lift can
    # multiply its imbalance: these bounds are the largest entries the
    # present construction gives, so a change that lets them grow fails
    # here (the kernel HNF of the first matrix has entries up to 29)
    m = IntMatrix([[1, 1, 4, 2, -3, 0, -4], [-5, -3, 2, -2, -1, 5, 1], [5, -1, 1, 3, 1, 4, 0]])
    assert _largest_entry(gale_dual(m)) <= 1796
    rng = random.Random(5)
    largest, full = 0, 0
    for _ in range(1000):
        rows, cols = rng.randint(1, 3), rng.randint(2, 7)
        q = IntMatrix([[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)])
        if rank(q) == rows:
            full += 1
            largest = max(largest, _largest_entry(gale_dual(q)))
    assert full == 929
    assert largest <= 9165
