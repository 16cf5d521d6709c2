import random
from collections import Counter
from fractions import Fraction
from math import gcd, lcm, prod

import pytest

from oracles import (
    det_by_gauss_jordan,
    eliminate_every_row,
    integral_rows,
    snf_by_alternating_hnf,
    solve_integer_by_smith,
    solve_unique,
)
from toriq.errors import NonIntegerQuotient, NotSquare, RankDeficient
from toriq.intmat import (
    FiniteAbelianGroup,
    IntMatrix,
    _coordinates,
    _det,
    _eliminate,
    cokernel,
    hnf,
    kernel_basis,
    lattice_index,
    primitive_kernel,
    quotient_matrix,
    rank,
    smith_diagonal,
    snf,
    solve_integer,
    unimodular_inverse,
)


def random_matrix(rng, rows, cols, lo=-5, hi=5):
    return IntMatrix([[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


def expand(rows):
    """Cofactor expansion along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    return sum(
        (-1) ** j * rows[0][j] * expand([r[:j] + r[j + 1 :] for r in rows[1:]])
        for j in range(len(rows))
    )


def snf_rank(rows) -> int:
    return sum(1 for d in snf(IntMatrix(rows)).diagonal if d)


def _check_snf(a):
    dec = snf(a)
    assert dec.P * a * dec.U == dec.D
    assert abs(dec.P.det()) == 1
    assert abs(dec.U.det()) == 1
    diag = dec.diagonal
    assert all(d >= 0 for d in diag)
    nz = [d for d in diag if d]
    for x, y in zip(nz, nz[1:]):
        assert y % x == 0
    # zeros last, off-diagonal zero
    assert diag[len(nz):] == (0,) * (len(diag) - len(nz))
    for i in range(dec.D.rows):
        for j in range(dec.D.cols):
            if i != j:
                assert dec.D[i, j] == 0
    if a.rows == a.cols:
        assert abs(dec.D.det()) == abs(a.det())
    return dec


def test_snf_postconditions_randomized():
    rng = random.Random(7)
    for _ in range(60):
        _check_snf(random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5)))
    # rank-deficient, with zero rows and columns
    for a in _shaped_matrices():
        _check_snf(a)


def test_snf_fixed_values():
    # the last six need a pivot moved onto the diagonal (pivots in later
    # columns) or a Bezout fold of pivots that do not divide each other
    cases = {
        ((1, 0), (2, 4)): (1, 4),
        ((21, -6), (-6, 2)): (1, 6),
        ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)): (1, 1, 1, 1),
        ((0, 3, 0), (0, 0, 2)): (1, 6),
        ((2, 0), (0, 3)): (1, 6),
        ((6, 0), (0, 4)): (2, 12),
        ((0, 0), (0, 5), (4, 0)): (1, 20),
        ((0, 4, 0, 0), (0, 0, 0, 6), (0, 0, 0, 0)): (2, 12, 0),
        ((3, 0, 0), (0, 0, 0), (0, 0, 2)): (1, 6, 0),
    }
    for rows, diag in cases.items():
        a = IntMatrix(rows)
        assert _check_snf(a).diagonal == diag, rows
        assert smith_diagonal(a) == diag, rows


def test_hnf_convention():
    h, u = hnf(IntMatrix([[2, 4], [1, 3]]))
    assert u * IntMatrix([[2, 4], [1, 3]]) == h
    assert h == IntMatrix([[1, 1], [0, 2]])
    h, u = hnf(IntMatrix.identity(3))
    assert h == IntMatrix.identity(3)


def test_hnf_exhaustive_2x2_oracle():
    # the canonical form is the unique HNF-shaped basis of the row
    # lattice; enumerate every shaped candidate of the right determinant
    # and check row-lattice equality both ways
    def members(h, v):
        v = list(v)
        for row in h.data:
            piv = next((c for c, x in enumerate(row) if x), None)
            if piv is None or v[piv] % row[piv]:
                continue
            q = v[piv] // row[piv]
            v = [a - q * b for a, b in zip(v, row)]
        return not any(v)

    rng = random.Random(3)
    for _ in range(15):
        m = random_matrix(rng, 2, 2, -4, 4)
        d = abs(m.det())
        if d == 0:
            continue
        h, _ = hnf(m)
        matches = []
        for a in range(1, d + 1):
            if d % a:
                continue
            c = d // a
            for b in range(c):
                cand = IntMatrix([[a, b], [0, c]])
                if all(members(cand, row) for row in m.data) and all(
                    members(h, row) for row in cand.data
                ):
                    matches.append(cand)
        assert matches == [h]


def test_hnf_column_prefix_stability():
    rng = random.Random(11)
    for _ in range(40):
        a = random_matrix(rng, rng.randint(2, 4), rng.randint(2, 6))
        h, _ = hnf(a)
        for j in range(1, a.cols):
            hj, _ = hnf(a.cols_at(range(j)))
            assert hj == h.cols_at(range(j))


def test_kernel_basis_saturated():
    rng = random.Random(23)
    for _ in range(40):
        a = random_matrix(rng, 2, 4)
        if rank(a) < 2:
            continue
        k = kernel_basis(a)
        assert all(all(x == 0 for x in a.mul_vec(k.col(j))) for j in range(k.cols))
        if k.cols:
            assert all(d == 1 for d in snf(k).diagonal if d)


def _shaped_matrices(seed=11, count=600):
    """Seeded 1-5 x 1-7 integer matrices, entries in [-6, 6], a quarter
    each with a zero row, a zero column or a row that is a combination of
    two others."""
    rng = random.Random(seed)
    out = []
    for t in range(count):
        rows, cols = rng.randint(1, 5), rng.randint(1, 7)
        m = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        kind = t % 4
        if kind == 1:
            m[rng.randrange(rows)] = [0] * cols
        elif kind == 2:
            j = rng.randrange(cols)
            for r in m:
                r[j] = 0
        elif kind == 3 and rows >= 3:
            a, b = rng.randint(-2, 2), rng.randint(-2, 2)
            m[2] = [a * x + b * y for x, y in zip(m[0], m[1])]
        out.append(IntMatrix(m))
    return out


def test_transform_free_normal_forms_match_snf():
    # smith_diagonal, cokernel and lattice_index skip the transforms and
    # snf keeps them; all run one Smith loop, so the reference diagonal
    # is the oracle's alternating-HNF reduction
    mats = _shaped_matrices()
    deficient = 0
    for a in mats:
        diag = snf_by_alternating_hnf(a).diagonal
        assert smith_diagonal(a) == diag, a
        assert snf(a).diagonal == diag, a
        r = sum(1 for d in diag if d)
        deficient += r < min(a.rows, a.cols)
        assert cokernel(a) == FiniteAbelianGroup(tuple(d for d in diag if d >= 2), a.rows - r)
        if r == a.rows:
            assert lattice_index(a) == prod(diag)
        else:
            with pytest.raises(RankDeficient):
                lattice_index(a)
    assert deficient > 100


def test_kernel_basis_from_hnf_transform():
    for a in _shaped_matrices(seed=12):
        k = kernel_basis(a)
        assert (k.rows, k.cols) == (a.cols, a.cols - rank(a))
        if k.cols:
            assert all(x == 0 for row in (a * k).data for x in row)
            assert cokernel(k).invariant_factors == ()


def test_kernel_of_all_ones():
    k = kernel_basis(IntMatrix([[1, 1, 1]]))
    assert k.cols == 2
    assert all(sum(k.col(j)) == 0 for j in range(2))


def test_cokernel_fixed_values():
    assert cokernel(IntMatrix([[21, -6], [-6, 2]])) == FiniteAbelianGroup((6,))
    mds = IntMatrix([[-3, -6, -6], [-3, -6, 4], [9, 3, -2]])
    assert cokernel(mds) == FiniteAbelianGroup((15, 30))
    assert cokernel(IntMatrix.identity(3)).is_trivial()


def test_cokernel_transpose_symmetry():
    rng = random.Random(5)
    for _ in range(50):
        a = random_matrix(rng, 3, 3)
        assert cokernel(a).invariant_factors == cokernel(a.t()).invariant_factors


def test_quotient_matrix():
    v = IntMatrix([[1, 9, -7], [0, 16, -12]])
    w = IntMatrix([[1, 1, -1], [0, 4, -3]])
    b = quotient_matrix(v, w)
    assert b.t() == IntMatrix([[1, 0], [2, 4]])
    assert b * w == v
    assert quotient_matrix(w, w) == IntMatrix.identity(2)
    assert quotient_matrix(w * 3, w) == IntMatrix.identity(2) * 3
    with pytest.raises(NonIntegerQuotient):
        quotient_matrix(w, v)
    with pytest.raises(RankDeficient):
        quotient_matrix(v, IntMatrix([[1, 1, -1], [2, 2, -2]]))
    # one elimination of [w_j | v_j]: a pivot past w's columns means a row
    # of v outside the row span of w
    e = IntMatrix([[1, 0, 0], [0, 1, 0]])
    with pytest.raises(NonIntegerQuotient):
        quotient_matrix(IntMatrix([[0, 0, 1], [0, 1, 0]]), e)
    with pytest.raises(NonIntegerQuotient):
        quotient_matrix(IntMatrix([[1, 1, 0], [0, 1, 0]]), e * 2)
    with pytest.raises(RankDeficient):
        quotient_matrix(IntMatrix([[1, 0, 0], [1, 0, 0]]), e)


def test_quotient_matrix_index_consistency():
    # |det B| equals the index of the dividend's row lattice in the
    # divisor's, computed independently through the normal form
    rng = random.Random(17)
    for _ in range(30):
        w = random_matrix(rng, 2, 4)
        if rank(w) < 2:
            continue
        b = IntMatrix([[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)])
        if b.det() == 0:
            continue
        v = b * w
        got = quotient_matrix(v, w)
        assert got * w == v
        assert abs(got.det()) == abs(b.det())


def test_det():
    assert IntMatrix([[1, 2], [0, 4]]).det() == 4
    assert abs(IntMatrix([[-3, -6, -6], [-3, -6, 4], [9, 3, -2]]).det()) == 450
    assert IntMatrix.identity(5).det() == 1
    with pytest.raises(NotSquare):
        IntMatrix([[1, 2, 3]]).det()


def test_det_matches_float_free_expansion():
    rng = random.Random(41)
    for _ in range(30):
        n = rng.randint(1, 4)
        m = random_matrix(rng, n, n)
        assert m.det() == expand([list(r) for r in m.data])


def test_elimination_core_randomized():
    # det, kernel and solve on integer and rational, square and
    # non-square, full-rank and rank-deficient matrices; ranks come from
    # the Smith form, independently of the elimination
    rng = random.Random(53)
    for trial in range(400):
        nr, nc = rng.randint(1, 5), rng.randint(1, 6)
        a = [[rng.randint(-6, 6) for _ in range(nc)] for _ in range(nr)]
        if trial % 3 == 0:  # rank k < min(nr, nc), as a product through Z^k
            k = rng.randint(0, min(nr, nc) - 1)
            left = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(nr)]
            right = [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(k)]
            a = [[sum(x * right[t][j] for t, x in enumerate(row)) for j in range(nc)] for row in left]
        if trial % 5 == 0:
            rational = [[Fraction(x, rng.randint(1, 4)) for x in row] for row in a]
        else:
            rational = a
        r = snf_rank(integral_rows(rational))
        if nr == nc:
            assert IntMatrix(a).det() == expand(a)
            # a rational row is scaled by the lcm of its denominators
            dens = [lcm(*(Fraction(x).denominator for x in row)) for row in rational]
            assert Fraction(_det(integral_rows(rational)), prod(dens)) == expand(rational)
        kernel = primitive_kernel(integral_rows(rational))
        assert len(kernel) == nc - r
        for k in kernel:
            assert gcd(*k) == 1
            assert all(sum(x * y for x, y in zip(row, k)) == 0 for row in rational)
        if kernel:
            assert snf_rank(kernel) == len(kernel)
        x0 = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(nc)]
        b = [sum(x * y for x, y in zip(row, x0)) for row in rational]
        if trial % 2:
            b[-1] += 1  # inconsistent unless the last row is independent
        sol = solve_unique(rational, b)
        consistent = snf_rank(integral_rows([list(row) + [y] for row, y in zip(rational, b)])) == r
        assert (sol is not None) == (r == nc and consistent)
        if sol is not None:
            assert all(sum(x * y for x, y in zip(row, sol)) == y for row, y in zip(rational, b))
            if not trial % 2:
                assert sol == tuple(x0)


def sparse_rows(rng, nr, nc):
    """nr x nc rows with entries in [-4, 4], each nonzero with a seeded
    probability between 0.1 and 1, so zero rows and columns, rank
    deficiency and unit and non-unit pivots all occur."""
    density = rng.uniform(0.1, 1)
    return [
        [rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)) if rng.random() < density else 0 for _ in range(nc)]
        for _ in range(nr)
    ]


def test_skipped_updates_match_full_gauss_jordan():
    # the elimination that skips the updates that cannot change a row, in
    # full and in the forward-only mode behind det and rank, gives exactly
    # what applying every update gives
    rng = random.Random(13)
    seen = Counter()
    for _ in range(20000):
        nr, nc = rng.randint(1, 6), rng.randint(1, 8)
        rows = sparse_rows(rng, nr, nc)
        want = eliminate_every_row(rows)
        assert _eliminate(rows) == want, rows
        assert _eliminate(rows, forward=True)[1:] == want[1:], rows
        assert rank(IntMatrix(rows)) == len(want[1]), rows
        k = min(nr, nc)
        block = [row[:k] for row in rows[:k]]
        assert _det(block) == det_by_gauss_jordan(block), block
        seen["zero row"] += not all(map(any, rows))
        seen["zero column"] += not all(map(any, zip(*rows)))
        seen["rank deficient"] += len(want[1]) < k
        seen["unit d" if abs(want[2]) == 1 else "non-unit d"] += 1
        seen["singular block"] += not _det(block)
    assert min(seen.values()) >= 1000 and len(seen) == 6, seen
    assert _det([]) == 1 and rank(IntMatrix([])) == 0


def test_det_and_rank_run_no_gauss_jordan(monkeypatch):
    # det and rank take the forward pass only: every _eliminate call they
    # make is forward-only
    from toriq import intmat

    real, modes = intmat._eliminate, []

    def recorded(rows, forward=False):
        modes.append(forward)
        return real(rows, forward=forward)

    monkeypatch.setattr(intmat, "_eliminate", recorded)
    rng = random.Random(29)
    for _ in range(200):
        n = rng.randint(0, 6)
        m = IntMatrix(sparse_rows(rng, n, n)) if n else IntMatrix([])
        assert m.det() == det_by_gauss_jordan(m.data)
        assert rank(m) == len(eliminate_every_row(m.data)[1])
    if len(modes) != 400 or not all(modes):  # raises, so it also runs under python -O
        raise AssertionError(f"det and rank made {len(modes)} eliminations, not 400 forward-only ones")


def test_solve_integer():
    a = IntMatrix([[2, 0], [0, 3]])
    assert solve_integer(a, (4, 9)) == (2, 3)
    assert solve_integer(a, (1, 0)) is None
    assert solve_integer(IntMatrix([[1, 1]]), (5,)) is not None


def test_solve_integer_matches_smith_oracle():
    # 5,000 systems, 1-4 x 1-6, entries in [-6, 6] with about 30% zeros,
    # half solvable by construction: the Hermite route answers exactly when
    # the Smith route does, every x it returns solves a*x = b, and the
    # coordinates on the nonzero HNF rows of a^T agree on membership.
    # Checks raise explicitly, so they also run under python -O.
    rng = random.Random(11)
    solvable = 0
    for _ in range(5000):
        rows, cols = rng.randint(1, 4), rng.randint(1, 6)
        a = IntMatrix([[0 if rng.random() < 0.3 else rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)])
        if rng.random() < 0.5:
            b = a.mul_vec(tuple(rng.randint(-3, 3) for _ in range(cols)))
        else:
            b = tuple(rng.randint(-6, 6) for _ in range(rows))
        x, expect = solve_integer(a, b), solve_integer_by_smith(a, b)
        if (x is None) != (expect is None):
            raise AssertionError(f"solve_integer({a}, {b}) is {x}, the Smith route gives {expect}")
        if x is not None and a.mul_vec(x) != b:
            raise AssertionError(f"solve_integer({a}, {b}) = {x} does not solve the system")
        h = [r for r in hnf(a.t())[0].data if any(r)]
        if (_coordinates(h, b) is None) != (expect is None):
            raise AssertionError(f"_coordinates disagrees with the Smith route on {a}, {b}")
        solvable += x is not None
    if not 2500 <= solvable < 5000:
        raise AssertionError(f"{solvable} solvable systems of 5,000")


def test_unimodular_inverse():
    u = IntMatrix([[1, 2], [1, 3]])
    assert u * unimodular_inverse(u) == IntMatrix.identity(2)


def test_lattice_index():
    assert lattice_index(IntMatrix([[1, 9, -7], [0, 16, -12]])) == 4
    with pytest.raises(RankDeficient):
        lattice_index(IntMatrix([[1, 1], [1, 1]]))


def test_group_direct_sum():
    g = FiniteAbelianGroup((2,)).direct_sum(FiniteAbelianGroup((2,)))
    assert g == FiniteAbelianGroup((2, 2))
    g = FiniteAbelianGroup((2,)).direct_sum(FiniteAbelianGroup((3,)))
    assert g == FiniteAbelianGroup((6,))
    assert str(FiniteAbelianGroup((2, 12))) == "Z/2 + Z/12"


@pytest.mark.parametrize("bad", [1.0, True, Fraction(1, 2), "3"])
def test_public_constructors_reject_non_integer_entries(bad):
    with pytest.raises(ValueError):
        IntMatrix([[1, bad], [0, 1]])
    with pytest.raises(ValueError):  # after plain ints in its row
        IntMatrix([[0, 1, 2, bad]])
    with pytest.raises(ValueError):
        IntMatrix.from_columns([(1, 0), (bad, 1)])


def test_public_constructors_reject_ragged_rows_and_take_integral_fractions():
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        IntMatrix.from_columns([(1, 2), (3,)])
    with pytest.raises(ValueError):
        IntMatrix.from_columns([(1,), (2, 3)])
    m = IntMatrix([[Fraction(4, 2), 1]])
    assert m == IntMatrix([[2, 1]]) and type(m[0, 0]) is int
    c = IntMatrix.from_columns([(Fraction(6, 3),), (1,)])
    assert c == m and type(c[0, 0]) is int


def test_trusted_builds_equal_checked_builds():
    # every matrix derived from checked ones holds plain ints and equals
    # (with equal hash) the same rows passed through the public constructor
    rng = random.Random(17)

    def same_as_checked(res):
        assert all(type(x) is int for r in res.data for x in r)
        checked = IntMatrix([list(r) for r in res.data])
        assert res == checked and hash(res) == hash(checked)
        assert (res.rows, res.cols) == (checked.rows, checked.cols)

    for _ in range(300):
        r, c = rng.randint(1, 4), rng.randint(1, 5)
        a = random_matrix(rng, r, c, -4, 4)
        b = random_matrix(rng, c, rng.randint(1, 4), -4, 4)
        h, u = hnf(a)
        dec = snf(a)
        results = [
            a.t(), a * b, a * 3, a + a, a.hstack(a), a.vstack(a),
            a.cols_at([c - 1, 0]), h, u, dec.D, dec.P, dec.U,
            kernel_basis(a), unimodular_inverse(u),
        ]
        if rank(a) == r:
            x = random_matrix(rng, r, r, -3, 3)
            if x.det():
                results.append(quotient_matrix(x * a, a))
        for res in results:
            same_as_checked(res)


def test_columns_match_the_rows_however_the_matrix_is_built():
    # columns are built once, on first read, for every way of building a
    # matrix, and reading them changes neither == nor hash
    rng = random.Random(29)
    for _ in range(50):
        r, c = rng.randint(1, 4), rng.randint(1, 5)
        a = random_matrix(rng, r, c)
        b = random_matrix(rng, r, rng.randint(1, 3))
        built = [
            a, IntMatrix._of(a.data), a.t(), a.cols_at([c - 1, 0, c - 1]), a.hstack(b),
            IntMatrix.identity(r), IntMatrix.from_columns(a.columns()),
        ]
        for m in built:
            twin = IntMatrix._of(m.data)
            expected = list(zip(*m.data))
            assert m.columns() == expected
            assert [m.col(j) for j in range(m.cols)] == expected
            assert m.col(m.cols - 1) is m.col(m.cols - 1)
            m.columns().append(())
            assert m.columns() == expected
            assert m == twin and hash(m) == hash(twin)
    for empty in (IntMatrix([]), IntMatrix._of([]), IntMatrix.identity(0), IntMatrix([]).t()):
        assert empty.col(0) == () and empty.columns() == []
        assert empty == IntMatrix([]) and hash(empty) == hash(IntMatrix([]))
