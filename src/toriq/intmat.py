"""Exact dense integer matrices, with the integer normal forms (Smith,
Hermite), kernels, cokernels and the matrix-division operation that
every quotient construction in the library is built on.  Null space,
inverse, quotients and the cone predicates share one fraction-free
Gauss-Jordan elimination (`_eliminate`); determinant and rank take its
forward half only (`_forward`).  Both pay only for entries that change:
Bareiss's update (piv*x - f*y) // prev divides exactly by Sylvester's
identity, so a row with f = 0 becomes piv*x // prev (x itself when
piv = prev, which is skipped), and no division is made when prev = 1.
When every maximal minor is wanted at once, `_maximal_minors` builds them
all by one Laplace expansion.

Every Hermite reduction runs one column step (`_hermite_step`), and every
Smith reduction one loop (`_smith`), each with or without the unimodular
transforms.  Each normal form is computed only as far as its caller reads
it: `hnf` carries the transform, `kernel_basis` reads the kernel off it,
`smith_diagonal` (behind `cokernel` and `lattice_index`) carries no
transform, and `snf` carries both for the one caller that reads Smith
coordinates, the torsion matrix of `classify`.  Lattice coordinates take
one back substitution on HNF rows (`_coordinates`): `solve_integer`, W.e
in `gale` and the annihilators of `classify` share it.

All entries are Python ints, so nothing ever overflows.  A rational point
set is an IntMatrix of numerators over one common denominator (see
`polytope`).  The matrices are immutable; every operation returns a fresh
value.

Entries are checked once, where they enter the library.  The public
`IntMatrix(...)` and `IntMatrix.from_columns` reject a float, a bool, a
string, a non-integral Fraction and ragged rows with ValueError (an
integral Fraction becomes an int).  Every matrix the library derives
from checked data (products, transposes, stacks, normal forms, kernels,
quotients) is built by the trusted `_of`, which stores the rows as given.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, prod

from .errors import NonIntegerQuotient, NotConverged, NotSquare, RankDeficient

# Entries kept by each memoized library function (least recently used
# first out).  Matrices are immutable and hashable, so they are the keys;
# one process analysing many inputs keeps a bounded working set.
CACHE_SIZE = 1024


def _as_int(x) -> int:
    if isinstance(x, Fraction):
        if x.denominator != 1:
            raise ValueError(f"non-integer entry {x}")
        return x.numerator
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"non-integer entry {x!r}")
    return x


def _eliminate(rows):
    """Fraction-free Gauss-Jordan elimination of integer rows (Bareiss,
    Math. Comp. 1968): the one exact elimination behind kernels,
    inverses, matrix division and the cone predicates.

    Returns (m, pivots, d, sign): m is d times the reduced row echelon
    form (pivot rows first), pivots its pivot columns, d the last pivot
    (the minor on the pivot rows and columns, 1 at rank 0) and sign the
    parity of the row swaps.  Each update (piv*row_i - m[i][c]*row_r) //
    prev divides exactly by Sylvester's identity, so an update that
    cannot change a row is skipped: a row with m[i][c] = 0 is left as it
    is when piv = prev and only scaled, piv*row_i // prev, otherwise, and
    no division is made when prev = 1.
    """
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
            if i == r:
                continue
            row = m[i]
            f = row[c]
            if f:
                if prev == 1:
                    m[i] = [piv * x - f * y for x, y in zip(row, top)]
                else:
                    m[i] = [(piv * x - f * y) // prev for x, y in zip(row, top)]
            elif piv != prev:
                m[i] = [piv * x for x in row] if prev == 1 else [piv * x // prev for x in row]
        prev = piv
        pivots.append(c)
    return m, pivots, prev, sign


def _forward(rows) -> tuple:
    """(rank, d, sign) of integer rows by forward-only fraction-free
    elimination: each pivot updates only the rows below it, on the columns
    right of it, with the updates of `_eliminate` (and the same skips).
    d is the last pivot, which on a nonsingular square matrix is sign
    times its determinant."""
    m = [list(r) for r in rows]  # the rows not yet pivoted, from the current column on
    rank, prev, sign = 0, 1, 1
    while m and m[0]:
        p = next((i for i, row in enumerate(m) if row[0]), None)
        if p is None:
            m = [row[1:] for row in m]
            continue
        if p:
            m[0], m[p] = m[p], m[0]
            sign = -sign
        top = m[0]
        piv, tail = top[0], top[1:]
        nxt = []
        for row in m[1:]:
            f = row[0]
            if f:
                if prev == 1:
                    nxt.append([piv * x - f * y for x, y in zip(row[1:], tail)])
                else:
                    nxt.append([(piv * x - f * y) // prev for x, y in zip(row[1:], tail)])
            elif piv == prev:
                nxt.append(row[1:])
            else:
                nxt.append([piv * x // prev for x in row[1:]])
        m, prev, rank = nxt, piv, rank + 1
    return rank, prev, sign


def _det(rows) -> int:
    """Determinant of square integer rows, by one forward pass."""
    rank, d, sign = _forward(rows)
    return sign * d if rank == len(rows) else 0


def _maximal_minors(rows) -> dict:
    """Every r x r minor of r integer rows (r <= columns), keyed by the
    sorted tuple of its columns.

    Laplace expansion one row at a time: the k-row minors are expanded
    along row k - 1 into the (k-1)-row minors of the rows above, so each
    minor of each size is computed once.
    """
    level = {(j,): x for j, x in enumerate(rows[0])}
    cols = range(len(rows[0]))
    for k, row in enumerate(rows[1:], 1):
        nxt = {}
        for s in combinations(cols, k + 1):
            total = 0
            for t, j in enumerate(s):
                x = row[j]
                if x:
                    sub = level[s[:t] + s[t + 1 :]]
                    # cofactor sign (-1)^(k + t) of entry (k, t)
                    total += x * sub if (k + t) % 2 == 0 else -x * sub
            nxt[s] = total
        level = nxt
    return level


def primitive_kernel(rows) -> list:
    """Basis of the rational null space of nonempty integer rows: one
    primitive integer vector per free column f, positive at f."""
    m, pivots, d, _ = _eliminate(rows)
    if d < 0:
        m, d = [[-x for x in r] for r in m], -d
    basis = []
    for f in range(len(rows[0])):
        if f in pivots:
            continue
        vec = [0] * len(rows[0])
        vec[f] = d
        for i, c in enumerate(pivots):
            vec[c] = -m[i][f]
        g = gcd(*vec)
        basis.append(tuple(x // g for x in vec))
    return basis


class IntMatrix:
    """Immutable integer matrix stored row-major; columns built on first read."""

    __slots__ = ("rows", "cols", "data", "_columns")

    def __init__(self, data):
        rows = tuple(tuple(_as_int(x) for x in row) for row in data)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged rows")
        self.data = rows
        self.rows = len(rows)
        self.cols = len(rows[0]) if rows else 0

    @classmethod
    def _of(cls, rows):
        """Trusted build from equal-length rows of ints, stored as given."""
        m = object.__new__(cls)
        m.data = data = tuple(map(tuple, rows))
        m.rows = len(data)
        m.cols = len(data[0]) if data else 0
        return m

    @classmethod
    def from_columns(cls, cols):
        cols = [tuple(c) for c in cols]
        if any(len(c) != len(cols[0]) for c in cols):
            raise ValueError("ragged columns")
        return cls([[c[i] for c in cols] for i in range(len(cols[0]))] if cols else [])

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix._of([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    # -- access -----------------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def row(self, i: int) -> tuple:
        return self.data[i]

    def _column_tuple(self) -> tuple:
        if not hasattr(self, "_columns"):
            self._columns = tuple(zip(*self.data))
        return self._columns

    def col(self, j: int) -> tuple:
        return self._column_tuple()[j] if self.data else ()

    def columns(self):
        return list(self._column_tuple())

    def cols_at(self, idx):
        return self._of([[r[j] for j in idx] for r in self.data])

    def rows_at(self, idx):
        return self._of([self.data[i] for i in idx])

    def t(self):
        return self._of(zip(*self.data))

    # -- algebra ----------------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, int):
            return IntMatrix._of([[x * other for x in r] for r in self.data])
        if isinstance(other, IntMatrix):
            if self.cols != other.rows:
                raise ValueError("shape mismatch")
            ot = list(zip(*other.data))
            return IntMatrix._of(
                [[sum(a * b for a, b in zip(r, c)) for c in ot] for r in self.data]
            )
        return NotImplemented

    __rmul__ = lambda self, other: self.__mul__(other) if isinstance(other, int) else NotImplemented

    def __neg__(self):
        return self * -1

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        return IntMatrix._of([[a + b for a, b in zip(r, s)] for r, s in zip(self.data, other.data)])

    def __sub__(self, other):
        return self + (-other)

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise ValueError("shape mismatch")
        return IntMatrix._of([r + s for r, s in zip(self.data, other.data)])

    def vstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.cols:
            raise ValueError("shape mismatch")
        return IntMatrix._of(self.data + other.data)

    def mul_vec(self, v):
        if len(v) != self.cols:
            raise ValueError("shape mismatch")
        return tuple(sum(a * b for a, b in zip(r, v)) for r in self.data)

    def det(self) -> int:
        """Exact determinant by fraction-free elimination."""
        if self.rows != self.cols:
            raise NotSquare(f"{self.rows}x{self.cols} matrix has no determinant")
        return _det(self.data)

    # -- dunder plumbing ---------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.data == other.data

    def __hash__(self):
        return hash(self.data)

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.data]})"


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Isomorphism type of a finitely generated abelian group.

    invariant_factors is the ordered chain d1 | d2 | ... with every di >= 2;
    free_rank counts the Z summands.
    """

    invariant_factors: tuple
    free_rank: int = 0

    def __post_init__(self):
        fs = tuple(int(d) for d in self.invariant_factors)
        object.__setattr__(self, "invariant_factors", fs)
        if any(d < 2 for d in fs):
            raise ValueError("invariant factors must be >= 2")
        for a, b in zip(fs, fs[1:]):
            if b % a != 0:
                raise ValueError("invariant factors must form a divisibility chain")

    @property
    def order(self):
        if self.free_rank:
            return None
        return prod(self.invariant_factors, start=1)

    def is_trivial(self) -> bool:
        return not self.invariant_factors and self.free_rank == 0

    def direct_sum(self, other: "FiniteAbelianGroup") -> "FiniteAbelianGroup":
        diag = list(self.invariant_factors) + list(other.invariant_factors)
        n = len(diag)
        if n == 0:
            return FiniteAbelianGroup((), self.free_rank + other.free_rank)
        d = IntMatrix._of([[diag[i] if i == j else 0 for j in range(n)] for i in range(n)])
        g = cokernel(d)
        return FiniteAbelianGroup(g.invariant_factors, self.free_rank + other.free_rank)

    def __str__(self):
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.invariant_factors]
        return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class SnfDecomposition:
    """Smith decomposition P*A*U = D with P, U unimodular and D a
    nonnegative diagonal divisibility chain."""

    D: IntMatrix
    P: IntMatrix
    U: IntMatrix

    @property
    def diagonal(self) -> tuple:
        n = min(self.D.rows, self.D.cols)
        return tuple(self.D[i, i] for i in range(n))


def _hermite_step(m, u, r, c) -> int:
    """One column of the row Hermite reduction, in place on the row lists
    m (and u, the transform, unless it is None): gcd the entries of
    column c at and below row r into row r by repeated division with the
    least nonzero one, make that pivot positive and reduce the entries
    above it into [0, pivot).  Returns the next pivot row: r + 1, or r
    when column c is zero below row r.  Rows are replaced, never changed
    in place, so a shallow copy of m or u is a snapshot.
    """
    nr = len(m)
    while True:
        piv, val = None, None
        for i in range(r, nr):
            x = m[i][c]
            if x and (val is None or abs(x) < val):
                piv, val = i, abs(x)
        if piv is None:
            return r
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            if u is not None:
                u[r], u[piv] = u[piv], u[r]
        top, p = m[r], m[r][c]
        done = True
        for i in range(r + 1, nr):
            q = m[i][c] // p
            if q:
                m[i] = [x - q * y for x, y in zip(m[i], top)]
                if u is not None:
                    u[i] = [x - q * y for x, y in zip(u[i], u[r])]
            if m[i][c]:
                done = False
        if done:
            break
    if m[r][c] < 0:
        m[r] = [-x for x in m[r]]
        if u is not None:
            u[r] = [-x for x in u[r]]
    top, p = m[r], m[r][c]
    for i in range(r):
        q = m[i][c] // p
        if q:
            m[i] = [x - q * y for x, y in zip(m[i], top)]
            if u is not None:
                u[i] = [x - q * y for x, y in zip(u[i], u[r])]
    return r + 1


def _hermite_rows(m, u=None) -> int:
    """Row Hermite reduction of the row lists m in place, column by
    column (`_hermite_step`); returns the rank."""
    r = 0
    for c in range(len(m[0]) if m else 0):
        if r == len(m):
            break
        r = _hermite_step(m, u, r, c)
    return r


def _coordinates(rows, v):
    """The integer y with y*rows = v, rows the nonzero rows of a row echelon
    form, by back substitution along their pivots (Cohen, *A Course in
    Computational Algebraic Number Theory*, ch. 2); None off their span."""
    v, y = list(v), []
    for row in rows:
        c = next(j for j, x in enumerate(row) if x)
        q = v[c] // row[c]  # a remainder stays at c: the rows below are zero there
        if q:
            v = [a - q * b for a, b in zip(v, row)]
        y.append(q)
    return None if any(v) else y


def hnf(a: IntMatrix) -> tuple:
    """Row-style Hermite normal form.

    Returns (H, U) with H = U*a, U unimodular, pivots positive, entries
    above each pivot reduced into [0, pivot), zero rows at the bottom.
    """
    m = [list(r) for r in a.data]
    u = [[int(i == j) for j in range(a.rows)] for i in range(a.rows)]
    _hermite_rows(m, u)
    return IntMatrix._of(m), IntMatrix._of(u)


def rank(a: IntMatrix) -> int:
    return _forward(a.data)[0]


_SNF_ROUNDS = 500


def _smith(m, p=None, ut=None) -> tuple:
    """The one Smith reduction, of the row lists m in place: the Smith
    diagonal, padded with zeros to min(rows, cols) entries.

    Row Hermite reductions of m, acting on p (the left transform), and of
    its transpose, acting on ut (the right transform transposed),
    alternate until every nonzero row holds one entry; those pivots are
    folded pairwise into a divisibility chain, (x, y) -> (gcd, lcm).
    Without transforms nothing else is done.  With them (row lists,
    changed in place), rows of ut are swapped so that pivot i lands at
    (i, i), and each pair with x not dividing y is folded by the
    unimodular Bezout step (Cohen, *A Course in Computational Algebraic
    Number Theory*): with s x + t y = g,
    [[s, t], [-y/g, x/g]] diag(x, y) [[1, -t y/g], [1, s x/g]] = diag(g, lcm).
    """
    n = min(len(m), len(m[0])) if m else 0
    rounds = 0
    while True:
        rounds += 1
        if rounds > _SNF_ROUNDS:
            raise NotConverged("Smith reduction failed to converge")
        r = _hermite_rows(m, p)
        if all(sum(map(bool, row)) == 1 for row in m[:r]):
            break
        m = [list(c) for c in zip(*m)]
        p, ut = ut, p
    # each pivot row holds one positive pivot, in increasing columns
    diag = [sum(row) for row in m[:r]]
    if p is not None:
        for i, row in enumerate(m[:r]):
            c = next(j for j, x in enumerate(row) if x)
            ut[i], ut[c] = ut[c], ut[i]
    for i in range(r):
        for j in range(i + 1, r):
            x, y = diag[i], diag[j]
            if y % x == 0:
                continue
            g, h, s, s1, t, t1 = x, y, 1, 0, 0, 1  # extended Euclid: s x + t y = g
            while h:
                q = g // h
                g, h, s, s1, t, t1 = h, g - q * h, s1, s - q * s1, t1, t - q * t1
            xg, yg = x // g, y // g
            diag[i], diag[j] = g, xg * y
            if p is not None:
                pi, pj, ui, uj = p[i], p[j], ut[i], ut[j]
                p[i] = [s * a + t * b for a, b in zip(pi, pj)]
                p[j] = [xg * b - yg * a for a, b in zip(pi, pj)]
                ut[i] = [a + b for a, b in zip(ui, uj)]
                ut[j] = [s * xg * b - t * yg * a for a, b in zip(ui, uj)]
    return tuple(diag) + (0,) * (n - r)


def snf(a: IntMatrix) -> SnfDecomposition:
    """Smith normal form with transforms: SnfDecomposition(D, P, U) with
    P*a*U = D, |det P| = |det U| = 1 and D diagonal with d1 | d2 | ...
    >= 0, by the one Smith reduction (`_smith`) carrying both transforms.
    """
    p = [[int(i == j) for j in range(a.rows)] for i in range(a.rows)]
    ut = [[int(i == j) for j in range(a.cols)] for i in range(a.cols)]
    diag = _smith([list(r) for r in a.data], p, ut)
    d = [[diag[i] if i == j else 0 for j in range(a.cols)] for i in range(a.rows)]
    return SnfDecomposition(IntMatrix._of(d), IntMatrix._of(p), IntMatrix._of(zip(*ut)))


def smith_diagonal(a: IntMatrix) -> tuple:
    """The diagonal of the Smith normal form of a (`snf(a).diagonal`), by
    the same Smith reduction with no transform carried."""
    return _smith([list(r) for r in a.data])


def kernel_basis(a: IntMatrix) -> IntMatrix:
    """Basis of the saturated integer kernel {x : a*x = 0}, as columns.

    With H = U * a^T the row HNF, the rows of U at the zero rows of H are
    the basis: they lie in the kernel, and they span a direct summand of
    Z^cols (no cotorsion) because U is unimodular.
    """
    m = [list(r) for r in zip(*a.data)]
    u = [[int(i == j) for j in range(a.cols)] for i in range(a.cols)]
    r = _hermite_rows(m, u)
    return IntMatrix._of(zip(*u[r:])) if r < a.cols else IntMatrix._of([()] * a.cols)


def cokernel(a: IntMatrix) -> FiniteAbelianGroup:
    """Isomorphism type of Z^rows / column-lattice(a)."""
    diag = smith_diagonal(a)
    r = sum(1 for d in diag if d != 0)
    return FiniteAbelianGroup(tuple(d for d in diag if d >= 2), a.rows - r)


def lattice_index(a: IntMatrix) -> int:
    """Index [Z^rows : column-lattice(a)] for a full-row-rank matrix."""
    diag = smith_diagonal(a)
    if sum(1 for d in diag if d != 0) < a.rows:
        raise RankDeficient("column lattice has infinite index")
    return prod(diag, start=1)


def quotient_matrix(v: IntMatrix, w: IntMatrix) -> IntMatrix:
    """Unique integer B with v = B*w (division of one matrix by another
    spanning a finer row lattice), solved as w^T B^T = v^T by one
    elimination of the rows [w_j^T | v_j^T] over all columns j.

    Raises RankDeficient if w has rank < rows, NonIntegerQuotient if the
    rational solution is not integral or does not exist.
    """
    if v.rows != w.rows or v.cols != w.cols:
        raise ValueError("shape mismatch")
    n = w.rows
    m, pivots, d, _ = _eliminate([w.col(j) + v.col(j) for j in range(w.cols)])
    if pivots[:n] != list(range(n)):
        raise RankDeficient("divisor matrix is rank deficient")
    if len(pivots) > n:
        raise NonIntegerQuotient("rows of dividend outside the row span of divisor")
    if any(x % d for r in m[:n] for x in r[n:]):
        raise NonIntegerQuotient("quotient has non-integer entries")
    bi = IntMatrix._of([[m[j][n + i] // d for j in range(n)] for i in range(n)])
    if bi * w != v:
        raise NonIntegerQuotient("rows of dividend outside the row span of divisor")
    if bi.det() == 0:
        raise RankDeficient("quotient matrix is singular")
    return bi


def unimodular_inverse(u: IntMatrix) -> IntMatrix:
    """Inverse of a square integer matrix of determinant +-1."""
    if u.rows != u.cols:
        raise NotSquare("inverse of a non-square matrix")
    n = u.rows
    m, pivots, d, _ = _eliminate(
        [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(u.data)]
    )
    if pivots[:n] != list(range(n)) or abs(d) != 1:
        raise NonIntegerQuotient("matrix is not unimodular")
    return IntMatrix._of([[x * d for x in r[n:]] for r in m])


def solve_integer(a: IntMatrix, b):
    """Some integer solution x of a*x = b (one of many when a has a
    kernel), or None if none exists: with H = U*a^T the row HNF, b = y*H
    on its nonzero rows (`_coordinates`) and x = y*U on the same rows."""
    m = [list(r) for r in zip(*a.data)]
    u = [[int(i == j) for j in range(a.cols)] for i in range(a.cols)]
    if len(b) != a.rows:
        raise ValueError("shape mismatch")
    y = _coordinates(m[: _hermite_rows(m, u)], b)
    return None if y is None else tuple(sum(t * r[j] for t, r in zip(y, u)) for j in range(a.cols))
