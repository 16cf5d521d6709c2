"""The covering pipeline: universal 1-coverings, multiplicity, polar
duality data, weight group / order / modulus, Gorenstein indices and
degrees, bundled per variety into a CoveringData value, the one source
of these invariants.

The whole chain lives on one column index space: V, Q = G(V) and
W = G(Q) share m columns; the polar side kV°, Q° = G(kV°) and
Λ° = G(Q°) share the m° columns indexed by the fan's maximal cones.
That alignment is what makes every quotient equation (V = B·W,
kV° = C·Λ°, k̂W° = Aᵀ·Λ°) hold literally, not just up to permutation.

The polar sides are kept in integer coordinates, as the lattice
polytopes k·P° of the paper: `Vpolar` is kV°, `Wpolar` is k̂W° and
`Lambda` is k̂Λ = A·W.  Their integrality is checked where they are
built, by exact division.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .errors import InvalidFan, NonIntegerQuotient, NonIntegralFactor, NotReflexive, Record
from .fans import FanData, _anticanonical, _complement, fan_from_point, is_complete
from .gale import gale_dual
from .intmat import (
    CACHE_SIZE,
    FiniteAbelianGroup,
    IntMatrix,
    cokernel,
    lattice_index,
    quotient_matrix,
)
from .polytope import (
    VPolytope,
    _polytope,
    _simplices,
    fmatrix_index,
    normalized_volume,
    polar_dual,
    polar_vertex_matrix,
)


class CoveringData(Record):
    """All covering/polar invariants of one complete toric variety.

    The polar fields are scaled to lattice points: Vpolar = k·V°,
    Wpolar = k̂·W° and Lambda = k̂·Λ = A·W.  The fan over the cover W has
    the maximal cones of `fan`, on the same index sets."""

    V: IntMatrix
    fan: FanData
    W: IntMatrix
    B: IntMatrix
    G: FiniteAbelianGroup
    Q: IntMatrix
    Vpolar: IntMatrix
    Wpolar: IntMatrix
    Qpolar: IntMatrix
    LambdaPolar: IntMatrix
    Lambda: IntMatrix
    A: IntMatrix
    C: IntMatrix
    k: int
    k_hat: int
    h: int

    @property
    def n(self) -> int:
        return self.V.rows

    @property
    def r(self) -> int:
        return self.Q.rows

    @property
    def m(self) -> int:
        return self.V.cols

    @property
    def r_polar(self) -> int:
        return self.Qpolar.rows

    @property
    def m_polar(self) -> int:
        return self.Qpolar.cols

    @functools.cached_property
    def mult(self) -> int:
        return abs(self.B.det())

    @functools.cached_property
    def weight_order(self) -> int:
        return abs(self.A.det())

    @property
    def weight_group_type(self) -> FiniteAbelianGroup:
        return cokernel(self.A.t())

    @property
    def h_extension_type(self) -> FiniteAbelianGroup:
        return cokernel(self.A.t() * self.h)

    @property
    def h_extension_order(self) -> int:
        return self.h ** self.n * self.weight_order

    @property
    def modulus(self) -> int:
        return weight_modulus(self.Q)

    @property
    def modulus_polar(self) -> int:
        return weight_modulus(self.Qpolar)

    @functools.cached_property
    def fan_polytope(self) -> VPolytope:
        """conv(V), built once per point set (`_polytope`); it keeps its
        normalized volume, which the certificates and the report both
        read."""
        return _polytope(self.V)

    @functools.cached_property
    def degree_scaled(self) -> int:
        """n! Vol of the lattice polytope k·P°."""
        return int(normalized_volume(_polytope(self.Vpolar)))

    @property
    def degree(self) -> Fraction:
        """Anticanonical self-intersection, n! Vol of the polar polytope."""
        return Fraction(self.degree_scaled, self.k ** self.n)

    @functools.cached_property
    def cover_degree_scaled(self) -> int:
        return int(normalized_volume(_polytope(self.Wpolar)))

    @property
    def cover_degree(self) -> Fraction:
        return Fraction(self.cover_degree_scaled, self.k_hat ** self.n)

    @property
    def cover_degree_scaled_k(self) -> int:
        return self.h ** self.n * self.cover_degree_scaled

    @functools.cached_property
    def dual_cover_degree(self) -> Fraction:
        """n! Vol of conv(Λ), Λ the polar of the dual covering's polytope."""
        return normalized_volume(_polytope(self.Lambda, self.k_hat))


def universal_cover(v: IntMatrix):
    """Universal 1-covering data: (W, quotient matrix B with V = B*W,
    covering group coker(B^T)).  The fan over W has the maximal cones of
    the fan over V on the same index sets: B is nonsingular, so it maps
    each cone over W onto the cone over V with the same generators, and a
    cone is full-dimensional and pointed exactly when its image is."""
    q = gale_dual(v)
    w = gale_dual(q)
    b = quotient_matrix(v, w)
    g = cokernel(b.t())
    assert abs(b.det()) == (g.order or 0)
    return w, b, g


def multiplicity(v: IntMatrix) -> int:
    """Index of the column lattice of v in the ambient lattice."""
    return lattice_index(v)


@functools.lru_cache(maxsize=CACHE_SIZE)
def weight_modulus(q: IntMatrix) -> int:
    """Normalized volume of conv(G(q)), cross-checked against the sum of
    the maximal weight minors over a boundary-supported simplicial fan.

    The minor sum over an arbitrary simplicial fan over G(q) can undercount
    (a chamber's generator simplices need not reach the hull boundary);
    anticanonically polarized models always refine the face fan, where the
    two computations agree.
    """
    w = gale_dual(q)
    p = _polytope(w)
    vol = normalized_volume(p)
    assert vol.denominator == 1
    m = q.cols
    # cone over a triangulation of every facet of the hull; the identities
    # hold when every column is a vertex, and the simplices only ever use
    # vertices (the first column equal to each)
    verts = p.vertex_list()
    column = {c: j for j, c in reversed(list(enumerate(w.columns())))}
    facets = [mask for _, mask in p.hull()[1]]
    minor_sum = 0
    for f in facets:
        for g in _simplices(verts, facets, f, w.rows - 1):
            comp = _complement([column[verts[i]] for i in g], m)
            minor_sum += abs(q.cols_at(list(comp)).det())
    assert minor_sum == vol, (minor_sum, vol)
    return int(vol)


def _lattice_polar(points: tuple, k: int) -> IntMatrix:
    """k times the polar points (P, d) of `polar_vertex_matrix`, first of
    equal columns kept; raises NonIntegerQuotient unless they are lattice
    points."""
    p, d = points
    # gcd(d, P) = 1, so k*P/d is integral exactly when d divides k
    if k % d:
        raise NonIntegerQuotient(f"{k} times the polar points are not integral (denominator {d})")
    return IntMatrix._of(zip(*dict.fromkeys(p.columns()))) * (k // d)


@functools.lru_cache(maxsize=CACHE_SIZE)
def analyze(v: IntMatrix, fan: FanData) -> CoveringData:
    """Build the full covering bundle for a complete fan over v that
    refines the face fan of conv(v) and uses only its vertices
    (`polar_vertex_matrix` raises InvalidFan otherwise)."""
    if not is_complete(fan):
        raise InvalidFan("covering invariants need a complete fan")
    v_points = polar_vertex_matrix(v, fan)
    q = gale_dual(v)
    w, b, g = universal_cover(v)

    k = fmatrix_index(v)
    k_hat = fmatrix_index(w)
    if k % k_hat:
        raise NonIntegralFactor(f"covering index {k_hat} does not divide index {k}")
    h = k // k_hat

    vpolar = _lattice_polar(v_points, k)
    # V = B*W with B nonsingular, so conv(W) has the faces of conv(V) on
    # the same column sets and the fan passes the check on W as well
    wpolar = _lattice_polar(polar_vertex_matrix(w, fan), k_hat)
    assert b.t() * vpolar == wpolar * h, "polar quotient relation failed"

    qpolar = gale_dual(vpolar)
    assert gale_dual(vpolar * 2) == qpolar
    lambda_polar = gale_dual(qpolar)
    k_lambda = fmatrix_index(lambda_polar)  # NotFMatrix unless Lambda° is a fan matrix
    assert k_lambda == k_hat, "dual covering index mismatch"

    a_t = quotient_matrix(wpolar, lambda_polar)
    a = a_t.t()
    c = quotient_matrix(vpolar, lambda_polar)
    lam = a * w
    assert set(lam.columns()) == set(polar_dual(_polytope(lambda_polar)).vertices.columns()), (
        "polar-of-polar disagrees with the quotient construction"
    )
    if k == 1:
        assert a == c.t() * b, "covering factorization failed in the reflexive case"

    return CoveringData(
        V=v,
        fan=fan,
        W=w,
        B=b,
        G=g,
        Q=q,
        Vpolar=vpolar,
        Wpolar=wpolar,
        Qpolar=qpolar,
        LambdaPolar=lambda_polar,
        Lambda=lam,
        A=a,
        C=c,
        k=k,
        k_hat=k_hat,
        h=h,
    )


def fano_splitting(v: IntMatrix, fan: FanData):
    """Reflexive-case splitting data (B, C, A, G, G°) with the direct-sum
    identity between the covering groups and the weight group."""
    cd = analyze(v, fan)
    if cd.k != 1:
        raise NotReflexive(f"input has Gorenstein index {cd.k}, not 1")
    g = cd.G
    g_polar = cokernel(cd.C.t())
    assert cd.A == cd.C.t() * cd.B
    assert (g.order or 0) * (g_polar.order or 0) == cd.weight_order
    assert g.direct_sum(g_polar) == cd.weight_group_type
    return cd.B, cd.C, cd.A, g, g_polar


def mds_multiplicity(q: IntMatrix, fan: FanData) -> int:
    """Multiplicity of the sharp completion carried by `fan`, which also
    bounds the multiplicity of any space embedded in it.

    The divisibility certificate mult | h^n g_Q is asserted here and
    reported by the bound module.
    """
    mult = multiplicity(fan.fan_matrix)
    w = gale_dual(q)
    n = w.rows
    h = fmatrix_index(fan.fan_matrix) // fmatrix_index(w)
    qfan = fan_from_point(q, _anticanonical(q))
    cd = analyze(qfan.fan_matrix, qfan)
    assert (h ** n * cd.weight_order) % mult == 0, "multiplicity fails the weight-order bound"
    return mult
