"""Randomized property suite over small fan matrices (dimension <= 3,
up to 7 rays), all checks backed by independent oracles or normal-form
postconditions.

The generator filters to matrices whose columns are vertices of their
hull: that is the anticanonically-polarizable domain on which the
modulus/volume identities are stated.
"""

import random
import warnings
from math import gcd

from oracles import positive_kernel_vector_by_fractions, rays_covered, slab_volume
from toriq.covering import analyze, multiplicity, weight_modulus
from toriq.fans import fan_from_point, is_complete, qfano_representative
from toriq.gale import classify_matrix, gale_dual, gl_equivalent
from toriq.intmat import IntMatrix, cokernel, hnf, kernel_basis, rank, snf
from toriq.polytope import VPolytope, is_reflexive, normalized_volume

N_INSTANCES = 210


def _all_columns_vertices(v: IntMatrix) -> bool:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p = VPolytope(v)
    return not p.pruned


def random_fan_matrix(rng) -> IntMatrix:
    """Reduced full-rank positively-spanning matrix, columns primitive,
    pairwise non-parallel, and all vertices of their hull."""
    while True:
        n = rng.choice((2, 2, 3))
        r = rng.randint(1, 4 if n == 2 else 3)
        m = n + r
        if m > 7:
            continue
        cols = []
        seen = set()
        for _ in range(m):
            for _attempt in range(50):
                c = tuple(rng.randint(-3, 3) for _ in range(n))
                if not any(c):
                    continue
                g = gcd(*c)
                c = tuple(x // g for x in c)
                if c not in seen and tuple(-x for x in c) != c:
                    seen.add(c)
                    cols.append(c)
                    break
            else:
                break
        if len(cols) < m:
            continue
        v = IntMatrix.from_columns(cols)
        if rank(v) < n:
            continue
        if positive_kernel_vector_by_fractions([list(row) for row in v.data]) is None:
            continue
        if not _all_columns_vertices(v):
            continue
        return v


RNG = random.Random(20240517)
INSTANCES = [random_fan_matrix(RNG) for _ in range(N_INSTANCES)]


def test_instance_count():
    assert len(INSTANCES) >= 200


def test_snf_hnf_postconditions():
    rng = random.Random(1)
    for v in INSTANCES:
        dec = snf(v)
        assert dec.P * v * dec.U == dec.D
        assert abs(dec.P.det()) == 1 and abs(dec.U.det()) == 1
        nz = [d for d in dec.diagonal if d]
        assert all(b % a == 0 for a, b in zip(nz, nz[1:]))
        h, u = hnf(v)
        assert u * v == h
        pivots = []
        for row in h.data:
            piv = next((c for c, x in enumerate(row) if x), None)
            if piv is None:
                continue
            assert row[piv] > 0
            pivots.append(piv)
        assert pivots == sorted(pivots)


def test_kernel_saturation():
    for v in INSTANCES:
        k = kernel_basis(v)
        assert all(
            all(x == 0 for x in v.mul_vec(k.col(j))) for j in range(k.cols)
        )
        if k.cols:
            assert all(d == 1 for d in snf(k).diagonal if d)


def test_gale_double_dual():
    for v in INSTANCES[:120]:
        q = gale_dual(v)
        w = gale_dual(q)
        qq = gale_dual(w)
        # the cover's dual reproduces the weight matrix exactly: the
        # canonical representative is idempotent through the dual
        assert qq == q
        assert rank(w) == v.rows


def test_double_dual_gl_on_cf_inputs():
    hits = 0
    for v in INSTANCES:
        if hits >= 40:
            break
        rep = classify_matrix(v)
        if not rep.is_CF:
            continue
        hits += 1
        w = gale_dual(gale_dual(v))
        assert gl_equivalent(w, v)[0]
    assert hits >= 10


def test_mult_volume_modulus_identity():
    for v in INSTANCES[:80]:
        q = gale_dual(v)
        vol = normalized_volume(VPolytope(v))
        assert multiplicity(v) * weight_modulus(q) == vol


def test_volume_against_slab_oracle():
    for v in INSTANCES[:80]:
        p = VPolytope(v)
        assert normalized_volume(p) == slab_volume(p)


def test_cokernel_transpose_invariant_factors():
    rng = random.Random(9)
    for _ in range(60):
        n = rng.randint(2, 4)
        a = IntMatrix([[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)])
        assert cokernel(a).invariant_factors == cokernel(a.t()).invariant_factors


def test_polar_involution_on_reflexive_instances():
    from toriq.polytope import polar_dual

    hits = 0
    for v in INSTANCES:
        if hits >= 25:
            break
        p = VPolytope(v)
        try:
            if not is_reflexive(p):
                continue
        except Exception:
            continue
        hits += 1
        back = polar_dual(polar_dual(p))
        assert set(back.vertices.columns()) == set(p.vertices.columns())
    assert hits >= 10


def test_qfano_representative_is_complete_and_covers():
    rng = random.Random(77)
    for v in INSTANCES[:25]:
        fan = qfano_representative(v)
        assert is_complete(fan)
        assert rays_covered(fan, rng, trials=12)


def test_anticanonical_in_nef_of_own_cell():
    from toriq.fans import nef_cone

    for v in INSTANCES[:25]:
        q = gale_dual(v)
        anti = tuple(sum(r) for r in q.data)
        fan = fan_from_point(q, anti)
        assert nef_cone(q, fan).contains(anti)


def test_covering_pipeline_identities_random():
    for v in INSTANCES[:15]:
        fan = qfano_representative(v)
        cd = analyze(v, fan)
        assert cd.mult == abs(cd.B.det())
        assert cd.weight_order % cd.mult == 0  # Conrads-type divisibility
        assert cd.k % cd.k_hat == 0
        assert cd.mult * cd.modulus == normalized_volume(VPolytope(v))
