"""Integer sequences and multiplicity bounds, plus the certificate
evaluator that re-checks every applicable bound and divisibility on a
completed analysis.

All floors are exact integer divisions; nothing here touches floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, prod

from .errors import OutOfDomain


def sylvester(n: int) -> int:
    """n-th term of 2, 3, 7, 43, ...: each term is one more than the
    product of all previous ones."""
    if n < 1:
        raise OutOfDomain("sequence starts at n = 1")
    terms = [2]
    while len(terms) < n:
        terms.append(prod(terms) + 1)
    return terms[n - 1]


def mcmullen(n: int, r: int) -> int:
    """Least facet count of an n-dimensional polytope with n + r vertices
    (minimum-facet bound): the least w > n meeting the parity-split binomial
    inequality, monotone in w, found in integers by doubling and bisecting."""
    if n < 2 or r < 1:
        raise OutOfDomain("needs n >= 2 and r >= 1")
    half, odd = divmod(n, 2)

    def holds(w):
        if odd:
            return 2 * comb(w - half - 1, half) >= 2 * half + r + 1
        return w * comb(w - half - 1, half - 1) >= half * (2 * half + r)

    lo, hi = n, n + 1  # the answer lies in (lo, hi] once holds(hi)
    while not holds(hi):
        lo, hi = hi, 2 * hi - n
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if holds(mid) else (mid, hi)
    return hi


def t_sequence(k: int, n: int) -> int:
    """Index-k analogue of the Sylvester products: t_{k,n} = k * s_{k,1}
    ... s_{k,n-1} with s_{k,1} = k + 1 and s_{k,i+1} = t_{k,i+1} + 1."""
    if k < 1 or n < 1:
        raise OutOfDomain("needs k >= 1 and n >= 1")
    t = k
    s = k + 1
    for _ in range(n - 1):
        t *= s
        s = t + 1
    return t


def fano_bound(n: int, r_prime: int) -> int:
    """Multiplicity bound for anticanonically polarized (index-1) inputs,
    stratified by the larger of the two ranks."""
    if n < 2 or r_prime < 1:
        raise OutOfDomain("needs n >= 2 and r' >= 1")
    if n == 2:
        return 9 // (2 + r_prime)
    if n == 3:
        return 144 // (7 + r_prime)
    return 2 * (sylvester(n) - 1) ** 2 // mcmullen(n, r_prime)


def qgorenstein_bound(n: int, r_prime: int, k: int) -> int:
    """Canonical-singularity multiplicity bound at Gorenstein index k."""
    if n < 2 or r_prime < 1 or k < 1:
        raise OutOfDomain("needs n >= 2, r' >= 1, k >= 1")
    if n == 2:
        return fano_bound(2, r_prime)
    if n == 3:
        return 144 * k ** 3 // (7 + r_prime)
    return 2 * (sylvester(n) - 1) ** 2 * k ** n // mcmullen(n, r_prime)


def fake_wps_bound(n: int, k: int) -> int:
    """Rank-1 multiplicity bound without the canonical assumption."""
    if n < 2 or k < 1:
        raise OutOfDomain("needs n >= 2 and k >= 1")
    if n == 2:
        return 3 if k == 1 else 2 * k * (k + 1) ** 2 // 3
    if n == 3:
        return 18 if k == 1 else t_sequence(k, 3) ** 2 // (2 * k)
    return 2 * t_sequence(k, n) ** 2 * k ** n // (k * mcmullen(n, 1))


def akln_bound(n: int) -> int:
    """Sharp canonical fake-wps bound: (n+1)^(n-1) up to dimension 3,
    128 in dimension 4, then 3(s_{n-1} - 1)^2."""
    if n < 2:
        raise OutOfDomain("needs n >= 2")
    if n <= 3:
        return (n + 1) ** (n - 1)
    if n == 4:
        return 128
    return 3 * (sylvester(n - 1) - 1) ** 2


def conjecture_bound(n: int, r_prime: int, k: int) -> int:
    """Conjectural rank-stratified bound for index k >= 2; never used as
    a hard assertion."""
    if n < 2 or r_prime < 1 or k < 2:
        raise OutOfDomain("needs n >= 2, r' >= 1, k >= 2")
    if n == 2:
        return 2 * k * (k + 1) ** 2 // (2 + r_prime)
    if n == 3:
        return 4 * t_sequence(k, 3) ** 2 // ((7 + r_prime) * k)
    return 2 * t_sequence(k, n) ** 2 * k ** n // (k * mcmullen(n, r_prime))


@dataclass(frozen=True)
class BoundCertificate:
    """One checked bound or divisibility: observed value against the
    bound, with applicability and conjectural flags.

    For divisibility certificates, satisfied means observed | bound_value.
    Conjectural certificates never count as hard failures; inapplicable
    ones (e.g. the canonical bound on a non-canonical input) are reported
    but excluded from verification.
    """

    bound_name: str
    inputs: tuple
    bound_value: int
    observed: int
    satisfied: bool
    conjectural: bool = False
    applicable: bool = True
    kind: str = "upper"  # "upper" | "divides" | "equals"

    def hard_failure(self) -> bool:
        return self.applicable and not self.conjectural and not self.satisfied


def _cert_upper(name, inputs, bound, observed, applicable=True, conjectural=False):
    return BoundCertificate(
        bound_name=name,
        inputs=tuple(inputs),
        bound_value=int(bound),
        observed=int(observed),
        satisfied=int(observed) <= int(bound),
        conjectural=conjectural,
        applicable=applicable,
        kind="upper",
    )


def _cert_divides(name, inputs, divisor, dividend, applicable=True):
    return BoundCertificate(
        bound_name=name,
        inputs=tuple(inputs),
        bound_value=int(dividend),
        observed=int(divisor),
        satisfied=int(dividend) % int(divisor) == 0,
        applicable=applicable,
        kind="divides",
    )


def _cert_equals(name, inputs, expected, observed):
    return BoundCertificate(
        bound_name=name,
        inputs=tuple(inputs),
        bound_value=int(expected),
        observed=int(observed),
        satisfied=int(expected) == int(observed),
        kind="equals",
    )


def is_canonical_input(cd) -> bool:
    """Canonical singularities: the only interior lattice point of the
    fan polytope is the origin."""
    from .polytope import interior_lattice_points

    pts = interior_lattice_points(cd.fan_polytope)
    return pts == [tuple(0 for _ in range(cd.n))]


def certify(cd) -> list:
    """Evaluate every applicable bound and divisibility on a covering
    bundle; returns the full certificate list.

    Hard certificates are the theorem-backed identities and
    divisibilities; the canonical-singularity bound is reported but only
    applicable when the input is canonical, and rank-1 inputs
    additionally get the index-stratified bound that needs no
    canonical assumption.
    """
    n = cd.n
    mult = cd.mult
    g_q = cd.weight_order
    g_hat = cd.h_extension_order
    mod = cd.modulus
    mod_polar = cd.modulus_polar
    k, k_hat, h = cd.k, cd.k_hat, cd.h
    r_prime = max(cd.r, cd.r_polar)
    deg_scaled = cd.degree_scaled
    cover_deg_k = cd.cover_degree_scaled_k
    dual_deg = cd.dual_cover_degree

    certs = []
    certs.append(_cert_divides("mult-divides-extended-weight-order", (n, h), mult, g_hat))
    if h == 1:
        certs.append(_cert_divides("mult-divides-weight-order", (n,), mult, g_q))
    certs.append(_cert_divides("polar-modulus-divides-degree", (k,), mod_polar, deg_scaled))
    certs.append(_cert_divides("degree-divides-cover-degree", (k,), deg_scaled, cover_deg_k))
    certs.append(
        _cert_equals("cover-degree-identity", (k,), g_hat * mod_polar, cover_deg_k)
    )
    scaled_dual = k ** n * dual_deg
    assert scaled_dual.denominator == 1
    certs.append(
        _cert_equals("dual-cover-degree-identity", (k,), g_hat * mod, int(scaled_dual))
    )
    from .polytope import normalized_volume

    vol = normalized_volume(cd.fan_polytope)
    assert vol.denominator == 1
    certs.append(_cert_equals("mult-modulus-volume-identity", (n,), mult * mod, int(vol)))
    canonical = is_canonical_input(cd)
    if k == 1:
        certs.append(
            _cert_upper("fano-mult-bound", (n, r_prime), fano_bound(n, r_prime), mult)
        )
    else:
        certs.append(
            _cert_upper(
                "canonical-mult-bound",
                (n, r_prime, k),
                qgorenstein_bound(n, r_prime, k),
                mult,
                applicable=canonical,
            )
        )
        if cd.r == 1:
            certs.append(
                _cert_upper("fake-wps-mult-bound", (n, k), fake_wps_bound(n, k), mult)
            )
        if k >= 2:
            certs.append(
                _cert_upper(
                    "conjectural-mult-bound",
                    (n, r_prime, k),
                    conjecture_bound(n, r_prime, k),
                    mult,
                    conjectural=True,
                )
            )
    return certs
