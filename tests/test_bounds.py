import pytest

from oracles import mcmullen_by_linear_search
from toriq.bounds import (
    akln_bound,
    certify,
    conjecture_bound,
    fake_wps_bound,
    fano_bound,
    is_canonical_input,
    mcmullen,
    qgorenstein_bound,
    sylvester,
    t_sequence,
)
from toriq.covering import analyze
from toriq.errors import OutOfDomain
from toriq.fans import FanData, face_fan
from toriq.intmat import IntMatrix


def test_sylvester():
    assert [sylvester(n) for n in range(1, 6)] == [2, 3, 7, 43, 1807]
    with pytest.raises(OutOfDomain):
        sylvester(0)


def test_mcmullen_closed_forms():
    for r in range(1, 11):
        assert mcmullen(2, r) == 2 + r
    for r in range(1, 11):
        w = mcmullen(3, r)
        assert 2 * (w - 2) >= 3 + r > 2 * (w - 3)
    assert mcmullen(3, 2) == 5


def test_mcmullen_matches_linear_search():
    # doubling and bisection against the one-step search, on every parity
    for n in range(2, 15):
        for r in range(1, 300):
            assert mcmullen(n, r) == mcmullen_by_linear_search(n, r), (n, r)
    assert mcmullen(2, 10**9) == 10**9 + 2


def test_t_sequence():
    assert t_sequence(1, 1) == 1
    assert t_sequence(2, 1) == 2
    assert t_sequence(2, 2) == 6
    assert t_sequence(2, 3) == 42
    # index-1 terms track the Sylvester products
    assert t_sequence(1, 2) == 2
    assert t_sequence(1, 3) == 6
    assert t_sequence(1, 4) == 42
    for n in range(2, 6):
        assert t_sequence(1, n) == sylvester(n) - 1


def test_fano_bound():
    assert [fano_bound(3, r) for r in range(2, 7)] == [16, 14, 13, 12, 11]
    assert fano_bound(2, 1) == 3
    assert fano_bound(3, 1) == 18
    assert fano_bound(4, 1) == 2 * 42 * 42 // mcmullen(4, 1)


def test_qgorenstein_bound():
    assert qgorenstein_bound(3, 2, 6) == 3456
    assert qgorenstein_bound(3, 2, 2) == 128
    for n, r in ((2, 1), (3, 4), (4, 2)):
        assert qgorenstein_bound(n, r, 1) == fano_bound(n, r)


def test_fake_wps_bound():
    assert fake_wps_bound(2, 1) == 3
    assert fake_wps_bound(2, 2) == 12
    assert fake_wps_bound(2, 6) == 2 * 6 * 49 // 3
    assert fake_wps_bound(3, 1) == 18
    assert fake_wps_bound(3, 2) == t_sequence(2, 3) ** 2 // 4


def test_akln_bound():
    assert akln_bound(2) == 3
    assert akln_bound(3) == 16
    assert akln_bound(4) == 128
    assert akln_bound(5) == 3 * (sylvester(4) - 1) ** 2
    with pytest.raises(OutOfDomain):
        akln_bound(1)


def test_conjecture_bound():
    assert conjecture_bound(2, 1, 2) == 2 * 2 * 9 // 3
    with pytest.raises(OutOfDomain):
        conjecture_bound(3, 1, 1)


def test_certify_fano_fixture_all_pass():
    v = IntMatrix([[1, 0, 0, 0, -1, 1], [0, 1, 0, 0, -1, 1], [0, 0, 1, -1, -1, 1]])
    fan = FanData(
        v, [(1, 3, 4), (1, 2, 4), (0, 3, 4), (0, 2, 4), (0, 1, 3, 5), (1, 2, 5), (0, 2, 5)]
    )
    cd = analyze(v, fan)
    certs = certify(cd)
    assert certs
    assert all(not c.hard_failure() for c in certs)
    assert is_canonical_input(cd)


def test_certify_bauerle_negative_control():
    v = IntMatrix([[1, 9, -7], [0, 16, -12]])
    cd = analyze(v, face_fan(v))
    assert not is_canonical_input(cd)
    certs = {c.bound_name: c for c in certify(cd)}
    canonical = certs["canonical-mult-bound"]
    assert not canonical.satisfied and not canonical.applicable
    assert not canonical.hard_failure()
    wps = certs["fake-wps-mult-bound"]
    assert wps.satisfied and wps.bound_value == fake_wps_bound(2, 6)
    conj = certs["conjectural-mult-bound"]
    assert conj.conjectural
    hard = [c for c in certs.values() if c.hard_failure()]
    assert not hard


def test_certify_trivial_projective_space():
    v = IntMatrix([[1, 0, -1], [0, 1, -1]])
    cd = analyze(v, face_fan(v))
    certs = certify(cd)
    assert all(c.satisfied for c in certs if c.applicable)
    assert cd.mult == 1


def test_certify_divisibilities_blowup_polar():
    vpol = IntMatrix(
        [[-1, -1, -1, -1, 1, 1, 3], [-1, 1, 1, 3, -1, -1, -1], [1, -1, 1, -1, -1, 1, -1]]
    )
    cd = analyze(vpol, face_fan(vpol))
    assert cd.mult == 4
    r_prime = max(cd.r, cd.r_polar)
    assert r_prime == 4
    assert cd.mult <= fano_bound(3, r_prime) == 13
    certs = certify(cd)
    assert all(not c.hard_failure() for c in certs)
