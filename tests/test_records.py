"""The library's twelve immutable value types, all on one record base:
construction by position and by keyword in field order, defaults,
equality and hash of the field tuple within one class, no assignment
or deletion, the `Name(field=value, ...)` repr, and the per-instance
dict that `CoveringData`'s cached properties write to."""

from fractions import Fraction

import pytest

from conftest import fixture_cones, fixture_matrix
from toriq.bounds import BoundCertificate
from toriq.classify import QGorensteinFamily, SubgroupHandle, TorsionMatrix
from toriq.covering import CoveringData, analyze
from toriq.fans import FanData, GkzCone
from toriq.gale import MatrixClassReport
from toriq.intmat import FiniteAbelianGroup, IntMatrix, SnfDecomposition
from toriq.polytope import Facet, HPolytope

COVERING_FIELDS = (
    "V", "fan", "W", "B", "G", "Q", "Vpolar", "Wpolar", "Qpolar", "LambdaPolar", "Lambda", "A", "C",
    "k", "k_hat", "h",
)
CACHED = ("mult", "weight_order", "fan_polytope", "degree_scaled", "cover_degree_scaled", "dual_cover_degree")


def _blowup():
    v = fixture_matrix("blupP3_X")
    fan = FanData(v, fixture_cones("blupP3_X"))
    return v, fan, analyze(v, fan)


def _samples():
    """(class, its fields in order, one value per field)."""
    v, fan, cd = _blowup()
    g = FiniteAbelianGroup((2, 4))
    m = IntMatrix([[1, 0], [0, 2]])
    facet = Facet((1, 0), Fraction(1, 2), (0, 1))
    return [
        (FiniteAbelianGroup, ("invariant_factors", "free_rank"), ((2, 4), 1)),
        (SnfDecomposition, ("D", "P", "U"), (m, IntMatrix([[1, 0], [0, 1]]), m)),
        (FanData, ("fan_matrix", "max_cones"), (v, fan.max_cones)),
        (GkzCone, ("generators",), (((1, 0), (0, 1)),)),
        (MatrixClassReport, ("is_F", "is_CF", "is_W", "is_reduced", "violated_conditions"),
         (True, False, True, False, ("F.a",))),
        (Facet, ("normal", "offset", "incident"), ((1, 0), Fraction(1, 2), (0, 1))),
        (HPolytope, ("facets",), ((facet,),)),
        (CoveringData, COVERING_FIELDS, tuple(getattr(cd, f) for f in COVERING_FIELDS)),
        (TorsionMatrix, ("ambient", "columns"), (g, ((1, 0), (0, 3)))),
        (SubgroupHandle, ("ambient", "matrix", "order"), (g, m, 4)),
        (QGorensteinFamily, ("kept", "rejected", "indices"), ((), (), ())),
        (BoundCertificate,
         ("bound_name", "inputs", "bound_value", "observed", "satisfied", "conjectural", "applicable", "kind"),
         ("fano", (2, 1), 10, 3, True, True, False, "divides")),
    ]


def test_records_build_compare_and_print_by_their_fields():
    samples = _samples()
    assert len(samples) == 12
    for cls, fields, values in samples:
        a = cls(*values)
        b = cls(**dict(zip(fields, values)))
        assert tuple(getattr(a, f) for f in fields) == values, cls
        assert a == b and not a != b, cls
        assert hash(a) == hash(b) == hash(values), cls
        assert repr(a) == f"{cls.__name__}({', '.join(f'{f}={x!r}' for f, x in zip(fields, values))})"
        assert a != object() and a.__eq__(values) is NotImplemented, cls


def test_records_of_two_classes_never_compare_equal():
    x = ((1, 0), (0, 1))
    assert GkzCone(x) != HPolytope(x)
    assert GkzCone(x).__eq__(HPolytope(x)) is NotImplemented
    assert {GkzCone(x), GkzCone(x), HPolytope(x)} == {GkzCone(x), HPolytope(x)}


def test_records_refuse_assignment_and_deletion():
    for cls, fields, values in _samples():
        a = cls(*values)
        for name in (fields[0], "other"):
            with pytest.raises(AttributeError):
                setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, fields[0])
        assert getattr(a, fields[0]) == values[0]


def test_record_defaults_and_argument_errors():
    assert FiniteAbelianGroup((2,)).free_rank == 0
    assert MatrixClassReport(True, True, True, True).violated_conditions == ()
    cert = BoundCertificate("fano", (), 1, 1, True)
    assert (cert.conjectural, cert.applicable, cert.kind) == (False, True, "upper")
    assert BoundCertificate(bound_name="fano", inputs=(), bound_value=1, observed=1, satisfied=True) == cert
    for cls, fields, values in _samples():
        for args, kwargs in [
            ((), {}),  # the first field of every record has no default
            ((), dict(zip(fields[1:], values[1:]))),
            (values, {"unknown": 1}),
            (values, {fields[0]: values[0]}),
            (values + (0,), {}),
        ]:
            with pytest.raises(TypeError):
                cls(*args, **kwargs)


def test_finite_abelian_group_checks_and_normalises_its_factors():
    for bad in [(1,), (0,), (2, 3), (4, 2)]:
        with pytest.raises(ValueError):
            FiniteAbelianGroup(bad)
    g = FiniteAbelianGroup([Fraction(2), 6])
    assert g.invariant_factors == (2, 6) and all(type(d) is int for d in g.invariant_factors)
    assert g == FiniteAbelianGroup(invariant_factors=(2, 6), free_rank=0)


def test_covering_cached_properties_are_computed_once(monkeypatch):
    _, _, cd = _blowup()
    fresh = CoveringData(*(getattr(cd, f) for f in COVERING_FIELDS))
    assert fresh == cd and not any(name in vars(fresh) for name in CACHED)
    calls = []
    real_det = IntMatrix.det
    monkeypatch.setattr(IntMatrix, "det", lambda self: calls.append(self) or real_det(self))
    for name in CACHED:
        first = getattr(fresh, name)
        assert getattr(fresh, name) is first and vars(fresh)[name] is first, name
    assert calls == [fresh.B, fresh.A]
    assert (fresh.mult, fresh.weight_order) == (cd.mult, cd.weight_order)
    assert fresh == cd and hash(fresh) == hash(cd)


def test_rebuilt_equal_fan_hits_the_analyze_cache():
    v, fan, cd = _blowup()
    rebuilt = FanData(IntMatrix(v.data), [tuple(reversed(g)) for g in reversed(fan.max_cones)])
    assert rebuilt == fan and hash(rebuilt) == hash(fan) and rebuilt is not fan
    hits = analyze.cache_info().hits
    assert analyze(rebuilt.fan_matrix, rebuilt) is cd
    assert analyze.cache_info().hits == hits + 1
