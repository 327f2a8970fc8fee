import pytest

from thickvc import (
    ClusterFamily,
    Concept,
    ConceptClass,
    Domain,
    DomainMismatch,
    PrincipalIdeal,
    restrict,
)
from thickvc.domain import validate_class


def test_domain_validation():
    d = Domain(5)
    assert d.size == 5
    assert list(d.points()) == [0, 1, 2, 3, 4]
    assert d.full_mask == 0b11111
    with pytest.raises(ValueError):
        Domain(0)
    with pytest.raises(ValueError):
        Domain(3, labels=("a", "b"))


def test_concept_constructors_and_queries():
    c = Concept.from_indices(6, [1, 4])
    assert c.bits == 0b010010
    assert c.indices() == (1, 4)
    assert c.to_string() == "010010"
    assert Concept.from_string("010010") == c
    assert len(c) == 2 and c.size == 2
    assert 4 in c and 0 not in c
    assert list(c) == [1, 4]
    assert Concept.empty(6).size == 0
    assert Concept.full(6).size == 6
    with pytest.raises(ValueError):
        Concept(3, 0b1000)  # bit out of width
    with pytest.raises(ValueError):
        Concept.from_indices(3, [3])


def test_concept_algebra():
    a = Concept.from_indices(5, [0, 1, 3])
    b = Concept.from_indices(5, [1, 2])
    assert (a & b).indices() == (1,)
    assert (a | b).indices() == (0, 1, 2, 3)
    assert (a ^ b).indices() == (0, 2, 3)
    assert (a - b).indices() == (0, 3)
    assert a.complement().indices() == (2, 4)
    assert Concept.from_indices(5, [1]).issubset(b)
    assert a.isdisjoint(Concept.from_indices(5, [2, 4]))
    with pytest.raises(DomainMismatch):
        a & Concept.from_indices(4, [0])


def test_concept_class_and_dedup():
    d = Domain(4)
    c0 = Concept.from_indices(4, [])
    c1 = Concept.from_indices(4, [1])
    cls = ConceptClass(d, (c0, c1, c1))
    assert len(cls) == 3
    assert cls[2] == c1
    deduped = ConceptClass.create(d, [c0, c1, c1, c0], dedup=True)
    assert len(deduped) == 2
    assert list(deduped.masks()) == [c0.bits, c1.bits]
    with pytest.raises(DomainMismatch):
        ConceptClass(d, (Concept.from_indices(5, [0]),))
    with pytest.raises(ValueError):
        ConceptClass(d, (c1, c1), dedup=True)  # claims dedup but repeats


def test_restrict_renumbers_and_keeps_duplicates():
    d = Domain(5)
    cls = ConceptClass(
        d,
        (
            Concept.from_indices(5, [0, 2, 4]),
            Concept.from_indices(5, [1, 2]),
            Concept.from_indices(5, [0, 2, 4]),
        ),
    )
    r = restrict(cls, [2, 4])
    assert r.domain.size == 2
    # point 2 -> 0, point 4 -> 1
    assert [sorted(c.indices()) for c in r.concepts] == [[0, 1], [0], [0, 1]]
    with pytest.raises(ValueError):
        restrict(cls, [])


def test_cluster_family_checks():
    d = Domain(6)
    a = Concept.from_indices(6, [0, 1])
    b = Concept.from_indices(6, [2, 3])
    fam = ClusterFamily(d, (a, b), min_size=2)
    assert fam.n == 2
    assert fam.union_mask() == 0b001111
    with pytest.raises(ValueError):
        ClusterFamily(d, (a, Concept.from_indices(6, [1, 4])), min_size=2)
    with pytest.raises(ValueError):
        ClusterFamily(d, (a,), min_size=3)


def test_principal_ideal_membership():
    n = Concept.from_indices(5, [1, 3])
    ideal = PrincipalIdeal(n)
    assert ideal.m == 5
    assert ideal.contains(Concept.from_indices(5, [1]))
    assert ideal.contains(Concept.empty(5))
    assert not ideal.contains(Concept.from_indices(5, [1, 2]))


def test_validate_class_reports():
    d = Domain(3)
    c = Concept.from_indices(3, [0])
    rep = validate_class(ConceptClass(d, (c, c)))
    assert rep.ok  # duplicates without a dedup claim are only a warning
    assert rep.warnings
    rep2 = validate_class(d, [c, c], dedup=True)
    assert not rep2.ok and rep2.violations
    rep3 = validate_class(d, [])
    assert rep3.ok and rep3.warnings  # empty class flagged but not fatal
    assert rep3.cardinality == 0
