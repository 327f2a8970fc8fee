import numpy as np
import pytest

from thickvc import (
    ClusterFamily,
    Concept,
    ConceptClass,
    Domain,
    DomainMismatch,
    PrincipalIdeal,
    derive_rng,
    gen_random,
    restrict,
)
from thickvc.domain import membership_matrix, pack_rows, validate_class


def test_domain_validation():
    d = Domain(5)
    assert d.size == 5
    assert list(d.points()) == [0, 1, 2, 3, 4]
    assert d.full_mask == 0b11111
    with pytest.raises(ValueError):
        Domain(0)
    with pytest.raises(ValueError):
        Domain(3, labels=("a", "b"))
    # a bool is no size; a numpy integer is one, stored as an int
    with pytest.raises(ValueError):
        Domain(True)
    assert Domain(np.int64(3)) == Domain(3)
    assert type(Domain(np.int64(3)).size) is int


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
    for bad in [(True, 1), (3, True)]:  # bools are neither widths nor masks
        with pytest.raises(ValueError):
            Concept(*bad)
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


def test_restrict_refuses_non_int_points():
    cls = ConceptClass(Domain(4), (Concept.from_indices(4, [1, 2]),))
    for keep in ([True], [1.5], [0, False]):
        with pytest.raises(ValueError):
            restrict(cls, keep)
    # numpy integers are ints
    assert restrict(cls, [np.int64(1)]) == restrict(cls, [1])


def test_pack_rows_round_trips_membership_matrix():
    for m in (1, 7, 8, 9, 64, 65):
        rng = derive_rng(515, "pack", m)
        rows = rng.random((30, m)) < 0.5
        rows[0] = False
        rows[1] = True
        masks = pack_rows(rows)
        assert masks[0] == 0 and masks[1] == (1 << m) - 1
        assert np.array_equal(membership_matrix(masks, m), rows)
        assert pack_rows(membership_matrix(masks, m)) == masks
        # the columns: entry p is the bitset of the masks holding point p
        cols = pack_rows(membership_matrix(masks, m).T)
        assert cols == [
            sum(1 << k for k, x in enumerate(masks) if x >> p & 1) for p in range(m)
        ]
        assert pack_rows(rows[:0]) == []  # K = 0
        assert membership_matrix([], m).shape == (0, m)
    assert pack_rows(np.zeros((3, 0), dtype=bool)) == [0, 0, 0]  # zero columns
    assert membership_matrix([0, 0], 0).shape == (2, 0)


def reference_restrict(cls, keep):
    """The per-concept bit loop restrict replaced, kept as its oracle."""
    if isinstance(keep, Concept):
        kept = list(keep.indices())
    else:
        kept = sorted(set(keep))
    labels = None
    if cls.domain.labels is not None:
        labels = tuple(cls.domain.labels[i] for i in kept)
    traced = []
    for c in cls.concepts:
        bits = 0
        for pos, i in enumerate(kept):
            if c.bits >> i & 1:
                bits |= 1 << pos
        traced.append(Concept(len(kept), bits))
    return ConceptClass(Domain(len(kept), labels), tuple(traced))


def test_restrict_matches_reference_loop():
    for m in (1, 7, 8, 9, 13, 65):
        rng = derive_rng(616, "restrict", m)
        base = gen_random(m, 40, 0.5, seed=m)
        # duplicate concepts stay, in class order
        concepts = base.concepts + base.concepts[:5]
        labels = tuple(f"x{i}" for i in range(m))
        for domain in (Domain(m), Domain(m, labels)):
            cls = ConceptClass(domain, concepts)
            for _ in range(5):
                size = int(rng.integers(1, m + 1))
                keep = [int(x) for x in rng.permutation(m)[:size]]
                want = reference_restrict(cls, keep)
                assert restrict(cls, keep) == want
                assert restrict(cls, iter(keep + keep)) == want
                assert restrict(cls, Concept.from_indices(m, keep)) == want


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
    # a bool is no size; a numpy integer is one, stored as an int
    with pytest.raises(ValueError):
        ClusterFamily(d, (a,), min_size=True)
    fam = ClusterFamily(d, (a, b), min_size=np.int64(2))
    assert fam.min_size == 2 and type(fam.min_size) is int


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
