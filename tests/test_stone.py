"""Quotient-algebra route: partition properties, induced classes, and
agreement with the direct family search."""

import pytest

from thickvc import (
    Concept,
    ConceptClass,
    Domain,
    DomainMismatch,
    PrincipalIdeal,
    derive_rng,
    gen_intervals,
    gen_power_set,
    gen_random,
    generated_partition,
    induced_on_quotient,
    is_strongly_shattered,
    lift_witness,
    quotient_space,
    restrict,
    stone_check,
    vc_dimension,
    vc_mod_ideal,
    vc_on_stone,
)


def random_instance(trial, m_hi=10, count_hi=30):
    rng = derive_rng(9090, "stone", trial)
    m = int(rng.integers(2, m_hi + 1))
    count = int(rng.integers(1, count_hi + 1))
    cls = gen_random(m, count, float(rng.uniform(0.2, 0.8)), seed=60_000 + trial)
    nsize = int(rng.integers(0, m))  # never the full domain
    npts = sorted(int(x) for x in rng.permutation(m)[:nsize])
    return cls, PrincipalIdeal(Concept.from_indices(m, npts))


def test_generated_partition_is_a_partition():
    for trial in range(40):
        cls, _ = random_instance(trial)
        part = generated_partition(cls.domain, cls.concepts)
        # disjoint cover
        union = 0
        for b in part.blocks:
            assert b.bits and not union & b.bits
            union |= b.bits
        assert union == cls.domain.full_mask
        # every generator is a union of blocks
        for c in cls.concepts:
            for b in part.blocks:
                assert b.issubset(c) or b.isdisjoint(c)
        # blocks ordered by least point
        firsts = [b.indices()[0] for b in part.blocks]
        assert firsts == sorted(firsts)


def test_generated_partition_no_generators():
    part = generated_partition(Domain(5), [])
    assert len(part) == 1 and part.blocks[0] == Concept.full(5)


def reference_partition(m, generators):
    """The per-point signature loop generated_partition replaced, kept as
    the oracle for its blocks and their first-occurrence order."""
    sig_to_pos = {}
    blocks_bits = []
    for i in range(m):
        sig = 0
        for g, c in enumerate(generators):
            if c.bits >> i & 1:
                sig |= 1 << g
        pos = sig_to_pos.get(sig)
        if pos is None:
            sig_to_pos[sig] = len(blocks_bits)
            blocks_bits.append(1 << i)
        else:
            blocks_bits[pos] |= 1 << i
    return blocks_bits


def partition_cases():
    yield 5, []  # no generators
    yield 1, []
    yield 1, [Concept(1, 1)]
    yield 1, [Concept(1, 0), Concept(1, 1)]
    yield 8, [Concept(8, 0b10110010)]
    yield 8, [Concept(8, 0b10110010)] * 9  # more generators than a byte
    for m in (3, 7, 9, 13, 17, 23):  # widths that are not multiples of 8
        rng = derive_rng(4242, "partition", m)
        for count in (1, 8, 9, 40):
            density = float(rng.uniform(0.1, 0.9))
            gens = list(gen_random(m, count, density, seed=m * 100 + count).concepts)
            # duplicate columns: point m-1 copies point 0 in every generator
            top = 1 << m - 1
            dup = [Concept(m, c.bits & ~top | (c.bits & 1) * top) for c in gens]
            for neg in (Concept.empty(m), Concept.full(m)):
                yield m, gens + [neg]
                yield m, dup + [neg]
    cls = gen_intervals(83)
    yield 83, list(cls.concepts) + [Concept(83, (1 << 83) - 1 - 1023)]


def test_generated_partition_matches_reference_loop():
    for m, gens in partition_cases():
        part = generated_partition(Domain(m), gens)
        want = reference_partition(m, gens)
        assert [b.bits for b in part.blocks] == want, (m, len(gens))


def test_generated_partition_width_mismatch():
    with pytest.raises(DomainMismatch):
        generated_partition(Domain(4), [Concept.empty(5)])


def test_quotient_drops_exactly_the_buried_atoms():
    cls = gen_intervals(6)
    ideal = PrincipalIdeal(Concept.from_indices(6, [2, 3]))
    part = generated_partition(cls.domain, list(cls.concepts) + [ideal.negligible])
    q = quotient_space(part, ideal)
    for b in part.blocks:
        survived = b in q.surviving
        assert survived == (not b.issubset(ideal.negligible))


def test_induced_class_preserves_indices():
    cls = gen_power_set(3)
    ideal = PrincipalIdeal(Concept.from_indices(3, [0]))
    induced, q = induced_on_quotient(cls, ideal)
    assert induced is not None
    assert len(induced.concepts) == len(cls.concepts)
    # membership of an original concept on an atom matches the induced bit
    for k, c in enumerate(cls.concepts):
        for a, blk in enumerate(q.surviving):
            assert (a in induced.concepts[k]) == blk.issubset(c)


def reference_induced(cls, q):
    """The per-atom issubset loop induced_on_quotient replaced, kept as its
    oracle."""
    qm = len(q.surviving)
    out = []
    for c in cls.concepts:
        bits = 0
        for a, blk in enumerate(q.surviving):
            if blk.issubset(c):
                bits |= 1 << a
        out.append(Concept(qm, bits))
    return ConceptClass(Domain(qm), tuple(out))


def test_induced_on_quotient_matches_reference_loop():
    for m in (1, 2, 7, 8, 9, 14):
        rng = derive_rng(717, "induced", m)
        base = gen_random(m, 40, 0.5, seed=m)
        # duplicate concepts: induced index k is original index k
        concepts = base.concepts + base.concepts[::3]
        labels = tuple(f"p{i}" for i in range(m))
        for domain in (Domain(m), Domain(m, labels)):
            cls = ConceptClass(domain, concepts)
            perm = [int(x) for x in rng.permutation(m)]
            # N empty, N all but one point, and a random N
            for npts in ([], perm[1:], perm[: int(rng.integers(0, m))]):
                ideal = PrincipalIdeal(Concept.from_indices(m, npts))
                induced, q = induced_on_quotient(cls, ideal)
                assert induced == reference_induced(cls, q), (m, npts)
                assert induced.domain.labels is None


def test_induced_none_when_nothing_survives():
    cls = ConceptClass(Domain(3), (Concept.full(3), Concept.empty(3)))
    ideal = PrincipalIdeal(Concept.full(3))
    induced, q = induced_on_quotient(cls, ideal)
    assert induced is None and not q.surviving
    assert vc_on_stone(cls, ideal) == 0


def test_vc_on_stone_empty_ideal_matches_plain_vc():
    for trial in range(30):
        cls, _ = random_instance(trial)
        ideal = PrincipalIdeal(Concept.empty(cls.domain.size))
        assert vc_on_stone(cls, ideal) == vc_dimension(cls), trial


def test_three_routes_agree():
    for trial in range(100):
        cls, ideal = random_instance(trial)
        m = cls.domain.size
        vm = vc_mod_ideal(cls, ideal)
        vs = vc_on_stone(cls, ideal)
        keep = [p for p in range(m) if p not in ideal.negligible]
        vr = vc_dimension(restrict(cls, keep))
        assert vm == vs == vr, trial


def test_lift_witness_revalidates():
    hits = 0
    for trial in range(60):
        cls, ideal = random_instance(trial)
        vs, cert = vc_on_stone(cls, ideal, want_certificate=True)
        if not vs:
            continue
        fam = lift_witness(cls, ideal, cert.carvers)
        ok, _ = is_strongly_shattered(cls, fam)
        assert ok, trial
        assert fam.n == vs
        for a in fam.clusters:
            assert not ideal.contains(a)
        hits += 1
    assert hits > 20  # the battery must actually exercise the lift


def test_stone_check_end_to_end():
    for trial in range(40):
        cls, ideal = random_instance(trial)
        chk = stone_check(cls, ideal)
        assert chk.equal and chk.lift_valid, trial
        assert chk.vc_mod == chk.vc_stone == chk.witness.n
