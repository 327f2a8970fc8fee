"""Property tests of the shattering engine against subset enumeration.

Every route to a dimension (vc_dimension, vc_thick, vc_mod_ideal, exact
vc_after_removal and the quotient route of stone_check) runs the one family
search. The oracles here share none of its machinery: they enumerate point
sets (or cluster families) in lexicographic order over frozensets, so the
first shattered one of the largest size is the lex-least witness, and a
linear scan over the concepts gives the least-index carver of each pattern.
Sizes stay small (m <= 8, clusters of 1 to 3 points) under the fixed
"oracles" profile.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from thickvc import (
    Concept,
    ConceptClass,
    Domain,
    PrincipalIdeal,
    gen_cluster_decorated,
    stone_check,
    vc_after_removal,
    vc_dimension,
    vc_mod_ideal,
    vc_thick,
)

ORACLES = settings.get_profile("oracles")


@st.composite
def classes(draw, m_max=8, k_max=40):
    """A class on 1..m_max points with 1..k_max concepts, duplicates allowed.

    Half the draws seed the class with the power set of a few points, so
    that dimensions reaching the trace-count cap are common.
    """
    m = draw(st.integers(1, m_max))
    masks = []
    if draw(st.booleans()):
        pts = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=5, unique=True))
        for pat in range(1 << len(pts)):
            masks.append(sum(1 << p for j, p in enumerate(pts) if pat >> j & 1))
    room = k_max - len(masks)
    extra = st.integers(0, (1 << m) - 1)
    masks += draw(st.lists(extra, min_size=0 if masks else 1, max_size=room))
    order = draw(st.permutations(masks))
    return ConceptClass(Domain(m), tuple(Concept(m, b) for b in order))


@st.composite
def decorated_classes(draw):
    """A drawn class blown up to clusters of 2 or 3 points, with shattered
    noise points grafted on, on at most 8 points in all. Every point of a
    blown-up cluster has the same column, so many candidate clusters
    repeat the sides of an earlier one."""
    size = draw(st.integers(2, 3))
    base = draw(classes(m_max=8 // size, k_max=16))
    noise = draw(st.integers(0, min(3, 8 - size * base.domain.size)))
    return gen_cluster_decorated(base, size, noise, draw(st.integers(0, 1 << 16)))


@st.composite
def classes_and_ideals(draw):
    cls = draw(classes())
    m = cls.domain.size
    neg = draw(st.integers(0, (1 << m) - 1))
    return cls, PrincipalIdeal(Concept(m, neg))


def sets_of(cls):
    return [frozenset(c.indices()) for c in cls.concepts]


def carver_map(concept_sets, clusters):
    """Least concept index per pattern (bit i: contains cluster i, else
    misses it), or None when some pattern has no carver."""
    carvers = {}
    for pat in range(1 << len(clusters)):
        for k, c in enumerate(concept_sets):
            if all(
                (a <= c) if pat >> i & 1 else not (a & c)
                for i, a in enumerate(clusters)
            ):
                carvers[pat] = k
                break
        else:
            return None
    return carvers


def brute_family(concept_sets, candidates, n_max):
    """Largest strongly shattered family of pairwise-disjoint candidates:
    (n, clusters of the lex-least such family by candidate position,
    least-index carvers)."""
    for n in range(n_max, -1, -1):
        for fam in itertools.combinations(candidates, n):
            if sum(map(len, fam)) != len(frozenset().union(*fam)):
                continue
            carvers = carver_map(concept_sets, fam)
            if carvers is not None:
                return n, list(fam), carvers
    raise AssertionError("the empty family is always shattered")


def brute_points(concept_sets, points):
    """Largest shattered subset of `points`, lex-least, as singletons; a set
    of n points is shattered when the class cuts 2^n traces out of it."""
    for n in range(len(points), -1, -1):
        for pts in itertools.combinations(sorted(points), n):
            if len({c & frozenset(pts) for c in concept_sets}) == 1 << n:
                fam = [frozenset([p]) for p in pts]
                return n, fam, carver_map(concept_sets, fam)
    raise AssertionError("the empty set is always shattered")


def cert_clusters(cert):
    if cert.kind == "points":
        return [frozenset([p]) for p in cert.witness.indices()]
    return [frozenset(a.indices()) for a in cert.witness.clusters]


def assert_matches(got, want):
    n, cert = got
    wn, wclusters, wcarvers = want
    assert n == wn
    assert cert_clusters(cert) == wclusters
    assert cert.carvers == wcarvers


@ORACLES
@given(classes())
def test_vc_dimension_matches_enumeration(cls):
    m = cls.domain.size
    got = vc_dimension(cls, want_certificate=True)
    assert got[1].kind == "points"
    assert_matches(got, brute_points(sets_of(cls), range(m)))


@settings(ORACLES, max_examples=2 * ORACLES.max_examples)  # half are decorated
@given(st.one_of(classes(), decorated_classes()), st.sampled_from([1, 2, 3]))
def test_vc_thick_matches_enumeration(cls, size):
    m = cls.domain.size
    if size > m:
        return
    got = vc_thick(cls, size, want_certificate=True)
    cands = [frozenset(t) for t in itertools.combinations(range(m), size)]
    assert_matches(got, brute_family(sets_of(cls), cands, m // size))


@ORACLES
@given(classes_and_ideals())
def test_vc_mod_ideal_matches_enumeration(inst):
    cls, ideal = inst
    allowed = set(range(cls.domain.size)) - set(ideal.negligible.indices())
    got = vc_mod_ideal(cls, ideal, want_certificate=True)
    assert got[1].kind == "clusters"
    assert_matches(got, brute_points(sets_of(cls), allowed))


@ORACLES
@given(classes(), st.integers(0, 2))
def test_exact_removal_matches_enumeration(cls, budget):
    m = cls.domain.size
    budget = min(budget, m)
    sets = sets_of(cls)
    # first removal set in lex order reaching the least dimension
    removed = min(
        itertools.combinations(range(m), budget),
        key=lambda r: brute_points(sets, set(range(m)) - set(r))[0],
    )
    want = brute_points(sets, set(range(m)) - set(removed))[0]
    res = vc_after_removal(cls, budget)
    assert (res.vc, res.removed.indices(), res.heuristic) == (want, removed, False)


def brute_stone(concept_sets, m, neg):
    """Quotient route by hand: atoms by membership column in first-point
    order, the class induced on atoms not inside N, its lex-least shattered
    atom set, and the canonical clusters carved out of its carvers."""
    gens = concept_sets + [neg]
    atoms = {}
    for p in range(m):
        atoms.setdefault(tuple(p in g for g in gens), set()).add(p)
    surviving = [frozenset(a) for a in atoms.values() if not a <= neg]
    if not surviving:
        return 0, []
    induced = [
        frozenset(i for i, a in enumerate(surviving) if a <= c) for c in concept_sets
    ]
    n, _, carvers = brute_points(induced, range(len(surviving)))
    everything = frozenset(range(m))
    clusters = []
    for i in range(n):
        a = everything
        for pat, k in carvers.items():
            a &= concept_sets[k] if pat >> i & 1 else everything - concept_sets[k]
        clusters.append(a)
    return n, clusters


@ORACLES
@given(classes_and_ideals())
def test_stone_check_matches_enumeration(inst):
    cls, ideal = inst
    m = cls.domain.size
    sets = sets_of(cls)
    neg = frozenset(ideal.negligible.indices())
    allowed = set(range(m)) - neg
    rep = stone_check(cls, ideal)
    want_n = brute_points(sets, allowed)[0]
    stone_n, clusters = brute_stone(sets, m, neg)
    assert stone_n == want_n
    assert (rep.vc_mod, rep.vc_stone, rep.equal, rep.lift_valid) == (
        want_n, want_n, True, True
    )
    assert [frozenset(a.indices()) for a in rep.witness.clusters] == clusters
