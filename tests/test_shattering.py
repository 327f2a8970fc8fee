"""Search-core tests. Oracles here are deliberately written over frozensets
and itertools so they share no machinery with the bitmask implementations."""

import dataclasses
import itertools
import math
import tracemalloc

import pytest

from thickvc import (
    ClusterFamily,
    Concept,
    ConceptClass,
    Domain,
    EmptyClassError,
    PrincipalIdeal,
    WorkLimitExceeded,
    canonical_witness,
    derive_rng,
    gen_cluster_decorated,
    gen_finite_cofinite,
    gen_intervals,
    gen_power_set,
    gen_random,
    gen_thresholds,
    is_strongly_shattered,
    restrict,
    vc_after_removal,
    vc_dimension,
    vc_mod_ideal,
    vc_thick,
)
from thickvc import shattering
from thickvc.shattering import _max_family


def brute_vc(concept_sets, m):
    best = 0
    for k in range(1, m + 1):
        hit = False
        for pts in itertools.combinations(range(m), k):
            seen = {frozenset(p for p in pts if p in c) for c in concept_sets}
            if len(seen) == 2**k:
                hit = True
                break
        if hit:
            best = k
        else:
            break
    return best


def brute_vc_on(concept_sets, keep):
    """brute_vc of the traces on the points of keep, renumbered 0.."""
    pos = {p: i for i, p in enumerate(keep)}
    traces = [frozenset(pos[p] for p in c if p in pos) for c in concept_sets]
    return brute_vc(traces, len(keep))


def first_shattered(concept_sets, points, k):
    """Lex-least k-subset of points on which the sets cut every pattern."""
    return next(
        pts
        for pts in itertools.combinations(points, k)
        if len({frozenset(p for p in pts if p in c) for c in concept_sets}) == 2**k
    )


def brute_strongly_shattered(concept_sets, clusters):
    n = len(clusters)
    for pat in range(2**n):
        inside = set().union(*(clusters[i] for i in range(n) if pat >> i & 1), set())
        outside = set().union(
            *(clusters[i] for i in range(n) if not pat >> i & 1), set()
        )
        if not any(inside <= c and not (outside & c) for c in concept_sets):
            return False
    return True


def brute_vc_thick(concept_sets, m, min_size):
    best = 0
    pool = list(itertools.combinations(range(m), min_size))
    for n in range(1, m // min_size + 1):
        hit = False
        for fam in itertools.combinations(pool, n):
            sets = [set(f) for f in fam]
            if any(a & b for a, b in itertools.combinations(sets, 2)):
                continue
            if brute_strongly_shattered(concept_sets, sets):
                hit = True
                break
        if hit:
            best = n
        else:
            break
    return best


def random_class(trial, m_hi=10, count_hi=40):
    rng = derive_rng(8080, "cls", trial)
    m = int(rng.integers(2, m_hi + 1))
    count = int(rng.integers(1, count_hi + 1))
    density = float(rng.uniform(0.1, 0.9))
    return gen_random(m, count, density, seed=50_000 + trial)


def test_vc_known_values():
    assert vc_dimension(gen_power_set(4)) == 4
    assert vc_dimension(gen_intervals(10)) == 2
    assert vc_dimension(gen_thresholds(9)) == 1
    singleton = ConceptClass(Domain(3), (Concept.empty(3),))
    assert vc_dimension(singleton) == 0
    for m, t in [(8, 1), (8, 2), (9, 3), (12, 2)]:
        assert vc_dimension(gen_finite_cofinite(m, t)) == 2 * t + 1, (m, t)


def test_vc_against_brute_force():
    for trial in range(120):
        cls = random_class(trial)
        sets = [frozenset(c.indices()) for c in cls.concepts]
        v, cert = vc_dimension(cls, want_certificate=True)
        assert v == brute_vc(sets, cls.domain.size), trial
        if v > 0:
            assert cert.validate(cls), trial
            assert cert.n == v


def test_vc_witness_is_lex_least():
    for trial in range(60):
        cls = random_class(trial, m_hi=8, count_hi=30)
        v, cert = vc_dimension(cls, want_certificate=True)
        if v == 0:
            continue
        sets = [frozenset(c.indices()) for c in cls.concepts]
        first = first_shattered(sets, range(cls.domain.size), v)
        assert tuple(sorted(cert.witness.indices())) == first, trial
    for trial in range(60):
        # modulo an ideal: the lex-least shattered set outside N, in order
        cls = random_class(trial, m_hi=8, count_hi=30)
        m = cls.domain.size
        rng = derive_rng(78, "neg", trial)
        npts = {int(x) for x in rng.permutation(m)[: int(rng.integers(0, m))]}
        ideal = PrincipalIdeal(Concept.from_indices(m, sorted(npts)))
        vm, cert = vc_mod_ideal(cls, ideal, want_certificate=True)
        if vm == 0:
            continue
        sets = [frozenset(c.indices()) for c in cls.concepts]
        outside = [p for p in range(m) if p not in npts]
        first = first_shattered(sets, outside, vm)
        assert tuple(a.indices()[0] for a in cert.witness.clusters) == first, trial


def test_vc_empty_class_and_work_limit():
    with pytest.raises(EmptyClassError):
        vc_dimension(ConceptClass(Domain(3), ()))
    with pytest.raises(WorkLimitExceeded):
        vc_dimension(gen_intervals(30), work_limit=10)
    # the search stops once a family reaches the cap: 8 nodes for 8 points
    assert vc_dimension(gen_power_set(8), work_limit=10) == 8
    masks = sorted(c.bits for c in gen_power_set(8).concepts)
    assert _max_family(masks, [1 << p for p in range(8)], 8, 10) == (
        8, tuple(range(8)), 8
    )


def uncut_max_family(masks, candidates):
    """The DFS that _max_family prunes, with no cut at all: every disjoint
    extension whose patterns all keep a carver, in candidate order, the
    best family replaced only by a strictly deeper one."""
    inside = [sum(1 << k for k, c in enumerate(masks) if c & a == a) for a in candidates]
    outside = [sum(1 << k for k, c in enumerate(masks) if not c & a) for a in candidates]
    best = ()

    def rec(start, chosen, union, pats):
        nonlocal best
        if len(chosen) > len(best):
            best = chosen
        for j in range(start, len(candidates)):
            if union & candidates[j]:
                continue
            split = [p & outside[j] for p in pats] + [p & inside[j] for p in pats]
            if all(split):
                rec(j + 1, chosen + (j,), union | candidates[j], split)

    rec(0, (), 0, [(1 << len(masks)) - 1])
    return len(best), best


def family_instance(trial, k=None):
    """Distinct sorted masks on m <= 12 points, every cluster of one size
    (1, 2 or 3 points) as candidates, and the search's cap. Without k there
    are at most 120 masks; with k there are exactly k, on m points with
    2^m > 4k. Half the classes hold every union of a few planted disjoint
    clusters, each with random points added off the planted ones, so deep
    families occur."""
    if k is None:
        rng = derive_rng(4141, "family", trial)
        size = int(rng.integers(1, 4))
        m = int(rng.integers(size, 13))
        k = int(rng.integers(1, min(120, 1 << m) + 1))
    else:
        rng = derive_rng(4141, "wide", k, trial)
        size = int(rng.integers(1, 4))
        m = int(rng.integers(k.bit_length() + 2, 13))
    masks = set()
    if rng.random() < 0.5:
        r = int(rng.integers(1, min(m // size, 6) + 1))
        planted = [sum(1 << int(p) for p in block) for block in
                   rng.permutation(m)[: r * size].reshape(r, size)]
        free = ((1 << m) - 1) & ~sum(planted)
        for pat in range(min(1 << r, k)):
            noise = int(rng.integers(0, 1 << m)) & free
            masks.add(sum(a for i, a in enumerate(planted) if pat >> i & 1) | noise)
    density = float(rng.uniform(0.2, 0.8))
    while len(masks) < k:
        masks.add(sum(1 << p for p in range(m) if rng.random() < density))
    masks = sorted(masks)
    cands = [sum(1 << p for p in t) for t in itertools.combinations(range(m), size)]
    return masks, cands, min(m // size, len(masks).bit_length() - 1)


# _GEMM_ENTRIES sizes the blocks of pair rows: 0 builds one row per block
# from one word at a time, 1 << 40 all rows in one block
BLOCK_SIZES = {"row": 0, "default": shattering._GEMM_ENTRIES, "one-block": 1 << 40}


@pytest.mark.parametrize("entries", BLOCK_SIZES.values(), ids=BLOCK_SIZES.keys())
def test_max_family_matches_uncut_dfs(entries, monkeypatch):
    monkeypatch.setattr(shattering, "_GEMM_ENTRIES", entries)
    sizes = set()
    for trial in range(320):
        masks, cands, n_cap = family_instance(trial)
        sizes.add(cands[0].bit_count())
        n, chosen, _ = _max_family(masks, cands, n_cap, 10**7)
        assert (n, chosen) == uncut_max_family(masks, cands), trial
    assert sizes == {1, 2, 3}


@pytest.mark.parametrize("k", [63, 64, 65, 127, 128, 129, 257, 500])
def test_max_family_multiword_matches_uncut_dfs(k):
    # concept bitsets of one, two and more 64-bit words, and their edges
    sizes = set()
    for trial in range(6):
        masks, cands, n_cap = family_instance(trial, k)
        assert len(masks) == k
        sizes.add(cands[0].bit_count())
        n, chosen, _ = _max_family(masks, cands, n_cap, 10**7)
        assert (n, chosen) == uncut_max_family(masks, cands), (k, trial)
    assert sizes == {1, 2, 3}


def test_max_family_row_builds_do_not_change_the_search(monkeypatch):
    # one row per block, the default blocks, all rows in one block: the
    # same rows, so the same witnesses and node counts
    instances = [family_instance(t) for t in range(40)]
    instances += [family_instance(t, k) for k in (65, 129, 500) for t in range(3)]
    runs = []
    for entries in BLOCK_SIZES.values():
        monkeypatch.setattr(shattering, "_GEMM_ENTRIES", entries)
        runs.append([_max_family(*inst, 10**7) for inst in instances])
    assert runs[0] == runs[1] == runs[2]


def test_vc_thick_wide_class_keeps_memory_bounded():
    # 2^16 concepts and 120 pairs: the side bitsets packed into 1,024
    # words each take 2 MB, and each one-row block ANDs them in chunks of
    # about 2 MB; a 0/1 side matrix of float32 would take 63 MB
    cls = gen_power_set(16)
    tracemalloc.start()
    try:
        n, cert = vc_thick(cls, 2, want_certificate=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n == 8
    assert [c.indices() for c in cert.witness.clusters] == [
        (2 * i, 2 * i + 1) for i in range(8)
    ]
    assert peak < 16 << 20


def test_max_family_pair_cut_node_guard():
    # vc_thick(cls, 2) here must show that no 4 pairs are strongly
    # shattered; without the pair cut the search used 38,958 nodes
    cls = gen_random(14, 116, 0.5, 0)
    masks = sorted({c.bits for c in cls.concepts})
    pairs = [sum(1 << p for p in t) for t in itertools.combinations(range(14), 2)]
    n, chosen, nodes = _max_family(masks, pairs, 6, 10**7)
    assert (len(masks), n, chosen) == (116, 3, (0, 25, 49))
    assert nodes <= 18_543


def test_max_family_repeated_sides_node_guard():
    # intervals(8) blown up to 3-point clusters, with 8 shattered noise
    # points: a triple inside one blown-up point repeats the sides of the
    # block's first triple, and each is dropped before the search; without
    # that the search used 260,753 nodes
    cls = gen_cluster_decorated(gen_intervals(8), 3, 8, 7)
    masks = sorted({c.bits for c in cls.concepts})
    m = cls.domain.size
    triples = [sum(1 << p for p in t) for t in itertools.combinations(range(m), 3)]
    n_cap = min(m // 3, len(masks).bit_length() - 1)
    n, chosen, nodes = _max_family(masks, triples, n_cap, 10**7)
    assert n == 2
    assert [Concept(m, triples[j]).indices() for j in chosen] == [(0, 1, 2), (3, 4, 5)]
    assert nodes <= 1_929


def test_vc_thick_paper_construction():
    # power_set(5) blown up to 4-point clusters with 8 shattered noise
    # points: the clusters are the blown-up points, found among
    # C(28, 4) = 20,475 candidates of which all but a few repeat sides
    cls = gen_cluster_decorated(gen_power_set(5), 4, 8, 7)
    n, cert = vc_thick(cls, 4, want_certificate=True)
    assert n == 5
    assert [a.indices() for a in cert.witness.clusters] == [
        tuple(range(4 * i, 4 * i + 4)) for i in range(5)
    ]
    assert cert.validate(cls)


def test_strong_shattering_matches_brute_force():
    for trial in range(80):
        cls = random_class(trial, m_hi=8, count_hi=25)
        m = cls.domain.size
        rng = derive_rng(31, "fam", trial)
        n = int(rng.integers(1, 3))
        pts = rng.permutation(m)[: 2 * n]
        clusters = [
            Concept.from_indices(m, sorted(int(x) for x in pts[2 * i : 2 * i + 2]))
            for i in range(n)
        ]
        if any(c.size < 1 for c in clusters):
            continue
        fam = ClusterFamily(cls.domain, tuple(clusters), min_size=1)
        got, carvers = is_strongly_shattered(cls, fam)
        want = brute_strongly_shattered(
            [frozenset(c.indices()) for c in cls.concepts],
            [set(c.indices()) for c in clusters],
        )
        assert got == want, trial
        if got:
            # carvers must actually carve
            for pat, k in carvers.items():
                cc = cls.concepts[k]
                for i, a in enumerate(clusters):
                    if pat >> i & 1:
                        assert a.issubset(cc)
                    else:
                        assert a.isdisjoint(cc)


def brute_least_carvers(concept_sets, clusters):
    """Least-index carver of every pattern, or None if one has none."""
    union = set().union(*clusters)
    carvers = {}
    for pat in range(2 ** len(clusters)):
        inside = set().union(*(a for i, a in enumerate(clusters) if pat >> i & 1))
        outside = union - inside
        hits = [
            k for k, c in enumerate(concept_sets) if inside <= c and not outside & c
        ]
        if not hits:
            return None
        carvers[pat] = hits[0]
    return carvers


def test_strong_shattering_carvers_are_least_index():
    outcomes = set()
    for trial in range(150):
        rng = derive_rng(32, "least", trial)
        n = int(rng.integers(0, 5))
        size = int(rng.integers(1, 4))
        m = n * size + int(rng.integers(1, 4))
        pts = [int(p) for p in rng.permutation(m)]
        clusters = [set(pts[i * size : (i + 1) * size]) for i in range(n)]
        # concepts mostly carve some pattern, plus random points off the
        # clusters; repeats test that the least index wins
        count = 0 if trial % 25 == 0 else int(rng.integers(1, 3 * 2**n + 2))
        sets = []
        for _ in range(count):
            c = {p for p in range(m) if rng.random() < 0.5}
            if rng.random() < 0.8:
                pat = int(rng.integers(0, 2**n))
                c -= set().union(*clusters)
                c |= set().union(*(a for i, a in enumerate(clusters) if pat >> i & 1))
            sets.append(frozenset(c))
            if rng.random() < 0.2:
                sets.append(frozenset(c))
        cls = ConceptClass(
            Domain(m), tuple(Concept.from_indices(m, c) for c in sets)
        )
        fam = ClusterFamily(
            cls.domain, tuple(Concept.from_indices(m, a) for a in clusters), 1
        )
        want = brute_least_carvers(sets, clusters)
        assert is_strongly_shattered(cls, fam) == (want is not None, want), trial
        outcomes.add((n, want is not None, count == 0))
    # every family size, both answers and the empty class are covered
    assert {n for n, _, _ in outcomes} == {0, 1, 2, 3, 4}
    assert {(True, False), (False, False), (False, True)} <= {o[1:] for o in outcomes}


def test_certificate_carvers_run_in_pattern_order():
    for trial in range(30):
        cls = random_class(trial, m_hi=8)
        m = cls.domain.size
        neg = PrincipalIdeal(Concept.from_indices(m, range(m // 3)))
        for n, cert in (
            vc_dimension(cls, want_certificate=True),
            vc_thick(cls, 2, want_certificate=True),
            vc_mod_ideal(cls, neg, want_certificate=True),
        ):
            assert list(cert.carvers) == list(range(2**n)), trial


@pytest.mark.parametrize("kind", ["points", "clusters"])
def test_validate_rejects_corrupted_certificates(kind):
    cls = gen_power_set(4)
    if kind == "points":
        n, cert = vc_dimension(cls, want_certificate=True)
        elsewhere = Concept(5, cert.witness.bits)
    else:
        n, cert = vc_thick(cls, 2, want_certificate=True)
        elsewhere = ClusterFamily(
            Domain(5), tuple(Concept(5, a.bits) for a in cert.witness.clusters), 2
        )
    assert cert.kind == kind and n >= 1 and cert.validate(cls)
    carvers = cert.carvers
    last = 2**n - 1
    # each pattern in turn given its neighbour's carver, so every check counts
    wrong = [{**carvers, p: carvers[p ^ 1]} for p in carvers]
    for bad in wrong + [
        {**carvers, 0: carvers[last], last: carvers[0]},  # swapped
        {**carvers, last: len(cls.concepts)},  # index past K
        {p: k for p, k in carvers.items() if p != last},  # missing pattern
    ]:
        assert not dataclasses.replace(cert, carvers=bad).validate(cls), bad
    assert not dataclasses.replace(cert, witness=elsewhere).validate(cls)


def test_vc_thick_against_brute_force():
    for trial in range(50):
        cls = random_class(trial, m_hi=7, count_hi=30)
        m = cls.domain.size
        sets = [frozenset(c.indices()) for c in cls.concepts]
        for min_size in (1, 2, 3):
            if min_size > m:
                continue
            got = vc_thick(cls, min_size)
            want = brute_vc_thick(sets, m, min_size)
            assert got == want, (trial, min_size)


def test_vc_thick_min_size_one_is_plain_vc():
    for trial in range(40):
        cls = random_class(trial, m_hi=8)
        sets = [frozenset(c.indices()) for c in cls.concepts]
        v = vc_thick(cls, 1)
        assert v == vc_dimension(cls), trial
        assert v == brute_vc(sets, cls.domain.size), trial


def test_vc_thick_certificate_validates():
    cls = gen_power_set(4)
    v, cert = vc_thick(cls, 2, want_certificate=True)
    assert v == 2  # 4 points split into two 2-clusters
    assert cert.validate(cls)
    ok, _ = is_strongly_shattered(cls, cert.witness)
    assert ok


def test_vc_thick_oversized_min_size_warns():
    cls = gen_power_set(3)
    with pytest.warns(UserWarning):
        assert vc_thick(cls, 4) == 0


def test_vc_thick_refuses_a_bool_min_size():
    with pytest.raises(ValueError, match="min_size True is not an int"):
        vc_thick(gen_power_set(3), True)


def test_vc_thick_empty_only_class():
    cls = ConceptClass(Domain(4), (Concept.empty(4),))
    assert vc_thick(cls, 2) == 0


def test_vc_mod_ideal_equals_restriction():
    for trial in range(100):
        cls = random_class(trial)
        m = cls.domain.size
        rng = derive_rng(77, "neg", trial)
        nsize = int(rng.integers(0, m))
        npts = sorted(int(x) for x in rng.permutation(m)[:nsize])
        ideal = PrincipalIdeal(Concept.from_indices(m, npts))
        vm, cert = vc_mod_ideal(cls, ideal, want_certificate=True)
        keep = [p for p in range(m) if p not in set(npts)]
        assert keep, "negligible set never covers the whole domain here"
        assert vm == vc_dimension(restrict(cls, keep)), trial
        assert vm == brute_vc_on([frozenset(c.indices()) for c in cls.concepts], keep)
        if vm > 0:
            ok, _ = is_strongly_shattered(cls, cert.witness)
            assert ok
            assert all(
                a.size == 1 and a.indices()[0] not in set(npts)
                for a in cert.witness.clusters
            )


def test_vc_mod_full_negligible_set():
    cls = gen_power_set(3)
    ideal = PrincipalIdeal(Concept.full(3))
    assert vc_mod_ideal(cls, ideal) == 0


def test_vc_after_removal_exact_and_greedy():
    for trial in range(25):
        cls = random_class(trial, m_hi=7, count_hi=20)
        m = cls.domain.size
        sets = [frozenset(c.indices()) for c in cls.concepts]
        base = vc_dimension(cls)
        prev = base
        for budget in range(0, min(3, m)):
            res = vc_after_removal(cls, budget, mode="exact")
            # oracle: minimum over all removals of that size
            want = base if budget == 0 else min(
                vc_dimension(restrict(cls, [p for p in range(m) if p not in set(rm)]))
                for rm in itertools.combinations(range(m), budget)
            )
            assert res.vc == want, (trial, budget)
            # the frozenset oracle agrees, both on the optimum and on the
            # set actually removed
            assert res.vc == min(
                brute_vc_on(sets, [p for p in range(m) if p not in set(rm)])
                for rm in itertools.combinations(range(m), budget)
            ), (trial, budget)
            assert res.vc == brute_vc_on(
                sets, [p for p in range(m) if p not in res.removed]
            ), (trial, budget)
            assert res.removed.size == budget
            assert not res.heuristic
            assert res.vc <= prev
            prev = res.vc
            greedy = vc_after_removal(cls, budget, mode="greedy")
            assert greedy.vc >= res.vc  # heuristic never beats the optimum
            assert greedy.heuristic == (budget > 0)
            assert greedy.vc == brute_vc_on(
                sets, [p for p in range(m) if p not in greedy.removed]
            ), (trial, budget)


def test_vc_after_removal_full_budget():
    cls = gen_power_set(3)
    res = vc_after_removal(cls, 3, mode="exact")
    assert res.vc == 0 and res.removed.size == 3


def test_vc_after_removal_refuses_a_bool_budget():
    with pytest.raises(ValueError, match="budget True is not an int"):
        vc_after_removal(gen_power_set(3), True)


def test_canonical_witness_round_trip():
    for trial in range(40):
        cls = random_class(trial, m_hi=8)
        v, cert = vc_dimension(cls, want_certificate=True)
        if v == 0:
            continue
        fam = canonical_witness(cls, cert.carvers)
        assert fam.n == v
        ok, _ = is_strongly_shattered(cls, fam)
        assert ok, trial


def test_canonical_witness_rejects_bad_carvers():
    cls = gen_power_set(2)
    with pytest.raises(ValueError):
        canonical_witness(cls, {0: 0, 1: 1, 2: 2})  # not a full pattern map


def sauer_bound(m, d):
    """Max number of distinct concepts a class of VC dimension d can have."""
    return sum(math.comb(m, k) for k in range(min(d, m) + 1))


def test_sauer_bound_and_check():
    assert sauer_bound(10, 0) == 1
    assert sauer_bound(5, 2) == 1 + 5 + 10
    assert sauer_bound(4, 4) == 16
    for trial in range(30):
        cls = random_class(trial)
        distinct = len({c.bits for c in cls.concepts})
        assert distinct <= sauer_bound(cls.m, vc_dimension(cls)), trial
