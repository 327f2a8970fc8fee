"""Search-core tests. Oracles here are deliberately written over frozensets
and itertools so they share no machinery with the bitmask implementations."""

import itertools

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
from thickvc.shattering import sauer_bound, sauer_shelah_ok, trace_count


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


def test_trace_count_examples():
    iv = gen_intervals(10)
    assert trace_count(iv, [0, 5, 9]) == 7  # {0,9} without 5 is uncuttable
    ps = gen_power_set(3)
    assert trace_count(ps, [0, 1, 2]) == 8
    assert trace_count(ps, []) == 1


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
        vc_dimension(gen_power_set(8), work_limit=10)


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


def test_sauer_bound_and_check():
    assert sauer_bound(10, 0) == 1
    assert sauer_bound(5, 2) == 1 + 5 + 10
    assert sauer_bound(4, 4) == 16
    for trial in range(30):
        cls = random_class(trial)
        assert sauer_shelah_ok(cls), trial
