"""Deviation estimation and packing, checked against exact small cases."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from thickvc import empirics, learning
from thickvc import (
    Concept,
    ConceptClass,
    DiscreteMeasure,
    Domain,
    FiniteCofiniteClass,
    WorkLimitExceeded,
    derive_rng,
    empirical_sup_deviation,
    gen_finite_cofinite,
    gen_intervals,
    gen_power_set,
    gen_random,
    packing_lower_bounds,
    packing_number,
    pattern_packing,
    ugc_cell,
    ugc_curve,
    uniform,
)
from thickvc.empirics import assemble_ugc_point
from thickvc.measures import _draw_indices


def test_sup_deviation_exact_binomial_singleton():
    # class = {one singleton}: sup deviation is |k/n - p| with k binomial;
    # enumerate all n outcomes of a biased coin exactly
    p = 0.25
    n = 6
    cls = ConceptClass(Domain(2), (Concept.from_indices(2, [0]),))
    mu = DiscreteMeasure((p, 1 - p))
    trials = 4000
    rep = empirical_sup_deviation(cls, mu, n, trials, 2024)
    assert rep.trials == trials and rep.n == n
    assert rep.n_atom_bound == pytest.approx(n * (1 - p))
    support = {abs(k / n - p) for k in range(n + 1)}
    for s in rep.sups:
        assert any(s == pytest.approx(v, abs=1e-12) for v in support)
    exact_mean = sum(
        math.comb(n, k) * p**k * (1 - p) ** (n - k) * abs(k / n - p)
        for k in range(n + 1)
    )
    assert rep.mean == pytest.approx(exact_mean, abs=0.01)


def test_sup_deviation_structured_matches_dense():
    m, t = 9, 2
    sc = FiniteCofiniteClass(m, t)
    dense = gen_finite_cofinite(m, t, backend="dense")
    w = derive_rng(2525, "w").random(m)
    mu = DiscreteMeasure(tuple(w / w.sum()))
    a = empirical_sup_deviation(sc, mu, 12, 50, 606)
    b = empirical_sup_deviation(dense, mu, 12, 50, 606)
    for x, y in zip(a.sups, b.sups):
        assert x == pytest.approx(y, abs=1e-12)


def test_sup_deviation_determinism_and_validation():
    cls = gen_power_set(3)
    mu = uniform(3)
    a = empirical_sup_deviation(cls, mu, 5, 20, 7)
    b = empirical_sup_deviation(cls, mu, 5, 20, 7)
    c = empirical_sup_deviation(cls, mu, 5, 20, 8)
    assert a == b and a.sups != c.sups
    with pytest.raises(ValueError):
        empirical_sup_deviation(cls, mu, 0, 20, 7)
    with pytest.raises(ValueError):
        empirical_sup_deviation(cls, mu, 5, 0, 7)
    with pytest.raises(ValueError):
        empirical_sup_deviation(cls, uniform(4), 5, 20, 7)


def test_sup_deviation_checks_the_domain_first():
    # both backends refuse before any work, the dense one before its mass product
    for cls in (gen_intervals(5), FiniteCofiniteClass(5, 1)):
        with pytest.raises(ValueError, match="share a domain"):
            empirical_sup_deviation(cls, uniform(6), 5, 10, 1)


def test_sup_deviation_shrinks_with_n():
    cls = gen_power_set(4)
    mu = uniform(4)
    small = empirical_sup_deviation(cls, mu, 8, 100, 11)
    big = empirical_sup_deviation(cls, mu, 800, 100, 11)
    assert big.mean < small.mean
    assert big.quantiles["q90"] < small.quantiles["q90"]


def _random_measure(rng, m):
    w = rng.random(m)
    w[rng.random(m) < 0.2] = 0.0
    if w.sum() == 0:
        w[-1] = 1.0
    return DiscreteMeasure(tuple(w / w.sum()))


def _cell_rows(mu, n, trials, seed, seed_path):
    # the documented stream: row tr of derive_rng(seed, "dev", *seed_path)'s
    # trials x n uniforms is trial tr's sample
    return _draw_indices(mu, (trials, n), derive_rng(seed, "dev", *seed_path))


def test_sup_deviation_dense_matches_exact_rationals():
    rng = derive_rng(2727, "oracle")
    trials = 5
    for case in range(150):
        m = int(rng.integers(1, 11))
        cls = gen_random(m, int(rng.integers(1, 25)), float(rng.random()), case)
        mu = _random_measure(rng, m)
        n = int(rng.integers(1, 3 * m + 2))
        rep = empirical_sup_deviation(cls, mu, n, trials, 31, seed_path=(case,))
        rows = _cell_rows(mu, n, trials, 31, (case,))
        w = [Fraction(x) for x in mu.weights]
        for tr in range(trials):
            count = [0] * m
            for p in rows[tr].tolist():
                count[p] += 1
            want = max(
                abs(Fraction(sum(count[p] for p in c), n) - sum(w[p] for p in c))
                for c in (c.indices() for c in cls.concepts)
            )
            assert abs(rep.sups[tr] - want) <= 1e-12, (case, tr)


def test_sup_deviation_structured_rows_match_one_row_calls():
    rng = derive_rng(2828, "oracle")
    trials = 7
    for case in range(60):
        m = int(rng.integers(1, 41))
        sc = FiniteCofiniteClass(m, int(rng.integers(0, (m + 1) // 2)))
        mu = _random_measure(rng, m)
        n = int(rng.integers(1, 3 * m + 2))
        rep = empirical_sup_deviation(sc, mu, n, trials, 32, seed_path=(case,))
        rows = _cell_rows(mu, n, trials, 32, (case,))
        want = [sc.sup_deviation(row, mu) for row in rows]
        assert [s.hex() for s in rep.sups] == [s.hex() for s in want], case


def test_sup_deviation_independent_of_block_size(monkeypatch):
    w = np.arange(1.0, 13.0)
    w[[2, 7]] = 0.0
    skew = DiscreteMeasure(tuple(w / w.sum()))
    cells = [
        (gen_intervals(12), skew, 9),
        (gen_power_set(4), uniform(4), 30),
        (FiniteCofiniteClass(12, 3), skew, 20),
        (FiniteCofiniteClass(12, 0), skew, 6),
    ]
    runs = []
    # one trial per block and per product against one of each per cell
    for entries in (1, 1 << 30):
        monkeypatch.setattr(learning, "_BLOCK_ENTRIES", entries)
        monkeypatch.setattr(empirics, "_GEMM_ENTRIES", entries)
        runs.append([
            empirical_sup_deviation(cls, mu, n, 70, 41, seed_path=(ci,))
            for ci, (cls, mu, n) in enumerate(cells)
        ])
    assert runs[0] == runs[1]
    assert runs[0][-1].sups == (0.0,) * 70


def test_ugc_cell_derives_one_stream_per_cell(monkeypatch):
    calls = []

    def counting(seed, *path):
        calls.append(path)
        return derive_rng(seed, *path)

    monkeypatch.setattr(empirics, "derive_rng", counting)
    for cls, m in ((gen_power_set(3), 3), (FiniteCofiniteClass(9, 2), 9)):
        for trials in (1, 500):
            calls.clear()
            ugc_cell(cls, uniform(m), 12, 0.1, trials, 5, 1, 2)
            assert calls == [("dev", "ugc", 1, 2)], (cls, trials)


def test_ugc_curve_shape_and_worst_measure():
    cls = gen_power_set(3)
    measures = [uniform(3), DiscreteMeasure((0.8, 0.1, 0.1))]
    pts = ugc_curve(cls, measures, [4, 200], 0.25, 150, 99)
    assert [p.n for p in pts] == [4, 200]
    for p in pts:
        assert p.prob == max(p.per_measure)
        assert p.per_measure[p.worst_measure] == p.prob
        assert p.stderr == pytest.approx(
            math.sqrt(p.prob * (1 - p.prob) / 150)
        )
        assert p.n_atom_bound == pytest.approx(p.n * 0.8)
    assert pts[1].prob <= pts[0].prob  # deviations vanish as n grows
    assert pts[1].prob < 0.05
    with pytest.raises(ValueError):
        ugc_curve(cls, [], [4], 0.25, 10, 1)


def test_assemble_ugc_point_tie_goes_to_first():
    pt = assemble_ugc_point(10, 0.1, [0.3, 0.3, 0.2], 100, 0.5)
    assert pt.worst_measure == 0 and pt.prob == 0.3


def brute_packing(sets, m, mu, sep):
    best = 0
    K = len(sets)
    for r in range(K, 0, -1):
        for combo in itertools.combinations(range(K), r):
            ok = all(
                mu.mass(sets[i] ^ sets[j]) >= sep
                for i, j in itertools.combinations(combo, 2)
            )
            if ok:
                return r
    return 0


def test_packing_number_exact_matches_brute():
    rng = derive_rng(2626, "pk")
    from thickvc import gen_random

    for trial in range(25):
        m = int(rng.integers(3, 7))
        cls = gen_random(m, int(rng.integers(2, 9)), 0.5, seed=70_000 + trial)
        mu = uniform(m)
        sep = float(rng.choice([0.2, 0.34, 0.5]))
        res = packing_number(cls, mu, sep, mode="exact")
        sets = [frozenset(c.indices()) for c in cls.concepts]
        assert res.exact
        assert res.count == brute_packing(sets, m, mu, sep), trial
        # witness is a real packing
        for i, j in itertools.combinations(res.witness, 2):
            assert mu.mass(sets[i] ^ sets[j]) >= sep


def test_packing_number_greedy_is_lower_bound():
    from thickvc import gen_random

    for trial in range(15):
        cls = gen_random(6, 10, 0.5, seed=80_000 + trial)
        mu = uniform(6)
        g = packing_number(cls, mu, 0.34, mode="greedy")
        e = packing_number(cls, mu, 0.34, mode="exact")
        assert not g.exact and e.exact
        assert g.count <= e.count
        sets = [frozenset(c.indices()) for c in cls.concepts]
        for i, j in itertools.combinations(g.witness, 2):
            assert mu.mass(sets[i] ^ sets[j]) >= 0.34


def test_packing_number_guards():
    cls = gen_power_set(3)
    mu = uniform(3)
    with pytest.raises(ValueError):
        packing_number(cls, mu, 0.0)
    with pytest.raises(ValueError):
        packing_number(cls, mu, 0.25, mode="other")
    with pytest.raises(WorkLimitExceeded):
        packing_number(cls, mu, 0.25, work_limit=10)


def test_pattern_packing_agrees_with_generic_greedy():
    # the pattern class is the power set of d unit clusters under uniform
    # weights; the specialized greedy must match packing_number's greedy on
    # the materialized class, selection for selection
    for d in (3, 4, 5, 6):
        for eps in ("0.05", "0.1", "0.2"):
            pp = pattern_packing(d, eps)
            cls = gen_power_set(d)
            mu = uniform(d)
            sep = float(Fraction(eps) * 2)
            g = packing_number(cls, mu, sep, mode="greedy")
            masks = tuple(cls.concepts[i].bits for i in g.witness)
            assert pp.selected == masks, (d, eps)
            assert pp.count == g.count
            assert pp.maximal


def test_pattern_packing_exact_threshold_boundary():
    # d=10, eps=0.1: threshold 2*0.1*10 = 2 exactly; float ceil of
    # 0.2*10 = 2.0000000000000004 would give 3 and a much smaller packing
    pp = pattern_packing(10, "0.1")
    assert pp.count == 512  # even-weight masks: distance-2 code
    assert pp.maximal
    assert pp.separation == Fraction(1, 5)


def test_pattern_packing_validation():
    with pytest.raises(ValueError):
        pattern_packing(0, "0.1")
    with pytest.raises(ValueError):
        pattern_packing(25, "0.1")
    with pytest.raises(ValueError):
        pattern_packing(5, "0.3")
    with pytest.raises(TypeError):
        pattern_packing(5, [1, 2])


def test_packing_lower_bounds_exact_values():
    b = packing_lower_bounds(10, "0.1")
    assert b.combinatorial == Fraction(1024, 56)
    assert b.chernoff_okamoto == pytest.approx(math.exp(2 * 0.09 * 10))
    # epsilon read decimally whether str or float
    assert packing_lower_bounds(10, 0.1) == b
    assert packing_lower_bounds(10, Fraction(1, 10)) == b


def test_packing_chain_on_grid():
    for d in range(1, 13):
        for eps in ("0.05", "0.1", "0.2"):
            pp = pattern_packing(d, eps)
            b = packing_lower_bounds(d, eps)
            assert pp.maximal, (d, eps)
            assert Fraction(pp.count) >= b.combinatorial, (d, eps)
            assert b.combinatorial >= Fraction(str(b.chernoff_okamoto)) or (
                float(b.combinatorial) >= b.chernoff_okamoto
            ), (d, eps)
