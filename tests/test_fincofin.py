"""Structured backend vs materialized oracle. Every closed form is checked
against an exhaustive scan of the dense class on small domains."""

import itertools

import numpy as np
import pytest

from thickvc import (
    DiscreteMeasure,
    FCSet,
    FiniteCofiniteClass,
    NoConsistentHypothesis,
    derive_rng,
    fc_distance,
    gen_finite_cofinite,
    uniform,
)
from thickvc.fincofin import comb_rank, comb_unrank, fc_measure
from thickvc.measures import _draw_indices


def dense_sets(m, t):
    """All members, in canonical order, as plain frozensets."""
    cls = gen_finite_cofinite(m, t, backend="dense")
    return [frozenset(c.indices()) for c in cls.concepts]


def as_set(a: FCSet) -> frozenset:
    if a.kind == "finite":
        return frozenset(a.core)
    return frozenset(range(a.m)) - a.core


def test_fcset_basics():
    a = FCSet(10, "finite", frozenset({1, 5}))
    b = FCSet(10, "cofinite", frozenset({1, 5}))
    assert a.size == 2 and b.size == 8
    assert a.contains(5) and not a.contains(0)
    assert b.contains(0) and not b.contains(5)
    assert a.to_concept().indices() == (1, 5)
    assert set(b.to_concept().indices()) == set(range(10)) - {1, 5}
    with pytest.raises(ValueError):
        FCSet(4, "open", frozenset())
    with pytest.raises(ValueError):
        FCSet(4, "finite", frozenset({4}))


def test_fc_measure_and_distance():
    mu = DiscreteMeasure((0.1, 0.2, 0.3, 0.4))
    a = FCSet(4, "finite", frozenset({0, 3}))
    b = FCSet(4, "cofinite", frozenset({3}))
    assert fc_measure(mu, a) == pytest.approx(0.5)
    assert fc_measure(mu, b) == pytest.approx(0.6)
    # oracle: measure of symmetric difference of materialized sets
    sym = as_set(a) ^ as_set(b)
    assert fc_distance(mu, a, b) == pytest.approx(mu.mass(sym))
    assert fc_distance(mu, a, a) == 0.0


def test_comb_rank_matches_itertools_order():
    for m, k in [(6, 0), (6, 1), (6, 3), (8, 4), (5, 5)]:
        tuples = list(itertools.combinations(range(m), k))
        for r, tup in enumerate(tuples):
            assert comb_rank(tup, m) == r, (m, k, tup)
            assert comb_unrank(r, m, k) == tup, (m, k, r)


def test_class_size_and_validation():
    assert FiniteCofiniteClass(10, 0).size == 2
    assert FiniteCofiniteClass(10, 2).size == 2 + 2 * (10 + 45)
    with pytest.raises(ValueError):
        FiniteCofiniteClass(10, 5)  # t < m/2 required
    with pytest.raises(ValueError):
        FiniteCofiniteClass(0, 0)
    for bad in [(True, 0), (5, True), (10.0, 2), (10, 2.0)]:  # a bool is no size
        with pytest.raises(ValueError):
            FiniteCofiniteClass(*bad)
    # numpy integers count, stored as Python ints
    sized = FiniteCofiniteClass(np.int64(10), np.int32(2))
    assert sized == FiniteCofiniteClass(10, 2)
    assert type(sized.m) is int and type(sized.t) is int


def test_rank_unrank_match_dense_enumeration():
    for m, t in [(5, 1), (6, 2), (7, 3), (9, 2)]:
        cls = FiniteCofiniteClass(m, t)
        dense = dense_sets(m, t)
        assert cls.size == len(dense)
        for r in range(cls.size):
            fc = cls.concept_at(r)
            assert as_set(fc) == dense[r], (m, t, r)
            assert cls.rank(fc) == r, (m, t, r)
            assert len(fc.core) <= t
        with pytest.raises(ValueError):
            cls.concept_at(cls.size)
        with pytest.raises(ValueError):
            cls.rank(FCSet(m, "finite", frozenset(range(t + 1))))


def test_least_consistent_matches_linear_scan():
    for m, t in [(6, 2), (7, 2), (8, 3)]:
        cls = FiniteCofiniteClass(m, t)
        dense = dense_sets(m, t)
        rng = derive_rng(4242, "lc", m, t)
        for trial in range(200):
            nlab = int(rng.integers(1, m + 1))
            pts = [int(x) for x in rng.integers(0, m, nlab)]
            labels = [bool(b) for b in rng.integers(0, 2, nlab)]
            P = {p for p, b in zip(pts, labels) if b}
            Z = {p for p, b in zip(pts, labels) if not b}
            want = next(
                (i for i, s in enumerate(dense) if P <= s and not (Z & s)), None
            )
            if P & Z or want is None:
                with pytest.raises(NoConsistentHypothesis):
                    cls.least_consistent(P, Z)
                continue
            got = cls.least_consistent(P, Z)
            assert cls.rank(got) == want, (m, t, trial, sorted(P), sorted(Z))


def test_max_distance_consistent_matches_linear_scan():
    m, t = 7, 2
    cls = FiniteCofiniteClass(m, t)
    dense = dense_sets(m, t)
    rng = derive_rng(4343, "md")
    for trial in range(300):
        # random measure, sometimes with zero atoms
        w = rng.random(m)
        w[rng.random(m) < 0.25] = 0.0
        if w.sum() == 0:
            w[0] = 1.0
        mu = DiscreteMeasure(tuple(w / w.sum()))
        tr = cls.concept_at(int(rng.integers(0, cls.size)))
        tset = as_set(tr)
        nlab = int(rng.integers(0, 5))
        pts = sorted({int(x) for x in rng.integers(0, m, nlab)})
        P = {p for p in pts if p in tset}
        Z = {p for p in pts if p not in tset}
        got_fc, got_d = cls.max_distance_consistent(P, Z, tr, mu)
        # oracle: scan every member
        dists = [
            mu.mass(s ^ tset) if P <= s and not (Z & s) else -1.0
            for s in dense
        ]
        want_d = max(dists)
        assert got_d == pytest.approx(want_d, abs=1e-12), trial
        # returned concept must itself be consistent and at that distance
        gset = as_set(got_fc)
        assert P <= gset and not (Z & gset)
        assert mu.mass(gset ^ tset) == pytest.approx(got_d, abs=1e-12)


def test_max_distance_infeasible_labels():
    cls = FiniteCofiniteClass(8, 1)
    with pytest.raises(NoConsistentHypothesis):
        cls.max_distance_consistent({0, 1}, {2, 3}, cls.concept_at(0), uniform(8))


def test_sup_deviation_matches_exhaustive():
    # (12, 3) and (14, 2) reach 2n < m, where only the sampled and the
    # t + n heaviest points are read
    for m, t, n_top in [(6, 1, 29), (6, 2, 29), (7, 3, 29), (12, 3, 24), (14, 2, 28)]:
        cls = FiniteCofiniteClass(m, t)
        dense = dense_sets(m, t)
        rng = derive_rng(4444, "sd", m, t)
        for trial in range(100):
            w = rng.random(m)
            mu = DiscreteMeasure(tuple(w / w.sum()))
            n = int(rng.integers(1, n_top + 1))
            pts = rng.integers(0, m, n)
            got = cls.sup_deviation(pts, mu)
            freq = np.bincount(pts, minlength=m) / n
            want = max(
                abs(mu.mass(s) - float(freq[list(s)].sum() if s else 0.0))
                for s in dense
            )
            assert got == pytest.approx(want, abs=1e-12), (m, t, trial)


def test_sup_deviation_edge_cases():
    cls = FiniteCofiniteClass(9, 2)
    assert cls.sup_deviation(np.empty(0, dtype=np.int64), uniform(9)) == 0.0
    assert FiniteCofiniteClass(9, 0).sup_deviation(np.array([1, 2]), uniform(9)) == 0.0


def domain_wide_sups(rows, m, t, w):
    """The sup deviation scanned over the whole domain: every point's
    delta = count/n - w, then the best prefix sum of the t smallest and of
    the t largest, sorted."""
    n = rows.shape[1]
    if n == 0 or t == 0:
        return np.zeros(len(rows))
    counts = np.stack([np.bincount(row, minlength=m) for row in rows])
    delta = counts.astype(np.float64) / n - w
    part = np.partition(delta, (t - 1, m - t), axis=1)
    lo = np.sort(part[:, :t], axis=1)
    hi = np.sort(part[:, m - t :], axis=1)[:, ::-1]
    best_lo = np.max(-np.cumsum(lo, axis=1), axis=1)
    best_hi = np.max(np.cumsum(hi, axis=1), axis=1)
    return np.maximum(0.0, np.maximum(best_lo, best_hi))


def test_sup_deviation_matches_domain_wide_scan():
    # float hex against the domain-wide scan, on both layouts (2n < m or
    # not), t from 0 to just under m/2, n = 1 and n >= m, zero-weight
    # atoms, tied weights, a few dominant atoms, and samples piled on the
    # heaviest points
    rng = derive_rng(4646, "wide")
    layouts = [0, 0]
    for case in range(1200):
        m = int(rng.integers(2, 2001)) if case % 3 else int(rng.integers(2, 30))
        t = (m - 1) // 2 if case % 5 == 0 else int(rng.integers(0, (m + 1) // 2))
        shape = int(rng.integers(5))
        if shape == 0:
            w = np.ones(m)
        elif shape == 1:
            w = rng.random(m)
            w[rng.random(m) < 0.4] = 0.0
            w[int(rng.integers(m))] += 0.1
        elif shape == 2:
            w = rng.integers(1, 4, m).astype(np.float64)
        elif shape == 3:
            w = 1.0 / (1.0 + rng.permutation(m))
        else:
            # a few atoms hold most of the mass
            w = rng.random(m) / m
            w[rng.choice(m, int(rng.integers(1, max(2, t))))] += 1.0
        mu = DiscreteMeasure(tuple(w / w.sum()))
        choices = (1, m, m + int(rng.integers(1, 50)), int(rng.integers(1, m + 1)))
        n = choices[case // 4 % 4]
        nrows = int(rng.integers(1, 5))
        heavy = np.argsort(-mu._arr, kind="stable")
        if case % 6 == 0:
            # heavy points, repeats allowed, most of them in the top t + n
            pts = rng.choice(heavy[: t + n], (nrows, n))
        elif case % 6 == 1:
            pts = rng.integers(0, m, (nrows, n))
        elif case % 6 == 3 and m >= 3:
            # 2n < m distinct points past the t - 1 heaviest: exactly t of
            # the t + n heaviest go unsampled, the least the low side needs
            n = int(rng.integers(1, (m + 1) // 2))
            skip = max(t - 1, 0)
            pts = rng.permuted(np.tile(heavy[skip : skip + n], (nrows, 1)), axis=1)
        else:
            pts = _draw_indices(mu, (nrows, n), rng)
        got = FiniteCofiniteClass(m, t).sup_deviation(pts, mu)
        want = domain_wide_sups(pts, m, t, mu._arr)
        assert [x.hex() for x in got] == [x.hex() for x in want], (case, m, t, n)
        layouts[2 * n < m] += 1
    assert min(layouts) >= 400, layouts


def test_sup_deviation_refuses_foreign_points_and_measures():
    cls = FiniteCofiniteClass(10, 2)
    # point 10 of row 0 once counted as point 0 of row 1
    for bad in ([[10, 10, 10], [1, 2, 3]], [[0, 1, 2], [3, -1, 4]], [9, 10],
                [[10] * 6], [[-1] + [0] * 5]):
        with pytest.raises(ValueError, match="class domain"):
            cls.sup_deviation(bad, uniform(10))
    for other in (uniform(9), uniform(11)):
        for pts in ([1, 2], [1, 2, 3, 4, 5, 6]):
            with pytest.raises(ValueError, match="class domain"):
                cls.sup_deviation(pts, other)


def test_label_points():
    cls = FiniteCofiniteClass(10, 2)
    fin = FCSet(10, "finite", frozenset({2, 7}))
    cof = FCSet(10, "cofinite", frozenset({2, 7}))
    pts = np.array([0, 2, 7, 9, 2])
    assert cls.label_points(fin, pts).tolist() == [False, True, True, False, True]
    assert cls.label_points(cof, pts).tolist() == [True, False, False, True, False]
