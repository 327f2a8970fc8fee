"""Deviation estimation and packing, checked against exact small cases."""

import functools
import importlib.util
import itertools
import math
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from thickvc import empirics, learning
from thickvc import (
    Concept,
    ConceptClass,
    DiscreteMeasure,
    Domain,
    DomainMismatch,
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
    symdiff_distance,
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


@pytest.mark.parametrize(
    "n, trials",
    [(True, 20), (0, 20), (-1, 20), (5.0, 20), (5, 2.0), (5, True), (5, 0)],
)
def test_sup_deviation_refuses_bad_cell_sizes(monkeypatch, n, trials):
    # refused with ValueError before a stream is derived, on both backends
    def no_stream(*args):
        raise AssertionError("derived a stream before checking the sizes")

    monkeypatch.setattr(empirics, "derive_rng", no_stream)
    for cls in (gen_power_set(3), FiniteCofiniteClass(3, 1)):
        with pytest.raises(ValueError):
            empirical_sup_deviation(cls, uniform(3), n, trials, 7)


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
        (FiniteCofiniteClass(12, 3), skew, 5),  # 2n < m: sample layout
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


@pytest.mark.parametrize("epsilon", [math.nan, math.inf, -math.inf, True, "0.1"])
def test_ugc_cell_refuses_a_bad_epsilon(monkeypatch, epsilon):
    # NaN or an infinity once came back as an exceedance fraction, and the
    # CLI printed it as "epsilon":NaN, which is no JSON
    def no_stream(*args):
        raise AssertionError("derived a stream before checking epsilon")

    monkeypatch.setattr(empirics, "derive_rng", no_stream)
    for cls, m in ((gen_power_set(3), 3), (FiniteCofiniteClass(9, 2), 9)):
        with pytest.raises(ValueError, match="epsilon"):
            ugc_cell(cls, uniform(m), 12, epsilon, 20, 5, 0, 0)


def test_structured_sup_deviation_scale_guard():
    # a million diffuse atoms: each trial reads its 50 points and the 55
    # heaviest, never the whole domain; the first call builds the tables
    cls = gen_finite_cofinite(10**6, 5, backend="structured")
    mu = uniform(10**6)
    t0 = time.perf_counter()
    rep = empirical_sup_deviation(cls, mu, 50, 200, 5151)
    elapsed = time.perf_counter() - t0
    # the 5 most drawn points hold at least 5/50 of each sample and 5e-6
    # of the measure
    assert len(rep.sups) == 200 and 0.0999 < min(rep.sups) <= max(rep.sups) < 1
    assert elapsed < 0.5, elapsed


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


def test_packing_number_refuses_k_squared_before_building(monkeypatch):
    # the K^2 refusal and a bad mode come before any matrix is built, and
    # greedy mode builds none
    def forbidden(*args):
        raise AssertionError("membership_matrix called")

    monkeypatch.setattr(empirics, "membership_matrix", forbidden)
    cls, mu = gen_power_set(8), uniform(8)
    with pytest.raises(WorkLimitExceeded, match=r"256\^2 pairwise distances"):
        packing_number(cls, mu, 0.5, work_limit=256 * 256 - 1)
    with pytest.raises(ValueError, match="mode"):
        packing_number(cls, mu, 0.5, mode="other")
    assert packing_number(cls, mu, 0.5, mode="greedy").count > 1


@pytest.mark.parametrize(
    "sep",
    [True, np.True_, math.nan, math.inf, -math.inf, -0.5, "0.5", Decimal("0.5")],
    ids=["true", "np_true", "nan", "inf", "-inf", "negative", "str", "decimal"],
)
def test_packing_number_refuses_bad_separations(sep):
    # True would read as 1.0, nan compares false with every distance, and
    # a Decimal does not mix with float arithmetic
    for mode in ("exact", "greedy"):
        with pytest.raises(ValueError, match="separation"):
            packing_number(gen_power_set(3), uniform(3), sep, mode=mode)


def test_packing_number_takes_any_real_separation():
    # the float 1/3 falls short of Fraction(1, 3), so distance-1 pairs of
    # power_set(3) are no edges there: only the per-pair test gets that;
    # a real past every float still leaves one concept alone
    cls, mu = gen_power_set(3), uniform(3)
    for sep in (Fraction(1, 3), 1 / 3, np.float32(0.5), 1, 10**400,
                Fraction(10**400), 2.0**1000):
        for mode in ("exact", "greedy"):
            res = packing_number(cls, mu, sep, mode=mode)
            assert (res.count, res.witness) == _reference_packing(cls, mu, sep, mode)
    assert packing_number(cls, mu, Fraction(1, 3)).count == 4
    assert packing_number(cls, mu, 1 / 3).count == 8
    assert packing_number(cls, mu, 10**400).witness == (0,)


def test_packing_number_checks_the_domain_first():
    # one concept needs no distance, so only an up-front check can catch it
    one = ConceptClass(Domain(3), (Concept.full(3),))
    for mode in ("exact", "greedy"):
        with pytest.raises(DomainMismatch):
            packing_number(one, uniform(4), 0.5, mode=mode)
        assert packing_number(one, uniform(3), 0.5, mode=mode).count == 1


def _reference_packing(cls, mu, sep, mode="exact", work_limit=None):
    """The packing search as first written: one symdiff_distance per pair,
    and branches cut only by the clique-size bound. Returns (count,
    witness); past work_limit nodes it raises WorkLimitExceeded."""
    concepts = cls.concepts
    K = len(concepts)
    if mode == "greedy":
        chosen = []
        for i, c in enumerate(concepts):
            if all(symdiff_distance(mu, c, concepts[j]) >= sep for j in chosen):
                chosen.append(i)
        return len(chosen), tuple(chosen)
    adj = [0] * K
    for i, j in itertools.combinations(range(K), 2):
        if symdiff_distance(mu, concepts[i], concepts[j]) >= sep:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    best = (0, ())
    nodes = 0

    def grow(clique, allowed):
        nonlocal best, nodes
        if len(clique) > best[0]:
            best = (len(clique), clique)
        if len(clique) + allowed.bit_count() <= best[0]:
            return
        rest = allowed
        while rest:
            low = rest & -rest
            rest ^= low
            nodes += 1
            if work_limit is not None and nodes > work_limit:
                raise WorkLimitExceeded("reference passed its node limit")
            v = low.bit_length() - 1
            grow(clique + (v,), rest & adj[v])
            if len(clique) + 1 + rest.bit_count() <= best[0]:
                return

    grow((), (1 << K) - 1)
    return best


@functools.cache
def _packing_case(k):
    """Instance k: a random class, a measure and a separation, with the
    reference's (count, witness) in both modes. Four kinds take turns:
    uniform weights at an exact tie k/m, skewed weights at a distance some
    pair achieves, atoms of 1e-12 next to one heavy point at a multiple of
    the tiny atom (or 1 less one), and random weights and separations."""
    rng = derive_rng(5151, "packing-case", k)
    m = int(rng.integers(1, 14))
    cls = gen_random(m, int(rng.integers(1, 25)), float(rng.uniform(0.2, 0.8)),
                     seed=90_000 + k)
    kind = k % 4
    if kind == 0:
        mu = uniform(m)
        sep = int(rng.integers(1, m + 1)) / m
    elif kind == 1:
        w = rng.random(m) ** 4 + 1e-3
        mu = DiscreteMeasure(tuple(w / w.sum()))
        i, j = (int(x) for x in rng.integers(0, len(cls.concepts), 2))
        sep = symdiff_distance(mu, cls.concepts[i], cls.concepts[j]) or 0.5
    elif kind == 2:
        tiny = int(rng.integers(1, m + 1))
        w = np.zeros(m)
        w[:tiny] = 1e-12
        w[int(rng.integers(0, m))] = 1.0
        mu = DiscreteMeasure(tuple(w / w.sum()))
        t = int(rng.integers(1, m + 1)) * 1e-12
        sep = float(rng.choice([t, 1.0 - t, 1.0]))
    else:
        w = rng.random(m)
        mu = DiscreteMeasure(tuple(w / w.sum()))
        sep = float(rng.uniform(0.05, 0.95))
    ref = {mode: _reference_packing(cls, mu, sep, mode) for mode in ("exact", "greedy")}
    return cls, mu, sep, ref


@pytest.mark.parametrize(
    "gemm_entries", [0, empirics._GEMM_ENTRIES, 1 << 40],
    ids=["row", "default", "one_block"],
)
def test_packing_number_matches_the_reference_search(monkeypatch, gemm_entries):
    # blocks of one row, of the default size and one block for the whole class
    monkeypatch.setattr(empirics, "_GEMM_ENTRIES", gemm_entries)
    rechecks = 0

    def counted(*args):
        nonlocal rechecks
        rechecks += 1
        return symdiff_distance(*args)

    monkeypatch.setattr(empirics, "symdiff_distance", counted)
    for k in range(320):
        cls, mu, sep, ref = _packing_case(k)
        for mode in ("exact", "greedy"):
            res = packing_number(cls, mu, sep, mode=mode)
            assert (res.count, res.witness) == ref[mode], (k, mode)
            assert res.exact == (mode == "exact") and res.separation == sep
    # ties and tiny atoms put pairs inside the rounding band
    assert rechecks > 300


def _clique_instance(K, edges):
    """A class and a separation whose packing graph under uniform weights
    is the given graph on K vertices. Concepts i and j share one point iff
    ij is no edge, and private points pad every concept to s points, so
    d(i, j) is 2s/m on an edge and (2s - 2)/m off one; the separation
    (2s - 1)/m lies between."""
    non_edges = [p for p in itertools.combinations(range(K), 2) if p not in edges]
    members = [[q for q, p in enumerate(non_edges) if i in p] for i in range(K)]
    s = 1 + max(map(len, members))
    m = len(non_edges)
    for pts in members:
        pad = s - len(pts)
        pts += range(m, m + pad)
        m += pad
    concepts = tuple(Concept.from_indices(m, pts) for pts in members)
    return ConceptClass(Domain(m), concepts), (2 * s - 1) / m


def _load_perfbench_oracles():
    """perfbench/oracles.py, which is no package, loaded by path."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "oracles.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_packing_number_matches_clique_oracles():
    import networkx as nx

    oracles = _load_perfbench_oracles()
    rng = derive_rng(6262, "graphs")
    for trial in range(80):
        K = int(rng.integers(1, 19))
        p = float(rng.uniform(0.1, 0.95))
        edges = {e for e in itertools.combinations(range(K), 2) if rng.random() < p}
        cls, sep = _clique_instance(K, edges)
        mu = uniform(cls.domain.size)
        res = packing_number(cls, mu, sep)
        g = nx.Graph()
        g.add_nodes_from(range(K))
        g.add_edges_from(edges)
        cliques = [tuple(sorted(c)) for c in nx.find_cliques(g)]
        omega = max(map(len, cliques))
        adj = [sum(1 << j for j in range(K) if tuple(sorted((i, j))) in edges)
               for i in range(K)]
        assert res.count == omega == oracles.max_clique(adj), trial
        assert nx.max_weight_clique(g, weight=None)[1] == omega, trial
        # the witness is the first maximum clique in vertex order
        assert res.witness == min(c for c in cliques if len(c) == omega), trial
        chosen = []
        for i in range(K):
            if all(tuple(sorted((i, j))) in edges for j in chosen):
                chosen.append(i)
        assert packing_number(cls, mu, sep, mode="greedy").witness == tuple(chosen)


def test_packing_number_node_guard():
    # intervals(11) in class order at separation 4.5/11: the size-bound
    # search alone passes 2 K^2 nodes; the colouring bound needs about 50
    cls = gen_intervals(11)
    mu = uniform(11)
    K = len(cls.concepts)
    with pytest.raises(WorkLimitExceeded):
        _reference_packing(cls, mu, 4.5 / 11, work_limit=2 * K * K)
    res = packing_number(cls, mu, 4.5 / 11, work_limit=K * K)
    assert (res.count, res.witness) == _reference_packing(cls, mu, 4.5 / 11)


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
    # a bool is no dimension
    with pytest.raises(ValueError):
        pattern_packing(True, "0.1")
    with pytest.raises(ValueError):
        packing_lower_bounds(True, "0.1")


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


def _left_to_right(values) -> float:
    acc = 0.0
    for x in values:
        acc += x
    return acc


def test_report_moments_are_left_to_right_sums():
    # from Python 3.12 on, sum() over floats compensates; the reports add
    # left to right on every version, so they match this loop and not fsum
    rep = empirical_sup_deviation(gen_intervals(40), uniform(40), 10, 200, 111)
    assert math.fsum(rep.sups) != _left_to_right(rep.sups)
    assert rep.mean == _left_to_right(rep.sups) / rep.trials
    pac = learning.pac_error_estimate(
        gen_intervals(20), learning.LearnerSpec("enumeration"), 150, uniform(20),
        4, 300, 0,
    )
    errs = pac.errors
    mean = _left_to_right(errs) / pac.trials
    squares = [(e - mean) ** 2 for e in errs]
    assert math.fsum(errs) != _left_to_right(errs)
    assert math.fsum(squares) != _left_to_right(squares)
    assert pac.mean_error == mean
    assert pac.stderr_mean == math.sqrt(_left_to_right(squares) / pac.trials / pac.trials)


def _count_vectors(n: int, m: int):
    """Every vector of m nonnegative counts summing to n."""
    if m == 1:
        yield (n,)
        return
    for k in range(n + 1):
        for rest in _count_vectors(n - k, m - 1):
            yield (k, *rest)


def _exact_exceedance(cls, mu, n, eps) -> Fraction:
    """P(sup_C |count_C / n - mu(C)| >= eps) over n i.i.d. draws, exactly.

    Each weight is read as the exact rational its float holds, a_i / den,
    and normalized by their exact sum S; a count vector k has probability
    n! / prod(k_i!) * prod(a_i^k_i) / S^n. Integer arithmetic throughout.
    Also asserts that eps lies more than 1e-9 from every deviation a
    count vector of positive probability reaches, so the float comparison
    in ugc_cell cannot differ from the exact one."""
    w = [Fraction(x) for x in mu.weights]
    den = math.lcm(*(x.denominator for x in w))
    a = [int(x * den) for x in w]
    S = sum(a)
    masses = [sum(a[i] for i in c) for c in cls]
    powers = [[x**k for k in range(n + 1)] for x in a]
    e = Fraction(eps)
    bar = e.numerator * n * S  # dev / (n S) >= eps iff dev * e.den >= bar
    hit, margin = 0, None
    for counts in _count_vectors(n, len(a)):
        weight = math.factorial(n)
        for i, k in enumerate(counts):
            weight = weight // math.factorial(k) * powers[i][k]
        if not weight:
            continue  # a zero-weight atom drawn
        dev = max(abs(sum(counts[i] for i in c) * S - n * A) for c, A in zip(cls, masses))
        gap = abs(dev * e.denominator - bar)
        margin = gap if margin is None else min(margin, gap)
        if dev * e.denominator >= bar:
            hit += weight
    assert margin * 10**9 > n * S * e.denominator, "eps sits on a deviation"
    return Fraction(hit, S**n)


def test_ugc_cell_matches_the_exact_count_law():
    # 20,000 trials per cell; over the six cells a correct sampler passes
    # |z| < 4.5 in every cell with probability at least 1 - 6 * 6.8e-6
    # (normal approximation, Bonferroni)
    two = ConceptClass(
        Domain(3), (Concept.from_indices(3, [0]), Concept.from_indices(3, [0, 1]))
    )
    skew = DiscreteMeasure((0.3, 0.0, 0.7))
    trials, eps = 20_000, 0.1037
    zs = []
    for ci, (cls, n) in enumerate(((gen_power_set(3), 10), (gen_power_set(3), 80), (two, 40))):
        for mi, mu in enumerate((uniform(3), skew)):
            p = _exact_exceedance(cls, mu, n, eps)
            assert 0 < p < 1
            got = ugc_cell(cls, mu, n, eps, trials, 2601, ci, mi)
            zs.append((got - p) / math.sqrt(p * (1 - p) / trials))
    assert max(map(abs, zs)) < 4.5, zs
