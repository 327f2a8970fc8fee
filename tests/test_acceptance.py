"""Acceptance battery. One test per shipped guarantee; each appends a
PASS/FAIL line to the summary printed at the end of the run.

Criterion 3b is expected to fail as stated: with samples larger than the
class's small-set bound, every consistent hypothesis is forced close to the
target, so no consistent learner can keep mean error near 1 there. The test
asserts the stated bar anyway and its companion demonstration shows the
phenomenon is real once sample size drops below the bound.
"""

import itertools
import json
import math
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from conftest import RESULTS, cli_env

from thickvc import (
    Concept,
    DiscreteMeasure,
    FCSet,
    LearnerSpec,
    PrincipalIdeal,
    derive_rng,
    empirical_sup_deviation,
    gen_cluster_decorated,
    gen_finite_cofinite,
    gen_intervals,
    gen_power_set,
    gen_random,
    is_strongly_shattered,
    learner_image,
    lift_witness,
    pac_error_estimate,
    packing_lower_bounds,
    pattern_packing,
    restrict,
    sample_complexity_bound,
    ugc_curve,
    uniform,
    uniform_on,
    vc_after_removal,
    vc_dimension,
    vc_mod_ideal,
    vc_on_stone,
    vc_thick,
)


def note(ok: bool, label: str, detail: str) -> bool:
    RESULTS.append(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    return ok


def battery_instance(trial):
    """Instance `trial` of the criterion-1 battery: (class, N's points, ideal)."""
    rng = derive_rng(112233, "acc", trial)
    m = int(rng.integers(2, 11))
    count = int(rng.integers(1, 41))
    density = float(rng.uniform(0.15, 0.85))
    cls = gen_random(m, count, density, seed=900_000 + trial)
    nsize = int(rng.integers(0, m))  # never the whole domain
    npts = sorted(int(x) for x in rng.permutation(m)[:nsize])
    return cls, npts, PrincipalIdeal(Concept.from_indices(m, npts))


@pytest.fixture(scope="module")
def cross_validation_battery():
    """500 random (class, negligible set) instances, all three routes."""
    t0 = time.perf_counter()
    mismatches = []
    witness_failures = []
    positive = 0
    for trial in range(500):
        cls, npts, ideal = battery_instance(trial)
        m = cls.domain.size
        vm, cert_m = vc_mod_ideal(cls, ideal, want_certificate=True)
        vs, cert_s = vc_on_stone(cls, ideal, want_certificate=True)
        keep = [p for p in range(m) if p not in set(npts)]
        vr = vc_dimension(restrict(cls, keep))
        if not (vm == vs == vr):
            mismatches.append((trial, vm, vs, vr))
            continue
        if vm > 0:
            positive += 1
            ok_direct, _ = is_strongly_shattered(cls, cert_m.witness)
            fam = lift_witness(cls, ideal, cert_s.carvers)
            ok_lifted, _ = is_strongly_shattered(cls, fam)
            ok_outside = all(
                not ideal.contains(a) for a in fam.clusters
            ) and all(not ideal.contains(a) for a in cert_m.witness.clusters)
            if not (ok_direct and ok_lifted and ok_outside and fam.n == vs):
                witness_failures.append(trial)
    elapsed = time.perf_counter() - t0
    return {
        "mismatches": mismatches,
        "witness_failures": witness_failures,
        "positive": positive,
        "elapsed": elapsed,
    }


def test_criterion_1_three_routes_agree(cross_validation_battery):
    b = cross_validation_battery
    ok = not b["mismatches"] and b["elapsed"] < 120.0
    note(
        ok,
        "criterion 1",
        "direct family search, quotient-algebra route, and restriction "
        f"agree on 500 random (class, negligible set) instances "
        f"({len(b['mismatches'])} mismatches) in {b['elapsed']:.1f}s < 120s",
    )
    assert ok, b["mismatches"]


def brute_vc_outside(concept_sets, outside):
    """Largest k with a k-subset of `outside` on which the sets cut all 2^k
    traces, by frozenset enumeration. Shattering is closed under subsets,
    so the first k with no shattered subset ends the scan."""
    best = 0
    for k in range(1, len(outside) + 1):
        if not any(
            len({frozenset(pts) & c for c in concept_sets}) == 2**k
            for pts in itertools.combinations(outside, k)
        ):
            break
        best = k
    return best


def test_criterion_1_routes_match_brute_force():
    """Each route of criterion 1 against subset enumeration off N, on the
    same 500 instances. The quotient and restriction routes share
    `restrict`, so this catches a fault there that criterion 1's
    agreement check alone would miss."""
    wrong = []
    for trial in range(500):
        cls, npts, ideal = battery_instance(trial)
        sets = [frozenset(c.indices()) for c in cls.concepts]
        outside = [p for p in range(cls.domain.size) if p not in npts]
        want = brute_vc_outside(sets, outside)
        got = (
            vc_mod_ideal(cls, ideal),
            vc_on_stone(cls, ideal),
            vc_dimension(restrict(cls, outside)),
        )
        if got != (want,) * 3:
            wrong.append((trial, want, got))
    assert not wrong, wrong[:5]


def test_criterion_2_witnesses_revalidate(cross_validation_battery):
    b = cross_validation_battery
    ok = not b["witness_failures"] and b["positive"] >= 100
    note(
        ok,
        "criterion 2",
        f"direct and lifted shattering witnesses revalidated on all "
        f"{b['positive']} instances with positive dimension "
        f"({len(b['witness_failures'])} failures)",
    )
    assert ok, b["witness_failures"]


def test_criterion_3a_dimension_drop():
    cls = gen_finite_cofinite(16, 2, backend="dense")
    v, cert = vc_dimension(cls, want_certificate=True)
    cert_ok = cert is not None and cert.validate(cls)
    vt = vc_thick(cls, 3)
    ok = v >= 2 and cert_ok and vt == 1
    note(
        ok,
        "criterion 3a",
        f"small-or-cosmall class on 16 points: vc = {v} >= 2 with a "
        f"validated witness, thick dimension at cluster size 3 = {vt} == 1",
    )
    assert ok


def test_criterion_3b_adversarial_error_floor():
    # stated bar: a consistent-but-adversarial learner keeps mean error
    # >= 0.9 at n = 50 on the (1000, 5) class. Unattainable as stated: with
    # n > t the learner's output and the target differ on at most 2t core
    # points, so every consistent hypothesis errs at most 2t/m = 0.01.
    m, t, n, trials = 1000, 5, 50, 5000
    sc = gen_finite_cofinite(m, t, backend="structured")
    mu = uniform(m)
    targets = [
        FCSet(m, "cofinite", frozenset({3, 77, 500})),
        FCSet(m, "cofinite", frozenset()),
        FCSet(m, "finite", frozenset({3, 77, 500})),
    ]
    spec = LearnerSpec("adversarial")
    means = []
    worst_stderr = 0.0
    for ti, tgt in enumerate(targets):
        rep = pac_error_estimate(
            sc, spec, tgt, mu, n, trials, 606060, seed_path=(ti,)
        )
        means.append(rep.mean_error)
        worst_stderr = max(worst_stderr, rep.stderr_mean)
    best = max(means)
    # companion demonstration: the same learner with the small-set bound
    # raised past the sample size really does pin mean error near 1
    sc55 = gen_finite_cofinite(m, 55, backend="structured")
    comp = pac_error_estimate(
        sc55,
        spec,
        FCSet(m, "cofinite", frozenset({3, 77, 500})),
        mu,
        n,
        1000,
        616161,
    )
    ok = best >= 0.9 - 3 * worst_stderr
    note(
        ok,
        "criterion 3b",
        f"adversarial consistent learner at n={n} on the (m={m}, t={t}) "
        f"class: max mean error over 3 targets = {best:.4f}, bar 0.9 "
        f"(unreachable: consistency forces error <= 2t/m = {2 * t / m}); "
        f"companion at t=55 >= n gives mean {comp.mean_error:.4f} >= 0.9: "
        f"{comp.mean_error >= 0.9}",
    )
    assert ok, (
        f"stated bar 0.9 unattainable at t={t} < n={n}: best mean {best:.4f}; "
        f"see the decisions ledger for the blocking analysis"
    )


def test_criterion_3c_enumeration_learns():
    m, t = 1000, 5
    sc = gen_finite_cofinite(m, t, backend="structured")
    mu = uniform(m)
    n_star = sample_complexity_bound(0.1, 0.1, 1)
    rep = pac_error_estimate(
        sc,
        LearnerSpec("enumeration"),
        FCSet(m, "cofinite", frozenset({3, 77, 500})),
        mu,
        n_star,
        500,
        707070,
        epsilons=(0.1,),
    )
    success = 1.0 - rep.frac_above(0.1)
    ok = n_star == 137767 and success >= 0.9
    note(
        ok,
        "criterion 3c",
        f"enumeration learner at the bound n = {n_star}: error <= 0.1 in "
        f"{success:.3f} of 500 trials (>= 0.9 required), mean error "
        f"{rep.mean_error:.2e}",
    )
    assert ok


def test_criterion_4_deviation_floor_below_bound():
    # n = t: the whole sample is a small set of the class, so the empirical
    # process is off by at least 1 - n/m uniformly over trials
    sc = gen_finite_cofinite(1000, 50, backend="structured")
    rep = empirical_sup_deviation(sc, uniform(1000), 50, 1000, 404040)
    mn = min(rep.sups)
    ok = all(s >= 0.95 for s in rep.sups)
    note(
        ok,
        "criterion 4",
        f"sup-deviation at n=50 over the (1000, 50) class stayed >= 0.95 "
        f"in all 1000 trials (min {mn:.17f}); n*atom_bound = "
        f"{rep.n_atom_bound}",
    )
    assert ok


def _mp_bound(eps: str, delta: str, d: int) -> int:
    import mpmath as mp

    mp.mp.dps = 60
    e = mp.mpf(eps)
    dl = mp.mpf(delta)
    inner = (2 * mp.e**2 / e) * mp.log(2 * mp.e / e)
    val = (128 / e**2) * (d * mp.log(inner) + mp.log(8 / dl))
    return int(mp.ceil(val))


def test_criterion_5_learning_curves_hit_the_bound():
    ok_bound = (
        sample_complexity_bound(0.1, 0.05, 2)
        == 228315
        == _mp_bound("0.1", "0.05", 2)
    )
    stars = {}
    for d in (1, 2, 3):
        nb = sample_complexity_bound(0.2, 0.1, d)
        ok_bound = ok_bound and nb == _mp_bound("0.2", "0.1", d)
        stars[d] = nb
    ok_bound = ok_bound and stars == {1: 31614, 2: 49206, 3: 66797}

    cluster = {1: 600, 2: 300, 3: 200}
    probs = {}
    ok_dev = True
    for d in (1, 2, 3):
        cls = gen_cluster_decorated(gen_power_set(d), cluster[d], 0, seed=0)
        m = cls.domain.size
        tilt = np.array([1.0 + x / m for x in range(m)])
        measures = [
            uniform(m),
            uniform_on(Concept.from_indices(m, range(m // 2))),
            DiscreteMeasure(tuple(tilt / tilt.sum())),
        ]
        assert max(mu.atom_bound for mu in measures) <= 1 / 200
        (pt,) = ugc_curve(cls, measures, [stars[d]], 0.2, 200, 505050 + d)
        probs[d] = (pt.prob, pt.stderr)
        ok_dev = ok_dev and pt.prob <= 0.1 + 3 * pt.stderr
    ok = ok_bound and ok_dev
    worst = max(p for p, _ in probs.values())
    note(
        ok,
        "criterion 5",
        "bound goldens match a 60-digit recomputation (228315; "
        f"{stars[1]}/{stars[2]}/{stars[3]}); at those sample sizes the "
        f"worst P(sup-dev >= 0.2) over d=1,2,3 and 3 atom-bounded measures "
        f"is {worst:.3f} <= 0.1 + 3*stderr",
    )
    assert ok, (stars, probs)


def test_criterion_6_packing_chain():
    t0 = time.perf_counter()
    failures = []
    example = None
    for d in range(1, 13):
        for eps in ("0.05", "0.1", "0.2"):
            pk = pattern_packing(d, eps)
            lb = packing_lower_bounds(d, eps)
            good = (
                pk.maximal
                and Fraction(pk.count) >= lb.combinatorial
                and float(lb.combinatorial) >= lb.chernoff_okamoto
            )
            if not good:
                failures.append((d, eps))
            if d == 10 and eps == "0.1":
                example = (pk.count, float(lb.combinatorial), lb.chernoff_okamoto)
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    note(
        ok,
        "criterion 6",
        "greedy-maximal packings dominated both analytic lower bounds on "
        f"the full d=1..12 x eps grid in {elapsed:.2f}s < 60s (d=10, "
        f"eps=0.1: {example[0]} >= {example[1]:.3f} >= {example[2]:.3f})",
    )
    assert ok, failures


def test_criterion_7_mass_verified_invocations():
    t0 = time.perf_counter()
    iv20 = gen_intervals(20)
    order = tuple(
        int(x) for x in derive_rng(727272, "order").permutation(len(iv20.concepts))
    )
    iv14 = gen_intervals(14)
    fc_dense = gen_finite_cofinite(12, 2, backend="dense")
    fc_big = gen_finite_cofinite(1000, 5, backend="structured")
    suites = [
        # (class, learner, targets, n values, trials, measure)
        (iv20, LearnerSpec("enumeration"), [0, 100, 210], [4, 16], 60_000,
         uniform(20)),
        (iv20, LearnerSpec("enumeration", order), [10, 150], [8], 60_000,
         uniform(20)),
        (iv14, LearnerSpec("adversarial"), [0, 50, 105], [6], 40_000,
         uniform(14)),
        (fc_dense, LearnerSpec("adversarial"), [0, 1, 80], [5], 40_000,
         uniform(12)),
        (fc_big, LearnerSpec("enumeration"),
         [FCSet(1000, "cofinite", frozenset({3, 77, 500})),
          FCSet(1000, "finite", frozenset({42}))], [20, 60], 60_000,
         uniform(1000)),
        (fc_big, LearnerSpec("adversarial"),
         [FCSet(1000, "cofinite", frozenset({3, 77, 500})),
          FCSet(1000, "finite", frozenset({42}))], [20], 40_000,
         uniform(1000)),
    ]
    verified = 0
    nohyp = 0
    for si, (cls, spec, targets, ns, trials, mu) in enumerate(suites):
        for ti, tgt in enumerate(targets):
            for ni, n in enumerate(ns):
                rep = pac_error_estimate(
                    cls, spec, tgt, mu, n, trials, 810_000 + si,
                    seed_path=(si, ti, ni),
                )
                verified += rep.trials - rep.no_hypothesis_count
                nohyp += rep.no_hypothesis_count

    # image containment: over every target and three orders, the learner's
    # reachable outputs never pass the target's own position in the order
    cls = gen_intervals(5)
    K = len(cls.concepts)
    shuffled = tuple(int(x) for x in derive_rng(737373, "img").permutation(K))
    image_bad = 0
    for ordr in (None, tuple(range(K - 1, -1, -1)), shuffled):
        pos = {k: i for i, k in enumerate(ordr)} if ordr else {
            k: k for k in range(K)
        }
        for tidx in range(K):
            for n in range(0, 5):
                img = learner_image(cls, ordr, cls.concepts[tidx], n)
                if not img or any(pos[i] > pos[tidx] for i in img):
                    image_bad += 1
    elapsed = time.perf_counter() - t0
    ok = verified >= 1_000_000 and nohyp == 0 and image_bad == 0
    note(
        ok,
        "criterion 7",
        f"{verified} learner invocations, every output consistency-checked "
        f"against its sample ({nohyp} unresolvable), and 240 exhaustive "
        f"learner images stayed within the target's order prefix "
        f"({image_bad} violations) in {elapsed:.1f}s",
    )
    assert ok, (verified, nohyp, image_bad)


def test_criterion_8_monotonicity_battery():
    violations = 0
    checks = 0
    for trial in range(80):
        rng = derive_rng(889900, "mono", trial)
        m = int(rng.integers(3, 9))
        count = int(rng.integers(2, 26))
        cls = gen_random(
            m, count, float(rng.uniform(0.2, 0.8)), seed=910_000 + trial
        )
        v = vc_dimension(cls)
        prev = None
        for s in (1, 2, 3):
            if s > m:
                break
            vt = vc_thick(cls, s)
            checks += 1
            if (s == 1 and vt != v) or (prev is not None and vt > prev):
                violations += 1
            prev = vt
        prev_r = None
        for budget in (0, 1, 2):
            res = vc_after_removal(cls, budget, mode="exact")
            checks += 1
            if prev_r is not None and res.vc > prev_r:
                violations += 1
            prev_r = res.vc
        ksub = int(rng.integers(1, m + 1))
        sub = sorted(int(x) for x in rng.permutation(m)[:ksub])
        checks += 1
        if vc_dimension(restrict(cls, sub)) > v:
            violations += 1
        nsize = int(rng.integers(0, m))
        npts = sorted(int(x) for x in rng.permutation(m)[:nsize])
        checks += 1
        if vc_mod_ideal(cls, PrincipalIdeal(Concept.from_indices(m, npts))) > v:
            violations += 1
    ok = violations == 0 and checks >= 500
    note(
        ok,
        "criterion 8",
        f"{checks} monotonicity checks over 80 random classes (thickness in "
        f"cluster size, dimension under point removal and restriction, "
        f"ideal-relative vs plain): {violations} violations",
    )
    assert ok


def test_criterion_9_cli_determinism(tmp_path):
    cfg = tmp_path / "pac.json"
    cfg.write_text(json.dumps({
        "class": {"generator": {"family": "finite-cofinite", "m": 200,
                                "t": 3, "backend": "structured"}},
        "learner": {"kind": "enumeration"},
        "measure": {"type": "uniform"},
        "targets": [{"kind": "cofinite", "core": [5, 9]}, {"index": 0}],
        "n_grid": [15, 45],
        "trials": 200,
        "epsilons": [0.1],
    }))
    ucfg = tmp_path / "ugc.json"
    ucfg.write_text(json.dumps({
        "class": {"generator": {"family": "power-set", "r": 3}},
        "measures": [{"type": "uniform"},
                     {"type": "explicit", "weights": [0.5, 0.25, 0.25]}],
        "n_grid": [10, 80],
        "epsilon": 0.25,
        "trials": 200,
    }))
    pac_outs, pac_csvs, rcodes = [], [], []
    for jobs in ("1", "2", "3"):
        csv_path = tmp_path / f"pac-{jobs}.csv"
        r = subprocess.run(
            [sys.executable, "-m", "thickvc", "pac-sim", "--config", str(cfg),
             "--seed", "31415", "--jobs", jobs, "--csv", str(csv_path)],
            capture_output=True, text=True, env=cli_env(), timeout=600,
        )
        rcodes.append(r.returncode)
        pac_outs.append(r.stdout)
        pac_csvs.append(csv_path.read_bytes())
    ugc_outs = []
    for jobs in ("1", "2"):
        r = subprocess.run(
            [sys.executable, "-m", "thickvc", "ugc-sim", "--config",
             str(ucfg), "--seed", "27182", "--jobs", jobs],
            capture_output=True, text=True, env=cli_env(), timeout=600,
        )
        rcodes.append(r.returncode)
        ugc_outs.append(r.stdout)
    ok = (
        all(c == 0 for c in rcodes)
        and pac_outs[0] == pac_outs[1] == pac_outs[2]
        and pac_csvs[0] == pac_csvs[1] == pac_csvs[2]
        and ugc_outs[0] == ugc_outs[1]
        and len(pac_outs[0]) > 0
        and len(ugc_outs[0]) > 0
    )
    note(
        ok,
        "criterion 9",
        "simulation CLI byte-identical across --jobs 1/2/3 (stdout and CSV "
        f"both, {len(pac_outs[0])}-byte records) and across --jobs 1/2 for "
        "the deviation curve",
    )
    assert ok
