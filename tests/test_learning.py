"""Learning rules against oracles, plus the sample-size bound goldens."""

import itertools
import math

import numpy as np
import pytest

from thickvc import learning
from thickvc import (
    Concept,
    ConceptClass,
    DiscreteMeasure,
    Domain,
    DomainMismatch,
    FCSet,
    FiniteCofiniteClass,
    LearnerSpec,
    NoConsistentHypothesis,
    WorkLimitExceeded,
    adversarial_consistent_learner,
    derive_rng,
    enumeration_learner,
    fc_distance,
    gen_finite_cofinite,
    gen_intervals,
    gen_random,
    learner_image,
    pac_error_estimate,
    sample_complexity_bound,
    symdiff_distance,
    uniform,
)
from thickvc.learning import label_sample
from thickvc.measures import _draw_indices


def test_labeled_sample_validation():
    # label_sample puts each drawn point on exactly one side
    cls = gen_intervals(6)
    rng = derive_rng(6060, "split")
    for trial in range(100):
        pts = rng.integers(0, 6, int(rng.integers(0, 8))).tolist()
        tgt = cls.concepts[int(rng.integers(0, len(cls.concepts)))]
        pos, neg = label_sample(tgt, pts)
        assert pos | neg == set(pts) and not pos & neg, trial
        assert all(p in tgt for p in pos) and not any(p in tgt for p in neg)
    # both learners refuse a point given in both sets, on both backends
    sc = FiniteCofiniteClass(8, 2)
    for c, tgt, mu in (
        (cls, cls.concepts[3], uniform(6)),
        (sc, sc.concept_at(3), uniform(8)),
    ):
        with pytest.raises(NoConsistentHypothesis, match="both 1 and 0"):
            enumeration_learner(c, None, {1, 2}, {2})
        with pytest.raises(NoConsistentHypothesis, match="both 1 and 0"):
            adversarial_consistent_learner(c, {1, 2}, {2}, tgt, mu)


def test_learner_spec_validation():
    assert LearnerSpec("enumeration").order is None
    assert LearnerSpec("enumeration", (2, 0, 1)).order == (2, 0, 1)
    with pytest.raises(ValueError):
        LearnerSpec("magic")
    with pytest.raises(ValueError):
        LearnerSpec("enumeration", (0, 2))
    with pytest.raises(ValueError, match="takes no order"):
        LearnerSpec("adversarial", (1, 0))


def test_label_sample_concept_and_fcset():
    pts = (0, 3, 5, 3)
    c = Concept.from_indices(6, [3, 4])
    assert label_sample(c, pts) == ({3}, {0, 5})
    fc = FCSet(6, "cofinite", frozenset({3}))
    assert label_sample(fc, pts) == ({0, 5}, {3})


def test_enumeration_learner_first_consistent():
    cls = gen_intervals(6)
    sets = [frozenset(c.indices()) for c in cls.concepts]
    rng = derive_rng(6161, "enum")
    for trial in range(150):
        nlab = int(rng.integers(1, 5))
        pts = tuple(int(x) for x in rng.integers(0, 6, nlab))
        labels = tuple(int(b) for b in rng.integers(0, 2, nlab))
        pos = {p for p, l in zip(pts, labels) if l}
        neg = {p for p, l in zip(pts, labels) if not l}
        want = next(
            (i for i, s in enumerate(sets) if pos <= s and not (neg & s)), None
        )
        if pos & neg or want is None:
            with pytest.raises(NoConsistentHypothesis):
                enumeration_learner(cls, None, pos, neg)
            continue
        assert enumeration_learner(cls, None, pos, neg) == want, trial


def test_per_sample_learners_refuse_points_off_the_domain():
    # a label outside [0, m) is an input error on either side, not a label
    # the learner may ignore or fail to fit
    sc = FiniteCofiniteClass(8, 2)
    cls = gen_intervals(6)
    for c, m, tgt, mu in (
        (cls, 6, cls.concepts[18], uniform(6)),
        (sc, 8, sc.concept_at(3), uniform(8)),
    ):
        for pos, neg in (((), (m,)), ((m,), ()), ((0,), (-1,)), ((), (1, m + 5))):
            with pytest.raises(ValueError, match="not in"):
                enumeration_learner(c, None, pos, neg)
            with pytest.raises(ValueError, match="not in"):
                adversarial_consistent_learner(c, pos, neg, tgt, mu)
        for bad in (True, 1.0):
            with pytest.raises(ValueError, match="not an int"):
                enumeration_learner(c, None, (bad,), ())


def test_enumeration_learner_respects_order():
    cls = gen_intervals(5)
    K = len(cls.concepts)
    assert enumeration_learner(cls, None, (), ()) == 0
    rev = tuple(range(K - 1, -1, -1))
    # reversed order: first consistent is the order-least, i.e. index K-1
    assert enumeration_learner(cls, rev, (), ()) == K - 1
    with pytest.raises(ValueError):
        enumeration_learner(cls, (0, 1), (), ())  # not a permutation of 0..K-1


def test_enumeration_learner_structured_matches_dense():
    m, t = 8, 2
    sc = FiniteCofiniteClass(m, t)
    dense = gen_finite_cofinite(m, t, backend="dense")
    rng = derive_rng(6262, "sd")
    for trial in range(200):
        nlab = int(rng.integers(1, 7))
        pts = tuple(sorted({int(x) for x in rng.integers(0, m, nlab)}))
        tfc = sc.concept_at(int(rng.integers(0, sc.size)))
        sample_d = label_sample(tfc.to_concept(), pts)
        sample_s = label_sample(tfc, pts)
        assert sample_d == sample_s
        assert enumeration_learner(sc, None, *sample_s) == enumeration_learner(
            dense, None, *sample_d
        ), trial
    with pytest.raises(ValueError):
        enumeration_learner(sc, (0, 1), *label_sample(tfc, (0,)))


def test_adversarial_learner_matches_brute_max():
    cls = gen_intervals(6)
    mu = DiscreteMeasure((0.25, 0.125, 0.125, 0.25, 0.125, 0.125))
    rng = derive_rng(6363, "adv")
    for trial in range(150):
        tgt = cls.concepts[int(rng.integers(0, len(cls.concepts)))]
        nlab = int(rng.integers(1, 5))
        pts = tuple(int(x) for x in rng.integers(0, 6, nlab))
        pos, neg = label_sample(tgt, pts)
        best = None
        for i, c in enumerate(cls.concepts):
            s = set(c.indices())
            if not (pos <= s) or (neg & s):
                continue
            d = symdiff_distance(mu, c, tgt)
            if best is None or d > best[0]:
                best = (d, i)
        got = adversarial_consistent_learner(cls, pos, neg, tgt, mu)
        assert got == best[1], trial


def test_adversarial_structured_matches_dense():
    m, t = 8, 2
    sc = FiniteCofiniteClass(m, t)
    dense = gen_finite_cofinite(m, t, backend="dense")
    # dyadic weights, one zero atom: every distance is exact in binary
    mu = DiscreteMeasure((4 / 16, 0.0, 1 / 16, 2 / 16, 2 / 16, 3 / 16, 1 / 16, 3 / 16))
    rng = derive_rng(6464, "advsd")
    for trial in range(250):
        tfc = sc.concept_at(int(rng.integers(0, sc.size)))
        tconc = tfc.to_concept()
        nlab = int(rng.integers(1, 6))
        pts = tuple(sorted({int(x) for x in rng.integers(0, m, nlab)}))
        pos, neg = label_sample(tconc, pts)
        try:
            want = adversarial_consistent_learner(dense, pos, neg, tconc, mu)
        except NoConsistentHypothesis:
            with pytest.raises(NoConsistentHypothesis):
                sc.max_distance_consistent(pos, neg, tfc, mu)
            continue
        fc, _ = sc.max_distance_consistent(pos, neg, tfc, mu)
        assert sc.rank(fc) == want, trial


def brute_image(cls, order, target, n):
    """Learner outputs over literally all m^n ordered samples."""
    m = cls.domain.size
    out = set()
    for seq in itertools.product(range(m), repeat=n):
        out.add(enumeration_learner(cls, order, *label_sample(target, seq)))
    return frozenset(out)


def test_learner_image_matches_brute_force():
    cls = gen_intervals(4)
    K = len(cls.concepts)
    orders = [None, tuple(range(K - 1, -1, -1))]
    rng = derive_rng(6565, "img")
    orders.append(tuple(int(x) for x in rng.permutation(K)))
    for order in orders:
        for tidx in range(K):
            tgt = cls.concepts[tidx]
            for n in (0, 1, 2, 3):
                got = learner_image(cls, order, tgt, n)
                assert got == brute_image(cls, order, tgt, n), (
                    order,
                    tidx,
                    n,
                )


def test_learner_image_prefix_property():
    # with any order, the image never contains a concept later in the order
    # than the target itself: the target is always consistent
    cls = gen_intervals(5)
    K = len(cls.concepts)
    rng = derive_rng(6666, "pfx")
    for trial in range(20):
        order = tuple(int(x) for x in rng.permutation(K))
        pos = {k: i for i, k in enumerate(order)}
        tidx = int(rng.integers(0, K))
        img = learner_image(cls, order, cls.concepts[tidx], 3)
        assert all(pos[i] <= pos[tidx] for i in img), trial


def test_learner_image_int_target_and_limits():
    cls = gen_intervals(5)
    assert learner_image(cls, None, 3, 2) == learner_image(
        cls, None, cls.concepts[3], 2
    )
    with pytest.raises(WorkLimitExceeded):
        learner_image(cls, None, 3, 4, work_limit=3)
    with pytest.raises(WorkLimitExceeded):
        learner_image(FiniteCofiniteClass(30, 2), None, 0, 2)


def test_learner_image_takes_strict_sizes():
    cls = gen_intervals(5)
    for n in (-1, True, False, 2.0):
        with pytest.raises(ValueError):
            learner_image(cls, None, 3, n)
    # the target fits its own labels, so no image is empty
    assert learner_image(cls, None, 3, 0) == {0}
    assert learner_image(cls, None, 3, np.int64(2)) == learner_image(cls, None, 3, 2)


def test_sample_complexity_bound_goldens():
    assert sample_complexity_bound(0.1, 0.05, 2) == 228315
    assert sample_complexity_bound(0.1, 0.1, 1) == 137767
    assert sample_complexity_bound(0.2, 0.1, 1) == 31614
    assert sample_complexity_bound(0.2, 0.1, 2) == 49206
    assert sample_complexity_bound(0.2, 0.1, 3) == 66797


def test_sample_complexity_bound_shape():
    for eps, delta in [(0.1, 0.05), (0.3, 0.2)]:
        prev = 0
        for d in range(1, 6):
            cur = sample_complexity_bound(eps, delta, d)
            assert cur > prev
            prev = cur
    assert sample_complexity_bound(0.05, 0.1, 1) > sample_complexity_bound(
        0.1, 0.1, 1
    )
    assert sample_complexity_bound(0.1, 0.01, 1) > sample_complexity_bound(
        0.1, 0.1, 1
    )
    for bad in [(0.0, 0.1, 1), (0.1, 1.0, 1), (0.1, 0.1, 0), (0.1, 0.1, True)]:
        with pytest.raises(ValueError):
            sample_complexity_bound(*bad)


def test_pac_estimate_deterministic_and_consistent():
    cls = gen_intervals(8)
    mu = uniform(8)
    spec = LearnerSpec("enumeration")
    a = pac_error_estimate(cls, spec, 5, mu, 10, 60, 424, epsilons=(0.1, 0.25))
    b = pac_error_estimate(cls, spec, 5, mu, 10, 60, 424, epsilons=(0.1, 0.25))
    assert a == b
    assert a.trials == 60 and a.n == 10 and a.seed == 424
    assert len(a.errors) == 60
    assert a.n_atom_bound == pytest.approx(10 / 8)
    assert 0.0 <= a.mean_error <= 1.0
    # frac_exceeding only covers requested thresholds
    assert a.frac_above(0.25) == sum(1 for e in a.errors if e > 0.25) / 60
    with pytest.raises(KeyError):
        a.frac_above(0.5)
    # quantiles are order statistics of the error list
    assert a.quantiles["max"] == max(a.errors)
    assert a.quantiles["q50"] == sorted(a.errors)[math.ceil(0.5 * 60) - 1]


def test_pac_estimate_seed_path_decorrelates():
    cls = gen_intervals(8)
    mu = uniform(8)
    spec = LearnerSpec("enumeration")
    a = pac_error_estimate(cls, spec, 5, mu, 10, 40, 9, seed_path=(0,))
    b = pac_error_estimate(cls, spec, 5, mu, 10, 40, 9, seed_path=(1,))
    assert a.errors != b.errors


def test_pac_estimate_structured_equals_dense():
    m, t = 8, 1
    sc = FiniteCofiniteClass(m, t)
    dense = gen_finite_cofinite(m, t, backend="dense")
    mu = uniform(m)
    for kind in ("enumeration", "adversarial"):
        spec = LearnerSpec(kind)
        ra = pac_error_estimate(sc, spec, 3, mu, 6, 80, 77)
        rb = pac_error_estimate(dense, spec, 3, mu, 6, 80, 77)
        assert ra.errors == rb.errors, kind
        assert ra.mean_error == rb.mean_error


def test_pac_estimate_enumeration_learns_intervals():
    cls = gen_intervals(12)
    mu = uniform(12)
    spec = LearnerSpec("enumeration")
    small = pac_error_estimate(cls, spec, 4, mu, 3, 200, 31)
    big = pac_error_estimate(cls, spec, 4, mu, 120, 200, 31)
    assert big.mean_error < small.mean_error
    assert big.mean_error < 0.05


def test_pac_estimate_no_hypothesis_policies():
    # class without the full set: an all-positive sample of 2+ distinct
    # points has no consistent hypothesis
    cls = ConceptClass(
        Domain(4), (Concept.empty(4), Concept.from_indices(4, [0]))
    )
    mu = uniform(4)
    tgt = Concept.full(4)  # not in the class: realizability is violated
    spec = LearnerSpec("enumeration")
    with pytest.raises(NoConsistentHypothesis):
        pac_error_estimate(cls, spec, tgt, mu, 8, 30, 5)
    rep = pac_error_estimate(
        cls, spec, tgt, mu, 8, 30, 5, no_hypothesis="full-error"
    )
    assert rep.no_hypothesis_count > 0
    assert all(
        e == 1.0 for e in rep.errors[: rep.no_hypothesis_count]
    ) or 1.0 in rep.errors
    with pytest.raises(ValueError):
        pac_error_estimate(cls, spec, tgt, mu, 8, 30, 5, no_hypothesis="skip")
    with pytest.raises(ValueError):
        pac_error_estimate(cls, spec, tgt, mu, 8, 0, 5)


def test_pac_estimate_target_type_checks(monkeypatch):
    sc = FiniteCofiniteClass(8, 1)
    dense = gen_finite_cofinite(8, 1, backend="dense")
    mu = uniform(8)
    spec = LearnerSpec("enumeration")
    with pytest.raises(ValueError):
        pac_error_estimate(sc, spec, Concept.empty(8), mu, 4, 5, 1)
    with pytest.raises(ValueError):
        pac_error_estimate(dense, spec, FCSet(8, "finite", frozenset()), mu, 4, 5, 1)
    # a numpy integer (an index read out of an array) is an index too
    for cls in (sc, dense):
        want = pac_error_estimate(cls, spec, 3, mu, 4, 5, 1)
        for k in (np.int64(3), np.int32(3), np.uint8(3)):
            assert pac_error_estimate(cls, spec, k, mu, 4, 5, 1) == want
    # an int target is a class index in [0, K): -1 would pick the last
    # concept and True concept 1; both are refused, like K itself, before
    # any sample is drawn
    monkeypatch.setattr(learning, "_draw_indices", _no_draws)
    for cls, k in ((sc, sc.size), (dense, len(dense.concepts))):
        for bad in (-1, True, False, k, np.int64(-1), np.int64(k)):
            with pytest.raises(ValueError, match="target index"):
                pac_error_estimate(cls, spec, bad, mu, 4, 5, 1)
        with pytest.raises(ValueError):
            pac_error_estimate(cls, spec, np.bool_(True), mu, 4, 5, 1)
    for bad in (-1, True, len(dense.concepts), np.int64(-1)):
        with pytest.raises(ValueError, match="target index"):
            learner_image(dense, None, bad, 2)
    for k in (1, np.int64(1)):
        assert learner_image(dense, None, k, 2) == learner_image(
            dense, None, dense.concepts[1], 2
        )


def test_adversarial_defeats_consistency_when_class_is_rich():
    # cofinite target, n <= t: the enumeration learner guesses the full set
    # (or a co-small set) and lands near the target, while the white-box
    # adversary answers with a small finite superset of the positives, far
    # away. Past n > t the finite escape closes and both come back close,
    # so the gap is a genuine sample-size phenomenon, not learner strength.
    m, t = 60, 6
    sc = FiniteCofiniteClass(m, t)
    mu = uniform(m)
    tgt = FCSet(m, "cofinite", frozenset({7}))
    n = t - 2
    good = pac_error_estimate(sc, LearnerSpec("enumeration"), tgt, mu, n, 150, 88)
    bad = pac_error_estimate(sc, LearnerSpec("adversarial"), tgt, mu, n, 150, 88)
    assert good.mean_error < 0.1
    assert bad.mean_error > 0.8
    # and with n well past t the adversary is boxed in near the target
    boxed = pac_error_estimate(
        sc, LearnerSpec("adversarial"), tgt, mu, 5 * t, 150, 88
    )
    assert boxed.mean_error <= 2 * t / m


def test_pac_estimate_rejects_structured_target_outside_class():
    sc = FiniteCofiniteClass(8, 1)
    mu = uniform(8)
    for kind in ("enumeration", "adversarial"):
        with pytest.raises(ValueError, match="not a member"):
            pac_error_estimate(
                sc, LearnerSpec(kind), FCSet(8, "cofinite", frozenset({1, 2})),
                mu, 4, 5, 1,
            )


def _no_draws(*args, **kwargs):
    raise AssertionError("drew a sample before validating the learner")


def test_front_doors_refuse_the_same_targets(monkeypatch):
    # learner_image and pac_error_estimate share one target check, so a bad
    # target gets the same exception and message from both, before any draw
    monkeypatch.setattr(learning, "_draw_indices", _no_draws)
    iv, sc = gen_intervals(5), FiniteCofiniteClass(30, 2)
    spec = LearnerSpec("enumeration")
    cases = [
        (iv, np.bool_(True), ValueError, "materialized classes take Concept"),
        (iv, "abc", ValueError, "materialized classes take Concept"),
        (iv, Concept.from_indices(7, [5, 6]), DomainMismatch, "class domain"),
        (sc, FCSet(31, "finite", frozenset({30})), ValueError, "not a member"),
    ]
    for cls, bad, kind, match in cases:
        got = []
        for door in (
            lambda: learner_image(cls, None, bad, 2),
            lambda: pac_error_estimate(cls, spec, bad, uniform(cls.m), 2, 3, 1),
        ):
            with pytest.raises(kind, match=match) as info:
                door()
            got.append((type(info.value), str(info.value)))
        assert got[0] == got[1], bad


def test_pac_estimate_rejects_order_on_structured_class_before_drawing(monkeypatch):
    monkeypatch.setattr(learning, "_draw_indices", _no_draws)
    sc = FiniteCofiniteClass(8, 1)
    with pytest.raises(ValueError, match="canonical order"):
        pac_error_estimate(
            sc, LearnerSpec("enumeration", (1, 0)), 0, uniform(8), 4, 5, 1
        )


def test_pac_estimate_rejects_short_order_before_drawing(monkeypatch):
    monkeypatch.setattr(learning, "_draw_indices", _no_draws)
    cls = gen_intervals(5)
    with pytest.raises(ValueError, match="permutation of the class indices"):
        pac_error_estimate(
            cls, LearnerSpec("enumeration", (2, 0, 1)), 0, uniform(5), 4, 5, 1
        )


@pytest.mark.parametrize(
    "n, trials",
    [(True, 5), (False, 5), (-1, 5), (2.0, 5), (4, 2.0), (4, True), (4, 0)],
)
def test_pac_estimate_refuses_bad_cell_sizes(monkeypatch, n, trials):
    # a bool or non-int n or trials, n < 0 and trials < 1 are refused with
    # ValueError before a stream is derived, on both backends
    def no_stream(*args):
        raise AssertionError("derived a stream before checking the sizes")

    monkeypatch.setattr(learning, "derive_rng", no_stream)
    for cls in (gen_intervals(5), FiniteCofiniteClass(5, 1)):
        for kind in ("enumeration", "adversarial"):
            with pytest.raises(ValueError):
                pac_error_estimate(cls, LearnerSpec(kind), 0, uniform(5), n, trials, 1)


@pytest.mark.parametrize("epsilon", [math.nan, math.inf, -math.inf, True, "0.1"])
def test_pac_estimate_refuses_a_bad_epsilon(monkeypatch, epsilon):
    # NaN once came back as a frac_exceeding key, printed as "nan"
    def no_stream(*args):
        raise AssertionError("derived a stream before checking the epsilons")

    monkeypatch.setattr(learning, "derive_rng", no_stream)
    for cls in (gen_intervals(5), FiniteCofiniteClass(5, 1)):
        with pytest.raises(ValueError, match="epsilon"):
            pac_error_estimate(
                cls, LearnerSpec("enumeration"), 0, uniform(5), 4, 5, 1,
                epsilons=(0.1, epsilon),
            )


def test_pac_dense_kernel_matches_per_sample_learners():
    # oracle: rebuild every trial's sample from the documented cell stream
    # (row tr of derive_rng(seed, "pac", *seed_path)'s trials x n uniforms)
    # and run the reference learners on it one sample at a time
    # m <= 10 fills one word; the last 40 cases cross word boundaries
    rng = derive_rng(6767, "oracle")
    trials = 6
    for case in range(240):
        m = int(rng.integers(1, 11)) if case < 200 else (63, 64, 65, 130)[case % 4]
        cls = gen_random(m, int(rng.integers(1, 25)), float(rng.random()), case)
        K = len(cls.concepts)
        w = rng.random(m)
        w[rng.random(m) < 0.2] = 0.0
        if w.sum() == 0:
            w[-1] = 1.0
        mu = DiscreteMeasure(tuple(w / w.sum()))
        n = int(rng.integers(0, 2 * m + 1)) if case < 200 else int(rng.integers(0, 6))
        # half the targets come from outside the class: unresolvable samples
        if rng.random() < 0.5:
            target = cls.concepts[int(rng.integers(0, K))]
        elif case < 200:
            target = Concept(m, int(rng.integers(0, 1 << m)))
        else:
            # a class member with a few points flipped
            bits = cls.concepts[int(rng.integers(0, K))].bits
            for p in rng.integers(0, m, 3).tolist():
                bits ^= 1 << p
            target = Concept(m, bits)
        order = tuple(int(x) for x in rng.permutation(K))
        for spec in (
            LearnerSpec("enumeration"),
            LearnerSpec("enumeration", order),
            LearnerSpec("adversarial"),
        ):
            rep = pac_error_estimate(
                cls, spec, target, mu, n, trials, 5151, seed_path=(case, 3),
                no_hypothesis="full-error",
            )
            idx = _draw_indices(
                mu, (trials, n), derive_rng(5151, "pac", case, 3)
            )
            nohyp = 0
            for tr in range(trials):
                pos, neg = label_sample(target, idx[tr].tolist())
                try:
                    if spec.kind == "enumeration":
                        k = enumeration_learner(cls, spec.order, pos, neg)
                    else:
                        k = adversarial_consistent_learner(cls, pos, neg, target, mu)
                except NoConsistentHypothesis:
                    nohyp += 1
                    assert rep.errors[tr] == 1.0, (case, spec, tr)
                    continue
                want = symdiff_distance(mu, cls.concepts[k], target)
                assert rep.errors[tr] == want, (case, spec, tr)
            assert rep.no_hypothesis_count == nohyp, (case, spec)


def _dyadic_measure(rng, m):
    """Weights that are binary fractions summing to exactly 1, a few zero:
    every sum of them is exact, so exact ties between distances survive."""
    w = [1.0]
    while len(w) < m - int(rng.integers(0, 3)):
        i = int(rng.integers(0, len(w)))
        w[i] /= 2
        w.insert(i, w[i])
    w += [0.0] * (m - len(w))
    return DiscreteMeasure(tuple(w[i] for i in rng.permutation(m)))


def _side_maxima(cls, mu, target, pos, neg):
    """Exact largest distance to the target over the consistent members of
    each kind, by enumerating the class (None when a kind has none)."""
    from fractions import Fraction

    best = {"finite": None, "cofinite": None}
    for r in range(cls.size):
        fc = cls.concept_at(r)
        if not all(fc.contains(p) for p in pos) or any(fc.contains(p) for p in neg):
            continue
        d = sum(
            Fraction(mu.weights[x])
            for x in range(cls.m)
            if fc.contains(x) != target.contains(x)
        )
        if best[fc.kind] is None or d > best[fc.kind]:
            best[fc.kind] = d
    return best["finite"], best["cofinite"]


def test_pac_structured_kernel_matches_per_sample_learners():
    # oracle: rebuild every trial's labels from the documented cell stream
    # and run the one-sample learners; targets outside the class give rows
    # with no consistent member, dyadic measures exact ties between sides
    rng = derive_rng(8989, "oracle")
    trials = 8
    ties = nohyp = 0
    for case in range(120):
        dyadic = case % 2 == 0
        m = int(rng.integers(9, 11)) if dyadic else int(rng.integers(9, 90))
        in_class = case % 4 != 1
        # an outside target has more than t points and leaves out more than t
        t = int(rng.integers(1, 5 if in_class else (m - 2) // 2 + 1))
        cls = FiniteCofiniteClass(m, t)
        if dyadic:
            mu = _dyadic_measure(rng, m)
        else:
            w = rng.random(m) ** 3
            w[rng.random(m) < 0.2] = 0.0
            w[0] += 1e-3
            mu = DiscreteMeasure(tuple(w / w.sum()))
        kind = "finite" if rng.random() < 0.5 else "cofinite"
        size = int(rng.integers(0, t + 1)) if in_class else int(rng.integers(t + 1, m - t))
        core = frozenset(rng.choice(m, size, replace=False).tolist())
        target = FCSet(m, kind, core)
        n = int(rng.integers(0, 3 * t + 3) if in_class else rng.integers(4 * t, 12 * t))
        idx = _draw_indices(mu, (trials, n), derive_rng(7171, "pac", case))
        for spec in (LearnerSpec("enumeration"), LearnerSpec("adversarial")):
            stream = derive_rng(7171, "pac", case)
            errors, found = learning._structured_trials(
                cls, spec, target, mu, n, trials, stream
            )
            if in_class:
                rep = pac_error_estimate(
                    cls, spec, target, mu, n, trials, 7171, seed_path=(case,)
                )
                assert rep.errors == tuple(errors.tolist()), (case, spec)
            for tr in range(trials):
                drawn = set(idx[tr].tolist())
                pos = sorted(p for p in drawn if target.contains(p))
                neg = sorted(drawn.difference(pos))
                try:
                    if spec.kind == "enumeration":
                        fc = cls.least_consistent(pos, neg)
                        want = fc_distance(mu, fc, target)
                    else:
                        fc, want = cls.max_distance_consistent(pos, neg, target, mu)
                except NoConsistentHypothesis:
                    assert not found[tr], (case, spec, tr)
                    nohyp += 1
                    continue
                assert found[tr] and errors[tr] == want, (case, spec, tr)
                if dyadic and spec.kind == "adversarial":
                    fin, cof = _side_maxima(cls, mu, target, pos, neg)
                    assert want == float(max(d for d in (fin, cof) if d is not None))
                    ties += fin == cof
    assert ties >= 15 and nohyp >= 40, (ties, nohyp)


def _block_cells():
    iv = gen_intervals(9)
    K = len(iv.concepts)
    order = tuple(int(x) for x in derive_rng(3131, "order").permutation(K))
    mu = DiscreteMeasure((0.2, 0.0, 0.1, 0.1, 0.15, 0.05, 0.2, 0.0, 0.2))
    sc = FiniteCofiniteClass(40, 3)
    mu40 = uniform(40)
    no_full = ConceptClass(Domain(4), (Concept.empty(4), Concept.from_indices(4, [0])))
    tgt = FCSet(40, "cofinite", frozenset({3, 17}))
    wide = gen_random(70, 40, 0.5, 3)
    w70 = [0.0 if x % 9 == 4 else 1.0 + x % 5 for x in range(70)]
    mu70 = DiscreteMeasure(tuple(x / sum(w70) for x in w70))
    w40 = [0.0 if x % 7 == 2 else 1.0 / (1 + x) for x in range(40)]
    skew40 = DiscreteMeasure(tuple(x / sum(w40) for x in w40))
    return [
        (wide, LearnerSpec("adversarial"), 5, mu70, 4, {}),
        (wide, LearnerSpec("enumeration"), 11, mu70, 3, {}),
        (sc, LearnerSpec("adversarial"), FCSet(40, "finite", frozenset({1, 8})),
         skew40, 5, {}),
        (iv, LearnerSpec("enumeration"), 7, mu, 5, {}),
        (iv, LearnerSpec("enumeration", order), 30, mu, 12, {}),
        (iv, LearnerSpec("adversarial"), 12, mu, 3, {}),
        (sc, LearnerSpec("enumeration"), tgt, mu40, 8, {}),
        (sc, LearnerSpec("adversarial"), tgt, mu40, 2, {}),
        (no_full, LearnerSpec("enumeration"), Concept.full(4), uniform(4), 3,
         {"no_hypothesis": "full-error"}),
    ]


def test_pac_estimate_independent_of_block_size(monkeypatch):
    # one trial per block against one block per cell
    runs = []
    for entries in (1, 1 << 30):
        monkeypatch.setattr(learning, "_BLOCK_ENTRIES", entries)
        runs.append([
            pac_error_estimate(cls, spec, tgt, mu, n, 70, 99, **kw)
            for cls, spec, tgt, mu, n, kw in _block_cells()
        ])
    assert runs[0] == runs[1]
    assert runs[0][-1].no_hypothesis_count > 0


def test_pac_estimate_derives_one_stream_per_cell(monkeypatch):
    calls = []

    def counting(seed, *path):
        calls.append(path)
        return derive_rng(seed, *path)

    monkeypatch.setattr(learning, "derive_rng", counting)
    for cls, spec, tgt, mu, n, kw in _block_cells():
        for trials in (1, 500):
            calls.clear()
            pac_error_estimate(cls, spec, tgt, mu, n, trials, 5, seed_path=(2,), **kw)
            assert calls == [("pac", 2)], (spec, trials)


def _row_masses_by_popcount(w, rows):
    """The per-popcount loop that _row_masses replaced, kept as its
    reference: one gather and one axis-1 sum per distinct popcount."""
    counts = rows.sum(axis=1)
    out = np.empty(len(rows))
    for c in np.unique(counts).tolist():
        sel = np.flatnonzero(counts == c)
        out[sel] = w[np.nonzero(rows[sel])[1].reshape(sel.size, c)].sum(axis=1)
    return out


def test_row_masses_match_the_per_popcount_loop():
    rng = derive_rng(2601, "row-masses")
    for case in range(1200):
        m = int(rng.integers(1, 131))
        K = case % 3 if case < 30 else int(rng.integers(0, 60))
        rows = rng.random((K, m)) < rng.random()
        if K >= 2:
            rows[rng.integers(K)] = False
            rows[rng.integers(K)] = True
        w = rng.random(m) ** 3
        w[rng.random(m) < 0.2] = 0.0
        got = learning._row_masses(w, rows)
        want = _row_masses_by_popcount(w, rows)
        assert got.dtype == np.float64 and got.shape == (K,), case
        assert [x.hex() for x in got.tolist()] == [x.hex() for x in want.tolist()], case
