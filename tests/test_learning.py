"""Learning rules against oracles, plus the sample-size bound goldens."""

import itertools
import math

import pytest

from thickvc import learning
from thickvc import (
    Concept,
    ConceptClass,
    DiscreteMeasure,
    Domain,
    FCSet,
    FiniteCofiniteClass,
    LearnerSpec,
    NoConsistentHypothesis,
    WorkLimitExceeded,
    adversarial_consistent_learner,
    derive_rng,
    enumeration_learner,
    gen_finite_cofinite,
    gen_intervals,
    gen_random,
    learner_image,
    pac_error_estimate,
    sample_complexity_bound,
    symdiff_distance,
    uniform,
)
from thickvc.learning import LabeledSample, label_sample
from thickvc.measures import SampleSeq, _draw_indices


def test_labeled_sample_validation():
    s = SampleSeq((1, 2, 1))
    assert LabeledSample(s, (1, 0, 1)).labels == (1, 0, 1)
    with pytest.raises(ValueError):
        LabeledSample(s, (1, 0))
    with pytest.raises(ValueError):
        LabeledSample(s, (1, 2, 0))


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
    pts = SampleSeq((0, 3, 5, 3))
    c = Concept.from_indices(6, [3, 4])
    assert label_sample(c, pts).labels == (0, 1, 0, 1)
    fc = FCSet(6, "cofinite", frozenset({3}))
    assert label_sample(fc, pts).labels == (1, 0, 1, 0)


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
        sample = LabeledSample(SampleSeq(pts), labels)
        want = next(
            (i for i, s in enumerate(sets) if pos <= s and not (neg & s)), None
        )
        if pos & neg or want is None:
            with pytest.raises(NoConsistentHypothesis):
                enumeration_learner(cls, None, sample)
            continue
        assert enumeration_learner(cls, None, sample) == want, trial


def test_enumeration_learner_respects_order():
    cls = gen_intervals(5)
    K = len(cls.concepts)
    empty = LabeledSample(SampleSeq(()), ())
    assert enumeration_learner(cls, None, empty) == 0
    rev = tuple(range(K - 1, -1, -1))
    # reversed order: first consistent is the order-least, i.e. index K-1
    assert enumeration_learner(cls, rev, empty) == K - 1
    with pytest.raises(ValueError):
        enumeration_learner(cls, (0, 1), empty)  # not a permutation of 0..K-1


def test_enumeration_learner_structured_matches_dense():
    m, t = 8, 2
    sc = FiniteCofiniteClass(m, t)
    dense = gen_finite_cofinite(m, t, backend="dense")
    rng = derive_rng(6262, "sd")
    for trial in range(200):
        nlab = int(rng.integers(1, 7))
        pts = tuple(sorted({int(x) for x in rng.integers(0, m, nlab)}))
        tfc = sc.concept_at(int(rng.integers(0, sc.size)))
        sample_d = label_sample(tfc.to_concept(), SampleSeq(pts))
        sample_s = label_sample(tfc, SampleSeq(pts))
        assert sample_d.labels == sample_s.labels
        assert enumeration_learner(sc, None, sample_s) == enumeration_learner(
            dense, None, sample_d
        ), trial
    with pytest.raises(ValueError):
        enumeration_learner(sc, (0, 1), label_sample(tfc, SampleSeq((0,))))


def test_adversarial_learner_matches_brute_max():
    cls = gen_intervals(6)
    mu = DiscreteMeasure((0.25, 0.125, 0.125, 0.25, 0.125, 0.125))
    rng = derive_rng(6363, "adv")
    for trial in range(150):
        tgt = cls.concepts[int(rng.integers(0, len(cls.concepts)))]
        nlab = int(rng.integers(1, 5))
        pts = tuple(int(x) for x in rng.integers(0, 6, nlab))
        sample = label_sample(tgt, SampleSeq(pts))
        pos = {p for p, l in zip(pts, sample.labels) if l}
        neg = {p for p, l in zip(pts, sample.labels) if not l}
        best = None
        for i, c in enumerate(cls.concepts):
            s = set(c.indices())
            if not (pos <= s) or (neg & s):
                continue
            d = symdiff_distance(mu, c, tgt)
            if best is None or d > best[0]:
                best = (d, i)
        got = adversarial_consistent_learner(cls, sample, tgt, mu)
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
        sample = label_sample(tconc, SampleSeq(pts))
        pos = {p for p, l in zip(pts, sample.labels) if l}
        neg = {p for p, l in zip(pts, sample.labels) if not l}
        try:
            want = adversarial_consistent_learner(dense, sample, tconc, mu)
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
        sample = label_sample(target, SampleSeq(seq))
        out.add(enumeration_learner(cls, order, sample))
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
                assert got.exhaustive
                assert got.indices == brute_image(cls, order, tgt, n), (
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
        assert all(pos[i] <= pos[tidx] for i in img.indices), trial


def test_learner_image_int_target_sampled_and_limits():
    cls = gen_intervals(5)
    full = learner_image(cls, None, 3, 2)
    sub = learner_image(cls, None, 3, 2, mode="sampled", trials=40, seed=11)
    assert not sub.exhaustive
    assert sub.indices <= full.indices
    with pytest.raises(WorkLimitExceeded):
        learner_image(cls, None, 3, 4, work_limit=3)
    with pytest.raises(ValueError):
        learner_image(cls, None, 3, 2, mode="sampled")
    with pytest.raises(WorkLimitExceeded):
        learner_image(FiniteCofiniteClass(30, 2), None, 0, 2)


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
    # an int target is a class index in [0, K): -1 would pick the last
    # concept and True concept 1; both are refused, like K itself, before
    # any sample is drawn
    monkeypatch.setattr(learning, "_draw_indices", _no_draws)
    for cls, k in ((sc, sc.size), (dense, len(dense.concepts))):
        for bad in (-1, True, False, k):
            with pytest.raises(ValueError, match="target index"):
                pac_error_estimate(cls, spec, bad, mu, 4, 5, 1)
    for bad in (-1, True, len(dense.concepts)):
        with pytest.raises(ValueError, match="target index"):
            learner_image(dense, None, bad, 2)
    assert learner_image(dense, None, 1, 2) == learner_image(
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


def test_pac_dense_kernel_matches_per_sample_learners():
    # oracle: rebuild every trial's sample from the documented cell stream
    # (row tr of derive_rng(seed, "pac", *seed_path)'s trials x n uniforms)
    # and run the reference learners on it one sample at a time
    rng = derive_rng(6767, "oracle")
    trials = 6
    for case in range(200):
        m = int(rng.integers(1, 11))
        cls = gen_random(m, int(rng.integers(1, 25)), float(rng.random()), case)
        K = len(cls.concepts)
        w = rng.random(m)
        w[rng.random(m) < 0.2] = 0.0
        if w.sum() == 0:
            w[-1] = 1.0
        mu = DiscreteMeasure(tuple(w / w.sum()))
        n = int(rng.integers(0, 2 * m + 1))
        # half the targets come from outside the class: unresolvable samples
        if rng.random() < 0.5:
            target = cls.concepts[int(rng.integers(0, K))]
        else:
            target = Concept(m, int(rng.integers(0, 1 << m)))
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
                sample = label_sample(target, SampleSeq(tuple(idx[tr].tolist())))
                try:
                    if spec.kind == "enumeration":
                        k = enumeration_learner(cls, spec.order, sample)
                    else:
                        k = adversarial_consistent_learner(cls, sample, target, mu)
                except NoConsistentHypothesis:
                    nohyp += 1
                    assert rep.errors[tr] == 1.0, (case, spec, tr)
                    continue
                want = symdiff_distance(mu, cls.concepts[k], target)
                assert rep.errors[tr] == want, (case, spec, tr)
            assert rep.no_hypothesis_count == nohyp, (case, spec)


def _block_cells():
    iv = gen_intervals(9)
    K = len(iv.concepts)
    order = tuple(int(x) for x in derive_rng(3131, "order").permutation(K))
    mu = DiscreteMeasure((0.2, 0.0, 0.1, 0.1, 0.15, 0.05, 0.2, 0.0, 0.2))
    sc = FiniteCofiniteClass(40, 3)
    mu40 = uniform(40)
    no_full = ConceptClass(Domain(4), (Concept.empty(4), Concept.from_indices(4, [0])))
    tgt = FCSet(40, "cofinite", frozenset({3, 17}))
    return [
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
