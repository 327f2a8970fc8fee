"""Learning rules and sample-complexity machinery.

Two consistent learners: the enumeration learner walks a fixed order and
returns the first concept agreeing with the labels; the adversarial learner
is deliberately white-box, sees the target and the measure, and returns a
consistent concept as far from the target as possible. The adversarial rule
is not a legal learner; it exists to witness that consistency alone does
not force learning.

Both learners work on materialized ConceptClass instances and on the
structured FiniteCofiniteClass backend; structured classes always use their
canonical order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .domain import Concept, ConceptClass, membership_matrix
from .errors import DomainMismatch, NoConsistentHypothesis, WorkLimitExceeded
from .fincofin import FCSet, FiniteCofiniteClass, fc_distance
from .measures import (
    DiscreteMeasure,
    SampleSeq,
    _draw_indices,
    symdiff_distance,
)
from .rng import derive_rng
from .shattering import DEFAULT_WORK_LIMIT


@dataclass(frozen=True)
class LabeledSample:
    """An ordered sample with 0/1 labels, one per drawn point."""

    points: SampleSeq
    labels: tuple[int, ...]

    def __post_init__(self):
        if len(self.labels) != self.points.n:
            raise ValueError("labels and points have different lengths")
        if any(l not in (0, 1) for l in self.labels):
            raise ValueError("labels must be 0 or 1")


@dataclass(frozen=True)
class LearnerSpec:
    """Which rule to run; only the enumeration kind takes an order.

    The adversarial kind receives the target and measure at call time
    (white-box by design).
    """

    kind: str
    order: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("enumeration", "adversarial"):
            raise ValueError(f"unknown learner kind {self.kind!r}")
        if self.order is not None:
            if self.kind == "adversarial":
                raise ValueError("the adversarial learner takes no order")
            order = tuple(self.order)
            object.__setattr__(self, "order", order)
            if sorted(order) != list(range(len(order))):
                raise ValueError("order must be a permutation of 0..K-1")


def _member(target: Concept | FCSet, p: int) -> bool:
    if isinstance(target, Concept):
        return p in target
    return target.contains(p)


def label_sample(target: Concept | FCSet, points: SampleSeq) -> LabeledSample:
    """Label a sample by target membership."""
    return LabeledSample(
        points, tuple(1 if _member(target, p) else 0 for p in points.points)
    )


def _split_sample(sample: LabeledSample) -> tuple[set[int], set[int]]:
    pos = {p for p, l in zip(sample.points.points, sample.labels) if l}
    neg = {p for p, l in zip(sample.points.points, sample.labels) if not l}
    return pos, neg


def enumeration_learner(
    cls: ConceptClass | FiniteCofiniteClass,
    order: Sequence[int] | None,
    sample: LabeledSample,
) -> int:
    """Index of the order-least concept consistent with the sample.

    An empty sample returns the first index. Contradictory or unrealizable
    labels raise NoConsistentHypothesis.
    """
    pos, neg = _split_sample(sample)
    if pos & neg:
        raise NoConsistentHypothesis("a point is labeled both 1 and 0")
    if isinstance(cls, FiniteCofiniteClass):
        if order is not None:
            raise ValueError("structured classes use their canonical order only")
        return cls.rank(cls.least_consistent(pos, neg))
    seq: Iterable[int]
    if order is None:
        seq = range(len(cls.concepts))
    else:
        if sorted(order) != list(range(len(cls.concepts))):
            raise ValueError("order must be a permutation of the class indices")
        seq = order
    pmask = 0
    for p in pos:
        pmask |= 1 << p
    zmask = 0
    for p in neg:
        zmask |= 1 << p
    for idx in seq:
        b = cls.concepts[idx].bits
        if pmask & ~b == 0 and b & zmask == 0:
            return idx
    raise NoConsistentHypothesis("no concept in the class fits the labels")


def adversarial_consistent_learner(
    cls: ConceptClass | FiniteCofiniteClass,
    sample: LabeledSample,
    target: Concept | FCSet,
    measure: DiscreteMeasure,
) -> int:
    """Index of a consistent concept farthest from the target; ties go to
    the least index."""
    pos, neg = _split_sample(sample)
    if pos & neg:
        raise NoConsistentHypothesis("a point is labeled both 1 and 0")
    if isinstance(cls, FiniteCofiniteClass):
        fc, _d = cls.max_distance_consistent(pos, neg, target, measure)
        return cls.rank(fc)
    pmask = 0
    for p in pos:
        pmask |= 1 << p
    zmask = 0
    for p in neg:
        zmask |= 1 << p
    best: tuple[float, int] | None = None
    for idx, c in enumerate(cls.concepts):
        if pmask & ~c.bits or c.bits & zmask:
            continue
        d = symdiff_distance(measure, c, target)
        if best is None or d > best[0]:
            best = (d, idx)
    if best is None:
        raise NoConsistentHypothesis("no concept in the class fits the labels")
    return best[1]


@dataclass(frozen=True)
class ImageResult:
    """Set of indices a learner can output for one target at sample size n."""

    indices: frozenset[int]
    exhaustive: bool


def _indexed_target(cls, index: int):
    """The class member at a target index: a non-bool int in [0, K)."""
    structured = isinstance(cls, FiniteCofiniteClass)
    size = cls.size if structured else len(cls.concepts)
    if isinstance(index, bool) or not 0 <= index < size:
        raise ValueError(f"target index {index!r} is not in [0, {size})")
    return cls.concept_at(index) if structured else cls.concepts[index]


def learner_image(
    cls: ConceptClass,
    order: Sequence[int] | None,
    target: Concept | int,
    n: int,
    *,
    mode: str = "exhaustive",
    trials: int | None = None,
    seed: int | None = None,
    work_limit: int = DEFAULT_WORK_LIMIT,
) -> ImageResult:
    """All outputs of the enumeration learner over samples of length n.

    The learner sees only which points got label 1 and which got 0, so the
    image over all m^n sequences equals the image over supports: the empty
    support for n = 0, else every nonempty support of size <= n (any such
    support is realized by a sequence with repetitions). Exhaustive mode
    walks the supports and refuses when their count passes the work limit;
    sampled mode draws uniform sequences instead and is flagged
    non-exhaustive.
    """
    if isinstance(cls, FiniteCofiniteClass):
        raise WorkLimitExceeded(
            "structured classes have no exhaustive image; materialize first"
        )
    if isinstance(target, int):
        target = _indexed_target(cls, target)
    m = cls.domain.size
    if mode == "exhaustive":
        total = sum(math.comb(m, k) for k in range(1, min(n, m) + 1))
        if total > work_limit:
            raise WorkLimitExceeded(
                f"{total} supports exceed the work limit {work_limit}", work_limit
            )
        out = set()
        if n == 0:
            empty = LabeledSample(SampleSeq(()), ())
            out.add(enumeration_learner(cls, order, empty))
        else:
            from itertools import combinations

            for k in range(1, min(n, m) + 1):
                for tup in combinations(range(m), k):
                    pts = SampleSeq(tup)
                    out.add(
                        enumeration_learner(cls, order, label_sample(target, pts))
                    )
        return ImageResult(frozenset(out), True)
    if mode == "sampled":
        if trials is None or seed is None:
            raise ValueError("sampled mode needs trials and seed")
        out = set()
        for tr in range(trials):
            rng = derive_rng(seed, "image", tr)
            pts = SampleSeq(tuple(int(x) for x in rng.integers(0, m, size=n)))
            out.add(enumeration_learner(cls, order, label_sample(target, pts)))
        return ImageResult(frozenset(out), False)
    raise ValueError(f"mode must be 'exhaustive' or 'sampled', got {mode!r}")


def sample_complexity_bound(epsilon: float, delta: float, d: int) -> int:
    """The fixed standard sample-size bound used across the package.

    ceil((128/eps^2) * (d * ln((2 e^2/eps) * ln(2 e/eps)) + ln(8/delta))),
    natural logarithms. Typical, far from optimal, and good enough to
    dominate every learning curve simulated here.
    """
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must lie in (0,1), got {epsilon!r}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0,1), got {delta!r}")
    if type(d) is not int or d < 1:
        raise ValueError(f"d must be a positive int, got {d!r}")
    inner = (2.0 * math.e**2 / epsilon) * math.log(2.0 * math.e / epsilon)
    val = (128.0 / epsilon**2) * (d * math.log(inner) + math.log(8.0 / delta))
    return math.ceil(val)


@dataclass(frozen=True)
class PacReport:
    """Monte Carlo summary of a learner's error distribution."""

    mean_error: float
    errors: tuple[float, ...]
    frac_exceeding: dict[float, float]
    quantiles: dict[str, float]
    stderr_mean: float
    n: int
    trials: int
    seed: int
    n_atom_bound: float
    learner_kind: str
    no_hypothesis_count: int

    def frac_above(self, eps: float) -> float:
        return self.frac_exceeding[eps]


def _quantile_points(vals: list[float], *, with_min: bool = False) -> dict[str, float]:
    """q50, q90, q99 (nearest rank), then min if asked, then max."""
    srt = sorted(vals)
    T = len(srt)
    out = {}
    for q in (0.5, 0.9, 0.99):
        k = max(0, math.ceil(q * T) - 1)
        out[f"q{int(q * 100)}"] = srt[k]
    if with_min:
        out["min"] = srt[0]
    out["max"] = srt[-1]
    return out


# Trial rows are checked in blocks of about this many entries per block's
# largest operand: its uniforms, or the widest per-row work the caller names
# (m points, or m x K for the dense consistency product). They are drawn in
# chunks of about this many uniforms, a whole number of blocks each, so a
# wide class does not cut the draws into calls of a few dozen points. The
# rows are consecutive slices of one stream, so no result depends on it.
_BLOCK_ENTRIES = 1 << 16


def _sample_blocks(
    measure: DiscreteMeasure, n: int, trials: int, width: int, rng
):
    """Yield (first trial, points) per block of trial rows; points[r] is the
    sample of trial first + r, row first + r of the cell's trials x n
    stream. width is the caller's work per row."""
    rows = max(1, _BLOCK_ENTRIES // max(n, width))
    chunk = max(1, _BLOCK_ENTRIES // max(n, 1) // rows) * rows
    for top in range(0, trials, chunk):
        idx = _draw_indices(measure, (min(chunk, trials - top), n), rng)
        for a in range(0, len(idx), rows):
            yield top + a, idx[a : a + rows]


def _presence_blocks(
    measure: DiscreteMeasure, n: int, trials: int, width: int, rng
):
    """Yield (first trial, presence) per block of trial rows; presence[r, x]
    says whether point x was drawn in trial first + r."""
    for first, idx in _sample_blocks(measure, n, trials, width, rng):
        presence = np.zeros((idx.shape[0], measure.m), dtype=bool)
        presence[np.arange(idx.shape[0])[:, None], idx] = True
        yield first, presence


def _dense_trials(cls, learner, target, measure, n, trials, rng):
    """Per-trial errors and found-a-hypothesis flags of both learners over
    the materialized class, in matrix form.

    A concept is consistent with a sample when it agrees with the target on
    every drawn point, i.e. when presence @ (C xor T)^T is zero. The
    enumeration learner takes the first consistent column in its order, the
    adversary the first maximum of the distance over consistent columns.
    Blocks are sized by the product's m x K work per row, which keeps each
    product below the size at which BLAS hands it to worker threads; on a
    busy two-core host waking them cost milliseconds per call.
    """
    K = len(cls.concepts)
    if K == 0:  # nothing fits any sample
        return np.ones(trials), np.zeros(trials, dtype=bool)
    adversarial = learner.kind == "adversarial"
    if adversarial or learner.order is None:
        order = np.arange(K)
    else:
        order = np.asarray(learner.order)
    C = membership_matrix(cls.masks(), measure.m)
    T = membership_matrix([target.bits], measure.m)[0]
    # float32 products count disagreements exactly below 2^24 points
    X = np.ascontiguousarray((C ^ T)[order].T, dtype=np.float32)
    D = np.zeros(K)

    def fill(ks):  # the distances the per-sample learners would report
        for k in ks:
            D[k] = symdiff_distance(measure, cls.concepts[k], target)

    if adversarial:
        fill(range(K))
    chosen = np.empty(trials, dtype=np.int64)
    found = np.empty(trials, dtype=bool)
    for first, presence in _presence_blocks(measure, n, trials, C.size, rng):
        consistent = presence.astype(np.float32) @ X == 0
        if adversarial:
            col = np.argmax(np.where(consistent, D, -np.inf), axis=1)
        else:
            col = np.argmax(consistent, axis=1)
        ok = consistent[np.arange(col.size), col]
        k = order[col]
        # independent of the product: the output matches every drawn label
        if np.any((C[k] != T) & presence & ok[:, None]):
            raise AssertionError("learner output inconsistent with labels")
        chosen[first : first + k.size] = k
        found[first : first + k.size] = ok
    if not adversarial:
        fill(np.unique(chosen[found]).tolist())
    return D[chosen], found


def _row_lists(mask: np.ndarray) -> list[list[int]]:
    """Column indices of each row's True entries, ascending."""
    rows, m = mask.shape
    flat = np.flatnonzero(mask)
    ends = np.searchsorted(flat, np.arange(1, rows + 1) * m).tolist()
    cols = (flat % m).tolist()
    return [cols[a:b] for a, b in zip([0] + ends[:-1], ends)]


def _fc_agrees(fc: FCSet, pos: list[int], neg: list[int]) -> bool:
    """Whether fc contains every positive and no negative."""
    if fc.kind == "finite":
        return fc.core.issuperset(pos) and fc.core.isdisjoint(neg)
    return fc.core.isdisjoint(pos) and fc.core.issuperset(neg)


def _structured_trials(cls, learner, target, measure, n, trials, rng):
    """Per-trial errors and found-a-hypothesis flags of the closed-form
    learners, one sample at a time, labeled through the target's membership
    vector."""
    inside = cls.label_points(target, np.arange(cls.m))
    if learner.kind == "adversarial":
        learn = cls.max_distance_learner(target, measure)
    else:

        def learn(pos, neg):
            fc = cls.least_consistent(pos, neg)
            return fc, fc_distance(measure, fc, target)

    errors = np.empty(trials)
    found = np.ones(trials, dtype=bool)
    for first, presence in _presence_blocks(measure, n, trials, cls.m, rng):
        samples = zip(_row_lists(presence & inside), _row_lists(presence & ~inside))
        for r, (pos, neg) in enumerate(samples, first):
            try:
                fc, err = learn(pos, neg)
            except NoConsistentHypothesis:
                found[r] = False
                continue
            if not _fc_agrees(fc, pos, neg):
                raise AssertionError("learner output inconsistent with labels")
            errors[r] = err
    return errors, found


def pac_error_estimate(
    cls: ConceptClass | FiniteCofiniteClass,
    learner: LearnerSpec,
    target: Concept | FCSet | int,
    measure: DiscreteMeasure,
    n: int,
    trials: int,
    seed: int,
    *,
    epsilons: Sequence[float] = (),
    no_hypothesis: str = "raise",
    seed_path: tuple = (),
) -> PacReport:
    """Estimate the distribution of mu(learned vs target) over i.i.d. samples.

    A cell draws from one generator, derive_rng(seed, "pac", *seed_path):
    trial tr gets row tr of its trials x n uniforms, so the cell is
    reproducible and independent of scheduling. The consistency identity
    (learned concept agrees with every label) is asserted on every trial; a
    violation is a bug, not a statistic.
    no_hypothesis: "raise" propagates NoConsistentHypothesis, "full-error"
    counts the trial with error 1.0 and moves on.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if no_hypothesis not in ("raise", "full-error"):
        raise ValueError(f"bad no_hypothesis policy {no_hypothesis!r}")
    structured = isinstance(cls, FiniteCofiniteClass)
    m = cls.m if structured else cls.domain.size
    enumeration_order = learner.kind == "enumeration" and learner.order is not None
    if isinstance(target, int):
        target = _indexed_target(cls, target)
    if structured:
        if not isinstance(target, FCSet):
            raise ValueError("structured classes take FCSet targets")
        if not cls.in_class(target):
            raise ValueError("structured target is not a member of the class")
        if enumeration_order:
            raise ValueError("structured classes use their canonical order only")
    else:
        if not isinstance(target, Concept):
            raise ValueError("materialized classes take Concept targets")
        if enumeration_order and len(learner.order) != len(cls.concepts):
            raise ValueError("order must be a permutation of the class indices")
    if target.m != m or measure.m != m:
        raise DomainMismatch("target and measure must live on the class domain")
    run = _structured_trials if structured else _dense_trials
    errors, found = run(
        cls, learner, target, measure, n, trials, derive_rng(seed, "pac", *seed_path)
    )
    nohyp = int(trials - found.sum())
    if nohyp:
        if no_hypothesis == "raise":
            raise NoConsistentHypothesis(
                f"no concept in the class fits the labels of trial "
                f"{int(np.argmin(found))}"
            )
        errors[~found] = 1.0
    errors = errors.tolist()
    mean = sum(errors) / trials
    var = sum((e - mean) ** 2 for e in errors) / trials
    report = PacReport(
        mean_error=mean,
        errors=tuple(errors),
        frac_exceeding={
            float(e): sum(1 for x in errors if x > e) / trials for e in epsilons
        },
        quantiles=_quantile_points(errors),
        stderr_mean=math.sqrt(var / trials),
        n=n,
        trials=trials,
        seed=seed,
        n_atom_bound=n * measure.atom_bound,
        learner_kind=learner.kind,
        no_hypothesis_count=nohyp,
    )
    return report
