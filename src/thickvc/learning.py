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
import numbers
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Collection, Iterable, Sequence

import numpy as np

from .domain import Concept, ConceptClass, membership_matrix, require_int
from .errors import DomainMismatch, NoConsistentHypothesis, WorkLimitExceeded
from .fincofin import FCSet, FiniteCofiniteClass, fc_distance
from .measures import DiscreteMeasure, _draw_indices, symdiff_distance
from .rng import derive_rng
from .shattering import DEFAULT_WORK_LIMIT


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


def label_sample(
    target: Concept | FCSet, points: Iterable[int]
) -> tuple[frozenset[int], frozenset[int]]:
    """(positives, negatives): the drawn points inside the target and the
    rest. A consistent learner sees a labeled sample only as these two
    sets."""
    drawn = frozenset(points)
    inside = target.__contains__ if isinstance(target, Concept) else target.contains
    positives = frozenset(p for p in drawn if inside(p))
    return positives, drawn - positives


def _label_masks(cls, positives, negatives) -> tuple[int, int]:
    """Bitsets of the positives and of the negatives. A point that is not
    an int in [0, m) raises ValueError, a point in both sets
    NoConsistentHypothesis."""
    m = cls.m
    masks = []
    for points in (positives, negatives):
        mask = 0
        for p in points:
            if not 0 <= require_int(p, "sample point") < m:
                raise ValueError(f"sample point {p!r} is not in [0, {m})")
            mask |= 1 << int(p)
        masks.append(mask)
    if masks[0] & masks[1]:
        raise NoConsistentHypothesis("a point is labeled both 1 and 0")
    return masks[0], masks[1]


def enumeration_learner(
    cls: ConceptClass | FiniteCofiniteClass,
    order: Sequence[int] | None,
    positives: Collection[int],
    negatives: Collection[int],
) -> int:
    """Index of the order-least concept containing every positive and no
    negative.

    Empty labels return the first index. Contradictory or unrealizable
    labels raise NoConsistentHypothesis.
    """
    pmask, zmask = _label_masks(cls, positives, negatives)
    if isinstance(cls, FiniteCofiniteClass):
        if order is not None:
            raise ValueError("structured classes use their canonical order only")
        return cls.rank(cls.least_consistent(positives, negatives))
    seq: Iterable[int]
    if order is None:
        seq = range(len(cls.concepts))
    else:
        if sorted(order) != list(range(len(cls.concepts))):
            raise ValueError("order must be a permutation of the class indices")
        seq = order
    for idx in seq:
        b = cls.concepts[idx].bits
        if pmask & ~b == 0 and b & zmask == 0:
            return idx
    raise NoConsistentHypothesis("no concept in the class fits the labels")


def adversarial_consistent_learner(
    cls: ConceptClass | FiniteCofiniteClass,
    positives: Collection[int],
    negatives: Collection[int],
    target: Concept | FCSet,
    measure: DiscreteMeasure,
) -> int:
    """Index of a consistent concept farthest from the target; ties go to
    the least index."""
    pmask, zmask = _label_masks(cls, positives, negatives)
    if isinstance(cls, FiniteCofiniteClass):
        fc, _d = cls.max_distance_consistent(positives, negatives, target, measure)
        return cls.rank(fc)
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


def _indexed_target(cls, target):
    """The target checked against the class: an int (numpy integers too,
    never a bool) is the member at that index in [0, K); otherwise a
    structured class takes an FCSet member and a materialized class a
    Concept (ValueError), on the class domain (DomainMismatch)."""
    structured = isinstance(cls, FiniteCofiniteClass)
    if isinstance(target, (int, np.integer)):
        index = require_int(target, "target index")
        size = cls.size if structured else len(cls.concepts)
        if not 0 <= index < size:
            raise ValueError(f"target index {index!r} is not in [0, {size})")
        return cls.concept_at(index) if structured else cls.concepts[index]
    if structured:
        if not isinstance(target, FCSet):
            raise ValueError("structured classes take FCSet targets")
        if not cls.in_class(target):
            raise ValueError("structured target is not a member of the class")
    elif not isinstance(target, Concept):
        raise ValueError("materialized classes take Concept targets")
    elif target.m != cls.m:
        raise DomainMismatch("target and measure must live on the class domain")
    return target


def learner_image(
    cls: ConceptClass,
    order: Sequence[int] | None,
    target: Concept | int,
    n: int,
    *,
    work_limit: int = DEFAULT_WORK_LIMIT,
) -> frozenset[int]:
    """Indices of all outputs of the enumeration learner over samples of
    length n.

    The learner sees only which points got label 1 and which got 0, so the
    image over all m^n sequences equals the image over supports: the empty
    support for n = 0, else every nonempty support of size <= n (any such
    support is realized by a sequence with repetitions). The supports are
    walked exhaustively, refused when their count passes the work limit.
    The target is checked as pac_error_estimate checks it, and n (>= 0)
    must be an int, not a bool (ValueError). No image is empty, since the
    target fits its own labels.
    """
    target = _indexed_target(cls, target)
    if isinstance(cls, FiniteCofiniteClass):
        raise WorkLimitExceeded(
            "structured classes have no exhaustive image; materialize first"
        )
    m = cls.m
    _require_cell_sizes(n, 1, 0)  # the image takes no trials
    sizes = range(1, min(n, m) + 1) if n else (0,)
    total = sum(math.comb(m, k) for k in sizes if k)
    if total > work_limit:
        raise WorkLimitExceeded(f"{total} supports exceed the work limit {work_limit}")
    supports = chain.from_iterable(combinations(range(m), k) for k in sizes)
    return frozenset(
        enumeration_learner(cls, order, *label_sample(target, pts))
        for pts in supports
    )


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


def _quantile_points(vals: np.ndarray, *, with_min: bool = False) -> dict[str, float]:
    """q50, q90, q99 (nearest rank), then min if asked, then max."""
    srt = np.sort(vals).tolist()
    T = len(srt)
    out = {}
    for q in (0.5, 0.9, 0.99):
        k = max(0, math.ceil(q * T) - 1)
        out[f"q{int(q * 100)}"] = srt[k]
    if with_min:
        out["min"] = srt[0]
    out["max"] = srt[-1]
    return out


def _left_sum(vals: np.ndarray) -> float:
    """Sum of vals added left to right from the first, the order Python
    3.11's builtin sum adds floats in; from 3.12 on sum() compensates, so
    a report summed with it would depend on the Python version."""
    return float(np.cumsum(vals)[-1])


def _require_cell_sizes(n, trials, least_n: int) -> None:
    """Refuse an n or trials that is not an int (or is a bool), an n below
    least_n and fewer than one trial, with ValueError."""
    for value, what, least in ((n, "n", least_n), (trials, "trials", 1)):
        require_int(value, what)
        if value < least:
            raise ValueError(f"{what} must be >= {least}, got {value!r}")


def _require_epsilons(epsilons, what: str) -> None:
    """Refuse a bool, a non-real, a NaN or an infinity among epsilons, with
    ValueError: none of them is a threshold a frequency can be held to."""
    for eps in epsilons:
        if (
            isinstance(eps, bool)
            or not isinstance(eps, numbers.Real)
            or not math.isfinite(eps)
        ):
            raise ValueError(f"{what} must be a finite real, got {eps!r}")


# Trial rows are checked in blocks of about this many entries per block's
# largest operand: its uniforms, or the widest per-row work the caller names
# (m points, K concepts x words for the dense bitset test, or (n + 1) x
# (t + 1) for the structured kernels). They are drawn in chunks of about
# this many uniforms, a whole number of blocks each, so a wide class does
# not cut the draws into calls of a few dozen points. The rows are
# consecutive slices of one stream, so no result depends on it.
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


def _words(rows: np.ndarray) -> np.ndarray:
    """Bool rows packed into little-endian uint64 words: column x is bit
    x % 64 of word x // 64, and the bits past the last column are zero."""
    count, m = rows.shape
    out = np.zeros((count, 8 * -(-m // 64)), dtype=np.uint8)
    out[:, : -(-m // 8)] = np.packbits(rows, axis=1, bitorder="little")
    return out.view(np.dtype("<u8"))


def _row_masses(w: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Measure of each bool row's set, summed as DiscreteMeasure.mass sums
    the row's ascending index list. The rows are sorted stably by popcount
    and their weights gathered in one pass; the rows of popcount c are then
    one (rows x c) block whose axis-1 sum is numpy's pairwise sum per row,
    the same as the one-row sum. No rows give an empty array."""
    counts = rows.sum(axis=1)
    order = np.argsort(counts, kind="stable")
    vals = w[np.nonzero(rows[order])[1]]
    sizes = np.bincount(counts)
    sums = np.empty(len(rows))
    a = b = 0  # first row and first weight of the next block
    for c in np.flatnonzero(sizes).tolist():
        g = int(sizes[c])
        sums[a : a + g] = vals[b : b + g * c].reshape(g, c).sum(axis=1)
        a, b = a + g, b + g * c
    out = np.empty(len(rows))
    out[order] = sums
    return out


def _dense_trials(cls, learner, target, measure, n, trials, rng):
    """Per-trial errors and found-a-hypothesis flags of both learners over
    the materialized class, a block of trial rows at a time.

    A concept is consistent with a sample when it agrees with the target on
    every drawn point: with the rows of (C xor T) in the learner's order and
    each sample's presence row packed into uint64 words, when no word of
    presence & (C xor T) is nonzero. The test is exact at any width. Each
    learner takes the first consistent concept in its order: the
    enumeration learner in its own, the adversary in the order of
    decreasing distance, ties to the least index, which picks the first
    maximum of the distance over the consistent concepts. Blocks are sized
    by the K x words test per row. The distances are those
    symdiff_distance reports (see _row_masses).
    """
    K = len(cls.concepts)
    if K == 0:  # nothing fits any sample
        return np.ones(trials), np.zeros(trials, dtype=bool)
    adversarial = learner.kind == "adversarial"
    C = cls.matrix
    T = membership_matrix([target.bits], measure.m)[0]
    differ = C ^ T
    # the adversary compares every distance, the enumeration learner
    # reports only those of the concepts it chose
    if adversarial:
        D = _row_masses(measure._arr, differ)
        order = np.argsort(-D, kind="stable")
    else:
        D = np.zeros(K)
        order = np.arange(K) if learner.order is None else np.asarray(learner.order)
    X = np.ascontiguousarray(_words(differ[order]).T)  # words x K
    chosen = np.empty(trials, dtype=np.int64)
    found = np.empty(trials, dtype=bool)
    for first, presence in _presence_blocks(measure, n, trials, X.size, rng):
        P = _words(presence)
        hit = P[:, :1] & X[0]
        for j in range(1, len(X)):
            hit |= P[:, j : j + 1] & X[j]
        consistent = hit == 0
        col = np.argmax(consistent, axis=1)
        ok = consistent[np.arange(col.size), col]
        k = order[col]
        # independent of the word test: the output matches every drawn label
        if np.any((C[k] != T) & presence & ok[:, None]):
            raise AssertionError("learner output inconsistent with labels")
        chosen[first : first + k.size] = k
        found[first : first + k.size] = ok
    if not adversarial:
        ks = np.unique(chosen[found])
        D[ks] = _row_masses(measure._arr, differ[ks])
    return D[chosen], found


def _fc_agrees(fc: FCSet, pos: list[int], neg: list[int]) -> bool:
    """Whether fc contains every positive and no negative."""
    if fc.kind == "finite":
        return fc.core.issuperset(pos) and fc.core.isdisjoint(neg)
    return fc.core.isdisjoint(pos) and fc.core.issuperset(neg)


def _labeled(idx: np.ndarray, keep: np.ndarray, m: int):
    """(points, count) per row of a sample block: the distinct points of the
    row where keep holds, ascending and padded with m, and how many."""
    pts = np.sort(np.where(keep, idx, m), axis=1)
    pts[:, 1:][pts[:, 1:] == pts[:, :-1]] = m
    pts.sort(axis=1)
    return pts, (pts < m).sum(axis=1)


def _first_columns(mask: np.ndarray, cap: np.ndarray, width: int) -> np.ndarray:
    """(rows x width) column indices of each row's first cap[r] True
    entries, ascending, padded with mask.shape[1]."""
    rank = np.cumsum(mask, axis=1)
    r, c = np.nonzero(mask & (rank <= cap[:, None]))
    out = np.full((mask.shape[0], width), mask.shape[1])
    out[r, rank[r, c] - 1] = c
    return out


def _column_sums(values: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Per row, values[cols[r, 0]] + values[cols[r, 1]] + ..., added one
    column at a time from 0.0; the pad index len(values) adds an exact 0.0.
    On rows of nonzero terms this is Python's sum over the row's terms."""
    padded = np.append(values, 0.0)
    acc = np.zeros(len(cols))
    for j in range(cols.shape[1]):
        acc += padded[cols[:, j]]
    return acc


def _adversary_block(cls, pools, idx, sides):
    """Errors and found flags of max_distance_consistent for a block of
    trial rows, both sides at once; sides holds _labeled's (points, count)
    of the positives P and of the negatives Z.

    Per row, the finite side (|P| <= t) reaches mu(T) + (sum of s over P)
    + (the weights of its extras); the co-small side (|Z| <= t) reaches
    1 - mu(T) - (sum of s over Z - the weights of its extras). A side's
    extras are the first points of its pool that the row did not draw, at
    most t - |P| (or t - |Z|) of them; a row draws at most n points of a
    pool, so they lie in its first t + n entries. Every sum adds one
    column at a time, P and Z in ascending point order and the extras in
    pool order, as the per-sample step adds its terms, so the distances
    are bit-identical to it. An exact tie between the sides is one
    distance whichever member wins, so the rank tie-break has no block
    form, and zero-weight padding moves no distance.
    """
    w, inside, tmass, fin_pool, cof_pool = pools
    t, m = cls.t, cls.m
    rows = np.arange(len(idx))[:, None]
    s = np.where(inside, -w, w)
    d = []
    for (pts, count), pool in zip(sides, (fin_pool, cof_pool)):
        prefix = pool[: t + idx.shape[1]]
        slot = np.full(m, len(prefix))
        slot[prefix] = np.arange(len(prefix))
        free = np.ones((len(idx), len(prefix) + 1), dtype=bool)
        free[rows, slot[idx]] = False
        extras = _first_columns(free[:, :-1], t - count, t)
        # checked on the drawn points, not on free: no extra was drawn
        picked = np.append(prefix, -1)[extras]
        if np.any(picked[:, None, :] == idx[:, :, None]):
            raise AssertionError("learner output inconsistent with labels")
        d.append((_column_sums(s, pts[:, :t]), _column_sums(w[prefix], extras)))
    (pos_sum, fin_extra), (neg_sum, cof_extra) = d
    d_fin = (tmass + pos_sum) + fin_extra
    d_cof = (1.0 - tmass) - (neg_sum - cof_extra)
    fin_ok, cof_ok = sides[0][1] <= t, sides[1][1] <= t
    errors = np.where(
        fin_ok & cof_ok, np.maximum(d_fin, d_cof), np.where(fin_ok, d_fin, d_cof)
    )
    return errors, fin_ok | cof_ok


def _structured_trials(cls, learner, target, measure, n, trials, rng):
    """Per-trial errors and found-a-hypothesis flags of the closed-form
    learners over the structured class, a block of trial rows at a time,
    labeled through the target's membership vector.

    The enumeration learner answers a row with no positive by the empty
    set and a row with no negative by the full set, one fc_distance each
    per cell; only rows that hold both labels call least_consistent, and
    its output is checked against them. The adversary runs both sides of
    max_distance_consistent over the whole block (see _adversary_block).
    """
    m, t = cls.m, cls.t
    inside = cls.label_points(target, np.arange(m))
    adversarial = learner.kind == "adversarial"
    if adversarial:
        pools = cls._adversary_pools(target, measure)
    else:
        d_empty = fc_distance(measure, FCSet(m, "finite", frozenset()), target)
        d_full = fc_distance(measure, FCSet(m, "cofinite", frozenset()), target)
    errors = np.empty(trials)
    found = np.ones(trials, dtype=bool)
    for first, idx in _sample_blocks(measure, n, trials, (n + 1) * (t + 1), rng):
        labels = inside[idx]
        (pos, npos), (neg, nneg) = _labeled(idx, labels, m), _labeled(idx, ~labels, m)
        # checked on the labels, not on the counts: a row counted without
        # positives (negatives) is fit by the empty (full) set
        if labels[npos == 0].any() or not labels[nneg == 0].all():
            raise AssertionError("learner output inconsistent with labels")
        rows = slice(first, first + len(idx))
        if adversarial:
            sides = ((pos, npos), (neg, nneg))
            errors[rows], found[rows] = _adversary_block(cls, pools, idx, sides)
            continue
        errors[rows] = np.where(npos > 0, d_full, d_empty)
        for r in np.flatnonzero((npos > 0) & (nneg > 0)).tolist():
            P = pos[r, : npos[r]].tolist()
            Z = neg[r, : nneg[r]].tolist()
            try:
                fc = cls.least_consistent(P, Z)
            except NoConsistentHypothesis:
                found[first + r] = False
                continue
            if not _fc_agrees(fc, P, Z):
                raise AssertionError("learner output inconsistent with labels")
            errors[first + r] = fc_distance(measure, fc, target)
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
    violation is a bug, not a statistic. n (>= 0) and trials (>= 1) must
    be ints, not bools, and each epsilon a finite real, not a bool;
    anything else raises ValueError before any draw.
    no_hypothesis: "raise" propagates NoConsistentHypothesis, "full-error"
    counts the trial with error 1.0 and moves on.
    """
    _require_cell_sizes(n, trials, 0)
    _require_epsilons(epsilons, "each epsilon")
    if no_hypothesis not in ("raise", "full-error"):
        raise ValueError(f"bad no_hypothesis policy {no_hypothesis!r}")
    structured = isinstance(cls, FiniteCofiniteClass)
    m = cls.m
    target = _indexed_target(cls, target)
    if learner.kind == "enumeration" and learner.order is not None:
        if structured:
            raise ValueError("structured classes use their canonical order only")
        if len(learner.order) != len(cls.concepts):
            raise ValueError("order must be a permutation of the class indices")
    if measure.m != m:
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
    mean = _left_sum(errors) / trials
    # squares by libm's pow, as ** made them; d * d can differ in the last bit
    var = _left_sum(np.float_power(errors - mean, 2)) / trials
    report = PacReport(
        mean_error=mean,
        errors=tuple(errors.tolist()),
        frac_exceeding={
            float(e): np.count_nonzero(errors > e) / trials for e in epsilons
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
