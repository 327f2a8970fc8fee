"""Uniform-deviation estimation and packing lower bounds.

empirical_sup_deviation and ugc_curve measure how far empirical frequencies
can drift from true measures uniformly over a class. The packing functions
quantify the metric-entropy obstruction: a class that keeps exponentially
many concepts pairwise far apart in measure cannot have uniformly small
deviations at small sample sizes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .domain import _GEMM_ENTRIES, Concept, ConceptClass, membership_matrix
from .errors import WorkLimitExceeded
from .fincofin import FiniteCofiniteClass
from .learning import _quantile_points, _sample_blocks
from .measures import DiscreteMeasure, _row_counts, symdiff_distance
from .rng import derive_rng
from .shattering import DEFAULT_WORK_LIMIT


@dataclass(frozen=True)
class DeviationReport:
    """Per-trial sup |mu(C) - mu_n(C)| over the class, with summaries."""

    sups: tuple[float, ...]
    mean: float
    quantiles: dict[str, float]
    n: int
    trials: int
    n_atom_bound: float


def empirical_sup_deviation(
    cls: ConceptClass | FiniteCofiniteClass,
    measure: DiscreteMeasure,
    n: int,
    trials: int,
    seed: int,
    *,
    seed_path: tuple = (),
) -> DeviationReport:
    """Monte Carlo estimate of the sup-deviation distribution.

    Materialized classes get a full vectorized scan (the sup is exact, never
    sub-sampled); the structured finite/cofinite backend uses its exact
    closed form. A cell draws from one generator,
    derive_rng(seed, "dev", *seed_path): trial tr gets row tr of its
    trials x n uniforms, so no result depends on how the rows are blocked.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    structured = isinstance(cls, FiniteCofiniteClass)
    m = cls.m if structured else cls.domain.size
    if measure.m != m:
        raise ValueError("measure and class must share a domain")
    if not structured:
        cls.require_nonempty()
        mat = membership_matrix(cls.masks(), m).astype(np.float64)
        true_mass = mat @ measure._arr
        # (counts @ C^T) in row chunks below BLAS's threading size
        chunk = max(1, _GEMM_ENTRIES // mat.size)

    sups = np.empty(trials)
    rng = derive_rng(seed, "dev", *seed_path)
    for first, idx in _sample_blocks(measure, n, trials, m, rng):
        if structured:
            sups[first : first + len(idx)] = cls.sup_deviation(idx, measure)
            continue
        counts = _row_counts(idx, m)
        for a in range(0, len(counts), chunk):
            # integer counts times a 0/1 matrix are exact in any summation
            # order, so each frequency is count_C / n rounded once
            hits = counts[a : a + chunk] @ mat.T
            r = first + a
            sups[r : r + len(hits)] = np.max(np.abs(hits / n - true_mass), axis=1)
    sups = sups.tolist()
    mean = sum(sups) / trials
    return DeviationReport(
        sups=tuple(sups),
        mean=mean,
        quantiles=_quantile_points(sups, with_min=True),
        n=n,
        trials=trials,
        n_atom_bound=n * measure.atom_bound,
    )


@dataclass(frozen=True)
class UgcPoint:
    """Worst-case (over a measure family) estimate of P(sup-dev >= eps)."""

    n: int
    epsilon: float
    prob: float
    stderr: float
    per_measure: tuple[float, ...]
    worst_measure: int
    trials: int
    n_atom_bound: float


def ugc_cell(
    cls: ConceptClass | FiniteCofiniteClass,
    measure: DiscreteMeasure,
    n: int,
    epsilon: float,
    trials: int,
    seed: int,
    ni: int,
    mi: int,
) -> float:
    """Exceedance fraction for one (n-index, measure-index) grid cell.

    Seeds derive from the grid position, never from evaluation order, so a
    parallel scheduler computing cells in any order gets identical numbers.
    """
    rep = empirical_sup_deviation(
        cls, measure, n, trials, seed, seed_path=("ugc", ni, mi)
    )
    return sum(1 for s in rep.sups if s >= epsilon) / trials


def assemble_ugc_point(
    n: int,
    epsilon: float,
    per_measure: Sequence[float],
    trials: int,
    n_atom_bound: float,
) -> UgcPoint:
    worst = max(range(len(per_measure)), key=lambda i: (per_measure[i], -i))
    p = per_measure[worst]
    return UgcPoint(
        n=n,
        epsilon=epsilon,
        prob=p,
        stderr=math.sqrt(p * (1 - p) / trials),
        per_measure=tuple(per_measure),
        worst_measure=worst,
        trials=trials,
        n_atom_bound=n_atom_bound,
    )


def ugc_curve(
    cls: ConceptClass | FiniteCofiniteClass,
    measures: Sequence[DiscreteMeasure],
    n_grid: Sequence[int],
    epsilon: float,
    trials: int,
    seed: int,
) -> tuple[UgcPoint, ...]:
    """For each n, the worst probability over the family that the class
    sup-deviation reaches epsilon, with a binomial standard error.
    """
    if not measures:
        raise ValueError("need at least one measure")
    bound = max(mu.atom_bound for mu in measures)
    out = []
    for ni, n in enumerate(n_grid):
        per = [
            ugc_cell(cls, mu, n, epsilon, trials, seed, ni, mi)
            for mi, mu in enumerate(measures)
        ]
        out.append(assemble_ugc_point(n, epsilon, per, trials, n * bound))
    return tuple(out)


# packing


@dataclass(frozen=True)
class PackingResult:
    count: int
    witness: tuple[int, ...]  # class indices (or pattern masks for patterns)
    exact: bool
    separation: float


def packing_number(
    cls: ConceptClass,
    measure: DiscreteMeasure,
    separation: float,
    *,
    mode: str = "exact",
    work_limit: int = DEFAULT_WORK_LIMIT,
) -> PackingResult:
    """Most concepts pairwise at symdiff distance >= separation.

    Exact mode runs branch-and-bound maximum clique on the separation graph
    and raises past the node budget; greedy mode first-fits in class order
    and only lower-bounds the true number. Distances are floats compared
    with >= exactly; callers needing exact rational thresholds should use
    pattern_packing.
    """
    cls.require_nonempty()
    if separation <= 0:
        raise ValueError("separation must be positive")
    K = len(cls.concepts)
    if mode == "greedy":
        chosen: list[int] = []
        for i, c in enumerate(cls.concepts):
            if all(
                symdiff_distance(measure, c, cls.concepts[j]) >= separation
                for j in chosen
            ):
                chosen.append(i)
        return PackingResult(len(chosen), tuple(chosen), False, separation)
    if mode != "exact":
        raise ValueError(f"mode must be 'exact' or 'greedy', got {mode!r}")
    if K * K > work_limit:
        raise WorkLimitExceeded(
            f"{K}^2 pairwise distances exceed the work limit {work_limit}",
            work_limit,
        )
    # adjacency bitsets over class indices
    adj = [0] * K
    for i in range(K):
        for j in range(i + 1, K):
            if (
                symdiff_distance(measure, cls.concepts[i], cls.concepts[j])
                >= separation
            ):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    best: tuple[int, tuple[int, ...]] = (0, ())
    nodes = 0

    def grow(clique: tuple[int, ...], allowed: int) -> None:
        nonlocal best, nodes
        if len(clique) > best[0]:
            best = (len(clique), clique)
        if not allowed:
            return
        if len(clique) + allowed.bit_count() <= best[0]:
            return
        rest = allowed
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            rest ^= low
            nodes += 1
            if nodes > work_limit:
                raise WorkLimitExceeded(
                    f"clique search passed {work_limit} nodes", work_limit
                )
            grow(clique + (v,), rest & adj[v])
            if len(clique) + 1 + (rest.bit_count()) <= best[0]:
                return

    grow((), (1 << K) - 1)
    return PackingResult(best[0], best[1], True, separation)


def _decimal_fraction(eps) -> Fraction:
    """Read an epsilon exactly; floats go through their decimal repr so
    0.05 means one twentieth, not its binary neighbor."""
    if isinstance(eps, Fraction):
        return eps
    if isinstance(eps, str):
        return Fraction(eps)
    if isinstance(eps, float):
        return Fraction(str(eps))
    if isinstance(eps, int):
        return Fraction(eps)
    raise TypeError(f"cannot read epsilon from {type(eps).__name__}")


@dataclass(frozen=True)
class PatternPackingResult:
    """Maximal packing of the full pattern class on d unit clusters.

    Concepts are the 2^d subsets of d equal-mass clusters; distances are
    Hamming counts over d with exact rational arithmetic. The packing is
    greedy-maximal: every rejected pattern sits within the separation of
    some selected one, which forces count >= 2^d / (ball volume), the
    covering lower bound checked by packing_lower_bounds.
    """

    d: int
    epsilon: Fraction
    separation: Fraction
    count: int
    selected: tuple[int, ...]
    maximal: bool


def pattern_packing(d: int, epsilon) -> PatternPackingResult:
    """Greedy-maximal 2*eps-separated pattern family, exact arithmetic.

    Under the uniform cluster weights the distance k/d clears 2*eps exactly
    when the Hamming distance k clears the rational ceiling of 2*eps*d, so
    the whole search runs on integers. First-fit in ascending mask order is
    implemented by stamping the open Hamming ball of each selected center:
    a mask is selected iff no earlier center covered it, which is the same
    acceptance test, and at the end every mask is covered, certifying
    maximality (hence the covering bound count >= 2^d / ball volume).
    """
    if type(d) is not int or d < 1:
        raise ValueError(f"d must be a positive int, got {d!r}")
    eps = _decimal_fraction(epsilon)
    if not 0 < eps < Fraction(1, 4):
        raise ValueError(f"epsilon must lie in (0, 1/4), got {eps}")
    if d > 24:
        raise ValueError(f"2^{d} patterns is too many; keep d <= 24")
    sep = 2 * eps
    thr = sep * d  # select iff Hamming distance >= thr
    kmin = math.ceil(thr)  # exact: Fraction.__ceil__, no float round-off
    ball: list[int] = []  # xor offsets at Hamming distance < kmin, incl. 0
    for k in range(min(kmin, d + 1)):
        for tup in itertools.combinations(range(d), k):
            o = 0
            for b in tup:
                o |= 1 << b
            ball.append(o)
    covered = bytearray(1 << d)
    selected: list[int] = []
    for x in range(1 << d):
        if not covered[x]:
            selected.append(x)
            for o in ball:
                covered[x ^ o] = 1
    maximal = all(covered)
    return PatternPackingResult(d, eps, sep, len(selected), tuple(selected), maximal)


@dataclass(frozen=True)
class PackingBounds:
    combinatorial: Fraction
    chernoff_okamoto: float


def packing_lower_bounds(d: int, epsilon) -> PackingBounds:
    """The two analytic lower bounds for the pattern-class packing number.

    combinatorial: 2^d over the Hamming-ball volume sum_{k <= floor(2 eps d)}
    C(d, k), exact rational. chernoff_okamoto: exp(2 (1/2 - 2 eps)^2 d).
    The combinatorial bound must dominate; a violation is a bug.
    """
    if type(d) is not int or d < 1:
        raise ValueError(f"d must be a positive int, got {d!r}")
    eps = _decimal_fraction(epsilon)
    if not 0 < eps < Fraction(1, 4):
        raise ValueError(f"epsilon must lie in (0, 1/4), got {eps}")
    k_max = math.floor(2 * eps * d)
    ball = sum(math.comb(d, k) for k in range(k_max + 1))
    combinatorial = Fraction(2**d, ball)
    chernoff = math.exp(2.0 * (0.5 - 2.0 * float(eps)) ** 2 * d)
    if combinatorial < chernoff:
        raise RuntimeError(
            f"bound ordering violated at d={d}, eps={eps}: "
            f"{combinatorial} < {chernoff}"
        )
    return PackingBounds(combinatorial, chernoff)
