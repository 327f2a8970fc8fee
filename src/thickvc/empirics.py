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
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .domain import _GEMM_ENTRIES, ConceptClass, membership_matrix, pack_rows
from .errors import DomainMismatch, WorkLimitExceeded
from .fincofin import FiniteCofiniteClass
from .learning import (
    _left_sum,
    _quantile_points,
    _require_cell_sizes,
    _require_epsilons,
    _sample_blocks,
)
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
    n and trials must be ints >= 1, not bools (ValueError otherwise).
    """
    sups = _sup_deviations(cls, measure, n, trials, seed, seed_path)
    return DeviationReport(
        sups=tuple(sups.tolist()),
        mean=_left_sum(sups) / trials,
        quantiles=_quantile_points(sups, with_min=True),
        n=n,
        trials=trials,
        n_atom_bound=n * measure.atom_bound,
    )


def _sup_deviations(cls, measure, n, trials, seed, seed_path) -> np.ndarray:
    """The per-trial sups of empirical_sup_deviation, as a float64 array."""
    _require_cell_sizes(n, trials, 1)
    structured = isinstance(cls, FiniteCofiniteClass)
    m = cls.m
    if measure.m != m:
        raise ValueError("measure and class must share a domain")
    if not structured:
        cls.require_nonempty()
        C = cls.matrix
        # the masses from a C-order float copy, each the float it always
        # was (a product with matT.T sums in another order)
        true_mass = C.astype(np.float64) @ measure._arr
        matT = C.T.astype(np.float64, order="C")
        # (counts @ C^T) in row chunks below BLAS's threading size, each
        # scanned in place in one buffer
        chunk = max(1, _GEMM_ENTRIES // C.size)
        buf = np.empty((min(chunk, trials), len(C)))

    sups = np.empty(trials)
    rng = derive_rng(seed, "dev", *seed_path)
    # a structured row is O(n + t) wide when 2n < m, else m <= 2n wide
    width = min(m, n + cls.t) if structured else m
    for first, idx in _sample_blocks(measure, n, trials, width, rng):
        if structured:
            sups[first : first + len(idx)] = cls.sup_deviation(idx, measure)
            continue
        counts = _row_counts(idx, m)
        for a in range(0, len(counts), chunk):
            # integer counts times a 0/1 matrix are exact in any summation
            # order, so each frequency is count_C / n rounded once
            c = counts[a : a + chunk]
            h = buf[: len(c)]
            np.matmul(c, matT, out=h)
            h /= n
            h -= true_mass
            np.abs(h, out=h)
            r = first + a
            h.max(axis=1, out=sups[r : r + len(c)])
    return sups


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
    epsilon must be a finite real, not a bool (ValueError before any draw).
    """
    _require_epsilons((epsilon,), "epsilon")
    sups = _sup_deviations(cls, measure, n, trials, seed, ("ugc", ni, mi))
    return np.count_nonzero(sups >= epsilon) / trials


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

    Exact mode finds a maximum clique of the separation graph and raises
    past the node budget; greedy mode first-fits in class order and only
    lower-bounds the true number. A pair is an edge iff
    symdiff_distance(a, b) >= separation, a float compared exactly;
    callers needing exact rational thresholds should use pattern_packing.

    Exact mode reads distances off one float64 product: d = mu_i + mu_j -
    2 c_ij, with mu = M @ w and c = (M * w) @ M^T for the membership matrix
    M and the weights w, in blocks of rows whose products stay within
    _GEMM_ENTRIES multiply-adds (at least one row). Only pairs whose d lies
    within a rounding band of separation are recomputed with
    symdiff_distance. Proof that the band suffices: every mass here, and
    the sum symdiff_distance takes, adds at most m nonnegative terms, each
    exact (w_k times 0 or 1), so in any order it errs by at most
    g = m u / (1 - m u) <= 1.01 m u of its value (u = eps / 2, and
    m u < 1/100 for any m that fits in memory), and no value exceeds
    S = sum(w); let T = max(1, S). Two more roundings put d within
    5 (m + 1) u S of the true mass of the symmetric difference, and
    symdiff_distance is within g S of it, so the two differ by under
    7 (m + 1) u T. The separation enters the product as the float
    t = min(separation, 2 S + 1): past 2 S + 1 no pair is an edge and
    d - t stays far below zero, and below it t is within 3 u T of
    separation. d - t is rounded once more, by a factor 1 +- u. Where it
    reaches band = 8 (m + 2) eps T, which is at least 15 (m + 2) u T after
    its own roundings, symdiff_distance >= separation; where it is at most
    -band, symdiff_distance < separation. So each edge is decided by that
    comparison itself, by construction. Greedy mode compares each concept
    with symdiff_distance against the chosen ones and stops at the first
    near one.

    The clique search branches on vertices in index order and keeps a
    clique only when it strictly beats the best, so the witness is the
    first maximum clique in vertex order. Each node first stops when its
    clique plus all its candidates cannot beat the best (Carraghan &
    Pardalos 1990). It then colours its candidates first-fit from the
    last vertex down, one colour class at a time (Tomita & Seki 2003).
    The classes whose top vertex is v or later colour the candidates from
    v on, so their number bounds any clique among them, and the node stops
    at the first v where its clique plus that bound cannot beat the best.
    Both cuts drop only branches that cannot strictly beat the best, so
    the search meets the same first maximum clique as without them.
    Nodes count branches taken.
    """
    cls.require_nonempty()
    if (
        isinstance(separation, bool)
        or not isinstance(separation, numbers.Real)
        or not 0 < separation < math.inf
    ):
        raise ValueError(
            f"separation must be a positive finite real, got {separation!r}"
        )
    if measure.m != cls.domain.size:
        raise DomainMismatch("measure and class must share a domain")
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
    K = len(cls.concepts)
    if K * K > work_limit:
        raise WorkLimitExceeded(
            f"{K}^2 pairwise distances exceed the work limit {work_limit}"
        )
    m, w = measure.m, measure._arr
    total = float(w.sum())
    mat = membership_matrix(cls.masks(), m).astype(np.float64)
    weighted = mat * w
    mass = mat @ w
    t = float(min(separation, 2 * total + 1))
    band = 8 * (m + 2) * np.finfo(np.float64).eps * max(1.0, total)
    step = max(1, _GEMM_ENTRIES // (m * K))
    adj: list[int] = []  # neighbour bitsets, a block of rows at a time
    for a in range(0, K, step):
        rows = slice(a, a + step)
        gap = mass[rows, None] + mass - 2 * (weighted[rows] @ mat.T) - t
        edge = gap >= band
        for r, j in zip(*np.nonzero(np.abs(gap) < band)):
            x, y = cls.concepts[a + int(r)], cls.concepts[int(j)]
            edge[r, j] = symdiff_distance(measure, x, y) >= separation
        adj += pack_rows(edge)
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
        # first-fit colouring from the last vertex down, one colour class
        # at a time; heads holds each class's top vertex, descending
        heads: list[int] = []
        todo = allowed
        while todo:
            heads.append(todo.bit_length() - 1)
            free = todo
            while free:
                v = free.bit_length() - 1
                todo ^= 1 << v
                free &= ~(adj[v] | 1 << v)
        rest = allowed
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            while heads[-1] < v:
                heads.pop()
            # the classes left colour the candidates from v on
            if len(clique) + len(heads) <= best[0]:
                return
            rest ^= low
            nodes += 1
            if nodes > work_limit:
                raise WorkLimitExceeded(f"clique search passed {work_limit} nodes")
            grow(clique + (v,), rest & adj[v])

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
