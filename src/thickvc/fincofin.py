"""Structured backend for the finite-or-cofinite concept class.

The class of all sets of size <= t plus all sets of co-size <= t on m points
has about 2 * C(m, t) members, far too many to materialize at m = 1000. This
module represents it by its parameters and answers the queries the learning
and deviation machinery needs with closed forms:

  * canonical enumeration rank of any member, and its inverse;
  * the enumeration-least concept consistent with a labeled sample;
  * the consistent concept farthest from a target in measure, exactly;
  * per-sample supremum deviation |mu(C) - mu_n(C)| over the whole class.

Canonical order: empty set first, full set second, then ascending by set
size, ties by ascending sorted index tuple of the set. For co-small sets
ascending set-tuple order equals descending lex order of their complements,
which is what the rank arithmetic below uses.

Small instances are cross-checked against materialized classes in tests; the
closed forms are exact, not approximations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable

import numpy as np

from .domain import Concept
from .errors import NoConsistentHypothesis
from .measures import DiscreteMeasure, _row_counts


@dataclass(frozen=True)
class FCSet:
    """A finite-or-cofinite subset of an m-point domain.

    kind "finite": the set is `core`. kind "cofinite": the set is the
    complement of `core`. Class members always use the representation with
    |core| <= t, which is unique since t < m/2.
    """

    m: int
    kind: str
    core: frozenset[int]

    def __post_init__(self):
        if self.kind not in ("finite", "cofinite"):
            raise ValueError(f"kind must be finite or cofinite, got {self.kind!r}")
        core = frozenset(self.core)
        object.__setattr__(self, "core", core)
        if any(not 0 <= x < self.m for x in core):
            raise ValueError("core point out of range")

    @property
    def size(self) -> int:
        return len(self.core) if self.kind == "finite" else self.m - len(self.core)

    def contains(self, x: int) -> bool:
        inside = x in self.core
        return inside if self.kind == "finite" else not inside

    def to_concept(self) -> Concept:
        """Materialize; only sensible for small m."""
        bits = 0
        for x in self.core:
            bits |= 1 << x
        if self.kind == "cofinite":
            bits ^= (1 << self.m) - 1
        return Concept(self.m, bits)


def fc_measure(measure: DiscreteMeasure, a: FCSet) -> float:
    core_mass = measure.mass(a.core)
    return core_mass if a.kind == "finite" else 1.0 - core_mass


def fc_distance(measure: DiscreteMeasure, a: FCSet, b: FCSet) -> float:
    """Measure of the symmetric difference, via the cores only.

    Same kinds: the symmetric difference is core xor core. Mixed kinds: it
    is the complement of that, since membership flips on one side.
    """
    if a.m != b.m:
        raise ValueError("operands live on different domains")
    xor_mass = measure.mass(a.core ^ b.core)
    return xor_mass if a.kind == b.kind else 1.0 - xor_mass


def comb_rank(tup: tuple[int, ...], m: int) -> int:
    """Lexicographic rank of a sorted k-index tuple among all k-subsets."""
    r = 0
    prev = -1
    k = len(tup)
    for i, c in enumerate(tup):
        for j in range(prev + 1, c):
            r += math.comb(m - 1 - j, k - 1 - i)
        prev = c
    return r


def comb_unrank(r: int, m: int, k: int) -> tuple[int, ...]:
    out = []
    j = 0
    for i in range(k):
        while True:
            c = math.comb(m - 1 - j, k - 1 - i)
            if r < c:
                out.append(j)
                j += 1
                break
            r -= c
            j += 1
    return tuple(out)


@dataclass(frozen=True)
class FiniteCofiniteClass:
    """All size <= t and co-size <= t subsets of m points, by parameters."""

    m: int
    t: int

    def __post_init__(self):
        if type(self.m) is not int or self.m < 1:
            raise ValueError(f"m must be a positive int, got {self.m!r}")
        if type(self.t) is not int or not 0 <= self.t < self.m / 2:
            raise ValueError(f"t must satisfy 0 <= t < m/2, got t={self.t!r}")

    @property
    def size(self) -> int:
        half = sum(math.comb(self.m, k) for k in range(1, self.t + 1))
        return 2 + 2 * half

    def in_class(self, a: FCSet) -> bool:
        return a.m == self.m and len(a.core) <= self.t

    # enumeration arithmetic

    def _finite_block_start(self, k: int) -> int:
        return 2 + sum(math.comb(self.m, i) for i in range(1, k))

    def _cofinite_block_start(self, j: int) -> int:
        half = sum(math.comb(self.m, i) for i in range(1, self.t + 1))
        later_cores = sum(math.comb(self.m, i) for i in range(j + 1, self.t + 1))
        return 2 + half + later_cores

    def rank(self, a: FCSet) -> int:
        if not self.in_class(a):
            raise ValueError("set is not a member of this class")
        core = tuple(sorted(a.core))
        j = len(core)
        if a.kind == "finite":
            if j == 0:
                return 0
            return self._finite_block_start(j) + comb_rank(core, self.m)
        if j == 0:
            return 1
        # ascending set order within one co-size block = descending core lex
        within = math.comb(self.m, j) - 1 - comb_rank(core, self.m)
        return self._cofinite_block_start(j) + within

    def concept_at(self, r: int) -> FCSet:
        if not 0 <= r < self.size:
            raise ValueError(f"rank {r} out of range")
        if r == 0:
            return FCSet(self.m, "finite", frozenset())
        if r == 1:
            return FCSet(self.m, "cofinite", frozenset())
        r -= 2
        for k in range(1, self.t + 1):
            block = math.comb(self.m, k)
            if r < block:
                return FCSet(self.m, "finite", frozenset(comb_unrank(r, self.m, k)))
            r -= block
        for j in range(self.t, 0, -1):
            block = math.comb(self.m, j)
            if r < block:
                core = comb_unrank(block - 1 - r, self.m, j)
                return FCSet(self.m, "cofinite", frozenset(core))
            r -= block
        raise AssertionError("rank arithmetic out of sync with size")

    # learning queries

    def least_consistent(
        self, positives: Iterable[int], negatives: Iterable[int]
    ) -> FCSet:
        """Enumeration-least member containing every positive and no negative.

        The canonical order makes the case split short: the empty set wins
        when there are no positives; the full set when there are no
        negatives; the positives themselves when few enough (nothing earlier
        can contain them); otherwise the earliest co-small block that can
        swallow the negatives, maximizing the complement and padding it with
        the largest free indices to stay lex-greatest among complements.
        """
        P = frozenset(positives)
        Z = frozenset(negatives)
        if P & Z:
            raise NoConsistentHypothesis("a point is labeled both 1 and 0")
        m, t = self.m, self.t
        if not P:
            return FCSet(m, "finite", frozenset())
        if not Z:
            return FCSet(m, "cofinite", frozenset())
        if len(P) <= t:
            return FCSet(m, "finite", P)
        if len(Z) <= t:
            # largest feasible complement core = earliest co-small block;
            # j >= max(1, |Z|) because P and Z are disjoint and P != domain
            j = min(t, m - len(P))
            core = set(Z)
            pad = j - len(Z)
            x = m - 1
            while pad > 0:
                if x not in P and x not in Z:
                    core.add(x)
                    pad -= 1
                x -= 1
            return FCSet(m, "cofinite", frozenset(core))
        raise NoConsistentHypothesis(
            f"labels need a set larger than {t} with co-size larger than {t}"
        )

    def max_distance_consistent(
        self,
        positives: Iterable[int],
        negatives: Iterable[int],
        target: FCSet,
        measure: DiscreteMeasure,
    ) -> tuple[FCSet, float]:
        """Consistent member farthest from the target, with its distance.

        Write s_x = w_x outside the target and -w_x inside. A small set
        C = P + extras has distance mu(T) + sum of s over C, so the best
        extras are the heaviest positive-s free points, at most t - |P| of
        them. A co-small set misses G = Z + extras and has distance
        1 - mu(T) - sum of s over G, so there the best extras are the most
        negative. The larger side wins; exact distance ties go to the
        smaller enumeration rank. Ties inside a side are broken toward the
        enumeration-least member (small side: smallest indices; co-small
        side: largest complement, largest indices; an empty co-small core
        stays empty, since the full set enumerates before everything but
        the empty set).
        """
        return self.max_distance_learner(target, measure)(positives, negatives)

    def max_distance_learner(
        self, target: FCSet, measure: DiscreteMeasure
    ) -> Callable[[Iterable[int], Iterable[int]], tuple[FCSet, float]]:
        """max_distance_consistent for one (target, measure), prepared once.

        The two extras pools (positive-s points by weight descending, ties
        to the smaller index; negative-s points likewise, ties to the larger
        index) and the descending list of zero-weight padding points depend
        only on the target and the measure. The returned function answers
        one (positives, negatives) sample per call and never mutates them.
        """
        if target.m != self.m or measure.m != self.m:
            raise ValueError("target and measure must live on the class domain")
        m, t = self.m, self.t
        w = measure._arr
        tmass = fc_measure(measure, target)
        inside = self.label_points(target, np.arange(m))
        s = np.where(inside, -w, w)
        # positive s lives off the target, negative s on it
        fin_pool = tuple(
            int(x)
            for x in np.lexsort((np.arange(m), -w))
            if w[x] > 0 and not inside[x]
        )
        cof_pool = tuple(
            int(x)
            for x in np.lexsort((-np.arange(m), -w))
            if w[x] > 0 and inside[x]
        )
        zeros_desc = tuple(int(x) for x in np.flatnonzero(w == 0)[::-1])

        def step(
            positives: Iterable[int], negatives: Iterable[int]
        ) -> tuple[FCSet, float]:
            P = frozenset(positives)
            Z = frozenset(negatives)
            if P & Z:
                raise NoConsistentHypothesis("a point is labeled both 1 and 0")

            def free(pool, cap):
                # the first cap pool points the sample leaves unlabeled
                return list(
                    islice((x for x in pool if x not in P and x not in Z), cap)
                )

            best_fin: tuple[float, FCSet] | None = None
            if len(P) <= t:
                base = tmass + sum(s[x] for x in P)
                extras = free(fin_pool, t - len(P))
                d = base + sum(w[x] for x in extras)
                best_fin = (float(d), FCSet(m, "finite", P | frozenset(extras)))
            best_cof: tuple[float, FCSet] | None = None
            if len(Z) <= t:
                base = sum(s[x] for x in Z)
                extras = free(cof_pool, t - len(Z))
                core = set(Z)
                core.update(extras)
                # zero-weight padding costs no distance and moves the concept
                # to an earlier (smaller-set) block; an empty core is already
                # the full set at rank 1 and must stay empty
                pad = t - len(core) if core else 0
                for x in zeros_desc:
                    if pad == 0:
                        break
                    if x not in core and x not in P:
                        core.add(x)
                        pad -= 1
                d = 1.0 - tmass - (base - sum(w[x] for x in extras))
                best_cof = (float(d), FCSet(m, "cofinite", frozenset(core)))
            if best_fin is None and best_cof is None:
                raise NoConsistentHypothesis(
                    f"labels need a set larger than {t} with co-size larger than {t}"
                )
            if best_fin is None:
                return best_cof[1], best_cof[0]
            if best_cof is None:
                return best_fin[1], best_fin[0]
            if best_fin[0] != best_cof[0]:
                d, fc = max(best_fin, best_cof, key=lambda p: p[0])
            else:
                # exact tie between the sides: least enumeration rank wins
                d, fc = min(best_fin, best_cof, key=lambda p: self.rank(p[1]))
            return fc, d

        return step

    # deviation query

    def sup_deviation(
        self, points: np.ndarray, measure: DiscreteMeasure
    ) -> float | np.ndarray:
        """sup over the class of |mu(C) - empirical frequency of C|.

        points is one sample (a float comes back) or a 2-D block with one
        sample per row (an array of one sup per row comes back).

        With delta_x = count_x/n - w_x summing to zero over the domain, the
        deviation of a small set is |sum of delta over it| and of a co-small
        set |sum of delta over its complement core|, so both reduce to the
        best |prefix sum| of the sorted deltas, at most t terms from either
        end. The empty and full sets contribute the floor of zero.
        """
        pts = np.asarray(points, dtype=np.int64)
        rows = np.atleast_2d(pts)
        n = rows.shape[1]
        if n == 0 or self.t == 0:
            sups = np.zeros(rows.shape[0])
        else:
            delta = _row_counts(rows, self.m) / n - measure._arr
            # only the t smallest and t largest deltas can enter a sum
            t = self.t
            part = np.partition(delta, (t - 1, self.m - t), axis=1)
            lo = np.sort(part[:, :t], axis=1)
            hi = np.sort(part[:, self.m - t :], axis=1)[:, ::-1]
            best_lo = np.max(-np.cumsum(lo, axis=1), axis=1)
            best_hi = np.max(np.cumsum(hi, axis=1), axis=1)
            sups = np.maximum(0.0, np.maximum(best_lo, best_hi))
        return float(sups[0]) if pts.ndim == 1 else sups

    # labeling helper shared by the simulators

    def label_points(self, target: FCSet, pts: np.ndarray) -> np.ndarray:
        core = np.fromiter(target.core, dtype=np.int64, count=len(target.core))
        inside = np.isin(pts, core)
        return inside if target.kind == "finite" else ~inside
