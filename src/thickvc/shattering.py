"""Shattering computations on finite concept classes.

One engine, a carver-bitset depth-first search for strongly shattered
disjoint cluster families, answers every shattering question: classical VC
dimension (singleton clusters), the thick variant (clusters of a minimum
size), the ideal-relative variant (singletons outside the negligible set)
and exact and greedy point-removal minimization (singletons off the removed
points). Carving a canonical witness family out of a carver map closes it.

Concepts are m-bit masks throughout. Inside the family search a second kind
of mask appears: bitsets over concept INDICES, so "which concepts can still
serve pattern J" is one big int and every refinement is a single AND.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .domain import ClusterFamily, Concept, ConceptClass, PrincipalIdeal
from .errors import DomainMismatch, EmptyWitness, WorkLimitExceeded

# node budget shared by all exact searches unless a caller overrides it
DEFAULT_WORK_LIMIT = 5_000_000


@dataclass(frozen=True)
class ShatterCertificate:
    """A checkable witness of shattering.

    kind "points": witness is a point set W; carvers map every pattern
    P over the sorted points of W (bit j = j-th smallest point of W) to a
    concept index whose trace on W equals P.

    kind "clusters": witness is a ClusterFamily; carvers map every pattern
    P over cluster positions to a concept index containing the clusters in
    P and disjoint from the rest.
    """

    kind: str
    witness: Concept | ClusterFamily
    carvers: dict[int, int]

    @property
    def n(self) -> int:
        if self.kind == "points":
            return self.witness.size
        return self.witness.n

    def validate(self, cls: ConceptClass) -> bool:
        """Re-check the certificate against a class from scratch."""
        n = self.n
        if set(self.carvers) != set(range(1 << n)):
            return False
        if any(not 0 <= k < len(cls.concepts) for k in self.carvers.values()):
            return False
        if self.kind == "points":
            if self.witness.m != cls.domain.size:
                return False
            order = self.witness.indices()
            for pat, k in self.carvers.items():
                cbits = cls.concepts[k].bits
                got = 0
                for j, p in enumerate(order):
                    if cbits >> p & 1:
                        got |= 1 << j
                if got != pat:
                    return False
            return True
        if self.kind == "clusters":
            fam = self.witness
            if fam.domain.size != cls.domain.size:
                return False
            for pat, k in self.carvers.items():
                c = cls.concepts[k]
                for i, a in enumerate(fam.clusters):
                    if pat >> i & 1:
                        if not a.issubset(c):
                            return False
                    elif not a.isdisjoint(c):
                        return False
            return True
        return False


def trace_count(cls: ConceptClass, points: Concept | Iterable[int]) -> int:
    """Number of distinct intersections the class cuts out of a point set.

    Equals 2^|points| exactly when the point set is shattered.
    """
    m = cls.domain.size
    if isinstance(points, Concept):
        if points.m != m:
            raise DomainMismatch("point set lives on a different domain")
        pmask = points.bits
    else:
        pmask = Concept.from_indices(m, points).bits if points else 0
    return len({c.bits & pmask for c in cls.concepts})


def vc_dimension(
    cls: ConceptClass,
    *,
    want_certificate: bool = False,
    work_limit: int = DEFAULT_WORK_LIMIT,
):
    """Largest size of a shattered point set, by exhaustive pruned search.

    A point set is shattered exactly when its singletons are strongly
    shattered, so this is the family search over singleton candidates of
    the whole domain. Candidates are taken in increasing point order, so
    the witness is the lex-least shattered set of maximal size.

    Returns the dimension, or (dimension, certificate) when asked.
    Raises EmptyClassError on an empty class, WorkLimitExceeded past the
    node budget.
    """
    cls.require_nonempty()
    full = cls.domain.full_mask
    return _point_search(cls, full, "points", want_certificate, work_limit)


# family search internals


def _side_bitsets(concept_masks: list[int], cluster_mask: int) -> tuple[int, int]:
    # bit k of `cb` set iff cluster inside concept k; of `db` iff disjoint from it
    cb = 0
    db = 0
    for k, mk in enumerate(concept_masks):
        if cluster_mask & ~mk == 0:
            cb |= 1 << k
        if cluster_mask & mk == 0:
            db |= 1 << k
    return cb, db


def _family_carvers(
    concept_masks: list[int], family_masks: list[int]
) -> dict[int, int] | None:
    """Least-index carver per pattern, or None if some pattern has none."""
    n = len(family_masks)
    sides = [_side_bitsets(concept_masks, a) for a in family_masks]
    full = (1 << len(concept_masks)) - 1
    carvers: dict[int, int] = {}
    for pat in range(1 << n):
        bs = full
        for i, (cb, db) in enumerate(sides):
            bs &= cb if pat >> i & 1 else db
            if not bs:
                return None
        if not bs:
            return None
        carvers[pat] = (bs & -bs).bit_length() - 1
    return carvers


def _max_family(
    concept_masks: list[int],
    candidates: list[int],
    n_cap: int,
    work_limit: int,
) -> tuple[int, tuple[int, ...], int]:
    """Largest strongly shattered pairwise-disjoint subfamily of candidates.

    DFS over candidate positions in the given order, carrying one concept
    bitset per realized pattern; adding a cluster splits every pattern into
    a without-branch (AND disjoint) and a with-branch (AND contains), and a
    zero bitset prunes the whole branch. Every prefix of a valid family is
    valid, so in-order DFS reaches the lex-least family of each size first.

    Returns (n, chosen candidate positions, nodes used).
    """
    contains: list[int] = []
    disjoint: list[int] = []
    keep: list[int] = []
    for pos, a in enumerate(candidates):
        cb, db = _side_bitsets(concept_masks, a)
        if cb and db:  # a cluster no concept contains (or none avoids) is dead
            keep.append(pos)
            contains.append(cb)
            disjoint.append(db)
    full = (1 << len(concept_masks)) - 1
    if not full:
        return 0, (), 0
    best_depth = 0
    best_chosen: tuple[int, ...] = ()
    nodes = 0

    def rec(start: int, chosen: tuple[int, ...], union: int, pats: list[int]) -> None:
        nonlocal best_depth, best_chosen, nodes
        depth = len(chosen)
        if depth > best_depth:
            best_depth = depth
            best_chosen = chosen
        if depth >= n_cap:
            return
        for j in range(start, len(keep)):
            a = candidates[keep[j]]
            if union & a:
                continue
            nodes += 1
            if nodes > work_limit:
                raise WorkLimitExceeded(
                    f"family search passed {work_limit} nodes", work_limit
                )
            db = disjoint[j]
            cb = contains[j]
            lo: list[int] = []
            hi: list[int] = []
            ok = True
            for bs in pats:
                x = bs & db
                if not x:
                    ok = False
                    break
                y = bs & cb
                if not y:
                    ok = False
                    break
                lo.append(x)
                hi.append(y)
            if ok:
                rec(j + 1, chosen + (keep[j],), union | a, lo + hi)

    rec(0, (), 0, [full])
    return best_depth, best_chosen, nodes


def _certificate(
    cls: ConceptClass, kind: str, family: list[int], min_size: int = 1
) -> ShatterCertificate:
    """Certificate for a strongly shattered family of cluster masks: a
    "points" witness is their union, a "clusters" witness the family."""
    m = cls.domain.size
    carvers = _family_carvers([c.bits for c in cls.concepts], family)
    if kind == "points":
        witness = Concept(m, sum(family))
    else:
        witness = ClusterFamily(
            cls.domain, tuple(Concept(m, a) for a in family), min_size
        )
    return ShatterCertificate(kind, witness, carvers)


def _point_search(
    cls: ConceptClass,
    allowed: int,
    kind: str,
    want_certificate: bool,
    work_limit: int,
):
    """Largest shattered set of allowed points, as a singleton-family search.

    Points with the same membership column can never be shattered together,
    and swapping one for its block minimum only lowers the witness
    lexicographically, so only block minima are candidates. 2^n distinct
    traces on the allowed points are needed to shatter n of them.
    """
    traces = sorted({c.bits & allowed for c in cls.concepts})
    blocks: dict[tuple[int, ...], int] = {}
    for p in range(cls.domain.size):
        if allowed >> p & 1:
            blocks.setdefault(tuple(t >> p & 1 for t in traces), p)
    candidates = [1 << p for p in blocks.values()]
    n_cap = min(len(candidates), len(traces).bit_length() - 1)
    n, chosen, _ = _max_family(traces, candidates, n_cap, work_limit)
    if not want_certificate:
        return n
    return n, _certificate(cls, kind, [candidates[p] for p in chosen])


def is_strongly_shattered(
    cls: ConceptClass, family: ClusterFamily
) -> tuple[bool, dict[int, int] | None]:
    """Whether every cluster pattern of the family has a carving concept.

    Pattern J is carved by C when C contains each cluster in J and misses
    each cluster outside J. Returns (True, carvers) with least-index
    carvers, or (False, None).
    """
    if family.domain.size != cls.domain.size:
        raise DomainMismatch("family lives on a different domain")
    carvers = _family_carvers(
        [c.bits for c in cls.concepts], [a.bits for a in family.clusters]
    )
    if carvers is None:
        return False, None
    return True, carvers


def vc_thick(
    cls: ConceptClass,
    min_size: int,
    *,
    want_certificate: bool = False,
    work_limit: int = DEFAULT_WORK_LIMIT,
):
    """Largest n with a strongly shattered family of n disjoint clusters,
    each of at least min_size points.

    Clusters are searched at exactly min_size points: shrinking a cluster
    preserves containment in its with-carvers and disjointness from its
    without-carvers, so the maximal n is already attained at minimal size
    (unit-tested as a lemma). min_size=1 therefore coincides with classical
    VC dimension.
    """
    cls.require_nonempty()
    if not isinstance(min_size, int) or min_size < 1:
        raise ValueError(f"min_size must be a positive int, got {min_size!r}")
    m = cls.domain.size
    if min_size > m:
        warnings.warn(
            f"min_size {min_size} exceeds domain size {m}; no admissible cluster",
            stacklevel=2,
        )
        return (0, None) if want_certificate else 0
    masks = sorted({c.bits for c in cls.concepts})
    # 2^n distinct carvers are forced (patterns differing at i disagree on
    # the nonempty A_i), and disjointness caps n at m // min_size
    n_cap = min(m // min_size, len(masks).bit_length() - 1)
    cand_count = math.comb(m, min_size)
    if cand_count > work_limit:
        raise WorkLimitExceeded(
            f"C({m},{min_size}) = {cand_count} candidate clusters exceed the "
            f"work limit {work_limit}",
            work_limit,
        )
    candidates = [
        sum(1 << i for i in tup) for tup in combinations(range(m), min_size)
    ]
    n, chosen, _ = _max_family(masks, candidates, n_cap, work_limit)
    if not want_certificate:
        return n
    family = [candidates[p] for p in chosen]
    return n, _certificate(cls, "clusters", family, min_size)


def vc_mod_ideal(
    cls: ConceptClass,
    ideal: PrincipalIdeal,
    *,
    want_certificate: bool = False,
    work_limit: int = DEFAULT_WORK_LIMIT,
):
    """Largest strongly shattered family of sets not below the ideal.

    Any such family shrinks pointwise: choosing one point of each cluster
    outside the negligible set keeps every carver constraint and keeps the
    cluster out of the ideal. The search therefore runs over singleton
    clusters drawn from the complement of the negligible set, which is
    exact, not a heuristic.
    """
    cls.require_nonempty()
    m = cls.domain.size
    if ideal.m != m:
        raise DomainMismatch("ideal lives on a different domain")
    allowed = cls.domain.full_mask & ~ideal.negligible.bits
    return _point_search(cls, allowed, "clusters", want_certificate, work_limit)


@dataclass(frozen=True)
class RemovalResult:
    """Outcome of vc_after_removal; heuristic marks a greedy upper bound."""

    vc: int
    removed: Concept
    mode: str
    heuristic: bool


def vc_after_removal(
    cls: ConceptClass,
    budget: int,
    mode: str = "exact",
    *,
    work_limit: int = DEFAULT_WORK_LIMIT,
) -> RemovalResult:
    """Minimize VC dimension by deleting at most `budget` points.

    Exact mode scans all C(m, budget) removal sets (restriction never
    increases VC, so smaller removals never beat the full budget) and
    refuses instances where that count passes the work limit. Greedy mode
    deletes one point at a time, each time the point whose removal drops
    the dimension most (ties to the least index); its result is an upper
    bound and is flagged heuristic.
    """
    cls.require_nonempty()
    m = cls.domain.size
    if not isinstance(budget, int) or not 0 <= budget <= m:
        raise ValueError(f"budget must lie in [0, {m}], got {budget!r}")
    if mode not in ("exact", "greedy"):
        raise ValueError(f"mode must be 'exact' or 'greedy', got {mode!r}")
    full = cls.domain.full_mask

    def vc_without(removed: int) -> int:
        return _point_search(cls, full & ~removed, "points", False, work_limit)

    if budget == 0:
        # no removal choice is made, so even greedy mode is exact here
        return RemovalResult(vc_without(0), Concept.empty(m), mode, False)
    if mode == "exact":
        if budget == m:
            return RemovalResult(0, Concept.full(m), "exact", False)
        count = math.comb(m, budget)
        if count > work_limit:
            raise WorkLimitExceeded(
                f"C({m},{budget}) = {count} removal sets exceed the work "
                f"limit {work_limit}",
                work_limit,
            )
        best_vc: int | None = None
        best_mask = 0
        for tup in combinations(range(m), budget):
            nmask = sum(1 << i for i in tup)
            v = vc_without(nmask)
            if best_vc is None or v < best_vc:
                best_vc = v
                best_mask = nmask
                if v == 0:
                    break
        return RemovalResult(best_vc, Concept(m, best_mask), "exact", False)
    # greedy: min over (vc, point) pairs breaks ties to the least index
    removed = 0
    for _ in range(budget):
        kept = [p for p in range(m) if not removed >> p & 1]
        _, p = min((vc_without(removed | 1 << p), p) for p in kept)
        removed |= 1 << p
    return RemovalResult(vc_without(removed), Concept(m, removed), "greedy", True)


def canonical_witness(cls: ConceptClass, carvers: dict[int, int]) -> ClusterFamily:
    """Carve the canonical cluster family out of a complete carver map.

    Cluster i is the set of points inside every carver of a pattern
    containing i and outside every other carver. The clusters come out
    pairwise disjoint by construction; if carver P and carver Q coincide
    for patterns differing at i, cluster i is empty and EmptyWitness is
    raised. When the carvers strongly shatter some family, they strongly
    shatter the carved one, and each carved cluster contains the original.
    """
    cls.require_nonempty()
    count = len(carvers)
    if count == 0 or count & (count - 1):
        raise ValueError("carver map must have exactly 2^n entries")
    n = count.bit_length() - 1
    if set(carvers) != set(range(count)):
        raise ValueError("carver patterns must be exactly 0..2^n-1")
    K = len(cls.concepts)
    for pat, k in carvers.items():
        if not isinstance(k, int) or not 0 <= k < K:
            raise ValueError(f"carver for pattern {pat} is not a concept index: {k!r}")
    m = cls.domain.size
    full = (1 << m) - 1
    clusters = []
    for i in range(n):
        a = full
        for pat in range(count):
            cbits = cls.concepts[carvers[pat]].bits
            a &= cbits if pat >> i & 1 else cbits ^ full
            if not a:
                break
        if not a:
            raise EmptyWitness(f"carvers intersect to nothing at cluster {i}")
        clusters.append(Concept(m, a))
    return ClusterFamily(cls.domain, tuple(clusters), min_size=1)


def sauer_bound(m: int, d: int) -> int:
    """Max number of distinct concepts a class of VC dimension d can have."""
    return sum(math.comb(m, k) for k in range(min(d, m) + 1))


def sauer_shelah_ok(cls: ConceptClass, d: int | None = None) -> bool:
    """Cross-check: distinct concept count within the size bound for VC = d."""
    if d is None:
        d = vc_dimension(cls)
    return len({c.bits for c in cls.concepts}) <= sauer_bound(cls.domain.size, d)
