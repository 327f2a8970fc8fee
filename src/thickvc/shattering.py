"""Shattering computations on finite concept classes.

One search, a carver-bitset depth-first search for strongly shattered
disjoint families of equal-size clusters of allowed points, answers every
shattering question: classical VC dimension (one-point clusters of the
whole domain), the thick variant (clusters of a minimum size), the
ideal-relative variant (points outside the negligible set) and exact and
greedy point-removal minimization (points off the removed ones). Carving a
canonical witness family out of a carver map closes it.

Concepts are m-bit masks throughout. Inside the family search a second kind
of mask appears: bitsets over concept INDICES, so "which concepts can still
serve pattern J" is one big int and every refinement is a single AND. The
point columns (`pack_rows` of the transposed membership matrix, entry p the
bitset of the concepts holding point p) build them: a cluster lies inside
the concepts in the AND of its points' columns and misses those outside
their OR.

A candidate whose (contains, disjoint) sides repeat an earlier one's is
dropped: swapped in for it, the earlier one keeps a family strongly
shattered and disjoint and makes it lex-smaller (argument at
`_max_family`), so on one-point clusters only the least point of each
block of equal membership columns is searched.

Pairs prune the search too: in a strongly shattered family of b+1
nonempty clusters every pattern has its own carver, so any two members
carve each of their four joint in/out patterns with at least 2^(b-1)
concepts. Popcounts of the word-packed contains/disjoint bitsets count
those patterns; each candidate's row holds the candidates that meet the
count with it, and a node's live set of candidates shrinks along the rows.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

from .domain import (
    _GEMM_ENTRIES,
    ClusterFamily,
    Concept,
    ConceptClass,
    PrincipalIdeal,
    bits_of,
    membership_matrix,
    pack_rows,
    require_int,
)
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
            m = self.witness.m
            masks = [1 << p for p in self.witness.indices()]
        elif self.kind == "clusters":
            m = self.witness.domain.size
            masks = [a.bits for a in self.witness.clusters]
        else:
            return False
        if m != cls.domain.size:
            return False
        union = sum(masks)
        unions = _pattern_unions(masks)
        return all(
            cls.concepts[k].bits & union == unions[pat]
            for pat, k in self.carvers.items()
        )


def vc_dimension(
    cls: ConceptClass,
    *,
    want_certificate: bool = False,
    work_limit: int = DEFAULT_WORK_LIMIT,
):
    """Largest size of a shattered point set, by exhaustive pruned search.

    A point set is shattered exactly when its singletons are strongly
    shattered, so this is the family search over one-point clusters of the
    whole domain. Candidates are taken in increasing point order, so the
    witness is the lex-least shattered set of maximal size.

    Returns the dimension, or (dimension, certificate) when asked.
    Raises EmptyClassError on an empty class, WorkLimitExceeded past the
    node budget.
    """
    cls.require_nonempty()
    full = cls.domain.full_mask
    return _search(cls, full, 1, "points", want_certificate, work_limit)


# family search internals


def _side_bitsets(cols: list[int], full: int, cluster_mask: int) -> tuple[int, int]:
    # bit k of `cb` set iff cluster inside concept k; of `db` iff disjoint from it
    cb = full
    hit = 0
    for p in bits_of(cluster_mask):
        cb &= cols[p]
        hit |= cols[p]
    return cb, full & ~hit


def _pattern_unions(masks: list[int]) -> list[int]:
    """Entry P is the union of the masks whose bits are set in P."""
    unions = [0]
    for a in masks:
        unions += [u | a for u in unions]
    return unions


def _family_carvers(cls: ConceptClass, family_masks: list[int]) -> dict[int, int] | None:
    """Least-index carver per pattern, or None if some pattern has none.

    The clusters are disjoint and nonempty, so a concept carves pattern P
    exactly when its trace on their union is the union of P's clusters.
    """
    union = sum(family_masks)
    traces = [c.bits & union for c in cls.concepts]
    # later entries overwrite earlier ones, so each trace keeps its least index
    least = dict(zip(reversed(traces), range(len(traces) - 1, -1, -1)))
    try:
        return {pat: least[u] for pat, u in enumerate(_pattern_unions(family_masks))}
    except KeyError:
        return None


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

    Each node also carries `live`, a bitset of the later candidate
    positions that can still join its family: the parent's live set past
    the candidate, AND the candidate's row. In a family of best+1 clusters
    each of the 2^(best+1) patterns needs a carver of its own (patterns
    that differ at cluster i disagree on the nonempty cluster i), so any
    two members carve each of their four joint patterns (in/in, in/out,
    out/in, out/out) with at least 2^(best-1) concepts. Row j holds the
    candidates that meet that count with j; rows are built lazily, and
    again when the count rises, a block at a time from popcounts of the
    ANDed 64-bit words of the side bitsets. A block holds as many rows,
    and its popcounts take as many words at a time, as keep their
    temporaries within _GEMM_ENTRIES words (at least one row and word).
    Overlapping candidates never meet the count (no concept holds one
    while missing the other), so rows keep families disjoint. Singletons
    get rows of every candidate: on point searches the pair counts cost
    more time than they save.

    Cuts drop branches that cannot beat the best depth found:
    - early stop: once the best depth reaches n_cap the whole search ends;
    - pair cut: a child at depth d+1 needs best-d more members, all in its
      live set, so a candidate whose child set holds fewer is skipped, and
      a node with at most best-d live candidates left stops;
    - count cut: a child at depth d+1 must split best-d more times to go
      deeper than best, and the two sides of a split are disjoint and
      nonempty, so each of its bitsets needs at least 2^(best-d) concepts
      (the counting step of Sauer-Shelah).
    The best family only changes on a strictly deeper one, and the cuts
    drop only branches that cannot give one, so the search meets the same
    lex-least witness as the uncut DFS. Nodes count split tests (live
    candidates tried that pass the pair cut); the cuts use fewer.

    Candidates are nonempty point masks. A dead one (no concept contains
    it, or none misses it) is dropped, and so is Y when its sides repeat a
    kept X's. Were Y in a strongly shattered family F, each other member Z
    would miss X (the carver of "Z in, Y out" holds Z and misses Y, hence
    X) and X would not be in F (no concept holds X and misses Y), so
    F - Y + X, carved by the same concepts, would be a lex-smaller family
    of the same size. The lex-least family of each size never holds Y, so
    the search meets the same witnesses in no more nodes. Returns (n,
    chosen candidate positions, nodes used).
    """
    K = len(concept_masks)
    full = (1 << K) - 1
    if not full:
        return 0, (), 0
    width = max(map(int.bit_length, concept_masks + candidates))
    cols = pack_rows(membership_matrix(concept_masks, width).T)
    contains: list[int] = []
    disjoint: list[int] = []
    keep: list[int] = []
    seen: set[tuple[int, int]] = set()
    for pos, a in enumerate(candidates):
        cb, db = _side_bitsets(cols, full, a)
        if cb and db and (cb, db) not in seen:
            seen.add((cb, db))
            keep.append(pos)
            contains.append(cb)
            disjoint.append(db)
    n_keep = len(keep)
    paired = sum(map(int.bit_count, candidates)) > len(candidates)  # not all singletons
    rows: list[int | None] = [None] * n_keep
    words = (K + 63) // 64
    packed = None
    best_depth = 0
    best_chosen: tuple[int, ...] = ()
    nodes = 0

    def build_rows(j: int) -> int:
        """Rows of j's block at the current best depth; returns row j."""
        nonlocal packed
        least = 1 << max(best_depth - 1, 0)
        if packed is None:  # [word, candidate, side]: contains 0, disjoint 1
            sides = chain(*zip(contains, disjoint))
            packed = np.frombuffer(
                b"".join(x.to_bytes(8 * words, "little") for x in sides), np.uint64
            ).reshape(n_keep, 2, words).transpose(2, 0, 1).copy()
        block = max(1, _GEMM_ENTRIES // (4 * words * n_keep))
        a = j - j % block
        b = min(a + block, n_keep)
        step = max(1, _GEMM_ENTRIES // (4 * (b - a) * (n_keep - a)))
        # joint counts [row, side, candidate, side] against candidates a..
        # only: a live set never holds candidates before the one being tried
        q = sum(
            np.bitwise_count(
                packed[w : w + step, a:b, :, None, None]
                & packed[w : w + step, None, None, a:]
            ).sum(axis=0, dtype=np.uint32)  # counts <= K < 2^32
            for w in range(0, words, step)
        )
        fewest = np.minimum(
            np.minimum(q[:, 0, :, 0], q[:, 0, :, 1]),
            np.minimum(q[:, 1, :, 0], q[:, 1, :, 1]),
        )
        for i, row in enumerate(pack_rows(fewest >= least), a):
            rows[i] = row << a
        return rows[j]

    def rec(live: int, left: int, chosen: tuple[int, ...], pats: list[int]) -> None:
        nonlocal best_depth, best_chosen, nodes, rows
        depth = len(chosen)
        if depth > best_depth:
            best_depth = depth
            best_chosen = chosen
            if depth >= 2:  # the pair count 2^(best-1) rose (it is 1 up to here)
                rows = [None] * n_keep
        if depth >= n_cap:
            return
        gap = best_depth - depth
        need = 1 << gap
        while live:
            if left <= gap:
                return  # too few live candidates left to go deeper than best
            low = live & -live
            live ^= low
            left -= 1
            j = low.bit_length() - 1
            if paired:
                row = rows[j]
                if row is None:
                    row = build_rows(j)
                child = live & row
                size = child.bit_count()
                if size < gap:
                    continue
            else:  # singletons: the row is every later candidate
                child, size = live, left
            nodes += 1
            if nodes > work_limit:
                raise WorkLimitExceeded(
                    f"family search passed {work_limit} nodes", work_limit
                )
            db = disjoint[j]
            cb = contains[j]
            lo: list[int] = []
            hi: list[int] = []
            for bs in pats:
                x = bs & db
                if x.bit_count() < need:
                    break
                y = bs & cb
                if y.bit_count() < need:
                    break
                lo.append(x)
                hi.append(y)
            else:
                rec(child, size, chosen + (keep[j],), lo + hi)
                if best_depth >= n_cap:
                    return  # nothing can beat a family of the cap's size
                gap = best_depth - depth
                need = 1 << gap

    rec((1 << n_keep) - 1, n_keep, (), [full])
    del rec  # rec closes over itself: unbound, the bitsets go with this call
    return best_depth, best_chosen, nodes


def _search(
    cls: ConceptClass,
    allowed: int,
    size: int,
    kind: str,
    want_certificate: bool,
    work_limit: int,
):
    """Largest strongly shattered disjoint family of `size`-point clusters
    of allowed points: n, or (n, certificate of `kind`), searched on the
    traces on those points over their size-subsets in combinations order.
    Disjointness caps n at |allowed| // size, and the 2^n distinct carvers
    (patterns differing at cluster i disagree on it) cap it at
    bit_length(#traces) - 1. Cluster searches refuse when their candidate
    count alone passes the work limit.
    """
    points = list(bits_of(allowed))
    if size > 1:
        count = math.comb(len(points), size)
        if count > work_limit:
            raise WorkLimitExceeded(
                f"C({len(points)},{size}) = {count} candidate clusters exceed the "
                f"work limit {work_limit}",
                work_limit,
            )
    traces = sorted({c.bits & allowed for c in cls.concepts})
    candidates = [sum(1 << p for p in t) for t in combinations(points, size)]
    n_cap = min(len(points) // size, len(traces).bit_length() - 1)
    n, chosen, _ = _max_family(traces, candidates, n_cap, work_limit)
    if not want_certificate:
        return n
    # a "points" witness is the union of the family, a "clusters" one the family
    family = [candidates[p] for p in chosen]
    m = cls.domain.size
    if kind == "points":
        witness = Concept(m, sum(family))
    else:
        clusters = tuple(Concept(m, a) for a in family)
        witness = ClusterFamily(cls.domain, clusters, size)
    return n, ShatterCertificate(kind, witness, _family_carvers(cls, family))


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
    carvers = _family_carvers(cls, [a.bits for a in family.clusters])
    return carvers is not None, carvers


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
    (unit-tested as a lemma). min_size = 1 is the point search that
    vc_dimension runs, its witness given as one-point clusters.
    """
    cls.require_nonempty()
    require_int(min_size, "min_size")
    if min_size < 1:
        raise ValueError(f"min_size must be a positive int, got {min_size!r}")
    m = cls.domain.size
    if min_size > m:
        warnings.warn(
            f"min_size {min_size} exceeds domain size {m}; no admissible cluster",
            stacklevel=2,
        )
        return (0, None) if want_certificate else 0
    full = cls.domain.full_mask
    return _search(cls, full, int(min_size), "clusters", want_certificate, work_limit)


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
    if ideal.m != cls.domain.size:
        raise DomainMismatch("ideal lives on a different domain")
    allowed = cls.domain.full_mask & ~ideal.negligible.bits
    return _search(cls, allowed, 1, "clusters", want_certificate, work_limit)


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
    require_int(budget, "budget")
    if not 0 <= budget <= m:
        raise ValueError(f"budget must lie in [0, {m}], got {budget!r}")
    if mode not in ("exact", "greedy"):
        raise ValueError(f"mode must be 'exact' or 'greedy', got {mode!r}")
    full = cls.domain.full_mask

    def vc_without(removed: int) -> int:
        return _search(cls, full & ~removed, 1, "points", False, work_limit)

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
