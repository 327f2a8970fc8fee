"""Deterministic concept-class generators.

Every generator fixes its enumeration order explicitly, because the
enumeration learner resolves ties by class index: reordering a class changes
which consistent hypothesis it picks. Orders are documented per generator
and covered by tests.
"""

from __future__ import annotations

import itertools

from .domain import Concept, ConceptClass, Domain, pack_rows
from .errors import WorkLimitExceeded
from .fincofin import FiniteCofiniteClass
from .rng import derive_rng

DENSE_CONCEPT_LIMIT = 2_000_000


def gen_finite_cofinite(
    m: int,
    t: int,
    *,
    backend: str = "auto",
) -> ConceptClass | FiniteCofiniteClass:
    """All subsets of size <= t plus all of co-size <= t on m points.

    Order: empty set, full set, then ascending set size with lexicographic
    ties (for co-small sets that works out to descending lexicographic order
    of their complements).

    The class has 2 + 2 * sum_{1<=k<=t} C(m, k) members, which explodes
    quickly; backend "dense" materializes a ConceptClass and refuses past
    DENSE_CONCEPT_LIMIT concepts, backend "structured" returns the
    parameter-backed FiniteCofiniteClass with identical enumeration
    semantics, and "auto" picks whichever fits. The learning and deviation
    code accepts both.
    """
    params = FiniteCofiniteClass(m, t)  # validates 0 <= t < m/2
    if backend not in ("auto", "dense", "structured"):
        raise ValueError(f"unknown backend {backend!r}")
    if backend == "structured":
        return params
    if params.size > DENSE_CONCEPT_LIMIT:
        if backend == "auto":
            return params
        raise WorkLimitExceeded(
            f"{params.size} concepts exceed the dense limit {DENSE_CONCEPT_LIMIT}",
            DENSE_CONCEPT_LIMIT,
        )
    dom = Domain(m)
    full = (1 << m) - 1
    concepts = [Concept(m, 0), Concept(m, full)]
    for k in range(1, t + 1):
        for tup in itertools.combinations(range(m), k):
            bits = 0
            for x in tup:
                bits |= 1 << x
            concepts.append(Concept(m, bits))
    for j in range(t, 0, -1):
        for tup in reversed(list(itertools.combinations(range(m), j))):
            bits = 0
            for x in tup:
                bits |= 1 << x
            concepts.append(Concept(m, full ^ bits))
    return ConceptClass(dom, tuple(concepts))


def gen_intervals(m: int) -> ConceptClass:
    """Empty set plus every discrete interval [i..j], ordered by (i, j)."""
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    dom = Domain(m)
    concepts = [Concept(m, 0)]
    for i in range(m):
        bits = 0
        for j in range(i, m):
            bits |= 1 << j
            concepts.append(Concept(m, bits))
    return ConceptClass(dom, tuple(concepts))


def gen_thresholds(m: int) -> ConceptClass:
    """The m+1 prefixes of the domain, ascending by size. A chain, VC 1."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    dom = Domain(m)
    concepts = [Concept(m, (1 << k) - 1) for k in range(m + 1)]
    return ConceptClass(dom, tuple(concepts))


def gen_power_set(r: int) -> ConceptClass:
    """Every subset of r points, in ascending bitmask order."""
    if not 1 <= r <= 20:
        raise ValueError(f"r must lie in 1..20, got {r}")
    dom = Domain(r)
    return ConceptClass(dom, tuple(Concept(r, b) for b in range(1 << r)))


def _blowup_bits(base_bits: int, cluster_size: int) -> int:
    """Replace each set bit i by the run of bits [i*cs, (i+1)*cs)."""
    run = (1 << cluster_size) - 1
    out = 0
    b = base_bits
    while b:
        low = b & -b
        i = low.bit_length() - 1
        b ^= low
        out |= run << (i * cluster_size)
    return out


def gen_cluster_decorated(
    base: ConceptClass, cluster_size: int, noise: int, seed: int
) -> ConceptClass:
    """Blow base points up to clusters, then graft on shattered noise points.

    Domain layout: base point i becomes the cluster [i*cluster_size,
    (i+1)*cluster_size), followed by `noise` extra points. The output lists
    the pure blowups in base order, then one concept per nonempty noise
    subset E in ascending bitmask order. A concept's cluster-region part is
    always the blowup of some base concept, so restricting to the cluster
    region recovers exactly the blown-up base as a trace class, and any
    cluster-sized witness must respect base structure. The noise subsets are
    all realized, so the noise points are shattered outright and the plain
    VC dimension jumps to at least `noise`.

    Which base concept backs a noise subset E is seeded per E when
    |E| < cluster_size; all larger E share one seeded anchor concept, so no
    cluster-sized set of noise points can be carved two ways against the
    cluster region. Deterministic given (base, cluster_size, noise, seed).
    """
    base.require_nonempty()
    if cluster_size < 1:
        raise ValueError(f"cluster_size must be >= 1, got {cluster_size}")
    if noise < 0:
        raise ValueError(f"noise must be >= 0, got {noise}")
    if noise > 24:
        raise ValueError(f"2^{noise} decorations is too many; keep noise <= 24")
    r = base.domain.size
    m = r * cluster_size + noise
    dom = Domain(m)
    offset = r * cluster_size
    concepts = [
        Concept(m, _blowup_bits(c.bits, cluster_size)) for c in base.concepts
    ]
    if noise:
        anchor = int(derive_rng(seed, "anchor").integers(0, len(base.concepts)))
        for emask in range(1, 1 << noise):
            if emask.bit_count() < cluster_size:
                idx = int(
                    derive_rng(seed, "decor", emask).integers(
                        0, len(base.concepts)
                    )
                )
            else:
                idx = anchor
            bits = _blowup_bits(base.concepts[idx].bits, cluster_size)
            concepts.append(Concept(m, bits | (emask << offset)))
    return ConceptClass(dom, tuple(concepts))


def gen_random(m: int, count: int, density: float, seed: int) -> ConceptClass:
    """`count` seeded Bernoulli(density) rows, deduplicated in first-seen
    order. Deterministic per (m, count, density, seed)."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must lie in [0, 1], got {density}")
    rng = derive_rng(seed, "gen-random")
    rows = rng.random((count, m)) < density
    concepts = [Concept(m, bits) for bits in pack_rows(rows)]
    return ConceptClass.create(Domain(m), concepts, dedup=True)
