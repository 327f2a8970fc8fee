"""Ground types: domains, concepts, classes, ideals, cluster families.

A concept over a domain of size m is stored as an m-bit integer mask, bit i
set iff point i belongs to the set. Everything here is immutable and
hashable, so instances can be shared freely across threads and processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DomainMismatch, EmptyClassError

# Size of the pieces bulk array work is split into. Float products of 0/1
# matrices run as BLAS calls of at most this many multiply-adds: OpenBLAS
# keeps a GEMM on one thread up to 65536 x GEMM_MULTITHREAD_THRESHOLD (4),
# and on a busy host waking its worker threads costs more than the product
# saves. The family search builds its pair rows in blocks whose popcount
# temporaries hold about this many 64-bit words.
_GEMM_ENTRIES = 1 << 18


@dataclass(frozen=True)
class Domain:
    """A finite ground set of `size` indexed points, optionally labeled."""

    size: int
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        require_int(self.size, "domain size")
        if self.size < 1:
            raise ValueError(f"domain size must be a positive int, got {self.size!r}")
        object.__setattr__(self, "size", int(self.size))
        if self.labels is not None:
            labels = tuple(self.labels)
            object.__setattr__(self, "labels", labels)
            if len(labels) != self.size:
                raise ValueError(
                    f"got {len(labels)} labels for domain of size {self.size}"
                )
            if len(set(labels)) != len(labels):
                raise ValueError("domain labels must be pairwise distinct")

    def points(self) -> range:
        return range(self.size)

    @property
    def full_mask(self) -> int:
        return (1 << self.size) - 1


def require_int(value, what: str) -> None:
    """Refuse a bool or a non-int (numpy integers count as ints)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} {value!r} is not an int")


def bits_of(mask: int) -> Iterator[int]:
    """Yield the set bit positions of a mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def membership_matrix(masks: Sequence[int], m: int) -> np.ndarray:
    """Bool matrix whose row i holds the m low bits of masks[i]."""
    nbytes = (m + 7) // 8
    raw = b"".join(b.to_bytes(nbytes, "little") for b in masks)
    packed = np.frombuffer(raw, dtype=np.uint8).reshape(len(masks), nbytes)
    return np.unpackbits(packed, axis=1, bitorder="little")[:, :m].astype(bool)


def pack_rows(matrix: np.ndarray) -> list[int]:
    """Inverse of membership_matrix: each row packed little-endian into an
    int, column j as bit j. On a transposed membership matrix, entry p is
    the bitset of the masks that hold point p."""
    packed = np.packbits(matrix, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


@dataclass(frozen=True, order=False)
class Concept:
    """A subset of a size-m domain, as an m-bit membership mask."""

    m: int
    bits: int

    def __post_init__(self):
        # type() refuses bools too, without a call on this hot path
        if type(self.m) is not int or self.m < 1:
            raise ValueError(f"concept width must be a positive int, got {self.m!r}")
        if type(self.bits) is not int or self.bits < 0 or self.bits >> self.m:
            raise ValueError(f"mask {self.bits!r} out of range for width {self.m}")

    # constructors

    @classmethod
    def empty(cls, m: int) -> "Concept":
        return cls(m, 0)

    @classmethod
    def full(cls, m: int) -> "Concept":
        return cls(m, (1 << m) - 1)

    @classmethod
    def from_indices(cls, m: int, indices: Iterable[int]) -> "Concept":
        bits = 0
        for i in indices:
            if not 0 <= i < m:
                raise ValueError(f"point index {i} out of range for domain size {m}")
            bits |= 1 << i
        return cls(m, bits)

    @classmethod
    def from_string(cls, text: str) -> "Concept":
        """Parse a 0/1 membership string; position 0 is point 0."""
        if not text or any(ch not in "01" for ch in text):
            raise ValueError(f"membership string must be nonempty 0/1, got {text!r}")
        bits = 0
        for i, ch in enumerate(text):
            if ch == "1":
                bits |= 1 << i
        return cls(len(text), bits)

    # views

    def indices(self) -> tuple[int, ...]:
        return tuple(bits_of(self.bits))

    def to_string(self) -> str:
        return "".join("1" if self.bits >> i & 1 else "0" for i in range(self.m))

    @property
    def size(self) -> int:
        return self.bits.bit_count()

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __contains__(self, i: int) -> bool:
        return 0 <= i < self.m and bool(self.bits >> i & 1)

    def __iter__(self) -> Iterator[int]:
        return bits_of(self.bits)

    # set algebra; every binary op checks widths agree

    def _check(self, other: "Concept") -> None:
        if not isinstance(other, Concept):
            raise TypeError(f"expected Concept, got {type(other).__name__}")
        if other.m != self.m:
            raise DomainMismatch(f"concept widths differ: {self.m} vs {other.m}")

    def __and__(self, other: "Concept") -> "Concept":
        self._check(other)
        return Concept(self.m, self.bits & other.bits)

    def __or__(self, other: "Concept") -> "Concept":
        self._check(other)
        return Concept(self.m, self.bits | other.bits)

    def __xor__(self, other: "Concept") -> "Concept":
        self._check(other)
        return Concept(self.m, self.bits ^ other.bits)

    def __sub__(self, other: "Concept") -> "Concept":
        self._check(other)
        return Concept(self.m, self.bits & ~other.bits)

    def complement(self) -> "Concept":
        return Concept(self.m, self.bits ^ ((1 << self.m) - 1))

    def issubset(self, other: "Concept") -> bool:
        self._check(other)
        return self.bits & ~other.bits == 0

    def isdisjoint(self, other: "Concept") -> bool:
        self._check(other)
        return self.bits & other.bits == 0

    def __repr__(self) -> str:
        return f"Concept({self.m}, {{{','.join(map(str, self.indices()))}}})"


@dataclass(frozen=True)
class ConceptClass:
    """An ordered family of concepts over one domain.

    Order matters: it is the enumeration a least-consistent learner walks.
    `dedup` records whether duplicates were removed; when set, equal concepts
    may not appear twice.
    """

    domain: Domain
    concepts: tuple[Concept, ...]
    dedup: bool = False

    def __post_init__(self):
        concepts = tuple(self.concepts)
        object.__setattr__(self, "concepts", concepts)
        for k, c in enumerate(concepts):
            if not isinstance(c, Concept):
                raise TypeError(f"entry {k} is not a Concept")
            if c.m != self.domain.size:
                raise DomainMismatch(
                    f"concept {k} has width {c.m}, domain has size {self.domain.size}"
                )
        if self.dedup and len({c.bits for c in concepts}) != len(concepts):
            raise ValueError("dedup flag set but duplicate concepts present")

    @classmethod
    def create(
        cls,
        domain: Domain,
        concepts: Iterable[Concept],
        dedup: bool = False,
    ) -> "ConceptClass":
        """Build a class; with dedup=True drop repeats, keeping first occurrences."""
        concepts = tuple(concepts)
        if dedup:
            seen: set[int] = set()
            kept = []
            for c in concepts:
                if c.bits not in seen:
                    seen.add(c.bits)
                    kept.append(c)
            concepts = tuple(kept)
        return cls(domain, concepts, dedup)

    def __len__(self) -> int:
        return len(self.concepts)

    def __iter__(self) -> Iterator[Concept]:
        return iter(self.concepts)

    def __getitem__(self, k: int) -> Concept:
        return self.concepts[k]

    def masks(self) -> list[int]:
        return [c.bits for c in self.concepts]

    def require_nonempty(self) -> None:
        if not self.concepts:
            raise EmptyClassError("concept class has no concepts")


def restrict(cls: ConceptClass, keep: Concept | Iterable[int]) -> ConceptClass:
    """Trace a class onto a point subset, renumbering kept points in order.

    Point k of the new domain is the k-th smallest kept index. Duplicate
    traces are retained so enumeration order survives restriction. Points
    must be ints (bools are refused) inside the domain.
    """
    m = cls.domain.size
    if isinstance(keep, Concept):
        if keep.m != m:
            raise DomainMismatch("restriction set lives on a different domain")
        kept = list(bits_of(keep.bits))
    else:
        keep = list(keep)
        for i in keep:
            require_int(i, "restriction point")
        kept = sorted({int(i) for i in keep})
        if kept and not (0 <= kept[0] and kept[-1] < m):
            raise ValueError("restriction point out of range")
    new_m = len(kept)
    if new_m == 0:
        raise ValueError("cannot restrict to an empty point set")
    labels = None
    if cls.domain.labels is not None:
        labels = tuple(cls.domain.labels[i] for i in kept)
    new_domain = Domain(new_m, labels)
    traced = pack_rows(membership_matrix(cls.masks(), m)[:, kept])
    return ConceptClass(new_domain, tuple(Concept(new_m, b) for b in traced))


@dataclass(frozen=True)
class PrincipalIdeal:
    """The down-set of one negligible set N: contains A iff A is a subset of N.

    On a finite domain every ideal of subsets has this form (take N = union
    of the members), so nothing more general is needed.
    """

    negligible: Concept

    @property
    def m(self) -> int:
        return self.negligible.m

    def contains(self, a: Concept) -> bool:
        return a.issubset(self.negligible)


@dataclass(frozen=True)
class ClusterFamily:
    """Pairwise-disjoint point sets, each of size >= min_size.

    The clusters stand in for "large" sets when shattering is required to
    use only non-negligible material.
    """

    domain: Domain
    clusters: tuple[Concept, ...]
    min_size: int

    def __post_init__(self):
        clusters = tuple(self.clusters)
        object.__setattr__(self, "clusters", clusters)
        require_int(self.min_size, "min_size")
        if self.min_size < 1:
            raise ValueError(f"min_size must be a positive int, got {self.min_size!r}")
        object.__setattr__(self, "min_size", int(self.min_size))
        m = self.domain.size
        union = 0
        for k, a in enumerate(clusters):
            if not isinstance(a, Concept):
                raise TypeError(f"cluster {k} is not a Concept")
            if a.m != m:
                raise DomainMismatch(f"cluster {k} has width {a.m}, domain size {m}")
            if a.size < self.min_size:
                raise ValueError(
                    f"cluster {k} has {a.size} points, below min_size {self.min_size}"
                )
            if union & a.bits:
                raise ValueError(f"cluster {k} overlaps an earlier cluster")
            union |= a.bits
        object.__setattr__(self, "_union_bits", union)

    _union_bits: int = field(default=0, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return len(self.clusters)

    def union_mask(self) -> int:
        return self._union_bits


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validate_class: report-only, never raises."""

    ok: bool
    cardinality: int
    violations: tuple[str, ...] = ()
    warnings: tuple[str, ...] = ()


def validate_class(obj, concepts=None, *, dedup: bool | None = None) -> ValidationReport:
    """Check a concept class, or raw (domain, concepts, dedup) parts.

    The raw form exists so malformed material can be inspected without
    tripping the constructors. Duplicates are a violation when the dedup
    flag claims there are none, otherwise a warning.
    """
    if isinstance(obj, ConceptClass):
        domain, concepts, dedup = obj.domain, obj.concepts, obj.dedup
    else:
        domain = obj
        concepts = tuple(concepts or ())
        dedup = bool(dedup)
    violations: list[str] = []
    warnings: list[str] = []
    for k, c in enumerate(concepts):
        if not isinstance(c, Concept):
            violations.append(f"entry {k} is not a Concept")
        elif c.m != domain.size:
            violations.append(
                f"concept {k} has length {c.m}, domain size is {domain.size}"
            )
    seen: dict[int, int] = {}
    for k, c in enumerate(concepts):
        if isinstance(c, Concept) and c.m == domain.size:
            if c.bits in seen:
                msg = f"concept {k} duplicates concept {seen[c.bits]}"
                (violations if dedup else warnings).append(msg)
            else:
                seen[c.bits] = k
    if not concepts:
        warnings.append("class is empty")
    return ValidationReport(
        ok=not violations,
        cardinality=len(concepts),
        violations=tuple(violations),
        warnings=tuple(warnings),
    )
