"""Finite Boolean-algebra route to the ideal-relative VC dimension.

The subalgebra generated by the concepts and the negligible set N has as
atoms the classes of points agreeing on every generator. Each atom either
sits inside N or misses it entirely (N is a generator), and the atoms not
inside N are exactly the points of the quotient algebra's dual space at
finite scale. Computing classical VC dimension of the induced class on
those surviving atoms gives a second, structurally different way to get the
ideal-relative dimension; agreement of the two paths is the package's
central cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .domain import (
    ClusterFamily,
    Concept,
    ConceptClass,
    Domain,
    PrincipalIdeal,
    membership_matrix,
    pack_rows,
    restrict,
)
from .errors import DomainMismatch
from .shattering import (
    DEFAULT_WORK_LIMIT,
    canonical_witness,
    is_strongly_shattered,
    vc_dimension,
    vc_mod_ideal,
)


@dataclass(frozen=True)
class AtomPartition:
    """Atoms of the subalgebra generated by some concepts: the blocks of
    the point partition by membership sign vector, ordered by least point."""

    domain: Domain
    blocks: tuple[Concept, ...]

    def __post_init__(self):
        union = 0
        for k, b in enumerate(self.blocks):
            if b.m != self.domain.size:
                raise DomainMismatch(f"block {k} has width {b.m}")
            if b.bits == 0:
                raise ValueError(f"block {k} is empty")
            if union & b.bits:
                raise ValueError(f"block {k} overlaps an earlier block")
            union |= b.bits
        if union != self.domain.full_mask:
            raise ValueError("blocks do not cover the domain")

    def __len__(self) -> int:
        return len(self.blocks)


@dataclass(frozen=True)
class QuotientSpace:
    """Atoms that survive killing the ideal: those not inside N."""

    partition: AtomPartition
    negligible: Concept
    surviving: tuple[Concept, ...]


def generated_partition(
    domain: Domain, generators: Sequence[Concept]
) -> AtomPartition:
    """Group points by their membership column across the generators.

    Two points land in one block iff no generator separates them, which
    makes the blocks exactly the atoms of the generated subalgebra; every
    generator is a union of blocks. No generators: one block, the domain.
    """
    m = domain.size
    for g in generators:
        if g.m != m:
            raise DomainMismatch(f"generator width {g.m} does not match domain {m}")
    # entry i of `cols` is point i's membership column across the generators
    cols = pack_rows(membership_matrix([g.bits for g in generators], m).T)
    sig_to_pos: dict[int, int] = {}
    blocks_bits: list[int] = []
    for i, sig in enumerate(cols):
        pos = sig_to_pos.get(sig)
        if pos is None:
            sig_to_pos[sig] = len(blocks_bits)
            blocks_bits.append(1 << i)
        else:
            blocks_bits[pos] |= 1 << i
    return AtomPartition(domain, tuple(Concept(m, b) for b in blocks_bits))


def quotient_space(partition: AtomPartition, ideal: PrincipalIdeal) -> QuotientSpace:
    if ideal.m != partition.domain.size:
        raise DomainMismatch("ideal lives on a different domain")
    surviving = tuple(
        b for b in partition.blocks if not b.issubset(ideal.negligible)
    )
    return QuotientSpace(partition, ideal.negligible, surviving)


def induced_on_quotient(
    cls: ConceptClass, ideal: PrincipalIdeal
) -> tuple[ConceptClass | None, QuotientSpace]:
    """Concept class traced onto surviving atoms, one point per atom.

    Membership is well defined because each atom lies entirely inside or
    outside every generator, and the concepts are generators, so the class
    is the restriction to the least point of each atom. Returns
    (None, quotient) when nothing survives. Concept order (and duplicates)
    is preserved, so induced indices equal original indices.
    """
    cls.require_nonempty()
    if ideal.m != cls.domain.size:
        raise DomainMismatch("ideal lives on a different domain")
    part = generated_partition(
        cls.domain, list(cls.concepts) + [ideal.negligible]
    )
    q = quotient_space(part, ideal)
    if not q.surviving:
        return None, q
    traced = restrict(cls, [blk.indices()[0] for blk in q.surviving])
    return ConceptClass(Domain(len(q.surviving)), traced.concepts), q


def vc_on_stone(
    cls: ConceptClass,
    ideal: PrincipalIdeal,
    *,
    want_certificate: bool = False,
    work_limit: int = DEFAULT_WORK_LIMIT,
):
    """Classical VC dimension of the class induced on surviving atoms.

    With an empty negligible set this equals plain vc_dimension (the atoms
    just merge indistinguishable points); with N the whole domain it is 0.
    The certificate, when requested, lives on the quotient domain; its
    carver indices are valid indices into the original class.
    """
    induced, _q = induced_on_quotient(cls, ideal)
    if induced is None:
        return (0, None) if want_certificate else 0
    return vc_dimension(
        induced, want_certificate=want_certificate, work_limit=work_limit
    )


def lift_witness(
    cls: ConceptClass, ideal: PrincipalIdeal, carvers: dict[int, int]
) -> ClusterFamily:
    """Pull a quotient shattering witness back down to the domain.

    Carving the canonical family out of the carvers gives clusters that
    each contain their witness atom, so each comes out nonempty and not
    inside N whenever the carvers really shatter surviving atoms.
    """
    fam = canonical_witness(cls, carvers)
    for i, a in enumerate(fam.clusters):
        if ideal.contains(a):
            raise ValueError(
                f"lifted cluster {i} landed inside the negligible set; the "
                "carvers do not shatter surviving atoms"
            )
    return fam


@dataclass(frozen=True)
class StoneCheck:
    """Both computations of the ideal-relative dimension, side by side."""

    vc_mod: int
    vc_stone: int
    equal: bool
    witness: ClusterFamily
    lift_valid: bool


def stone_check(
    cls: ConceptClass,
    ideal: PrincipalIdeal,
    *,
    work_limit: int = DEFAULT_WORK_LIMIT,
) -> StoneCheck:
    """Run the family search and the quotient route, lift the quotient
    witness, and revalidate it. equal and lift_valid should always come
    back true; false means a bug, and callers treat it as a failed check."""
    vm = vc_mod_ideal(cls, ideal, work_limit=work_limit)
    vs, cert = vc_on_stone(
        cls, ideal, want_certificate=True, work_limit=work_limit
    )
    if cert is None:
        fam = ClusterFamily(cls.domain, (), 1)
    else:
        fam = lift_witness(cls, ideal, cert.carvers)
    ok, _ = is_strongly_shattered(cls, fam)
    return StoneCheck(vm, vs, vm == vs, fam, ok and fam.n == vs)
