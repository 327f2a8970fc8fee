"""Discrete probability measures with recorded atom bounds.

A measure here is a weight vector over the domain. Non-atomicity has no
finite counterpart, so experiments quantify how far a measure is from it by
its largest atom; callers are expected to surface n * atom_bound next to any
sample-based estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .domain import Concept
from .errors import DomainMismatch
from .rng import derive_rng

# |sum - 1| within SUM_EXACT_TOL is accepted as-is; within SUM_FIX_TOL the
# vector is renormalized; beyond that construction fails.
SUM_EXACT_TOL = 1e-12
SUM_FIX_TOL = 1e-9


@dataclass(frozen=True)
class DiscreteMeasure:
    """A probability vector over a size-m domain."""

    weights: tuple[float, ...]
    atom_bound: float = field(init=False, compare=False)
    _arr: np.ndarray = field(init=False, compare=False, repr=False)
    _cum: np.ndarray = field(init=False, compare=False, repr=False)
    _last: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a nonempty vector")
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite and nonnegative")
        s = float(w.sum())
        if abs(s - 1.0) > SUM_EXACT_TOL:
            if abs(s - 1.0) <= SUM_FIX_TOL:
                w = w / s
            else:
                raise ValueError(f"weights sum to {s!r}, too far from 1")
        object.__setattr__(self, "weights", tuple(float(x) for x in w))
        object.__setattr__(self, "_arr", w)
        object.__setattr__(self, "_cum", np.cumsum(w))
        # last positive-weight index: where a draw past a short cumsum lands
        object.__setattr__(self, "_last", int(np.flatnonzero(w)[-1]))
        object.__setattr__(self, "atom_bound", float(w.max()))

    @property
    def m(self) -> int:
        return len(self.weights)

    def weight(self, i: int) -> float:
        return self.weights[i]

    def mass(self, indices: Iterable[int]) -> float:
        idx = list(indices)
        if not idx:
            return 0.0
        return float(self._arr[idx].sum())

    def measure_of(self, c: Concept) -> float:
        if c.m != self.m:
            raise DomainMismatch("concept lives on a different domain")
        return self.mass(c.indices())


@dataclass(frozen=True)
class SampleSeq:
    """An ordered i.i.d. sample of point indices, with its seed when known."""

    points: tuple[int, ...]
    seed: int | None = None

    @property
    def n(self) -> int:
        return len(self.points)


def uniform(m: int) -> DiscreteMeasure:
    """Uniform measure on the whole domain."""
    if m < 1:
        raise ValueError("domain size must be positive")
    return DiscreteMeasure((1.0 / m,) * m)


def uniform_on(support: Concept) -> DiscreteMeasure:
    """Uniform measure on a nonempty point set, zero elsewhere."""
    k = support.size
    if k == 0:
        raise ValueError("support must be nonempty")
    w = [0.0] * support.m
    for i in support:
        w[i] = 1.0 / k
    return DiscreteMeasure(tuple(w))


def point_mass(m: int, i: int) -> DiscreteMeasure:
    if not 0 <= i < m:
        raise ValueError(f"index {i} out of range for size {m}")
    w = [0.0] * m
    w[i] = 1.0
    return DiscreteMeasure(tuple(w))


def mixture(
    measures: Sequence[DiscreteMeasure], coefficients: Sequence[float]
) -> DiscreteMeasure:
    """Convex combination of measures over one domain."""
    if len(measures) != len(coefficients) or not measures:
        raise ValueError("need equally many measures and coefficients, at least one")
    m = measures[0].m
    if any(mu.m != m for mu in measures):
        raise DomainMismatch("mixture components live on different domains")
    coef = np.asarray(coefficients, dtype=np.float64)
    if np.any(coef < 0):
        raise ValueError("coefficients must be nonnegative")
    s = float(coef.sum())
    if abs(s - 1.0) > SUM_EXACT_TOL:
        if abs(s - 1.0) <= SUM_FIX_TOL:
            coef = coef / s
        else:
            raise ValueError(f"coefficients sum to {s!r}, too far from 1")
    out = np.zeros(m)
    for c, mu in zip(coef, measures):
        out += c * mu._arr
    return DiscreteMeasure(tuple(float(x) for x in out))


def _draw_indices(measure: DiscreteMeasure, n: int, rng: np.random.Generator) -> np.ndarray:
    """Inverse-CDF sampling; the fast path shared by all simulators."""
    if n == 0:
        return np.empty(0, dtype=np.int64)
    u = rng.random(n)
    idx = np.searchsorted(measure._cum, u, side="right")
    # u past a cumsum that ends short of 1 gives m; send it to the last
    # positive-weight point, never to a zero-weight one
    return np.minimum(idx, measure._last).astype(np.int64)


def sample_iid(
    measure: DiscreteMeasure, n: int, seed: int | np.random.Generator
) -> SampleSeq:
    """Draw n i.i.d. points. Same (measure, n, seed) always gives the same
    sequence; pass a Generator to use an externally derived stream."""
    if n < 0:
        raise ValueError("sample size must be nonnegative")
    if isinstance(seed, np.random.Generator):
        rng, seed_rec = seed, None
    else:
        rng, seed_rec = derive_rng(seed, "sample"), seed
    idx = _draw_indices(measure, n, rng)
    return SampleSeq(tuple(int(i) for i in idx), seed_rec)


def symdiff_distance(measure: DiscreteMeasure, a: Concept, b: Concept) -> float:
    """Measure of the symmetric difference; the learning pseudometric."""
    if a.m != measure.m or b.m != measure.m:
        raise DomainMismatch("concepts and measure must share a domain")
    return measure.mass((a ^ b).indices())
