"""Discrete probability measures with recorded atom bounds.

A measure here is a weight vector over the domain. Non-atomicity has no
finite counterpart, so experiments quantify how far a measure is from it by
its largest atom; callers are expected to surface n * atom_bound next to any
sample-based estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .domain import Concept, require_int
from .errors import DomainMismatch

# |sum - 1| within SUM_EXACT_TOL is accepted as-is; within SUM_FIX_TOL the
# vector is renormalized; beyond that construction fails.
SUM_EXACT_TOL = 1e-12
SUM_FIX_TOL = 1e-9
# _draw_indices' guide table: the least power of two at least GUIDE_PER_POINT
# times (positive-weight points + 1) buckets, capped at GUIDE_MAX
GUIDE_PER_POINT = 64
GUIDE_MAX = 1 << 21


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
        object.__setattr__(self, "weights", tuple(w.tolist()))
        object.__setattr__(self, "_arr", w)
        object.__setattr__(self, "_cum", np.cumsum(w))
        # last positive-weight index: where a draw past a short cumsum lands
        object.__setattr__(self, "_last", int(np.flatnonzero(w)[-1]))
        object.__setattr__(self, "atom_bound", float(w.max()))

    @property
    def m(self) -> int:
        return len(self.weights)

    @cached_property
    def _guide(self) -> tuple[int, np.ndarray, np.ndarray]:
        """(G, table, pad): the guide table of _draw_indices, built on the
        first draw. G is a power of two, so u * G is exact and u lies in
        bucket b = floor(u * G), [b / G, (b + 1) / G). Over cum =
        _cum[:_last], which folds in the _last clamp, start[b] = #{i :
        cum[i] <= b / G} is every draw in a bucket with no cum value inside
        (b / G, (b + 1) / G); table[b] holds start[b] there and ~start[b]
        (negative) in the other, mixed buckets. Each positive-weight point
        makes at most one bucket mixed, so mixed buckets hold at most
        (positive points) / G of the mass. pad is cum with an inf stop."""
        cum = self._cum[: self._last]
        want = GUIDE_PER_POINT * (int(np.count_nonzero(self._arr)) + 1)
        G = min(1 << (want - 1).bit_length(), GUIDE_MAX)
        x = cum * G
        # start[b] = j on the buckets ceil(x[j - 1]) <= b < ceil(x[j])
        ends = np.minimum(np.ceil(x), G).astype(np.intp)
        sizes = np.diff(ends, prepend=0, append=G)
        table = np.repeat(np.arange(cum.size + 1, dtype=np.int32), sizes)
        below = np.floor(x)
        mixed = below[(below != x) & (x < G)].astype(np.intp)
        table[mixed] = ~table[mixed]
        return G, table, np.append(cum, np.inf)

    @cached_property
    def _heavy(self) -> tuple[np.ndarray, np.ndarray]:
        """(order, rank): the points by weight descending, ties to the
        smaller index, and each point's place in that order (int32), built
        on the first structured sup deviation that needs them."""
        order = np.argsort(-self._arr, kind="stable")
        rank = np.empty(self.m, dtype=np.int32)
        rank[order] = np.arange(self.m, dtype=np.int32)
        return order, rank

    def __getstate__(self):
        # _guide and _heavy are caches of the weights, rebuilt on first use
        return {k: v for k, v in vars(self).items() if k not in ("_guide", "_heavy")}

    def mass(self, indices: Iterable[int]) -> float:
        idx = list(indices)
        if not idx:
            return 0.0
        return float(self._arr[idx].sum())


def uniform(m: int) -> DiscreteMeasure:
    """Uniform measure on the whole domain."""
    m = require_int(m, "domain size")
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


def _draw_indices(
    measure: DiscreteMeasure, n: int | tuple[int, ...], rng: np.random.Generator
) -> np.ndarray:
    """Inverse-CDF sampling; the fast path shared by all simulators.

    n is a count or an array shape, filled in row-major order from one run
    of uniforms, so consecutive calls on one generator draw the same points
    however the run is cut into blocks. A draw is #{i : cum_i <= u},
    clamped to the last positive-weight point (u past a cumsum that ends
    short of 1 never lands on a zero-weight point): searchsorted's index,
    found through a guide table (Chen & Asau 1974) that knows each u's
    bucket exactly. One gather resolves every u in a bucket with no cumsum
    value inside; the rest take one step forward from their bucket's start
    and, if still short, go to searchsorted itself, so the result never
    depends on bucket occupancy.
    """
    if np.prod(n) == 0:
        return np.empty(n, dtype=np.int64)
    u = rng.random(n)
    G, table, pad = measure._guide
    flat = u.ravel()
    # float -> int32 -> intp casts faster than float -> intp, and take with
    # intp indices gathers faster than fancy indexing
    b = (flat * G).astype(np.int32).astype(np.intp)
    idx = table.take(b).astype(np.int64)
    mixed = np.flatnonzero(idx < 0)
    if mixed.size:
        v = flat[mixed]
        j = ~idx[mixed]
        j += pad[j] <= v
        left = np.flatnonzero(pad[j] <= v)
        if left.size:
            j[left] = np.searchsorted(pad[:-1], v[left], side="right")
        idx[mixed] = j
    return idx.reshape(u.shape)


def _row_counts(idx: np.ndarray, m: int) -> np.ndarray:
    """counts[r, x], as float64: how often point x occurs in row r of idx."""
    rows = idx.shape[0]
    flat = (idx + m * np.arange(rows)[:, None]).ravel()
    return np.bincount(flat, minlength=rows * m).reshape(rows, m).astype(np.float64)


def symdiff_distance(measure: DiscreteMeasure, a: Concept, b: Concept) -> float:
    """Measure of the symmetric difference; the learning pseudometric."""
    if a.m != measure.m or b.m != measure.m:
        raise DomainMismatch("concepts and measure must share a domain")
    return measure.mass((a ^ b).indices())
