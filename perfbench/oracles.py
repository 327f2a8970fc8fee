"""Reference answers the benchmark checks the library against.

Everything here is written independently of the library's search engines,
learners and samplers, so a defect there shows up as a disagreement rather
than being reproduced. The references run outside the timed region and are
memoised per instance by the callers.
"""

from __future__ import annotations

import math

import numpy as np


def shatters(masks: list[int], points: tuple[int, ...]) -> bool:
    """Whether the concept masks cut all 2^|points| patterns out of points."""
    sel = 0
    for p in points:
        sel |= 1 << p
    return len({b & sel for b in masks}) == 1 << len(points)


def brute_vc(masks: list[int], m: int) -> int:
    """Classical VC dimension by levelwise enumeration of point sets.

    A subset of a shattered set is shattered, so level k+1 only extends the
    shattered sets of level k.
    """
    masks = sorted(set(masks))
    level: list[tuple[int, ...]] = [()]
    d = 0
    while (1 << (d + 1)) <= len(masks):
        nxt = [
            s + (p,)
            for s in level
            for p in range((s[-1] + 1) if s else 0, m)
            if shatters(masks, s + (p,))
        ]
        if not nxt:
            break
        level = nxt
        d += 1
    return d


def restricted_masks(masks: list[int], keep: list[int]) -> list[int]:
    """Trace of every mask on the kept points, renumbered in order."""
    out = []
    for b in masks:
        r = 0
        for pos, p in enumerate(keep):
            if b >> p & 1:
                r |= 1 << pos
        out.append(r)
    return out


def distance_matrix(masks: list[int], weights: np.ndarray) -> np.ndarray:
    """Pairwise measure of symmetric differences, K x K."""
    mat = mask_matrix(masks, weights.size).astype(np.float64)
    # |a xor b| weighted: a.w + b.w - 2 (a*b).w
    mass = mat @ weights
    both = (mat * weights) @ mat.T
    return mass[:, None] + mass[None, :] - 2.0 * both


def max_clique(adj: list[int]) -> int:
    """Size of a maximum clique, Bron-Kerbosch with Tomita pivoting."""
    best = 0

    def expand(size: int, cand: int, excl: int) -> None:
        nonlocal best
        if not cand and not excl:
            best = max(best, size)
            return
        if size + cand.bit_count() <= best:
            return
        pivot_pool = cand | excl
        pivot = max(_bits(pivot_pool), key=lambda v: (cand & adj[v]).bit_count())
        for v in _bits(cand & ~adj[pivot]):
            expand(size + 1, cand & adj[v], excl & adj[v])
            cand &= ~(1 << v)
            excl |= 1 << v

    expand(0, (1 << len(adj)) - 1, 0)
    return best


def _bits(x: int):
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def packing_reference(masks: list[int], weights: np.ndarray, sep: float) -> int:
    dist = distance_matrix(masks, weights)
    k = len(masks)
    adj = [0] * k
    for i in range(k):
        for j in range(k):
            if i != j and dist[i, j] >= sep:
                adj[i] |= 1 << j
    return max_clique(adj)


def mask_matrix(masks: list[int], m: int) -> np.ndarray:
    return np.array([[(b >> i) & 1 for i in range(m)] for b in masks], dtype=bool)


def pac_reference(
    mat: np.ndarray,
    target: np.ndarray,
    weights: np.ndarray,
    n: int,
    kind: str,
    order: tuple[int, ...] | None,
    trials: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Mean learner error and its standard error, by vectorised simulation.

    Samples come from numpy's own categorical sampler; a concept is
    consistent when it disagrees with the target on no sampled point.
    """
    m = weights.size
    idx = rng.choice(m, size=(trials, n), p=weights)
    present = np.zeros((trials, m), dtype=np.float64)
    np.put_along_axis(present, idx, 1.0, axis=1)
    wrong = (mat != target[None, :]).astype(np.float64)
    consistent = present @ wrong.T == 0  # trials x K
    err_of = wrong @ weights
    if kind == "enumeration":
        perm = np.arange(mat.shape[0]) if order is None else np.asarray(order)
        pick = perm[np.argmax(consistent[:, perm], axis=1)]
        errs = err_of[pick]
    else:
        errs = np.where(consistent, err_of[None, :], -1.0).max(axis=1)
    return float(errs.mean()), float(errs.std() / math.sqrt(trials))


def ugc_reference(
    mat: np.ndarray,
    weights: np.ndarray,
    n: int,
    epsilon: float,
    trials: int,
    rng: np.random.Generator,
) -> float:
    """Fraction of samples whose sup deviation over the class reaches eps."""
    m = weights.size
    idx = rng.choice(m, size=(trials, n), p=weights)
    freq = np.zeros((trials, m))
    np.add.at(freq, (np.repeat(np.arange(trials), n), idx.ravel()), 1.0 / n)
    fmat = mat.astype(np.float64)
    dev = np.abs(freq @ fmat.T - (fmat @ weights)[None, :]).max(axis=1)
    return float(np.mean(dev >= epsilon))


def agrees(value: float, se: float, ref: float, ref_se: float) -> bool:
    """Two Monte Carlo estimates agree within six combined standard errors.

    The absolute slack keeps rare-event cells (a single nonzero trial) from
    failing on sampling noise alone.
    """
    return abs(value - ref) <= 6.0 * math.hypot(se, ref_se) + 0.005
