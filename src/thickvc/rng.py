"""Deterministic random number generation.

All randomness in the package flows through `derive_rng`. A root seed plus a
path of labels (ints or short strings) is folded into a numpy SeedSequence,
which feeds a counter-based Philox bit generator. Philox is splittable and
insensitive to draw order across processes, which is what makes byte-identical
output under different --jobs settings cheap to guarantee: every grid cell
derives its own generator from (seed, *cell path) and never shares stream
state with its neighbors.
"""

from __future__ import annotations

import zlib

import numpy as np


def _fold(label: int | str) -> int:
    if isinstance(label, bool):
        raise TypeError("bool is not a valid rng path label")
    if isinstance(label, int):
        if label < 0:
            raise ValueError(f"negative rng path label: {label}")
        return label
    if isinstance(label, str):
        # crc32 is stable across platforms and python versions, unlike hash()
        return zlib.crc32(label.encode("utf-8"))
    raise TypeError(f"rng path labels must be int or str, got {type(label).__name__}")


def derive_rng(seed: int, *path: int | str) -> np.random.Generator:
    """Return a Generator keyed by (seed, *path).

    Distinct paths give statistically independent streams. The same
    (seed, path) always gives the same stream, on any machine.
    """
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ValueError(f"seed must be a nonnegative int, got {seed!r}")
    # the path length goes in front because SeedSequence absorbs trailing
    # zero words, which would alias (seed,) with (seed, 0)
    entropy = [seed, len(path)] + [_fold(p) for p in path]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))
