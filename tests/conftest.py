"""Shared test plumbing.

The acceptance tests append one PASS/FAIL line per criterion to RESULTS;
the terminal-summary hook prints them after the run so the lines survive
pytest's output capture.

cli_env() is the environment for every CLI subprocess: this checkout's
src/ comes first on PYTHONPATH, so a child started from any working
directory imports the same thickvc as the test process.

The "oracles" hypothesis profile is the fixed, derandomized profile of the
property tests in test_oracles.py: the same examples on every run, no
per-example deadline.

point_mass and sample_iid are measure helpers that only tests use; the
draw goldens and the sampler tests pin them.
"""

import os
from pathlib import Path

import numpy as np
from hypothesis import settings

from thickvc.domain import require_int
from thickvc.measures import DiscreteMeasure, _draw_indices
from thickvc.rng import derive_rng

RESULTS: list[str] = []

SRC = Path(__file__).resolve().parent.parent / "src"

settings.register_profile(
    "oracles", derandomize=True, deadline=None, max_examples=150, database=None
)


def cli_env() -> dict[str, str]:
    """os.environ with the absolute src/ first on PYTHONPATH and every
    inherited entry made absolute; relative entries would otherwise point
    nowhere once the child runs in another directory."""
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH", "").split(os.pathsep)
    parts = [str(SRC)] + [os.path.abspath(p) for p in inherited if p]
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


def point_mass(m: int, i: int) -> DiscreteMeasure:
    """All the mass on point i of a size-m domain."""
    require_int(m, "domain size")
    require_int(i, "index")
    if not 0 <= i < m:
        raise ValueError(f"index {i} out of range for size {m}")
    w = [0.0] * m
    w[i] = 1.0
    return DiscreteMeasure(tuple(w))


def sample_iid(
    measure: DiscreteMeasure, n: int, seed: int | np.random.Generator
) -> tuple[int, ...]:
    """Draw n i.i.d. points. Same (measure, n, seed) always gives the same
    sequence, from derive_rng(seed, "sample"); pass a Generator to use an
    externally derived stream."""
    require_int(n, "sample size")
    if n < 0:
        raise ValueError("sample size must be nonnegative")
    if not isinstance(seed, np.random.Generator):
        seed = derive_rng(seed, "sample")
    return tuple(_draw_indices(measure, n, seed).tolist())


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for line in RESULTS:
        terminalreporter.write_line(line)
