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
"""

import os
from pathlib import Path

from hypothesis import settings

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


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for line in RESULTS:
        terminalreporter.write_line(line)
