"""Pinned simulation streams.

Every simulated value comes from inverse-CDF draws on a derived stream. The
other tests check how the draws are used and that they are reproducible;
these pin the draws themselves, and the stdout and CSV files of the
simulation CLI, by sha256 digest. A sampler that moves one index at an edge, or a block size
that changes which uniforms a trial gets, fails here.

A digest changes only with a declared stream change; when one is made,
recompute the digests with this module's helpers and say so in CHANGES.md.
"""

import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from conftest import cli_env, point_mass
from thickvc import cli
from thickvc import (
    DiscreteMeasure,
    FCSet,
    FiniteCofiniteClass,
    LearnerSpec,
    derive_rng,
    empirical_sup_deviation,
    gen_intervals,
    pac_error_estimate,
    uniform,
)
from thickvc.measures import _draw_indices


def _skewed():
    w = np.arange(1.0, 13.0)
    w[[2, 7]] = 0.0
    return DiscreteMeasure(tuple(w / w.sum()))


def _random60():
    rng = derive_rng(60, "golden-measure")
    w = rng.random(60)
    w[rng.random(60) < 0.2] = 0.0
    return DiscreteMeasure(tuple(w / w.sum()))


def _cluster():
    # 999 atoms of 1e-12, then all the rest of the mass on the last point
    return DiscreteMeasure((1e-12,) * 999 + (1.0 - 999e-12,))


DRAW_CASES = {
    "uniform1000": (lambda: uniform(1000), (3, 5000)),
    "skewed12": (_skewed, (40, 33)),
    "random60": (_random60, (25, 200)),
    "cluster1000": (_cluster, (200, 400)),
    "short_cumsum": (lambda: DiscreteMeasure((1 / 7,) * 7 + (0.0,) * 3), (1000,)),
    "leading_zeros": (lambda: DiscreteMeasure((0.0, 0.0, 0.25, 0.0, 0.75)), (300,)),
    "point_first": (lambda: point_mass(6, 0), (10, 10)),
    "point_last": (lambda: point_mass(6, 5), (10, 10)),
}

DRAW_GOLDENS = {
    "uniform1000": "c03c3304035ea4871451992192e2863c04a6c7e04b5d4232343042113813dfce",
    "skewed12": "1ddc45c81624dc144d0520e656a6d63fc1dacc862209b309bbe1b17a525fccb8",
    "random60": "932b9fe8d6cced01f2957bb583307cd6b31f245513032a56f7d9d3eae266c1b1",
    "cluster1000": "51df58d580d3cc7e1fb4c8061e382d346d8b3d5d71c1aa8d68eb838b73d8d6f2",
    "short_cumsum": "45f926aab0ca226dbe097342301e986427e0b6cf46696d92653f28d2da28d9aa",
    "leading_zeros": "bea3869deb92eee58f77af185ea5fc6c2ca590cf6ed966d3e58f784496c06a37",
    "point_first": "67042dfda5683aead81b6055d19c4dba238341f9dd82f49c0e7cc0c19c5f10d1",
    "point_last": "20ebbc6a43af1bcae7d4d6433c665dd5535421371f9c840e697f695d26a1929d",
}


def draw_digest(name: str) -> str:
    make, shape = DRAW_CASES[name]
    seed = sorted(DRAW_CASES).index(name)
    idx = _draw_indices(make(), shape, derive_rng(seed, "golden", name))
    assert idx.shape == shape and idx.dtype == np.int64
    return hashlib.sha256(idx.tobytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(DRAW_CASES))
def test_draw_indices_stream_is_pinned(name):
    assert draw_digest(name) == DRAW_GOLDENS[name]


def _floats(values) -> bytes:
    return ",".join(float(x).hex() for x in values).encode()


def cell_digest() -> str:
    """Trial values of pac and ugc cells on dense and structured classes,
    at sizes where a block of trials spans several draw chunks."""
    iv = gen_intervals(20)
    sc = FiniteCofiniteClass(200, 3)
    tgt = FCSet(200, "cofinite", frozenset({5, 9}))
    h = hashlib.sha256()
    for spec in (LearnerSpec("enumeration"), LearnerSpec("adversarial")):
        for n in (4, 16):
            rep = pac_error_estimate(iv, spec, 150, uniform(20), n, 300, 11)
            h.update(_floats(rep.errors))
        rep = pac_error_estimate(sc, spec, tgt, uniform(200), 15, 300, 12)
        h.update(_floats(rep.errors))
    for cls, mu in ((iv, uniform(20)), (sc, _cluster_on(200))):
        for n in (10, 80):
            rep = empirical_sup_deviation(cls, mu, n, 400, 13, seed_path=(n,))
            h.update(_floats(rep.sups))
    return h.hexdigest()


def _cluster_on(m: int) -> DiscreteMeasure:
    w = np.full(m, 1e-9)
    w[m // 2 :] = 1.0
    return DiscreteMeasure(tuple(w / w.sum()))


CELL_GOLDEN = "10a0e552b5db2399ab88a68ac93d4bf87b43c37f114444f90bcd2f9ccf484733"


def test_simulation_cells_are_pinned():
    assert cell_digest() == CELL_GOLDEN


# the criterion-9 configs and the dense pac config of the cli benchmark
CLI_CASES = {
    "pac-structured": ("pac-sim", "31415", {
        "class": {"generator": {"family": "finite-cofinite", "m": 200,
                                "t": 3, "backend": "structured"}},
        "learner": {"kind": "enumeration"},
        "measure": {"type": "uniform"},
        "targets": [{"kind": "cofinite", "core": [5, 9]}, {"index": 0}],
        "n_grid": [15, 45],
        "trials": 200,
        "epsilons": [0.1],
    }),
    "ugc-power-set": ("ugc-sim", "27182", {
        "class": {"generator": {"family": "power-set", "r": 3}},
        "measures": [{"type": "uniform"},
                     {"type": "explicit", "weights": [0.5, 0.25, 0.25]}],
        "n_grid": [10, 80],
        "epsilon": 0.25,
        "trials": 200,
    }),
    "pac-intervals": ("pac-sim", "5", {
        "class": {"generator": {"family": "intervals", "m": 20}},
        "measure": {"type": "uniform"},
        "learner": {"kind": "enumeration"},
        "targets": [{"index": 3}, {"index": 150}],
        "n_grid": [4, 16],
        "trials": 300,
    }),
}

CLI_GOLDENS = {
    "pac-structured": "d9652039df1eae13e489fedb34e5caf603b04d2f8a676589549de3493b10ad83",
    "ugc-power-set": "39e4611b643bff4589976fbe9bba38894618709cf02487a5d816820ec0d6c08a",
    "pac-intervals": "31c1a744282ef2a30d1b9ae8363a9662db4dc69479616fd60fa0316e3bfc6955",
}


def cli_digest(name: str, tmp_path, jobs: str = "1") -> str:
    command, seed, config = CLI_CASES[name]
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps(config))
    r = subprocess.run(
        [sys.executable, "-m", "thickvc", command, "--config", str(cfg),
         "--seed", seed, "--jobs", jobs],
        capture_output=True, text=True, env=cli_env(), timeout=600,
    )
    assert r.returncode == 0, r.stderr
    return hashlib.sha256(r.stdout.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_simulation_cli_stdout_is_pinned(name, tmp_path):
    assert cli_digest(name, tmp_path) == CLI_GOLDENS[name]


CSV_GOLDENS = {
    "pac-structured": "dab5e00865f9fa58bfdc6cfa3978b48641f2685699eaf833578dfe7abb053d33",
    "ugc-power-set": "8beaa4f18d6e216677e740684aba126de1ff5a8a012ca39ab8fc49c85f4a8141",
    "pac-intervals": "f367d6b9d559c3be5422c3ead565b656260df54e922485e6e4ea132bf80b4fad",
}


def csv_digest(name: str, tmp_path) -> str:
    """sha256 of the --csv file of a CLI_CASES run, made in process."""
    command, seed, config = CLI_CASES[name]
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / f"{name}.csv"
    argv = [command, "--config", str(cfg), "--seed", seed, "--csv", str(out)]
    assert cli.main(argv) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_simulation_cli_csv_is_pinned(name, tmp_path):
    assert csv_digest(name, tmp_path) == CSV_GOLDENS[name]
