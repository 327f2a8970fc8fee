"""End-to-end command-line checks through real subprocesses."""

import json
import subprocess
import sys

import pytest
from conftest import cli_env

import thickvc
from thickvc import (
    ClusterFamily,
    Concept,
    gen_intervals,
    gen_power_set,
    is_strongly_shattered,
)
from thickvc.formats import read_class, save_class, save_point_set


def run_cli(*argv, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "thickvc", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=cli_env(),
        timeout=600,
    )


def records(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line]


def test_cli_child_imports_this_checkout(tmp_path):
    # a child in an unrelated working directory still imports this src/
    r = subprocess.run(
        [sys.executable, "-c", "import thickvc; print(thickvc.__file__)"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=cli_env(),
        timeout=60,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == thickvc.__file__


def test_version():
    r = run_cli("--version")
    assert r.returncode == 0
    assert r.stdout.strip().startswith("thickvc ")


def test_gen_and_vc_round_trip(tmp_path):
    out = tmp_path / "iv.class"
    r = run_cli("gen", "intervals", "--m", "6", "--out", str(out))
    assert r.returncode == 0, r.stderr
    (rec,) = records(r.stdout)
    assert rec["record"] == "gen" and rec["concepts"] == 22
    assert "seed" not in rec  # deterministic family: no seed to echo
    r2 = run_cli("vc", "--class", str(out))
    assert r2.returncode == 0, r2.stderr
    (rec2,) = records(r2.stdout)
    assert rec2["record"] == "vc" and rec2["vc"] == 2
    assert rec2["tool"] == "thickvc" and "version" in rec2
    assert rec2["m"] == 6 and rec2["concepts"] == 22


def test_gen_random_echoes_seed(tmp_path):
    out = tmp_path / "r.class"
    r = run_cli(
        "gen", "random", "--m", "5", "--count", "6", "--density", "0.5",
        "--seed", "99", "--out", str(out),
    )
    assert r.returncode == 0, r.stderr
    (rec,) = records(r.stdout)
    assert rec["seed"] == 99
    assert read_class(str(out)).domain.size == 5


def test_vc_certificate_revalidates(tmp_path):
    out = tmp_path / "ps.class"
    save_class(gen_power_set(3), str(out))
    r = run_cli("vc", "--class", str(out), "--certificate")
    assert r.returncode == 0, r.stderr
    (rec,) = records(r.stdout)
    assert rec["vc"] == 3 and rec["witness"] == [0, 1, 2]
    assert len(rec["carvers"]) == 8
    cls = read_class(str(out))
    fam = ClusterFamily(
        cls.domain,
        tuple(Concept.from_indices(3, [p]) for p in rec["witness"]),
        min_size=1,
    )
    ok, _ = is_strongly_shattered(cls, fam)
    assert ok


def test_vc_thick_and_removal(tmp_path):
    out = tmp_path / "ps.class"
    save_class(gen_power_set(4), str(out))
    r = run_cli("vc-thick", "--class", str(out), "--min-size", "2")
    assert r.returncode == 0
    (rec,) = records(r.stdout)
    assert rec["vc_thick"] == 2 and rec["min_size"] == 2
    r2 = run_cli("vc-removal", "--class", str(out), "--budget", "1")
    (rec2,) = records(r2.stdout)
    assert rec2["vc"] == 3 and rec2["mode"] == "exact" and not rec2["heuristic"]
    # --min-size has no default: omitting it is a usage error
    r3 = run_cli("vc-thick", "--class", str(out))
    assert r3.returncode == 2


def test_vc_mod_and_stone_check(tmp_path):
    cfile = tmp_path / "iv.class"
    nfile = tmp_path / "neg.points"
    save_class(gen_intervals(7), str(cfile))
    save_point_set(Concept.from_indices(7, [2, 3]), str(nfile))
    r = run_cli(
        "vc-mod", "--class", str(cfile), "--negligible", str(nfile),
        "--certificate",
    )
    assert r.returncode == 0, r.stderr
    (rec,) = records(r.stdout)
    assert rec["vc_mod"] == 2 and rec["negligible_size"] == 2
    assert all(len(c) == 1 for c in rec["clusters"])
    r2 = run_cli("stone-check", "--class", str(cfile), "--negligible", str(nfile))
    assert r2.returncode == 0
    (rec2,) = records(r2.stdout)
    assert rec2["ok"] and rec2["vc_mod"] == rec2["vc_stone"] == 2


def test_bound_golden():
    r = run_cli("bound", "--epsilon", "0.1", "--delta", "0.05", "--d", "2")
    assert r.returncode == 0
    (rec,) = records(r.stdout)
    assert rec["n"] == 228315


def test_packing_pattern_mode():
    r = run_cli("packing", "--d", "10", "--epsilon", "0.1")
    assert r.returncode == 0
    (rec,) = records(r.stdout)
    assert rec["count"] == 512 and rec["maximal"]
    assert rec["epsilon"] == "1/10" and rec["separation"] == "1/5"
    assert rec["combinatorial"] == "128/7"
    assert rec["count"] >= rec["combinatorial_float"] >= rec["chernoff_okamoto"]


def test_packing_class_mode_and_mutual_exclusion(tmp_path):
    out = tmp_path / "ps.class"
    save_class(gen_power_set(4), str(out))
    r = run_cli("packing", "--class", str(out), "--separation", "0.5")
    assert r.returncode == 0
    (rec,) = records(r.stdout)
    assert rec["exact"] and rec["count"] == 8  # distance-2 code on 4 bits
    g = run_cli(
        "packing", "--class", str(out), "--separation", "0.5",
        "--mode", "greedy", "--witness",
    )
    (grec,) = records(g.stdout)
    assert not grec["exact"] and grec["count"] <= rec["count"]
    assert len(grec["witness"]) == grec["count"]
    # mixing the two modes is a usage error
    bad = run_cli("packing", "--d", "5", "--separation", "0.5")
    assert bad.returncode == 2
    none = run_cli("packing")
    assert none.returncode == 2


def test_exit_codes(tmp_path):
    # 2: missing input file
    assert run_cli("vc", "--class", str(tmp_path / "nope.class")).returncode == 2
    # 2: malformed class file
    bad = tmp_path / "bad.class"
    bad.write_text("not json\n0101\n")
    assert run_cli("vc", "--class", str(bad)).returncode == 2
    # 3: work limit
    big = tmp_path / "big.class"
    save_class(gen_power_set(8), str(big))
    r = run_cli("vc", "--class", str(big), "--work-limit", "10")
    assert r.returncode == 3
    # 2: malformed simulation config
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{")
    assert run_cli("pac-sim", "--config", str(cfg), "--seed", "1").returncode == 2


def test_pac_sim_no_hypothesis_exit(tmp_path):
    cfg = tmp_path / "pac.json"
    cfg.write_text(json.dumps({
        "class": {"generator": {"family": "thresholds", "m": 5}},
        "measure": {"type": "uniform"},
        "targets": [{"points": [4]}],  # not a prefix: unrealizable
        "n_grid": [12],
        "trials": 20,
    }))
    r = run_cli("pac-sim", "--config", str(cfg), "--seed", "3")
    assert r.returncode == 4
    # the full-error policy turns the same run into a clean exit
    cfg.write_text(json.dumps({
        "class": {"generator": {"family": "thresholds", "m": 5}},
        "measure": {"type": "uniform"},
        "targets": [{"points": [4]}],
        "n_grid": [12],
        "trials": 20,
        "no_hypothesis": "full-error",
    }))
    r2 = run_cli("pac-sim", "--config", str(cfg), "--seed", "3")
    assert r2.returncode == 0
    (rec,) = records(r2.stdout)
    assert rec["no_hypothesis_count"] > 0


PAC_CFG = {
    "class": {
        "generator": {
            "family": "finite-cofinite", "m": 30, "t": 2,
            "backend": "structured",
        }
    },
    "learner": {"kind": "enumeration"},
    "measure": {"type": "uniform"},
    "targets": [{"kind": "cofinite", "core": [5, 9]}, {"index": 0}],
    "n_grid": [10, 40],
    "trials": 100,
    "epsilons": [0.1, 0.2],
}


def test_pac_sim_deterministic_across_jobs(tmp_path):
    cfg = tmp_path / "pac.json"
    cfg.write_text(json.dumps(PAC_CFG))
    outs, csvs = [], []
    for jobs in ("1", "2", "3"):
        csv_path = tmp_path / f"pac-{jobs}.csv"
        r = run_cli(
            "pac-sim", "--config", str(cfg), "--seed", "2718",
            "--jobs", jobs, "--csv", str(csv_path),
        )
        assert r.returncode == 0, r.stderr
        outs.append(r.stdout)
        csvs.append(csv_path.read_bytes())
    assert outs[0] == outs[1] == outs[2]
    assert csvs[0] == csvs[1] == csvs[2]
    recs = records(outs[0])
    assert len(recs) == 4  # 2 targets x 2 sample sizes
    assert [(r["target_index"], r["n_index"]) for r in recs] == [
        (0, 0), (0, 1), (1, 0), (1, 1),
    ]
    for rec in recs:
        assert rec["record"] == "pac" and rec["seed"] == 2718
        assert set(rec["frac_exceeding"]) == {"0.1", "0.2"}
        assert rec["n_atom_bound"] == pytest.approx(rec["n"] / 30)
    # learning curve: more samples, less error, for the cofinite target
    assert recs[1]["mean_error"] <= recs[0]["mean_error"]
    header = csvs[0].decode().splitlines()[0]
    assert header.startswith("target_index,n,trials,mean_error")


def test_pac_sim_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "pac.json"
    # "epsilon" in place of "epsilons" would otherwise pass silently
    typo = {k: v for k, v in PAC_CFG.items() if k != "epsilons"}
    typo["epsilon"] = 0.3
    cfg.write_text(json.dumps(typo))
    r = run_cli("pac-sim", "--config", str(cfg), "--seed", "1")
    assert r.returncode == 2
    assert "key(s): epsilon" in r.stderr and r.stdout == ""
    cfg.write_text(json.dumps({**PAC_CFG, "learner": {"kind": "enumeration", "oder": [0]}}))
    r = run_cli("pac-sim", "--config", str(cfg), "--seed", "1")
    assert r.returncode == 2
    assert "learner key(s): oder" in r.stderr and r.stdout == ""


def test_ugc_sim_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "ugc.json"
    cfg.write_text(json.dumps({
        "class": {"generator": {"family": "power-set", "r": 3}},
        "measures": [{"type": "uniform"}],
        "n_grid": [10],
        "epsilon": 0.25,
        "epsilons": [0.1],
        "trials": 10,
    }))
    r = run_cli("ugc-sim", "--config", str(cfg), "--seed", "1")
    assert r.returncode == 2
    assert "key(s): epsilons" in r.stderr and r.stdout == ""


def test_ugc_sim_deterministic_across_jobs(tmp_path):
    cfg = tmp_path / "ugc.json"
    cfg.write_text(json.dumps({
        "class": {"generator": {"family": "power-set", "r": 3}},
        "measures": [
            {"type": "uniform"},
            {"type": "explicit", "weights": [0.6, 0.2, 0.2]},
        ],
        "n_grid": [10, 160],
        "epsilon": 0.25,
        "trials": 100,
    }))
    outs = []
    for jobs in ("1", "3"):
        r = run_cli("ugc-sim", "--config", str(cfg), "--seed", "31", "--jobs", jobs)
        assert r.returncode == 0, r.stderr
        outs.append(r.stdout)
    assert outs[0] == outs[1]
    recs = records(outs[0])
    assert [r["n"] for r in recs] == [10, 160]
    for rec in recs:
        assert len(rec["per_measure"]) == 2
        assert rec["prob"] == max(rec["per_measure"])
        assert rec["n_atom_bound"] == pytest.approx(rec["n"] * 0.6)
    assert recs[1]["prob"] <= recs[0]["prob"]


def test_config_paths_resolve_relative_to_config(tmp_path):
    cls_dir = tmp_path / "inputs"
    cls_dir.mkdir()
    save_class(gen_power_set(3), str(cls_dir / "ps.class"))
    cfg = cls_dir / "cfg.json"
    cfg.write_text(json.dumps({
        "class": {"path": "ps.class"},
        "measure": {"type": "uniform"},
        "targets": [{"index": 3}],
        "n_grid": [5],
        "trials": 10,
    }))
    # run from an unrelated working directory
    r = run_cli("pac-sim", "--config", str(cfg), "--seed", "1", cwd=str(tmp_path))
    assert r.returncode == 0, r.stderr
