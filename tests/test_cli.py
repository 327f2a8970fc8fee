"""End-to-end command-line checks, through real subprocesses and, where
one test tries many configs or generators, in process through cli.main."""

import json
import subprocess
import sys

import pytest
from conftest import cli_env

import thickvc
from thickvc import (
    ClusterFamily,
    Concept,
    cli,
    gen_cluster_decorated,
    gen_finite_cofinite,
    gen_intervals,
    gen_power_set,
    gen_random,
    gen_thresholds,
    is_strongly_shattered,
)
from thickvc.formats import dump_class, read_class, save_class, save_point_set


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


def main_on_config(capsys, cfg, command, doc):
    """Exit code, stdout and stderr of an in-process run of `command` on
    the config `doc`."""
    cfg.write_text(json.dumps(doc))
    code = cli.main([command, "--config", str(cfg), "--seed", "1"])
    out, err = capsys.readouterr()
    return code, out, err


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


# gen parameters per family (cluster-decorated also takes a base class)
# and the library call they stand for
GEN_CASES = {
    "finite-cofinite": (
        {"m": 9, "t": 2}, lambda base: gen_finite_cofinite(9, 2, backend="dense")
    ),
    "intervals": ({"m": 7}, lambda base: gen_intervals(7)),
    "thresholds": ({"m": 6}, lambda base: gen_thresholds(6)),
    "power-set": ({"r": 3}, lambda base: gen_power_set(3)),
    "cluster-decorated": (
        {"cluster_size": 2, "noise": 3, "seed": 5},
        lambda base: gen_cluster_decorated(base, 2, 3, 5),
    ),
    "random": (
        {"m": 8, "count": 20, "density": 0.4, "seed": 7},
        lambda base: gen_random(8, 20, 0.4, 7),
    ),
}


def test_gen_file_equals_config_generator(tmp_path, capsys):
    # `gen` and a config {"generator": ...} build the same class, the one
    # the library call builds
    assert set(GEN_CASES) == set(cli.GENERATORS)
    base = tmp_path / "base.class"
    save_class(gen_power_set(3), str(base))
    for fam, (params, direct) in GEN_CASES.items():
        out = tmp_path / f"{fam}.class"
        flags = [f"--out={out}"]
        flags += [f"--{p.replace('_', '-')}={v}" for p, v in params.items()]
        gens = [{"family": fam, **params}]
        if fam == "cluster-decorated":
            flags.append(f"--base={base}")
            power_set = {"family": "power-set", "r": 3}
            gens = [{**gens[0], "base": {"path": "base.class"}},
                    {**gens[0], "base": {"generator": power_set}}]
        assert cli.main(["gen", fam, *flags]) == 0
        assert out.read_text() == dump_class(direct(read_class(str(base))))
        for g in gens:
            cls = cli._class_from_spec({"generator": g}, str(tmp_path))
            assert dump_class(cls) == out.read_text(), g
    capsys.readouterr()


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


def test_vc_thick_work_limit_counts_search_nodes(tmp_path):
    # 91 candidate pairs pass the up-front refusal; the pair search then
    # needs thousands of nodes to show that no 4 pairs are shattered
    out = tmp_path / "rand.class"
    save_class(gen_random(14, 116, 0.5, 0), str(out))
    r = run_cli("vc-thick", "--class", str(out), "--min-size", "2", "--work-limit", "100")
    assert r.returncode == 3
    assert "family search passed 100 nodes" in r.stderr
    r2 = run_cli("vc-thick", "--class", str(out), "--min-size", "2")
    assert r2.returncode == 0, r2.stderr
    assert records(r2.stdout)[0]["vc_thick"] == 3


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
    save_class(gen_intervals(30), str(big))
    r = run_cli("vc", "--class", str(big), "--work-limit", "10")
    assert r.returncode == 3
    # 2: malformed simulation config
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{")
    assert run_cli("pac-sim", "--config", str(cfg), "--seed", "1").returncode == 2


def test_file_booleans_exit_2(tmp_path, capsys):
    # json's true is no size or point, though Python reads it as the int 1
    bool_m = tmp_path / "bool_m.class"
    bool_m.write_text(
        '{"count": 1, "format": "concept-class", "m": true, "version": 1}\n1\n'
    )
    good = tmp_path / "good.class"
    save_class(gen_intervals(2), str(good))
    bool_pts = tmp_path / "bool_pts.json"
    bool_pts.write_text(
        '{"format": "point-set", "m": 2, "points": [true, false], "version": 1}'
    )
    for argv in (
        ["vc", "--class", str(bool_m)],
        ["vc-mod", "--class", str(good), "--negligible", str(bool_pts)],
    ):
        code = cli.main(argv)
        out, err = capsys.readouterr()
        assert code == 2 and out == "" and "input error" in err, argv


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


def test_pac_sim_rejects_unknown_keys(tmp_path, capsys):
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
    # every nested object is strict and every count a JSON integer
    iv = {"family": "intervals", "m": 6}
    good = {
        "class": {"generator": iv},
        "measure": {"type": "uniform"},
        "targets": [{"index": 0}],
        "n_grid": [4],
        "trials": 20,
    }
    assert main_on_config(capsys, cfg, "pac-sim", good)[0] == 0
    decorated = {"family": "cluster-decorated", "cluster_size": 2, "noise": 1,
                 "seed": 1}
    uniform = {"type": "uniform"}
    bad = [
        ("class", {"generator": iv, "bogus": 1}),
        ("class", {}),
        ("class", {"path": "x.class", "generator": iv}),
        ("class", {"generator": {**iv, "bogus": 1}}),
        ("class", {"generator": {"family": "intervals"}}),
        ("class", {"generator": {"family": "hexagons", "m": 6}}),
        ("class", {"generator": {**iv, "m": 6.0}}),
        ("class", {"generator": {**decorated, "base": {"generator": {**iv, "x": 1}}}}),
        ("class", {"generator": {**decorated, "base": {"path": "x", "generator": iv}}}),
        ("class", {"generator": {"family": "random", "m": 6, "count": 9,
                                 "density": "0.5", "seed": 1}}),
        ("measure", {**uniform, "weights_typo": [1]}),
        ("measure", {"type": "uniform-on"}),
        ("measure", {"type": "explicit", "weights": [True] * 6}),
        ("measure", {"type": "mixture", "components": [{**uniform, "x": 1}],
                     "coefficients": [1]}),
        ("measure", {"type": "mixture", "components": [uniform]}),
        ("measure", {"type": "gaussian"}),
        ("targets", [{"index": 0, "extra": 3}]),
        ("targets", [{"index": 0, "points": [1]}]),
        ("targets", [{}]),
        ("targets", [{"kind": "finite"}]),
        ("targets", [{"points": [0.0]}]),
        ("learner", {"kind": "enumeration", "order": [0.5]}),
        ("n_grid", [4.7]),
        ("n_grid", 4),
        ("trials", 20.9),
        ("trials", True),
        ("trials", None),
        ("epsilons", ["0.1"]),
        ("epsilons", [True]),
        ("no_hypothesis", 1),
    ]
    for key, value in bad:
        doc = {**good, key: value}
        if value is None:
            del doc[key]
        code, out, err = main_on_config(capsys, cfg, "pac-sim", doc)
        # refused by the config reader, not by a later library check
        assert (code, out) == (2, "") and "input error" in err, (key, value)


def test_pac_sim_rejects_order_on_adversarial_learner(tmp_path):
    cfg = tmp_path / "pac.json"
    order = list(range(10, -1, -1))
    cfg.write_text(json.dumps({
        "class": {"generator": {"family": "intervals", "m": 4}},
        "measure": {"type": "uniform"},
        "learner": {"kind": "adversarial", "order": order},
        "targets": [{"index": 0}],
        "n_grid": [3],
        "trials": 5,
    }))
    r = run_cli("pac-sim", "--config", str(cfg), "--seed", "1")
    assert r.returncode == 2
    assert "takes no order" in r.stderr and r.stdout == ""


def test_pac_sim_rejects_structured_target_outside_class(tmp_path, capsys):
    cfg = tmp_path / "pac.json"
    # a cofinite core of 3 points on a t = 2 class is not a class member
    bad = {**PAC_CFG, "targets": [{"kind": "cofinite", "core": [1, 5, 9]}]}
    cfg.write_text(json.dumps(bad))
    r = run_cli("pac-sim", "--config", str(cfg), "--seed", "1")
    assert r.returncode == 2
    assert "not a member" in r.stderr and r.stdout == ""
    # an index is a JSON integer in [0, K): not -1 (the last concept), not
    # true (concept 1), not 2.9 (concept 2)
    for index in (-1, True, 2.9):
        bad = {**PAC_CFG, "targets": [{"index": index}]}
        code, out, _ = main_on_config(capsys, cfg, "pac-sim", bad)
        assert (code, out) == (2, ""), index


def test_ugc_sim_rejects_unknown_keys(tmp_path, capsys):
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
    good = {**json.loads(cfg.read_text())}
    del good["epsilons"]
    assert main_on_config(capsys, cfg, "ugc-sim", good)[0] == 0
    for key, value in (
        ("measures", [{"type": "uniform", "weights": [1, 0, 0]}]),
        ("measures", [{"type": "mixture", "components": [{"type": "uniform",
                       "support": [0]}], "coefficients": [1.0]}]),
        ("epsilon", "0.25"),
        ("trials", 10.0),
    ):
        code, out, err = main_on_config(capsys, cfg, "ugc-sim", {**good, key: value})
        assert (code, out) == (2, "") and "input error" in err, (key, value)


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
