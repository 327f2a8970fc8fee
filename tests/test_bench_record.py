"""The benchmark recorder's bookkeeping: tree checks and the summary."""

import importlib.util
from pathlib import Path

import pytest

RECORD = Path(__file__).resolve().parent.parent / "bench" / "record.py"
spec = importlib.util.spec_from_file_location("record", RECORD)
record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(record)


def test_check_tree_refuses_git_checkouts_and_non_trees(tmp_path):
    with pytest.raises(SystemExit, match="no perfbench"):
        record.check_tree(tmp_path)
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text("")
    assert record.check_tree(tmp_path) == tmp_path.resolve()
    (tmp_path / ".git").mkdir()
    with pytest.raises(SystemExit, match="git archive"):
        record.check_tree(tmp_path)


def test_summary_counts_pairs_in_each_metrics_direction():
    runs = []
    for side, ops, p50 in (
        ("parent", 100.0, 2.0), ("change", 150.0, 1.5),
        ("change", 140.0, 2.5), ("parent", 120.0, 2.2),
        ("parent", 110.0, 2.1), ("change", 105.0, 2.0),
    ):
        runs.append({"side": side, "workload": "ugc",
                     "metrics": {"ops_per_s": ops, "op_p50_ms": p50}})
    out = record.summarize(runs, {"ops_per_s": "higher", "op_p50_ms": "lower"})
    ops = out["ugc"]["ops_per_s"]
    assert ops["change_better_pairs"] == "2/3"
    assert ops["parent"]["median"] == 110.0 and ops["change"]["median"] == 140.0
    assert out["ugc"]["op_p50_ms"]["change_better_pairs"] == "2/3"
    assert record.spread([3.0]) == {"median": 3.0, "q1": 3.0, "q3": 3.0}


def test_each_workload_runs_both_orders_equally_often(monkeypatch, capsys):
    calls = []

    def fake_run_bench(tree, workload, seed, seconds, trace):
        calls.append((tree, workload, seed, seconds, trace))
        return {"stamps": {"loadavg_1m": 0.0}, "correct": 1, "attempted": 1,
                "failed": 0, "metrics": {"ops_per_s": 1.0}}

    monkeypatch.setattr(record, "run_bench", fake_run_bench)
    trees = {"parent": Path("P"), "change": Path("C")}
    seeds = list(range(111, 121))
    runs, stamps = record.run_pairs(trees, seeds, 28)
    assert set(stamps) == {"parent", "change"}
    assert {c[3] for c in calls} == {28} and {c[4] for c in calls} == {0}
    for workload in record.WORKLOADS:
        firsts = [r["side"] for r in runs if r["workload"] == workload and r["first"]]
        assert len(firsts) == len(seeds)
        assert firsts.count("parent") == firsts.count("change") == len(seeds) // 2
        # consecutive seeds of one workload swap the order
        assert all(a != b for a, b in zip(firsts, firsts[1:]))
    # within one (seed, workload) the two runs are adjacent, first side first
    for a, b in zip(runs[::2], runs[1::2]):
        assert (a["seed"], a["workload"]) == (b["seed"], b["workload"])
        assert a["first"] and not b["first"] and a["side"] != b["side"]


def test_seeds_default_to_ten_and_fewer_are_refused(capsys):
    args = record.parse_args(["--parent", "P", "--change", "C", "--out", "o.json"])
    assert args.seeds == list(range(111, 121))
    with pytest.raises(SystemExit):
        record.parse_args(["--parent", "P", "--change", "C", "--out", "o.json",
                           "--seeds", "1", "2", "3"])
    assert "at least 10" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        record.parse_args(["--parent", "P", "--change", "C", "--out", "o.json",
                           "--seconds", "10"])
