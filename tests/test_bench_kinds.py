"""The per-kind timer: one in-process pass and the two-tree bookkeeping."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("kinds", ROOT / "bench" / "kinds.py")
kinds = importlib.util.module_from_spec(spec)
spec.loader.exec_module(kinds)


def test_one_pac_pass_times_every_kind(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    res = kinds.time_kinds(ROOT, "pac", 5, 1)
    assert set(res) == {
        "pac_dense_enum", "pac_dense_enum_order", "pac_dense_adv",
        "pac_struct_enum", "pac_struct_adv",
    }
    for row in res.values():
        assert row["ops"] > 0 and row["ms_per_pass"] > 0
        assert row["ms_per_op"] == row["ms_per_pass"] / row["ops"]


def test_compare_alternates_the_first_tree_and_reports_ratios():
    seen = []

    def fake(tree, workload, seed, passes):
        seen.append(tree.name)
        return {"k": {"ops": 1, "ms_per_pass": 2.0 if tree.name == "p" else 1.0}}

    trees = {"parent": Path("p"), "change": Path("c")}
    out = kinds.compare(trees, "pac", 1, 1, 4, run=fake)
    assert seen == ["p", "c", "c", "p", "p", "c", "c", "p"]
    assert out == {"k": {"parent_ms": 2.0, "change_ms": 1.0, "ratio": 0.5}}
