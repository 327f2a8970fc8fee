"""Per-kind op times of one benchmark workload, in process.

One tree: build the `perfbench.workloads` set-up for a seed, run one untimed
pass (so lazy tables and caches fill, as in a benchmark run's steady
state), then time every op of N passes and print, per op kind, the median
over passes of that kind's time per pass and per op, as one JSON object:

    python3 bench/kinds.py --tree T --workload pac --seed 111 --passes 7

Two trees (`git archive` copies or checkouts): run the one-tree mode in
child processes, alternating which tree goes first from round to round,
and print per-kind medians over rounds and the ratio change / parent:

    python3 bench/kinds.py --parent P --change C --workload pac --rounds 6

Answers are not checked here; `perfbench/run.py` checks them. The files
under `perfbench/` are only read. The one-tree mode imports the tree's
own `thickvc` and `perfbench/workloads.py`; the two-tree mode uses the
standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("exact", "pac", "ugc", "cli"))
    p.add_argument("--seed", type=int, default=111)
    p.add_argument("--passes", type=int, default=7)
    p.add_argument("--tree", type=Path)
    p.add_argument("--parent", type=Path)
    p.add_argument("--change", type=Path)
    p.add_argument("--rounds", type=int, default=6)
    args = p.parse_args(argv)
    if (args.tree is None) == (args.parent is None or args.change is None):
        p.error("give --tree, or both --parent and --change")
    if args.passes < 1 or args.rounds < 1:
        p.error("--passes and --rounds must be at least 1")
    return args


def time_kinds(tree: Path, workload: str, seed: int, passes: int) -> dict:
    """{kind: {"ops": ops per pass, "ms_per_pass": median, "ms_per_op":
    median}} for the workload of tree's perfbench, timed in this process.
    The tree's src/ and perfbench/ go first on sys.path."""
    tree = tree.resolve()
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import workloads

    with tempfile.TemporaryDirectory() as tmp:
        ops = workloads.SETUPS[workload](seed, Path(tmp)).ops
        for op in ops:
            op.run()
        per_pass: dict[str, list[float]] = {op.kind: [] for op in ops}
        for _ in range(passes):
            spent = dict.fromkeys(per_pass, 0)
            for op in ops:
                t0 = time.perf_counter_ns()
                op.run()
                spent[op.kind] += time.perf_counter_ns() - t0
            for kind, ns in spent.items():
                per_pass[kind].append(ns / 1e6)
    count = {kind: sum(op.kind == kind for op in ops) for kind in per_pass}
    return {
        kind: {
            "ops": count[kind],
            "ms_per_pass": statistics.median(ms),
            "ms_per_op": statistics.median(ms) / count[kind],
        }
        for kind, ms in per_pass.items()
    }


def run_tree(tree: Path, workload: str, seed: int, passes: int) -> dict:
    """time_kinds in a fresh child process, with no inherited PYTHONPATH."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    r = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--tree", str(tree),
         "--workload", workload, "--seed", str(seed), "--passes", str(passes)],
        env=env, capture_output=True, text=True,
    )
    if r.returncode != 0:
        raise SystemExit(f"kinds: {tree} exited {r.returncode}:\n{r.stderr}")
    return json.loads(r.stdout)


def compare(trees: dict[str, Path], workload: str, seed: int, passes: int,
            rounds: int, run=run_tree) -> dict:
    """Per kind, each side's median ms per pass over rounds and the ratio
    change / parent; the side that goes first alternates by round."""
    got: dict[str, dict[str, list[float]]] = {}
    for r in range(rounds):
        order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
        for side in order:
            for kind, row in run(trees[side], workload, seed, passes).items():
                sides = got.setdefault(kind, {"parent": [], "change": []})
                sides[side].append(row["ms_per_pass"])
    out = {}
    for kind, sides in got.items():
        p, c = statistics.median(sides["parent"]), statistics.median(sides["change"])
        out[kind] = {"parent_ms": p, "change_ms": c, "ratio": c / p if p else None}
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.tree is not None:
        res = time_kinds(args.tree, args.workload, args.seed, args.passes)
        print(json.dumps(res))
        return 0
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    res = compare(trees, args.workload, args.seed, args.passes, args.rounds)
    print(f"{'kind':24s} {'parent ms':>10s} {'change ms':>10s} {'ratio':>7s}")
    for kind, row in sorted(res.items()):
        ratio = "-" if row["ratio"] is None else f"{row['ratio']:.3f}"
        print(f"{kind:24s} {row['parent_ms']:10.3f} {row['change_ms']:10.3f} {ratio:>7s}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
