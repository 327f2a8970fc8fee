"""Record a parent/change benchmark comparison as BENCH_<n>.json.

Usage, with two source trees made by `git archive` (no .git directory):

    python3 bench/record.py --parent P --change C --out /tmp/BENCH_new.json

For each seed and each workload, `perfbench/run.py --trace 0` runs once in
each tree, one after the other, for the `run_seconds` that the change
tree's BENCHMARK.json fixes. Within each workload the tree that goes first
alternates from one seed to the next (and between neighbouring workloads
of one seed), so drift in the host's speed hits both sides alike and each
workload gets both orders equally often. The seeds default to 111-120;
fewer than ten are refused, since ten pairs is the least a gain claim
rests on. Then one 5-second `--trace 1` ugc run per tree gives the
per-layer metrics of the sampler and the trial kernels. The output holds
every run's end-to-end metrics and op counts, a per-workload summary
(median and quartiles per side, and in how many pairs the change was
better), the per-layer metrics and both trees' stamps.

A tree with a .git directory is refused: perfbench stamps it with a
`git rev-parse` child, whose peak RSS would count toward peak_rss_mb.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("exact", "pac", "ugc", "cli")
# the traced run: the workload where the sampler and trial kernels weigh most
TRACE_WORKLOAD, TRACE_SECONDS = "ugc", 5.0
LAYER_PREFIXES = ("measures._draw_indices.", "fincofin.", "empirics.", "learning.")
MIN_PAIRS = 10


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--seeds", type=int, nargs="+", default=list(range(111, 121)))
    args = p.parse_args(argv)
    if len(set(args.seeds)) < MIN_PAIRS:
        p.error(f"--seeds needs at least {MIN_PAIRS} distinct seeds")
    return args


def check_tree(path: Path) -> Path:
    path = path.resolve()
    if not (path / "perfbench" / "run.py").is_file():
        raise SystemExit(f"record: {path} has no perfbench/run.py")
    if (path / ".git").exists():
        raise SystemExit(f"record: {path} is a git checkout; pass a `git archive` copy")
    return path


def run_bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in tree; its report and its result line."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    r = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    if r.returncode != 0:
        raise SystemExit(f"record: {workload} seed {seed} in {tree} exited "
                         f"{r.returncode}:\n{r.stderr}")
    lines = r.stdout.strip().splitlines()
    report, result = json.loads(lines[-2])["report"], json.loads(lines[-1])
    return {
        "stamps": report["stamps"],
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def spread(values: list[float]) -> dict:
    """Median and quartiles (exclusive method; both quartiles are the value
    itself for a single run)."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per workload and metric: each side's spread, and how many pairs the
    change won in the metric's better direction."""
    out: dict = {}
    for run in runs:
        w = out.setdefault(run["workload"], {})
        for name, value in run["metrics"].items():
            w.setdefault(name, {"parent": [], "change": []})[run["side"]].append(value)
    for metrics in out.values():
        for name, sides in metrics.items():
            sign = 1 if better.get(name) == "higher" else -1
            wins = sum(sign * (c - p) > 0 for p, c in zip(sides["parent"], sides["change"]))
            metrics[name] = {
                "better": better.get(name),
                "parent": spread(sides["parent"]),
                "change": spread(sides["change"]),
                "change_better_pairs": f"{wins}/{len(sides['parent'])}",
            }
    return out


def run_pairs(trees: dict[str, Path], seeds: list[int], seconds: float):
    """One untraced run per side for each (seed, workload); the side that
    goes first is set by the parity of seed index plus workload index."""
    runs, stamps = [], {}
    for i, seed in enumerate(seeds):
        for j, workload in enumerate(WORKLOADS):
            order = ("parent", "change") if (i + j) % 2 == 0 else ("change", "parent")
            for side in order:
                res = run_bench(trees[side], workload, seed, seconds, 0)
                stamp = res.pop("stamps")
                stamps.setdefault(side, stamp)
                runs.append({"side": side, "workload": workload, "seed": seed,
                             "first": side == order[0],
                             "loadavg_1m": stamp["loadavg_1m"], **res})
                print(f"{workload:5s} seed {seed} {side:6s} ops_per_s "
                      f"{res['metrics']['ops_per_s']:.1f} failed {res['failed']}",
                      file=sys.stderr)
    return runs, stamps


def main(argv=None) -> int:
    args = parse_args(argv)
    trees = {"parent": check_tree(args.parent), "change": check_tree(args.change)}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    runs, stamps = run_pairs(trees, args.seeds, seconds)
    layers = {}
    for side in ("parent", "change"):
        res = run_bench(trees[side], TRACE_WORKLOAD, args.seeds[0], TRACE_SECONDS, 1)
        layers[side] = {k: v for k, v in res["metrics"].items()
                        if k.startswith(LAYER_PREFIXES)}
        # runs differ in pass count, so self time is compared per call
        for name in [k[: -len(".calls")] for k in layers[side] if k.endswith(".calls")]:
            calls = layers[side][f"{name}.calls"]
            if calls:
                layers[side][f"{name}.self_ms_per_call"] = layers[side][f"{name}.self_ms"] / calls
        layers[side]["trace.overhead_frac"] = res["metrics"].get("trace.overhead_frac")
        layers[side]["correct"] = res["correct"]
    record = {
        "protocol": {
            "command": "perfbench/run.py --trace 0, one run per side per "
                       "(seed, workload) pair; within each workload the first "
                       "side alternates from seed to seed",
            "seeds": args.seeds,
            "seconds": seconds,
            "workloads": list(WORKLOADS),
        },
        "stamps": stamps,
        "summary": summarize(runs, better),
        "per_layer": {"workload": TRACE_WORKLOAD, "seed": args.seeds[0],
                      "seconds": TRACE_SECONDS, **layers},
        "runs": runs,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
