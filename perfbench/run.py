"""The thickvc benchmark: one seeded workload, timed end to end or traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload exact --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

The load is a closed loop with one client in this process: the next op
starts when the previous one has returned. Ops cycle through the
workload's op list until their summed latency reaches --seconds, and on
to the end of the current pass over the list. Answers
are checked after each op, outside the timed region; a wrong or
unverifiable answer, an exception (WorkLimitExceeded included) or a
nonzero exit counts the op as failed.

With --trace 0 the last line of stdout carries the end-to-end metrics.
With --trace 1 every op runs twice, untraced and with the timing wrappers
of `tracing.py` installed, in alternating order; the answers of the two must
be identical, the per-layer metrics come from the traced halves, and the
ratio of the two halves' times gives trace.overhead_frac. The full trace
(kept spans and aggregates) is written to .perfbench/ in the checkout.

The line before the last is a report: every metric with its unit,
failed_frac, the tail percentile used, the sample count and the run stamps.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("exact", "pac", "ugc", "cli")
SETUP_REPEATS = 5
MIN_PASSES = 3
END_TO_END = [
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def stamps(seed: int) -> dict:
    import numpy as np

    commit = None
    if (ROOT / ".git").exists():
        r = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = r.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "thickvc").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "loadavg_1m": os.getloadavg()[0],
    }


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten samples beyond it,
    and that percentile."""
    srt = sorted(latencies)
    i = len(srt) - 11 if len(srt) > 10 else len(srt) - 1  # too few: the max
    return srt[i], 100.0 * (i + 1) / len(srt)


def run_op(op, fn=None):
    """Time one op; returns (seconds, answer, exception)."""
    fn = fn or op.run
    t0 = time.perf_counter()
    try:
        ans, exc = fn(), None
    except Exception as e:  # any exception is a failed op, not a crash
        ans, exc = None, e
    return time.perf_counter() - t0, ans, exc


def verified(op, ans, exc) -> bool:
    if exc is not None:
        return False
    try:
        return bool(op.check(ans))
    except Exception:
        return False


def prepare(setup) -> dict[str, bool]:
    """Run the once-per-run guards and one untimed pass over every op.

    The pass computes every reference answer and lets lazy set-up finish
    before timing starts; otherwise the first timed pass would pay for the
    references' allocations through the garbage collector.
    """
    guards = {name: bool(fn()) for name, fn in setup.guards}
    guards["warmup_verified"] = all(verified(op, *run_op(op)[1:]) for op in setup.ops)
    gc.collect()
    return guards


def time_setups(workload: str, seed: int, workdir: Path, budget_s: float):
    """Build the workload's inputs repeatedly, for about budget_s seconds of
    set-up or 300 builds; returns the build times and the last build."""
    import workloads

    gc.collect()
    times: list[float] = []
    while len(times) < SETUP_REPEATS or (sum(times) < budget_s and len(times) < 300):
        t0 = time.perf_counter()
        setup = workloads.SETUPS[workload](seed, workdir)
        times.append(time.perf_counter() - t0)
    return times, setup


def timed(workload: str, seed: int, seconds: float, workdir: Path) -> dict:
    times, setup = time_setups(workload, seed, workdir, 1.0)
    guards = prepare(setup)
    ops = setup.ops
    # one row per pass over the op list, one latency per op; whole passes
    # only, so every run times exactly the same op mix
    passes: list[list[float]] = []
    failed = 0
    busy = 0.0
    while busy < seconds or len(passes) < MIN_PASSES:
        row = []
        for op in ops:
            dt, ans, exc = run_op(op)
            row.append(dt)
            failed += not verified(op, ans, exc)
        passes.append(row)
        busy += sum(row)
    attempted = len(passes) * len(ops)
    # the host holds each of its speeds for seconds at a time, and an order
    # statistic of raw samples jumps to whichever speed held the most of the
    # run; each op's mean over the passes weighs the speeds by time instead
    per_op = [statistics.fmean(col) for col in zip(*passes)]
    p_tail, pct = tail([dt for dt in per_op for _ in passes])
    metrics = {
        "ops_per_s": attempted / busy,
        "op_p50_ms": statistics.median(per_op) * 1e3,
        "op_tail_ms": p_tail * 1e3,
        "setup_s": statistics.median(times),
        "peak_rss_mb": peak_rss_mb(),
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "guards": guards,
        "metrics": metrics,
        "extra": {
            "failed_frac": failed / attempted,
            "tail_percentile": pct,
            "samples": attempted,
            "passes": len(passes),
            "setup_repeats": len(times),
        },
    }


def startup_ms(repeats: int = 3) -> float:
    """Wall time of importing thickvc.cli in a fresh interpreter, median."""
    import workloads

    walls = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import thickvc.cli"],
            env=workloads.cli_env(),
            check=True,
        )
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls) * 1e3


def traced(workload: str, seed: int, seconds: float, workdir: Path) -> dict:
    import thickvc.cli  # noqa: F401  (its names are patched too)
    import tracing
    import workloads

    tracer = tracing.Tracer()
    tracer.prepare()
    tracer.install()
    try:
        setup = tracer.call(f"{workload}.setup", workloads.SETUPS[workload], (seed, workdir))
    finally:
        tracer.uninstall()
    classgen_ms = tracer.classgen_ms()
    guards = prepare(setup)
    ops = setup.ops
    wall: dict[str, list[float]] = {}
    plain = traced_s = subprocess_s = 0.0
    failed = attempted = 0
    i = 0
    while plain + traced_s + subprocess_s < seconds:
        op = ops[i % len(ops)]
        ok = True
        if op.inproc is not None:
            dt, sub_ans, exc = run_op(op)
            wall.setdefault(op.kind, []).append(dt)
            subprocess_s += dt
            ok = verified(op, sub_ans, exc)
            fn = op.inproc
        else:
            fn = op.run
        results = {}
        # alternate which half goes first so drift does not bias the overhead
        for with_trace in (True, False) if i % 2 == 0 else (False, True):
            if with_trace:
                tracer.install()
                try:
                    dt, ans, exc = run_op(op, lambda: tracer.call(f"op.{op.kind}", fn))
                finally:
                    tracer.uninstall()
                traced_s += dt
            else:
                dt, ans, exc = run_op(op, fn)
                plain += dt
            results[with_trace] = (ans, exc)
        (t_ans, t_exc), (u_ans, u_exc) = results[True], results[False]
        if op.inproc is not None:
            # in-process main returns (exit code, stdout) like the subprocess
            ok = ok and t_exc is None and u_exc is None and t_ans == u_ans == sub_ans
        else:
            ok = verified(op, u_ans, u_exc) and t_exc is None and t_ans == u_ans
        failed += not ok
        attempted += 1
        i += 1
    metrics = tracer.layer_metrics()
    metrics["classgen.setup_ms"] = classgen_ms
    metrics["trace.overhead_frac"] = 1.0 - plain / traced_s
    metrics["cli.startup_ms"] = startup_ms() if workload == "cli" else 0.0
    for sub in tracing.CLI_COMMANDS:
        walls = wall.get(sub)
        metrics[f"cli.{sub}.wall_ms"] = statistics.median(walls) * 1e3 if walls else 0.0
    OUT.mkdir(exist_ok=True)
    dump = OUT / f"trace-{workload}-{seed}.json"
    dump.write_text(
        json.dumps(
            {
                "workload": workload,
                "seed": seed,
                "spans": tracer.spans,
                "calls": dict(tracer.calls),
                "self_ns": dict(tracer.self_ns),
                "counts": dict(tracer.counts),
            }
        )
    )
    return {
        "attempted": attempted,
        "failed": failed,
        "guards": guards,
        "metrics": metrics,
        "extra": {"trace_file": str(dump.relative_to(ROOT)), "samples": attempted},
    }


def metric_units(trace_mode: bool) -> dict[str, str]:
    if trace_mode:
        import tracing

        return {name: unit for name, unit, _ in tracing.per_layer_metrics()}
    return dict(END_TO_END)


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    stamp = stamps(args.seed)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        fn = traced if args.trace else timed
        res = fn(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = metric_units(bool(args.trace))
    correct = res["failed"] == 0 and all(res["guards"].values())
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "stamps": stamp,
        "guards": res["guards"],
        **res["extra"],
        "metrics": {k: {"value": res["metrics"][k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps({"report": report}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": report["metrics"],
            }
        )
    )
    return 0


def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    rows = []
    for w in WORKLOADS:
        r = subprocess.run(
            [sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=True,
        )
        lines = r.stdout.strip().splitlines()
        rows.append((w, json.loads(lines[-2])["report"]))
    for w, rep in rows:
        print(f"{w}: failed_frac={rep.get('failed_frac', 0)} guards={rep['guards']}")
        for k, v in rep["metrics"].items():
            print(f"  {k:40s} {v['value']:.6g} {v['unit']}")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "thickvc" / "__init__.py").is_file():
        print(f"perfbench: no thickvc sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.seed < 0:
        print("perfbench: --seconds must be positive, --seed nonnegative", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
