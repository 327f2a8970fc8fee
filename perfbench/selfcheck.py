"""Smoke test of the benchmark itself.

    python3 perfbench/selfcheck.py

1. The checker catches bad answers: a corrupted certificate and a wrong
   dimension, fed through the timed loop, are both counted as failed ops,
   while the true answer is not.
2. Each workload, run briefly untraced and traced, reports `correct`, no
   failed op, and every metric BENCHMARK.json names, with the same unit.
3. In a directory holding only BENCHMARK.json and the benchmark, the
   benchmark exits nonzero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from thickvc import ShatterCertificate  # noqa: E402


def check_bad_answers_fail(workdir: Path) -> None:
    real = workloads.setup_exact(7, workdir)
    op = next(o for o in real.ops if o.kind == "vc")
    d, cert = op.run()
    assert d >= 1 and op.check((d, cert)), "the true answer must verify"
    # pattern 0 carved by a concept that contains a witness point
    carvers = dict(cert.carvers)
    carvers[0] = carvers[(1 << d) - 1]
    corrupted = ShatterCertificate(cert.kind, cert.witness, carvers)
    bad = [
        workloads.Op("vc", lambda: (d, corrupted), op.check),
        workloads.Op("vc", lambda: (d + 1, cert), op.check),
        workloads.Op("vc", lambda: (d, cert), op.check),
    ]
    workloads.SETUPS["selfcheck"] = lambda seed, wd: workloads.Setup(bad)
    try:
        res = run.timed("selfcheck", 7, 1e-4, workdir)
    finally:
        del workloads.SETUPS["selfcheck"]
    n = res["attempted"]
    expected = sum(1 for i in range(n) if i % 3 != 2)
    assert res["failed"] == expected, (res["failed"], expected, n)
    assert res["guards"]["warmup_verified"] is False
    print(f"bad answers: {res['failed']} of {n} ops counted as failed, as expected")


def check_workloads_report_every_metric() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for w in spec["workloads"]:
            r = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w["name"],
                 "--seed", "3", "--seconds", "1", "--trace", str(trace)],
                capture_output=True, text=True, cwd=ROOT, timeout=600,
            )
            assert r.returncode == 0, r.stderr
            last = json.loads(r.stdout.strip().splitlines()[-1])
            assert set(last) == {"correct", "attempted", "failed", "metrics"}
            assert last["correct"] and last["failed"] == 0, last
            got = {k: v["unit"] for k, v in last["metrics"].items()}
            assert got == want, (w["name"], trace, set(got) ^ set(want))
            print(f"{w['name']} trace={trace}: {len(got)} metrics with units, "
                  f"{last['attempted']} ops, none failed")


def check_fails_without_sources() -> None:
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        r = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "exact",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=tmp, timeout=180,
        )
    assert r.returncode != 0 and not r.stdout.strip(), (r.returncode, r.stdout)
    print("without the sources: exit", r.returncode, "and no result")


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selfcheck-", dir=run.OUT))
    try:
        check_bad_answers_fail(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    check_fails_without_sources()
    check_workloads_report_every_metric()
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
