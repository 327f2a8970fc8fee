"""The four seeded workloads: their inputs, their ops and their answer checks.

An op is the unit a user waits for: one exact query (`exact`), one grid
cell (`pac`, `ugc`) or one CLI invocation (`cli`). Each workload's set-up
turns the seed into inputs and returns the op list; the op list is run
cyclically, so its order interleaves the op kinds evenly and any prefix of
it has the same mix.

Instance sizes are stratified across their ranges and only the content
within a stratum is drawn from the seed, so the work per pass stays the
same from seed to seed while the instances differ.

Every check runs outside the timed region and returns True only for a
verified answer. Reference answers come from `oracles`, memoised per
instance, so each is computed once per run.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from thickvc import (
    Concept,
    ConceptClass,
    FCSet,
    LearnerSpec,
    PrincipalIdeal,
    ShatterCertificate,
    gen_finite_cofinite,
    gen_intervals,
    gen_power_set,
    gen_random,
    gen_thresholds,
    pac_error_estimate,
    packing_number,
    stone_check,
    ugc_cell,
    uniform,
    uniform_on,
    vc_after_removal,
    vc_dimension,
    vc_mod_ideal,
    vc_thick,
)
from thickvc.measures import DiscreteMeasure
from thickvc.formats import save_class, save_point_set

import oracles

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

PAC_TRIALS = 300
UGC_TRIALS = 200
CLI_JOBS = 2


@dataclass
class Op:
    """One unit of user-visible work and the check of its answer.

    `inproc`, set for CLI ops only, runs the same invocation through
    `thickvc.cli.main` in this process; the traced run uses it to split
    parse, compute and pool time.
    """

    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    inproc: Callable[[], object] | None = None


@dataclass
class Setup:
    ops: list[Op]
    # checks run once per run, outside timing; each returns True when it holds
    guards: list[tuple[str, Callable[[], bool]]] = field(default_factory=list)


def interleave(groups: list[list[Op]]) -> list[Op]:
    """Merge op lists so every kind is spread evenly through the result."""
    keyed = [
        ((j + 0.5) / len(g), gi, op)
        for gi, g in enumerate(groups)
        for j, op in enumerate(g)
    ]
    return [op for _, _, op in sorted(keyed, key=lambda t: (t[0], t[1]))]


# exact


def _masks(cls) -> list[int]:
    return [c.bits for c in cls.concepts]


def _check_points_cert(cls, d: int, cert: ShatterCertificate) -> bool:
    return cert.kind == "points" and cert.n == d and cert.validate(cls)


def _check_cluster_cert(cls, n: int, cert: ShatterCertificate, size: int) -> bool:
    return (
        cert.kind == "clusters"
        and cert.n == n
        and all(a.size == size for a in cert.witness.clusters)
        and cert.validate(cls)
    )


def _vc_op(kind: str, cls, expect: Callable[[], int]) -> Op:
    def check(ans) -> bool:
        d, cert = ans
        return _check_points_cert(cls, d, cert) and d == expect()

    return Op(kind, lambda: vc_dimension(cls, want_certificate=True), check)


def _random_class_ops(cls, neg: list[int], with_removal: bool) -> list[list[Op]]:
    m = cls.domain.size
    masks = _masks(cls)
    ideal = PrincipalIdeal(Concept.from_indices(m, neg))
    outside = [p for p in range(m) if p not in neg]
    ref_vc = functools.cache(lambda: oracles.brute_vc(masks, m))
    ref_mod = functools.cache(
        lambda: oracles.brute_vc(oracles.restricted_masks(masks, outside), len(outside))
    )

    def check_thick(ans) -> bool:
        n, cert = ans
        # a strongly shattered family of disjoint pairs shatters any
        # transversal of it, so the plain dimension bounds n from above
        return _check_cluster_cert(cls, n, cert, 2) and n <= min(ref_vc(), m // 2)

    def check_mod(ans) -> bool:
        n, cert = ans
        return (
            _check_cluster_cert(cls, n, cert, 1)
            and not any(a.bits & ideal.negligible.bits for a in cert.witness.clusters)
            and n == ref_mod()
        )

    def check_stone(ans) -> bool:
        return ans.equal and ans.lift_valid and ans.vc_mod == ref_mod()

    ops = [
        [_vc_op("vc", cls, ref_vc)],
        [Op("vc_thick", lambda: vc_thick(cls, 2, want_certificate=True), check_thick)],
        [Op("vc_mod", lambda: vc_mod_ideal(cls, ideal, want_certificate=True), check_mod)],
        [Op("stone_check", lambda: stone_check(cls, ideal), check_stone)],
    ]
    if with_removal:
        ref_without = functools.cache(
            lambda: [
                oracles.brute_vc(
                    oracles.restricted_masks(masks, [q for q in range(m) if q != p]), m - 1
                )
                for p in range(m)
            ]
        )

        def check_removal(ans) -> bool:
            removed = ans.removed.indices()
            refs = ref_without()
            return (
                len(removed) == 1
                and ans.vc == min(refs)
                and refs[removed[0]] == ans.vc
            )

        ops.append([Op("vc_removal", lambda: vc_after_removal(cls, 1), check_removal)])
    return ops


def setup_exact(seed: int, workdir: Path) -> Setup:
    rng = np.random.default_rng([seed, 1])
    kinds: dict[str, list[Op]] = {}

    def add(groups: list[list[Op]]) -> None:
        for g in groups:
            for op in g:
                kinds.setdefault(op.kind, []).append(op)

    # 40 random classes: 8 per domain size 10..14, one per K stratum of 40..119
    strata = {m: rng.permutation(8) for m in range(10, 15)}
    for slot in range(8):
        for m in range(10, 15):
            k = 40 + 10 * int(strata[m][slot]) + int(rng.integers(0, 10))
            cls = gen_random(m, k, 0.5, int(rng.integers(2**31)))
            neg = sorted(int(p) for p in rng.choice(m, size=m // 4, replace=False))
            add(_random_class_ops(cls, neg, with_removal=m <= 11))
    # closed forms: thresholds 1, intervals 2, power_set(r) r, finite-cofinite 2t+1
    for stratum in range(4):
        m_thr = 16 + 8 * stratum + int(rng.integers(0, 8))
        m_iv = 12 + 4 * stratum + int(rng.integers(0, 2))
        r = 7 + stratum
        m_fc = 9 + stratum
        add([[_vc_op("vc_closed", gen_thresholds(m_thr), lambda: 1)]])
        add([[_vc_op("vc_closed", gen_intervals(m_iv), lambda: 2)]])
        add([[_vc_op("vc_closed", gen_power_set(r), lambda r=r: r)]])
        fc = gen_finite_cofinite(m_fc, 2, backend="dense")
        add([[_vc_op("vc_closed", fc, lambda: 5)]])
    # wide stone checks: all but 10 points negligible, so partition and
    # quotient dominate; intervals traced on >= 2 points have dimension 2
    for stratum in range(6):
        m = 48 + 6 * stratum + int(rng.integers(0, 6))
        cls = gen_intervals(m)
        keep = set(int(p) for p in rng.choice(m, size=10, replace=False))
        ideal = PrincipalIdeal(Concept.from_indices(m, [p for p in range(m) if p not in keep]))

        def check_wide(ans) -> bool:
            return ans.equal and ans.lift_valid and ans.vc_mod == 2 and ans.vc_stone == 2

        add([[Op("stone_wide", lambda c=cls, i=ideal: stone_check(c, i), check_wide)]])
    # exact packing on intervals, separation half a point off every
    # achievable uniform distance so float rounding cannot flip an edge
    for m in range(8, 13):
        cls = gen_intervals(m)
        order = [int(i) for i in rng.permutation(len(cls.concepts))]
        cls = ConceptClass(cls.domain, tuple(cls.concepts[i] for i in order))
        sep = (round(0.4 * m) + 0.5) / m
        mu = uniform(m)
        add([[_packing_op(cls, mu, sep)]])
    return Setup(interleave(list(kinds.values())))


def _packing_op(cls, mu: DiscreteMeasure, sep: float) -> Op:
    masks = _masks(cls)
    weights = np.asarray(mu.weights)
    ref = functools.cache(lambda: oracles.packing_reference(masks, weights, sep))
    dist = functools.cache(lambda: oracles.distance_matrix(masks, weights))

    def check(ans) -> bool:
        w = list(ans.witness)
        d = dist()
        return (
            ans.exact
            and ans.count == len(w) == len(set(w))
            and all(d[i, j] >= sep for i in w for j in w if i != j)
            and ans.count == ref()
        )

    return Op("packing", lambda: packing_number(cls, mu, sep), check)


# pac


def _in_unit(x: float) -> bool:
    return -1e-9 <= x <= 1.0 + 1e-9


def _pac_op(kind, cls, learner, target, mu, n, seed, path, reference) -> Op:
    def run():
        return pac_error_estimate(
            cls, learner, target, mu, n, PAC_TRIALS, seed,
            no_hypothesis="full-error", seed_path=path,
        )

    ref = functools.cache(reference)

    def check(rep) -> bool:
        ref_mean, ref_se = ref()
        return (
            rep.trials == PAC_TRIALS
            and rep.no_hypothesis_count == 0
            and all(_in_unit(e) for e in rep.errors)
            and oracles.agrees(rep.mean_error, rep.stderr_mean, ref_mean, ref_se)
        )

    return Op(kind, run, check)


def _dense_pac_ops(kind, cls, learner, target_ids, ns, seed, rng, tag) -> list[Op]:
    m = cls.domain.size
    mu = uniform(m)
    # built on first use, so set-up time stays the library's own
    mat = functools.cache(lambda: oracles.mask_matrix(_masks(cls), m))
    ops = []
    for ti, t in enumerate(target_ids):
        for n in ns:
            ref_seed = int(rng.integers(2**31))

            def reference(t=t, n=n, ref_seed=ref_seed):
                return oracles.pac_reference(
                    mat(), mat()[t], np.asarray(mu.weights), n, learner.kind,
                    learner.order, 4000, np.random.default_rng(ref_seed),
                )

            ops.append(
                _pac_op(kind, cls, learner, t, mu, n, seed, (tag, ti, n), reference)
            )
    return ops


def _stratified(rng, size: int, k: int) -> list[int]:
    """k positions in range(size), one from each of k equal strata: the seed
    picks the targets but not how far into an enumeration they sit, which
    is what a learner's cost depends on."""
    return [int((j + rng.random()) * size / k) for j in range(k)]


def _fc_targets(rng, m: int) -> list[FCSet]:
    """A cofinite target with a 3-point core and a finite one with 1 point,
    the shapes of acceptance criterion 7, on seeded points."""
    core = [int(p) for p in rng.choice(m, 4, replace=False)]
    return [
        FCSet(m, "cofinite", frozenset(core[:3])),
        FCSet(m, "finite", frozenset(core[3:])),
    ]


def _structured_pac_ops(kind, cls, learner, targets, ns, seed, tag) -> list[Op]:
    mu = uniform(cls.m)
    ops = []
    for ti, target in enumerate(targets):
        for n in ns:
            # the reference is the library itself on an unrelated stream:
            # a dense oracle cannot materialize C(1000, 5) concepts
            def reference(target=target, n=n):
                rep = pac_error_estimate(
                    cls, learner, target, mu, n, 2 * PAC_TRIALS, seed + 1,
                    seed_path=("reference", tag, ti, n),
                )
                return rep.mean_error, rep.stderr_mean

            ops.append(
                _pac_op(kind, cls, learner, target, mu, n, seed, (tag, ti, n), reference)
            )
    return ops


def setup_pac(seed: int, workdir: Path) -> Setup:
    rng = np.random.default_rng([seed, 2])
    iv20 = gen_intervals(20)
    iv14 = gen_intervals(14)
    fc12 = gen_finite_cofinite(12, 2, backend="dense")
    fc_big = gen_finite_cofinite(1000, 5, backend="structured")
    order = tuple(int(x) for x in rng.permutation(len(iv20.concepts)))
    enum = LearnerSpec("enumeration")
    adv = LearnerSpec("adversarial")

    def pick(cls, k):
        return _stratified(rng, len(cls.concepts), k)

    groups = [
        _dense_pac_ops("pac_dense_enum", iv20, enum, pick(iv20, 3), (4, 16), seed, rng, 0),
        _dense_pac_ops(
            "pac_dense_enum_order", iv20, LearnerSpec("enumeration", order),
            [order[p] for p in pick(iv20, 2)], (4, 16), seed, rng, 1,
        ),
        _dense_pac_ops("pac_dense_adv", iv14, adv, pick(iv14, 3), (6,), seed, rng, 2),
        _dense_pac_ops("pac_dense_adv", fc12, adv, pick(fc12, 3), (5,), seed, rng, 3),
        _structured_pac_ops(
            "pac_struct_enum", fc_big, enum, _fc_targets(rng, 1000), (20, 60), seed, 4
        ),
        _structured_pac_ops(
            "pac_struct_adv", fc_big, adv, _fc_targets(rng, 1000), (20,), seed, 5
        ),
    ]
    return Setup(interleave(groups))


# ugc


def _skewed(rng, m: int) -> DiscreteMeasure:
    w = 1.0 / (1.0 + rng.permutation(m))
    return DiscreteMeasure(tuple(float(x) for x in w / w.sum()))


def setup_ugc(seed: int, workdir: Path) -> Setup:
    rng = np.random.default_rng([seed, 3])
    classes = [
        gen_power_set(3),
        gen_intervals(40),
        gen_finite_cofinite(1000, 5, backend="structured"),
        gen_finite_cofinite(200, 3, backend="structured"),
    ]
    # off every grid j/n - k/q the masses and frequencies can take, so no
    # sup deviation ties epsilon and float rounding cannot decide a trial
    epsilon = 0.1037
    groups: list[list[Op]] = []
    for ci, cls in enumerate(classes):
        dense = not hasattr(cls, "t")
        m = cls.domain.size if dense else cls.m
        support = Concept.from_indices(
            m, [int(p) for p in rng.choice(m, max(2, m // 2), replace=False)]
        )
        measures = [uniform(m), uniform_on(support), _skewed(rng, m)]
        mat = functools.cache(lambda cls=cls, m=m: oracles.mask_matrix(_masks(cls), m))
        ops = []
        for mi, mu in enumerate(measures):
            for ni, n in enumerate((10, 80, 400)):
                ref_seed = int(rng.integers(2**31))

                def run(cls=cls, mu=mu, n=n, ni=ni, mi=10 * ci + mi):
                    return ugc_cell(cls, mu, n, epsilon, UGC_TRIALS, seed, ni, mi)

                def reference(
                    mu=mu, n=n, ni=ni, mi=mi, ref_seed=ref_seed, cls=cls, dense=dense, mat=mat
                ):
                    trials = 2000 if dense else 2 * UGC_TRIALS
                    if dense:
                        p = oracles.ugc_reference(
                            mat(), np.asarray(mu.weights), n, epsilon, trials,
                            np.random.default_rng(ref_seed),
                        )
                    else:
                        p = ugc_cell(cls, mu, n, epsilon, trials, ref_seed, ni, mi)
                    return p, (p * (1 - p) / trials) ** 0.5

                ref = functools.cache(reference)

                def check(p, ref=ref) -> bool:
                    ref_p, ref_se = ref()
                    se = (p * (1 - p) / UGC_TRIALS) ** 0.5
                    return _in_unit(p) and oracles.agrees(p, se, ref_p, ref_se)

                ops.append(Op(f"ugc_{'dense' if dense else 'struct'}", run, check))
        groups.append(ops)
    return Setup(interleave(groups))


# cli


def cli_env() -> dict[str, str]:
    """Subprocess environment: an absolute src path first on PYTHONPATH, so
    the package resolves from any working directory and never from an
    installed copy."""
    env = dict(os.environ)
    parts = [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


def run_cli(argv: list[str], workdir: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "thickvc", *argv],
        capture_output=True,
        text=True,
        cwd=workdir,
        env=cli_env(),
        timeout=120,
    )


def run_cli_inproc(argv: list[str]) -> tuple[int, str]:
    import contextlib
    import io

    import thickvc.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = thickvc.cli.main(argv)
    return code, out.getvalue()


def _records(stdout: str) -> list[dict] | None:
    try:
        return [json.loads(line) for line in stdout.splitlines() if line]
    except json.JSONDecodeError:
        return None


def setup_cli(seed: int, workdir: Path) -> Setup:
    rng = np.random.default_rng([seed, 4])
    big = gen_random(12, 80, 0.5, int(rng.integers(2**31)))
    small = gen_random(10, 40, 0.5, int(rng.integers(2**31)))
    neg = sorted(int(p) for p in rng.choice(12, size=3, replace=False))
    save_class(big, workdir / "big.class")
    save_class(small, workdir / "small.class")
    save_point_set(Concept.from_indices(12, neg), workdir / "neg.json")
    iv20_targets = [int(x) for x in rng.choice(211, 2, replace=False)]
    pac_cfg = {
        "class": {"generator": {"family": "intervals", "m": 20}},
        "measure": {"type": "uniform"},
        "learner": {"kind": "enumeration"},
        "targets": [{"index": t} for t in iv20_targets],
        "n_grid": [4, 16],
        "trials": PAC_TRIALS,
    }
    ugc_cfg = {
        "class": {"generator": {"family": "finite-cofinite", "m": 200, "t": 3}},
        "measures": [
            {"type": "uniform"},
            {"type": "uniform-on",
             "support": sorted(int(p) for p in rng.choice(200, 100, replace=False))},
        ],
        "n_grid": [10, 80],
        "epsilon": 0.1,
        "trials": UGC_TRIALS,
    }
    (workdir / "pac.json").write_text(json.dumps(pac_cfg))
    (workdir / "ugc.json").write_text(json.dumps(ugc_cfg))

    big_masks, small_masks = _masks(big), _masks(small)
    outside = [p for p in range(12) if p not in neg]
    ref_vc = functools.cache(lambda: oracles.brute_vc(big_masks, 12))
    ref_mod = functools.cache(
        lambda: oracles.brute_vc(oracles.restricted_masks(big_masks, outside), len(outside))
    )
    ref_removal = functools.cache(
        lambda: min(
            oracles.brute_vc(
                oracles.restricted_masks(small_masks, [q for q in range(10) if q != p]), 9
            )
            for p in range(10)
        )
    )
    w = str(workdir)
    cls_big, cls_small = f"{w}/big.class", f"{w}/small.class"
    negf = f"{w}/neg.json"
    seed_arg = str(seed)
    invocations = [
        ("vc", ["vc", "--class", cls_big, "--certificate"],
         lambda r: r["vc"] == ref_vc()),
        ("vc-thick", ["vc-thick", "--class", cls_big, "--min-size", "2", "--certificate"],
         lambda r: 0 <= r["vc_thick"] <= ref_vc()),
        ("vc-mod", ["vc-mod", "--class", cls_big, "--negligible", negf, "--certificate"],
         lambda r: r["vc_mod"] == ref_mod()),
        ("stone-check", ["stone-check", "--class", cls_big, "--negligible", negf],
         lambda r: r["ok"] and r["vc_mod"] == ref_mod()),
        ("vc-removal", ["vc-removal", "--class", cls_small, "--budget", "1"],
         lambda r: r["vc"] == ref_removal()),
        ("pac-sim", ["pac-sim", "--config", f"{w}/pac.json", "--seed", seed_arg,
                     "--jobs", str(CLI_JOBS)],
         lambda r: r["no_hypothesis_count"] == 0 and _in_unit(r["mean_error"])),
        ("ugc-sim", ["ugc-sim", "--config", f"{w}/ugc.json", "--seed", seed_arg,
                     "--jobs", str(CLI_JOBS)],
         lambda r: _in_unit(r["prob"])),
    ]
    expected_records = {"pac-sim": 4, "ugc-sim": 2}
    ops = []
    for sub, argv, check_record in invocations:
        def run(argv=argv):
            r = run_cli(argv, workdir)
            return r.returncode, r.stdout

        def check(ans, sub=sub, check_record=check_record) -> bool:
            code, stdout = ans
            recs = _records(stdout)
            return (
                code == 0
                and recs is not None
                and len(recs) == expected_records.get(sub, 1)
                and all(check_record(r) for r in recs)
            )

        ops.append(Op(sub, run, check, lambda argv=argv: run_cli_inproc(argv)))

    def jobs_identical() -> bool:
        # the criterion-9 property: stdout does not depend on --jobs
        for sub in ("pac-sim", "ugc-sim"):
            argv = next(a for s, a, _ in invocations if s == sub)
            outs = {run_cli(argv[:-1] + [str(j)], workdir).stdout for j in (1, CLI_JOBS)}
            if len(outs) != 1:
                return False
        return True

    def imports_src() -> bool:
        r = subprocess.run(
            [sys.executable, "-c", "import thickvc; print(thickvc.__file__)"],
            capture_output=True, text=True, cwd=workdir, env=cli_env(), timeout=120,
        )
        return Path(r.stdout.strip()).resolve().is_relative_to(SRC.resolve())

    return Setup(
        ops,
        guards=[("cli_jobs_identical", jobs_identical), ("cli_imports_src", imports_src)],
    )


SETUPS = {
    "exact": setup_exact,
    "pac": setup_pac,
    "ugc": setup_ugc,
    "cli": setup_cli,
}
