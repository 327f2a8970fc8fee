"""Command-line front end.

One executable, one subcommand per computation. Machine-readable results go
to standard output as JSON lines (sorted keys, compact separators, so
identical runs are byte-identical); human-oriented summaries go to standard
error. Exit codes: 0 success, 1 property-check failure, 2 bad flags or
malformed input files, 3 work limit exceeded, 4 no consistent hypothesis
where that is configured to be fatal.

All randomness flows from --seed through documented derivation paths keyed
by grid position, so --jobs changes scheduling but never changes output.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from . import __version__
from .classgen import (
    gen_cluster_decorated,
    gen_finite_cofinite,
    gen_intervals,
    gen_power_set,
    gen_random,
    gen_thresholds,
)
from .domain import Concept, ConceptClass, PrincipalIdeal
from .empirics import (
    assemble_ugc_point,
    packing_lower_bounds,
    packing_number,
    pattern_packing,
    ugc_cell,
)
from .errors import (
    FormatError,
    NoConsistentHypothesis,
    ThickVCError,
    WorkLimitExceeded,
)
from .fincofin import FCSet, FiniteCofiniteClass
from .formats import read_class, read_point_set, save_class
from .learning import (
    LearnerSpec,
    pac_error_estimate,
    sample_complexity_bound,
)
from .measures import DiscreteMeasure, mixture, uniform, uniform_on
from .shattering import (
    DEFAULT_WORK_LIMIT,
    vc_after_removal,
    vc_dimension,
    vc_mod_ideal,
    vc_thick,
)
from .stone import stone_check

TOOL = "thickvc"


def _emit(rec: dict) -> None:
    sys.stdout.write(json.dumps(rec, sort_keys=True, separators=(",", ":")))
    sys.stdout.write("\n")


def _say(msg: str) -> None:
    sys.stderr.write(msg + "\n")


def _base(record: str, **extra) -> dict:
    rec = {"record": record, "tool": TOOL, "version": __version__}
    rec.update(extra)
    return rec


# input plumbing


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON: {exc}") from exc


def _check_keys(doc, allowed: set[str], what: str) -> None:
    """Reject a config object that is not a dict or has unknown keys."""
    if not isinstance(doc, dict):
        raise FormatError(f"{what} must be an object")
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise FormatError(f"unknown {what} key(s): {', '.join(unknown)}")


PAC_KEYS = {"class", "learner", "measure", "targets", "n_grid", "trials",
            "epsilons", "no_hypothesis"}
UGC_KEYS = {"class", "measures", "n_grid", "epsilon", "trials"}


def _resolve(path: str, base_dir: str) -> str:
    return path if os.path.isabs(path) else os.path.join(base_dir, path)


def _class_from_spec(spec, base_dir: str):
    """Config "class" entry: {"path": file} or {"generator": {...}}."""
    if not isinstance(spec, dict):
        raise FormatError("class spec must be an object")
    if "path" in spec:
        return read_class(_resolve(spec["path"], base_dir))
    if "generator" not in spec:
        raise FormatError("class spec needs 'path' or 'generator'")
    g = dict(spec["generator"])
    family = g.pop("family", None)
    if family == "finite-cofinite":
        return gen_finite_cofinite(
            g.pop("m"), g.pop("t"), backend=g.pop("backend", "auto")
        )
    if family == "intervals":
        return gen_intervals(g.pop("m"))
    if family == "thresholds":
        return gen_thresholds(g.pop("m"))
    if family == "power-set":
        return gen_power_set(g.pop("r"))
    if family == "cluster-decorated":
        base = _class_from_spec(g.pop("base"), base_dir)
        if not isinstance(base, ConceptClass):
            raise FormatError("cluster-decorated base must materialize")
        return gen_cluster_decorated(
            base, g.pop("cluster_size"), g.pop("noise"), g.pop("seed")
        )
    if family == "random":
        return gen_random(
            g.pop("m"), g.pop("count"), g.pop("density"), g.pop("seed")
        )
    raise FormatError(f"unknown generator family {family!r}")


def _measure_from_spec(spec, m: int) -> DiscreteMeasure:
    if not isinstance(spec, dict) or "type" not in spec:
        raise FormatError("measure spec must be an object with a 'type'")
    t = spec["type"]
    if t == "uniform":
        return uniform(m)
    if t == "uniform-on":
        return uniform_on(Concept.from_indices(m, spec["support"]))
    if t == "explicit":
        w = spec["weights"]
        if len(w) != m:
            raise FormatError(f"explicit measure has {len(w)} weights, domain {m}")
        return DiscreteMeasure(tuple(float(x) for x in w))
    if t == "mixture":
        parts = [_measure_from_spec(s, m) for s in spec["components"]]
        return mixture(parts, [float(c) for c in spec["coefficients"]])
    raise FormatError(f"unknown measure type {t!r}")


def _target_from_spec(spec, cls):
    """Config target entry: {"index": i}, {"points": [...]}, or
    {"kind": finite|cofinite, "core": [...]}."""
    structured = isinstance(cls, FiniteCofiniteClass)
    m = cls.m if structured else cls.domain.size
    if not isinstance(spec, dict):
        raise FormatError("target spec must be an object")
    if "index" in spec:
        return int(spec["index"])
    if "points" in spec:
        pts = sorted(set(int(p) for p in spec["points"]))
        if not structured:
            return Concept.from_indices(m, pts)
        if len(pts) <= cls.t:
            return FCSet(m, "finite", frozenset(pts))
        if m - len(pts) <= cls.t:
            core = frozenset(range(m)) - frozenset(pts)
            return FCSet(m, "cofinite", core)
        raise FormatError(
            "point-list target fits neither side of the structured class"
        )
    if "kind" in spec:
        fc = FCSet(m, spec["kind"], frozenset(int(x) for x in spec["core"]))
        if structured:
            return fc
        return fc.to_concept()
    raise FormatError("target spec needs 'index', 'points', or 'kind'")


def _witness_clusters(fam) -> list[list[int]]:
    return [sorted(c.indices()) for c in fam.clusters]


# plain computations


def cmd_vc(args) -> int:
    cls = read_class(args.class_file)
    vc, cert = vc_dimension(
        cls, want_certificate=True, work_limit=args.work_limit
    )
    rec = _base(
        "vc",
        vc=vc,
        m=cls.domain.size,
        concepts=len(cls.concepts),
        work_limit=args.work_limit,
    )
    if args.certificate and cert is not None:
        rec["witness"] = sorted(cert.witness.indices())
        rec["carvers"] = {str(k): v for k, v in sorted(cert.carvers.items())}
    _emit(rec)
    _say(f"vc = {vc} on {cls.domain.size} points, {len(cls.concepts)} concepts")
    return 0


def cmd_vc_thick(args) -> int:
    cls = read_class(args.class_file)
    vc, cert = vc_thick(
        cls,
        args.min_size,
        want_certificate=True,
        work_limit=args.work_limit,
    )
    rec = _base(
        "vc-thick",
        vc_thick=vc,
        min_size=args.min_size,
        m=cls.domain.size,
        concepts=len(cls.concepts),
        work_limit=args.work_limit,
    )
    if args.certificate and cert is not None:
        rec["clusters"] = _witness_clusters(cert.witness)
        rec["carvers"] = {str(k): v for k, v in sorted(cert.carvers.items())}
    _emit(rec)
    _say(f"vc_thick(min_size={args.min_size}) = {vc}")
    return 0


def cmd_vc_mod(args) -> int:
    cls = read_class(args.class_file)
    neg = read_point_set(args.negligible)
    ideal = PrincipalIdeal(neg)
    vc, cert = vc_mod_ideal(
        cls, ideal, want_certificate=True, work_limit=args.work_limit
    )
    rec = _base(
        "vc-mod",
        vc_mod=vc,
        m=cls.domain.size,
        concepts=len(cls.concepts),
        negligible_size=neg.size,
        work_limit=args.work_limit,
    )
    if args.certificate and cert is not None:
        rec["clusters"] = _witness_clusters(cert.witness)
        rec["carvers"] = {str(k): v for k, v in sorted(cert.carvers.items())}
    _emit(rec)
    _say(f"vc_mod = {vc} (negligible set of {neg.size} points)")
    return 0


def cmd_vc_removal(args) -> int:
    cls = read_class(args.class_file)
    res = vc_after_removal(
        cls, args.budget, mode=args.mode, work_limit=args.work_limit
    )
    rec = _base(
        "vc-removal",
        vc=res.vc,
        removed=sorted(res.removed.indices()),
        budget=args.budget,
        mode=res.mode,
        heuristic=res.heuristic,
        work_limit=args.work_limit,
    )
    _emit(rec)
    _say(f"vc after removing {args.budget} points ({res.mode}) = {res.vc}")
    return 0


def cmd_stone_check(args) -> int:
    cls = read_class(args.class_file)
    neg = read_point_set(args.negligible)
    chk = stone_check(cls, PrincipalIdeal(neg), work_limit=args.work_limit)
    ok = chk.equal and chk.lift_valid
    rec = _base(
        "stone-check",
        vc_mod=chk.vc_mod,
        vc_stone=chk.vc_stone,
        equal=chk.equal,
        lift_valid=chk.lift_valid,
        ok=ok,
        work_limit=args.work_limit,
    )
    _emit(rec)
    _say(
        f"vc_mod = {chk.vc_mod}, vc_stone = {chk.vc_stone}: "
        + ("agree" if ok else "MISMATCH")
    )
    return 0 if ok else 1


def cmd_bound(args) -> int:
    n = sample_complexity_bound(args.epsilon, args.delta, args.d)
    _emit(
        _base("bound", n=n, epsilon=args.epsilon, delta=args.delta, d=args.d)
    )
    _say(f"n({args.epsilon}, {args.delta}, d={args.d}) = {n}")
    return 0


def cmd_packing(args) -> int:
    pattern_mode = args.d is not None or args.epsilon is not None
    class_mode = args.class_file is not None or args.separation is not None
    if pattern_mode == class_mode:
        raise FormatError(
            "use either --d with --epsilon, or --class with --separation"
        )
    if pattern_mode:
        if args.d is None or args.epsilon is None:
            raise FormatError("pattern mode needs both --d and --epsilon")
        pk = pattern_packing(args.d, args.epsilon)
        lb = packing_lower_bounds(args.d, args.epsilon)
        rec = _base(
            "packing",
            mode="pattern",
            d=args.d,
            epsilon=str(pk.epsilon),
            separation=str(pk.separation),
            count=pk.count,
            maximal=pk.maximal,
            combinatorial=str(lb.combinatorial),
            combinatorial_float=float(lb.combinatorial),
            chernoff_okamoto=lb.chernoff_okamoto,
        )
        if args.witness:
            rec["selected"] = list(pk.selected)
        _emit(rec)
        _say(
            f"packing(d={args.d}, eps={pk.epsilon}) = {pk.count} "
            f">= {float(lb.combinatorial):.4g} >= {lb.chernoff_okamoto:.4g}"
        )
        return 0
    if args.class_file is None or args.separation is None:
        raise FormatError("class mode needs both --class and --separation")
    cls = read_class(args.class_file)
    m = cls.domain.size
    if args.measure is not None:
        mu = _measure_from_spec(_load_json(args.measure), m)
    else:
        mu = uniform(m)
    res = packing_number(
        cls,
        mu,
        args.separation,
        mode=args.mode,
        work_limit=args.work_limit,
    )
    rec = _base(
        "packing",
        mode=args.mode,
        count=res.count,
        exact=res.exact,
        separation=res.separation,
        concepts=len(cls.concepts),
        work_limit=args.work_limit,
    )
    if args.witness:
        rec["witness"] = list(res.witness)
    _emit(rec)
    _say(f"packing at separation {args.separation} = {res.count}")
    return 0


# simulation subcommands: grid cells are computed by module-level workers so
# a process pool can run them; records are assembled in grid order on the
# main process regardless of scheduling.


def _pac_cell(task):
    cls, learner, target, mu, n, trials, seed, eps, nohyp, ti, ni = task
    return pac_error_estimate(
        cls,
        learner,
        target,
        mu,
        n,
        trials,
        seed,
        epsilons=eps,
        no_hypothesis=nohyp,
        seed_path=(ti, ni),
    )


def _ugc_cell(task):
    cls, mu, n, epsilon, trials, seed, ni, mi = task
    return ugc_cell(cls, mu, n, epsilon, trials, seed, ni, mi)


def _run_cells(worker, tasks, jobs):
    if jobs <= 1:
        return [worker(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as ex:
        return list(ex.map(worker, tasks))


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def cmd_pac_sim(args) -> int:
    cfg = _load_json(args.config)
    _check_keys(cfg, PAC_KEYS, "pac-sim config")
    lcfg = cfg.get("learner", {"kind": "enumeration"})
    _check_keys(lcfg, {"kind", "order"}, "learner")
    base_dir = os.path.dirname(os.path.abspath(args.config))
    cls = _class_from_spec(cfg["class"], base_dir)
    structured = isinstance(cls, FiniteCofiniteClass)
    m = cls.m if structured else cls.domain.size
    order = lcfg.get("order")
    learner = LearnerSpec(
        kind=lcfg.get("kind", "enumeration"),
        order=None if order is None else tuple(order),
    )
    mu = _measure_from_spec(cfg["measure"], m)
    targets = [
        (_target_from_spec(s, cls), s) for s in cfg["targets"]
    ]
    n_grid = [int(n) for n in cfg["n_grid"]]
    trials = int(cfg["trials"])
    epsilons = tuple(float(e) for e in cfg.get("epsilons", ()))
    nohyp = cfg.get("no_hypothesis", "raise")
    tasks = []
    for ti, (target, _) in enumerate(targets):
        for ni, n in enumerate(n_grid):
            tasks.append(
                (cls, learner, target, mu, n, trials, args.seed,
                 epsilons, nohyp, ti, ni)
            )
    reports = _run_cells(_pac_cell, tasks, args.jobs)
    rows = []
    for (tidx, nidx), rep in zip(
        [(ti, ni) for ti in range(len(targets)) for ni in range(len(n_grid))],
        reports,
    ):
        spec_echo = targets[tidx][1]
        rec = _base(
            "pac",
            target=spec_echo,
            target_index=tidx,
            n=rep.n,
            n_index=nidx,
            trials=rep.trials,
            learner=learner.kind,
            mean_error=rep.mean_error,
            stderr_mean=rep.stderr_mean,
            quantiles=rep.quantiles,
            frac_exceeding={str(k): v for k, v in rep.frac_exceeding.items()},
            no_hypothesis_count=rep.no_hypothesis_count,
            n_atom_bound=rep.n_atom_bound,
            seed=args.seed,
        )
        _emit(rec)
        rows.append(
            [tidx, rep.n, rep.trials, rep.mean_error, rep.stderr_mean,
             rep.quantiles["q50"], rep.quantiles["q90"],
             rep.quantiles["q99"], rep.quantiles["max"],
             rep.no_hypothesis_count]
        )
    if args.csv:
        _write_csv(
            args.csv,
            ["target_index", "n", "trials", "mean_error", "stderr_mean",
             "q50", "q90", "q99", "max", "no_hypothesis_count"],
            rows,
        )
    _say(
        f"pac-sim: {len(targets)} target(s) x {len(n_grid)} n value(s), "
        f"{trials} trials each, learner={learner.kind}"
    )
    return 0


def cmd_ugc_sim(args) -> int:
    cfg = _load_json(args.config)
    _check_keys(cfg, UGC_KEYS, "ugc-sim config")
    base_dir = os.path.dirname(os.path.abspath(args.config))
    cls = _class_from_spec(cfg["class"], base_dir)
    structured = isinstance(cls, FiniteCofiniteClass)
    m = cls.m if structured else cls.domain.size
    mus = [_measure_from_spec(s, m) for s in cfg["measures"]]
    n_grid = [int(n) for n in cfg["n_grid"]]
    epsilon = float(cfg["epsilon"])
    trials = int(cfg["trials"])
    bound = max(mu.atom_bound for mu in mus)
    tasks = [
        (cls, mu, n, epsilon, trials, args.seed, ni, mi)
        for ni, n in enumerate(n_grid)
        for mi, mu in enumerate(mus)
    ]
    fracs = _run_cells(_ugc_cell, tasks, args.jobs)
    rows = []
    k = len(mus)
    for ni, n in enumerate(n_grid):
        per = fracs[ni * k : (ni + 1) * k]
        pt = assemble_ugc_point(n, epsilon, per, trials, n * bound)
        rec = _base(
            "ugc",
            n=pt.n,
            n_index=ni,
            epsilon=pt.epsilon,
            prob=pt.prob,
            stderr=pt.stderr,
            per_measure=list(pt.per_measure),
            worst_measure=pt.worst_measure,
            trials=pt.trials,
            n_atom_bound=pt.n_atom_bound,
            seed=args.seed,
        )
        _emit(rec)
        rows.append([pt.n, pt.epsilon, pt.prob, pt.stderr, pt.n_atom_bound])
    if args.csv:
        _write_csv(
            args.csv,
            ["n", "epsilon", "prob", "stderr", "n_atom_bound"],
            rows,
        )
    _say(
        f"ugc-sim: eps={epsilon}, {len(n_grid)} n value(s) x {k} measure(s), "
        f"{trials} trials each"
    )
    return 0


# generators


def cmd_gen(args) -> int:
    fam = args.family
    if fam == "finite-cofinite":
        cls = gen_finite_cofinite(args.m, args.t, backend="dense")
    elif fam == "intervals":
        cls = gen_intervals(args.m)
    elif fam == "thresholds":
        cls = gen_thresholds(args.m)
    elif fam == "power-set":
        cls = gen_power_set(args.r)
    elif fam == "cluster-decorated":
        base = read_class(args.base)
        cls = gen_cluster_decorated(
            base, args.cluster_size, args.noise, args.seed
        )
    elif fam == "random":
        cls = gen_random(args.m, args.count, args.density, args.seed)
    else:  # pragma: no cover - argparse restricts choices
        raise FormatError(f"unknown family {fam!r}")
    save_class(cls, args.out)
    rec = _base(
        "gen",
        family=fam,
        m=cls.domain.size,
        concepts=len(cls.concepts),
        out=args.out,
    )
    if getattr(args, "seed", None) is not None:
        rec["seed"] = args.seed
    _emit(rec)
    _say(f"wrote {len(cls.concepts)} concepts on {cls.domain.size} points")
    return 0


# parser


def _add_work_limit(p) -> None:
    p.add_argument(
        "--work-limit",
        type=int,
        default=DEFAULT_WORK_LIMIT,
        help="search node budget before giving up (exit 3)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=TOOL,
        description="finite thick-cluster VC dimension toolkit",
    )
    parser.add_argument(
        "--version", action="version", version=f"{TOOL} {__version__}"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("vc", help="classical VC dimension of a class file")
    p.add_argument("--class", dest="class_file", required=True)
    p.add_argument("--certificate", action="store_true")
    _add_work_limit(p)
    p.set_defaults(func=cmd_vc)

    p = sub.add_parser("vc-thick", help="thick-cluster VC dimension")
    p.add_argument("--class", dest="class_file", required=True)
    p.add_argument("--min-size", type=int, required=True)
    p.add_argument("--certificate", action="store_true")
    _add_work_limit(p)
    p.set_defaults(func=cmd_vc_thick)

    p = sub.add_parser("vc-mod", help="VC dimension modulo a negligible set")
    p.add_argument("--class", dest="class_file", required=True)
    p.add_argument("--negligible", required=True, help="point-set file")
    p.add_argument("--certificate", action="store_true")
    _add_work_limit(p)
    p.set_defaults(func=cmd_vc_mod)

    p = sub.add_parser("vc-removal", help="smallest VC after removing points")
    p.add_argument("--class", dest="class_file", required=True)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--mode", choices=("exact", "greedy"), default="exact")
    _add_work_limit(p)
    p.set_defaults(func=cmd_vc_removal)

    p = sub.add_parser(
        "stone-check",
        help="cross-validate the quotient route against the direct one",
    )
    p.add_argument("--class", dest="class_file", required=True)
    p.add_argument("--negligible", required=True)
    _add_work_limit(p)
    p.set_defaults(func=cmd_stone_check)

    p = sub.add_parser("pac-sim", help="PAC error Monte Carlo from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_pac_sim)

    p = sub.add_parser(
        "ugc-sim", help="uniform-deviation curve Monte Carlo from a config"
    )
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_ugc_sim)

    p = sub.add_parser(
        "packing",
        help="packing count: --d/--epsilon pattern mode, or --class mode",
    )
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--epsilon", default=None)
    p.add_argument("--class", dest="class_file", default=None)
    p.add_argument("--separation", type=float, default=None)
    p.add_argument("--measure", default=None, help="measure spec JSON file")
    p.add_argument("--mode", choices=("exact", "greedy"), default="exact")
    p.add_argument("--witness", action="store_true")
    _add_work_limit(p)
    p.set_defaults(func=cmd_packing)

    p = sub.add_parser("bound", help="sample-complexity bound n(eps, delta, d)")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("gen", help="write a generated class file")
    gsub = p.add_subparsers(dest="family", required=True)

    g = gsub.add_parser("finite-cofinite")
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--t", type=int, required=True)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen)

    g = gsub.add_parser("intervals")
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen)

    g = gsub.add_parser("thresholds")
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen)

    g = gsub.add_parser("power-set")
    g.add_argument("--r", type=int, required=True)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen)

    g = gsub.add_parser("cluster-decorated")
    g.add_argument("--base", required=True, help="class file to blow up")
    g.add_argument("--cluster-size", type=int, required=True)
    g.add_argument("--noise", type=int, required=True)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen)

    g = gsub.add_parser("random")
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--count", type=int, required=True)
    g.add_argument("--density", type=float, required=True)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except WorkLimitExceeded as exc:
        _say(f"work limit exceeded: {exc}")
        return 3
    except NoConsistentHypothesis as exc:
        _say(f"no consistent hypothesis: {exc}")
        return 4
    except (FormatError, OSError) as exc:
        _say(f"input error: {exc}")
        return 2
    except (ValueError, TypeError, KeyError) as exc:
        _say(f"bad arguments: {exc}")
        return 2
    except ThickVCError as exc:
        _say(f"error: {exc}")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
