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

from . import __version__, classgen
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


def _typed(value, kind, where: str):
    """A config value checked against its kind: int (a JSON integer, never
    a bool or a float), float (ints too), str, dict, or [kind] for a list."""
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise FormatError(f"{where} must be a list")
        return [_typed(v, kind[0], f"{where}[{i}]") for i, v in enumerate(value)]
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise FormatError(f"{where} must be {kind.__name__}, got {value!r}")
    return float(value) if kind is float else value


def _fields(doc, what: str, fields: dict) -> list:
    """Strictly read a config object. `fields` maps every allowed key to its
    kind (see _typed), or to (kind, default) for an optional key; the values
    come back in `fields` order."""
    if not isinstance(doc, dict):
        raise FormatError(f"{what} must be an object")
    unknown = sorted(set(doc) - set(fields))
    if unknown:
        raise FormatError(f"unknown {what} key(s): {', '.join(unknown)}")
    out = []
    for key, kind in fields.items():
        if key in doc:
            out.append(_typed(doc[key], kind[0] if isinstance(kind, tuple) else kind,
                              f"{what} {key!r}"))
        elif isinstance(kind, tuple):
            out.append(kind[1])
        else:
            raise FormatError(f"{what} needs key {key!r}")
    return out


def _tag(doc, what: str, key: str, table: dict) -> str:
    """The entry of `table` that config object `doc` names under `key`."""
    name = doc.get(key) if isinstance(doc, dict) else None
    if not isinstance(name, str) or name not in table:
        raise FormatError(f"{what} needs {key!r}, one of: {', '.join(table)}")
    return name


# family -> (classgen function, typed parameters in call order); the `gen`
# flags are the parameters with "_" as "-". The function is looked up by
# name at call time, so a wrapper installed on classgen sees every call.
# `base` is a class file for `gen` and a nested class spec in configs.
GENERATORS = {
    "finite-cofinite": ("gen_finite_cofinite", {"m": int, "t": int}),
    "intervals": ("gen_intervals", {"m": int}),
    "thresholds": ("gen_thresholds", {"m": int}),
    "power-set": ("gen_power_set", {"r": int}),
    "cluster-decorated": (
        "gen_cluster_decorated",
        {"base": ConceptClass, "cluster_size": int, "noise": int, "seed": int},
    ),
    "random": (
        "gen_random", {"m": int, "count": int, "density": float, "seed": int}
    ),
}

MEASURES = {
    "uniform": {},
    "uniform-on": {"support": [int]},
    "explicit": {"weights": [float]},
    "mixture": {"components": [dict], "coefficients": [float]},
}


def _generate(family: str, values: list, **kw):
    return getattr(classgen, GENERATORS[family][0])(*values, **kw)


def _resolve(path: str, base_dir: str) -> str:
    return path if os.path.isabs(path) else os.path.join(base_dir, path)


def _class_from_spec(spec, base_dir: str):
    """Config "class" entry: {"path": file} or {"generator": {...}}."""
    path, gen = _fields(
        spec, "class spec", {"path": (str, None), "generator": (dict, None)}
    )
    if (path is None) == (gen is None):
        raise FormatError("class spec needs exactly one of 'path', 'generator'")
    if path is not None:
        return read_class(_resolve(path, base_dir))
    family = _tag(gen, "generator", "family", GENERATORS)
    params = GENERATORS[family][1]
    fields = {"family": str}
    fields.update({p: dict if k is ConceptClass else k for p, k in params.items()})
    if family == "finite-cofinite":  # configs may pick the backend
        fields["backend"] = (str, "auto")
    _, *values = _fields(gen, f"{family} generator", fields)
    kw = {"backend": values.pop()} if family == "finite-cofinite" else {}
    if family == "cluster-decorated":
        values[0] = _class_from_spec(values[0], base_dir)
        if not isinstance(values[0], ConceptClass):
            raise FormatError("cluster-decorated base must materialize")
    return _generate(family, values, **kw)


def _measure_from_spec(spec, m: int) -> DiscreteMeasure:
    t = _tag(spec, "measure", "type", MEASURES)
    _, *values = _fields(spec, f"{t} measure", {"type": str, **MEASURES[t]})
    if t == "uniform":
        return uniform(m)
    if t == "uniform-on":
        return uniform_on(Concept.from_indices(m, values[0]))
    if t == "explicit":
        (w,) = values
        if len(w) != m:
            raise FormatError(f"explicit measure has {len(w)} weights, domain {m}")
        return DiscreteMeasure(tuple(w))
    parts, coefficients = values
    return mixture([_measure_from_spec(s, m) for s in parts], coefficients)


def _target_from_spec(spec, cls):
    """Config target entry, exactly one of {"index": i}, {"points": [...]}
    and {"kind": finite|cofinite, "core": [...]}."""
    index, points, kind, core = _fields(spec, "target", {
        "index": (int, None), "points": ([int], None),
        "kind": (str, None), "core": ([int], None),
    })
    if (kind is None) != (core is None) or [index, points, kind].count(None) != 2:
        raise FormatError(
            "target needs exactly one of 'index', 'points', 'kind' with 'core'"
        )
    if index is not None:
        return index
    structured = isinstance(cls, FiniteCofiniteClass)
    m = cls.m
    if kind is not None:
        fc = FCSet(m, kind, frozenset(core))
        return fc if structured else fc.to_concept()
    pts = sorted(set(points))
    if not structured:
        return Concept.from_indices(m, pts)
    if len(pts) <= cls.t:
        return FCSet(m, "finite", frozenset(pts))
    if m - len(pts) <= cls.t:
        return FCSet(m, "cofinite", frozenset(range(m)) - frozenset(pts))
    raise FormatError(
        "point-list target fits neither side of the structured class"
    )


def _query(args, record, say, cert=None, cls=None, code=0, **fields) -> int:
    """Emit a query record, say its summary and return the exit code.

    Every record carries the work limit; with `cls`, the class's m and
    concept count; with --certificate, the witness (points, or clusters)
    and each pattern's carver index."""
    rec = _base(record, work_limit=args.work_limit, **fields)
    if cls is not None:
        rec.update(m=cls.m, concepts=len(cls.concepts))
    if cert is not None and args.certificate:
        if cert.kind == "points":
            rec["witness"] = sorted(cert.witness.indices())
        else:
            rec["clusters"] = [sorted(c.indices()) for c in cert.witness.clusters]
        rec["carvers"] = {str(k): v for k, v in sorted(cert.carvers.items())}
    _emit(rec)
    _say(say)
    return code


# plain computations


def cmd_vc(args) -> int:
    cls = read_class(args.class_file)
    vc, cert = vc_dimension(cls, want_certificate=True, work_limit=args.work_limit)
    say = f"vc = {vc} on {cls.m} points, {len(cls.concepts)} concepts"
    return _query(args, "vc", say, cert, cls, vc=vc)


def cmd_vc_thick(args) -> int:
    cls = read_class(args.class_file)
    vc, cert = vc_thick(
        cls, args.min_size, want_certificate=True, work_limit=args.work_limit
    )
    say = f"vc_thick(min_size={args.min_size}) = {vc}"
    return _query(args, "vc-thick", say, cert, cls, vc_thick=vc, min_size=args.min_size)


def cmd_vc_mod(args) -> int:
    cls = read_class(args.class_file)
    neg = read_point_set(args.negligible)
    vc, cert = vc_mod_ideal(
        cls, PrincipalIdeal(neg), want_certificate=True, work_limit=args.work_limit
    )
    say = f"vc_mod = {vc} (negligible set of {neg.size} points)"
    return _query(args, "vc-mod", say, cert, cls, vc_mod=vc, negligible_size=neg.size)


def cmd_vc_removal(args) -> int:
    res = vc_after_removal(
        read_class(args.class_file), args.budget, mode=args.mode,
        work_limit=args.work_limit,
    )
    return _query(
        args, "vc-removal",
        f"vc after removing {args.budget} points ({res.mode}) = {res.vc}",
        vc=res.vc, removed=sorted(res.removed.indices()), budget=args.budget,
        mode=res.mode, heuristic=res.heuristic,
    )


def cmd_stone_check(args) -> int:
    cls = read_class(args.class_file)
    neg = read_point_set(args.negligible)
    chk = stone_check(cls, PrincipalIdeal(neg), work_limit=args.work_limit)
    ok = chk.equal and chk.lift_valid
    return _query(
        args, "stone-check",
        f"vc_mod = {chk.vc_mod}, vc_stone = {chk.vc_stone}: "
        + ("agree" if ok else "MISMATCH"),
        code=0 if ok else 1, vc_mod=chk.vc_mod, vc_stone=chk.vc_stone,
        equal=chk.equal, lift_valid=chk.lift_valid, ok=ok,
    )


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
    if args.measure is None:
        mu = uniform(cls.m)
    else:
        mu = _measure_from_spec(_load_json(args.measure), cls.m)
    res = packing_number(
        cls, mu, args.separation, mode=args.mode, work_limit=args.work_limit
    )
    witness = {"witness": list(res.witness)} if args.witness else {}
    return _query(
        args, "packing", f"packing at separation {args.separation} = {res.count}",
        mode=args.mode, count=res.count, exact=res.exact,
        separation=res.separation, concepts=len(cls.concepts), **witness,
    )


# simulation subcommands: grid cells are computed by module-level workers so
# a process pool can run them; records are assembled in grid order on the
# main process regardless of scheduling.


def _pac_cell(cls, learner, target, mu, n, trials, seed, eps, nohyp, ti, ni):
    return pac_error_estimate(
        cls, learner, target, mu, n, trials, seed,
        epsilons=eps, no_hypothesis=nohyp, seed_path=(ti, ni),
    )


def _run_cells(worker, tasks, jobs):
    if jobs <= 1:
        return [worker(*t) for t in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as ex:
        return list(ex.map(worker, *zip(*tasks)))


def _sim_config(args, what: str, fields: dict) -> list:
    """A sim config read strictly: the class built from its "class" spec
    (a path in it is relative to the config), then the values of `fields`
    in order."""
    cspec, *values = _fields(_load_json(args.config), what, {"class": dict, **fields})
    base_dir = os.path.dirname(os.path.abspath(args.config))
    return [_class_from_spec(cspec, base_dir), *values]


def _emit_grid(args, record: str, recs: list, columns: list, say: str) -> int:
    """Emit each grid record in grid order as `_base(record, **rec)`, write
    the --csv file, whose cells are the record fields of the column names
    (q50, q90, q99 and max read from quantiles), and say the summary."""
    for rec in recs:
        _emit(_base(record, **rec))
    if args.csv:
        with open(args.csv, "w", encoding="ascii", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(columns)
            for rec in recs:
                cells = {**rec, **rec.get("quantiles", {})}
                w.writerow([cells[c] for c in columns])
    _say(say)
    return 0


def cmd_pac_sim(args) -> int:
    cls, lspec, mspec, tspecs, n_grid, trials, epsilons, nohyp = _sim_config(
        args, "pac-sim config", {
            "learner": (dict, {}), "measure": dict,
            "targets": [dict], "n_grid": [int], "trials": int,
            "epsilons": ([float], []), "no_hypothesis": (str, "raise"),
        },
    )
    kind, order = _fields(
        lspec, "learner", {"kind": (str, "enumeration"), "order": ([int], None)}
    )
    learner = LearnerSpec(kind, None if order is None else tuple(order))
    mu = _measure_from_spec(mspec, cls.m)
    targets = [_target_from_spec(s, cls) for s in tspecs]
    tasks = [
        (cls, learner, target, mu, n, trials, args.seed, tuple(epsilons),
         nohyp, ti, ni)
        for ti, target in enumerate(targets)
        for ni, n in enumerate(n_grid)
    ]
    recs = []
    for rep, (*_, ti, ni) in zip(_run_cells(_pac_cell, tasks, args.jobs), tasks):
        rec = {k: v for k, v in vars(rep).items() if k != "errors"}
        rec["learner"] = rec.pop("learner_kind")
        rec["frac_exceeding"] = {str(k): v for k, v in rep.frac_exceeding.items()}
        recs.append(dict(rec, target=tspecs[ti], target_index=ti, n_index=ni))
    return _emit_grid(
        args, "pac", recs,
        ["target_index", "n", "trials", "mean_error", "stderr_mean",
         "q50", "q90", "q99", "max", "no_hypothesis_count"],
        f"pac-sim: {len(targets)} target(s) x {len(n_grid)} n value(s), "
        f"{trials} trials each, learner={learner.kind}",
    )


def cmd_ugc_sim(args) -> int:
    cls, mspecs, n_grid, epsilon, trials = _sim_config(
        args, "ugc-sim config", {
            "measures": [dict], "n_grid": [int], "epsilon": float, "trials": int,
        },
    )
    if not mspecs:
        raise FormatError("ugc-sim config 'measures' must be a nonempty list")
    mus = [_measure_from_spec(s, cls.m) for s in mspecs]
    bound = max(mu.atom_bound for mu in mus)
    tasks = [
        (cls, mu, n, epsilon, trials, args.seed, ni, mi)
        for ni, n in enumerate(n_grid)
        for mi, mu in enumerate(mus)
    ]
    fracs = _run_cells(ugc_cell, tasks, args.jobs)
    k = len(mus)
    points = [
        assemble_ugc_point(n, epsilon, fracs[ni * k : (ni + 1) * k], trials, n * bound)
        for ni, n in enumerate(n_grid)
    ]
    recs = [dict(vars(pt), n_index=ni, seed=args.seed) for ni, pt in enumerate(points)]
    return _emit_grid(
        args, "ugc", recs, ["n", "epsilon", "prob", "stderr", "n_atom_bound"],
        f"ugc-sim: eps={epsilon}, {len(n_grid)} n value(s) x {k} measure(s), "
        f"{trials} trials each",
    )


# generators


def cmd_gen(args) -> int:
    fam = args.family
    values = [
        read_class(getattr(args, p)) if kind is ConceptClass else getattr(args, p)
        for p, kind in GENERATORS[fam][1].items()
    ]
    kw = {"backend": "dense"} if fam == "finite-cofinite" else {}
    cls = _generate(fam, values, **kw)
    save_class(cls, args.out)
    rec = _base(
        "gen",
        family=fam,
        m=cls.m,
        concepts=len(cls.concepts),
        out=args.out,
    )
    if getattr(args, "seed", None) is not None:
        rec["seed"] = args.seed
    _emit(rec)
    _say(f"wrote {len(cls.concepts)} concepts on {cls.m} points")
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

    def query(name, func, about, *flags):
        """A query subparser: --class, then `flags` ((flag, kwargs) pairs),
        then --work-limit."""
        p = sub.add_parser(name, help=about)
        p.add_argument("--class", dest="class_file", required=True)
        for flag, kw in flags:
            p.add_argument(flag, **kw)
        _add_work_limit(p)
        p.set_defaults(func=func)

    cert = ("--certificate", {"action": "store_true"})
    neg = ("--negligible", {"required": True, "help": "point-set file"})
    query("vc", cmd_vc, "classical VC dimension of a class file", cert)
    query(
        "vc-thick", cmd_vc_thick, "thick-cluster VC dimension",
        ("--min-size", {"type": int, "required": True}), cert,
    )
    query("vc-mod", cmd_vc_mod, "VC dimension modulo a negligible set", neg, cert)
    query(
        "vc-removal", cmd_vc_removal, "smallest VC after removing points",
        ("--budget", {"type": int, "required": True}),
        ("--mode", {"choices": ("exact", "greedy"), "default": "exact"}),
    )
    query(
        "stone-check", cmd_stone_check,
        "cross-validate the quotient route against the direct one", neg,
    )

    for name, func, about in (
        ("pac-sim", cmd_pac_sim, "PAC error Monte Carlo from a config"),
        ("ugc-sim", cmd_ugc_sim, "uniform-deviation curve Monte Carlo from a config"),
    ):
        p = sub.add_parser(name, help=about)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--jobs", type=int, default=1)
        p.add_argument("--csv", default=None)
        p.set_defaults(func=func)

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

    for fam, (_, params) in GENERATORS.items():
        g = gsub.add_parser(fam)
        for p, kind in params.items():
            if kind is ConceptClass:
                g.add_argument(f"--{p}", required=True, help="class file to blow up")
            else:
                g.add_argument("--" + p.replace("_", "-"), type=kind, required=True)
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
