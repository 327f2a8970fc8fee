"""Timing wrappers installed around the library's module-level names.

The wrappers live here, in the benchmark, and are patched in from outside:
the library itself carries no tracing. Every binding of a wrapped function
is patched, including the names other modules bound at import (for example
`stone.vc_dimension` and `learning.derive_rng`), so a call is timed however
it is reached. `FiniteCofiniteClass` methods are patched on the class.

Calls are aggregated in memory as counts and self time (span minus the
time covered by traced child spans). Full span records (name, start, end,
parent) are kept for the op span and its direct children only, which is
the query or grid-cell level; deeper per-trial calls are aggregated.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
from collections import defaultdict

# (module, function) pairs whose calls and self time the traced run reports
LAYER_FUNCTIONS = [
    ("shattering", "vc_dimension"),
    ("shattering", "_max_family"),
    ("shattering", "vc_thick"),
    ("shattering", "vc_mod_ideal"),
    ("shattering", "vc_after_removal"),
    ("shattering", "is_strongly_shattered"),
    ("shattering", "canonical_witness"),
    ("domain", "restrict"),
    ("stone", "generated_partition"),
    ("stone", "quotient_space"),
    ("stone", "induced_on_quotient"),
    ("stone", "vc_on_stone"),
    ("stone", "lift_witness"),
    ("stone", "stone_check"),
    ("rng", "derive_rng"),
    ("measures", "_draw_indices"),
    ("measures", "symdiff_distance"),
    ("learning", "pac_error_estimate"),
    ("learning", "label_sample"),
    ("learning", "enumeration_learner"),
    ("learning", "adversarial_consistent_learner"),
    ("fincofin", "least_consistent"),
    ("fincofin", "max_distance_consistent"),
    ("fincofin", "label_points"),
    ("fincofin", "fc_distance"),
    ("fincofin", "sup_deviation"),
    ("empirics", "empirical_sup_deviation"),
    ("empirics", "packing_number"),
    ("formats", "read_class"),
    ("formats", "read_point_set"),
    ("cli", "_run_cells"),
]

# methods of the structured backend, patched on the class itself
FC_METHODS = ("least_consistent", "max_distance_consistent", "label_points", "sup_deviation")

CLI_COMMANDS = ("vc", "vc-thick", "vc-mod", "stone-check", "vc-removal", "pac-sim", "ugc-sim")

CLASSGEN_FUNCTIONS = (
    "gen_finite_cofinite",
    "gen_intervals",
    "gen_thresholds",
    "gen_power_set",
    "gen_random",
)

# metrics derived from return values, with their units and direction
EXTRA_METRICS = [
    ("shattering.family_nodes", "count", "higher"),
    ("shattering.family_nodes_per_s", "1/s", "higher"),
    ("stone.atoms", "count", "lower"),
    ("stone.surviving_atoms", "count", "lower"),
    ("learning.no_hypothesis", "count", "lower"),
    ("cli.startup_ms", "ms", "lower"),
    ("cli.parse_ms", "ms", "lower"),
    ("cli.command_ms", "ms", "lower"),
    *[(f"cli.{c}.wall_ms", "ms", "lower") for c in CLI_COMMANDS],
    ("classgen.setup_ms", "ms", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """Every per-layer metric the traced run prints: (name, unit, better)."""
    out = []
    for mod, fn in LAYER_FUNCTIONS:
        out.append((f"{mod}.{fn}.calls", "count", "lower"))
        out.append((f"{mod}.{fn}.self_ms", "ms", "lower"))
    return out + EXTRA_METRICS


def _record_nodes(tracer: "Tracer", result) -> None:
    tracer.counts["shattering.family_nodes"] += result[2]


def _record_atoms(tracer: "Tracer", result) -> None:
    tracer.counts["stone.atoms"] += len(result.partition)
    tracer.counts["stone.surviving_atoms"] += len(result.surviving)


def _record_nohyp(tracer: "Tracer", result) -> None:
    tracer.counts["learning.no_hypothesis"] += result.no_hypothesis_count


ON_RESULT = {
    "shattering._max_family": _record_nodes,
    "stone.quotient_space": _record_atoms,
    "learning.pac_error_estimate": _record_nohyp,
}


class Tracer:
    """Span stack, per-name aggregates and the kept span records."""

    def __init__(self):
        self._agg: dict[str, list[int]] = {}
        self.counts: dict[str, float] = defaultdict(float)
        self.spans: list[dict] = []
        self._stack: list[list] = []  # [span id, child ns]
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object, object]] = []

    def _wrapper(self, name: str, fn):
        """A function that runs fn inside a span called name.

        Kept lean: per-trial calls pass through it thousands of times per
        op, and its cost is what trace.overhead_frac reports.
        """
        stack = self._stack
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter_ns
        agg = self._agg.setdefault(name, [0, 0])  # [calls, self ns]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            depth = len(stack)
            frame = [next(ids) if depth < 2 else 0, 0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if depth:
                    stack[-1][1] += dur
                agg[0] += 1
                agg[1] += dur - frame[1]
                if depth < 2:
                    spans.append(
                        {
                            "id": frame[0],
                            "name": name,
                            "start_ns": t0,
                            "end_ns": t1,
                            "parent": stack[-1][0] if depth else None,
                        }
                    )

        hook = ON_RESULT.get(name)
        if hook is None:
            return traced
        tracer = self

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            result = traced(*args, **kwargs)
            hook(tracer, result)
            return result

        return hooked

    def call(self, name: str, fn, args=()):
        """Run fn inside a span called name and return its result."""
        return self._wrapper(name, fn)(*args)

    def prepare(self) -> None:
        """Build the patch list over every loaded thickvc module and the
        benchmark's workloads module."""
        from thickvc.fincofin import FiniteCofiniteClass

        # the benchmark's own workloads module binds the op-level names too
        modules = [
            mod for key, mod in sorted(sys.modules.items())
            if key in ("thickvc", "workloads") or key.startswith("thickvc.")
        ]
        targets = [
            (f"{m}.{f}", sys.modules[f"thickvc.{m}"], f)
            for m, f in LAYER_FUNCTIONS
            if not (m == "fincofin" and f in FC_METHODS)
        ]
        targets += [(f"classgen.{f}", sys.modules["thickvc.classgen"], f) for f in CLASSGEN_FUNCTIONS]
        cli = sys.modules["thickvc.cli"]
        targets.append(("cli.main", cli, "main"))
        targets += [(f"cli.{f}", cli, f) for f in dir(cli) if f.startswith("cmd_")]
        for name, home, attr in targets:
            orig = getattr(home, attr)
            wrapped = self._wrapper(name, orig)
            for mod in modules:
                if mod.__dict__.get(attr) is orig:
                    self._patches.append((mod, attr, orig, wrapped))
        for attr in FC_METHODS:
            orig = FiniteCofiniteClass.__dict__[attr]
            wrapped = self._wrapper(f"fincofin.{attr}", orig)
            self._patches.append((FiniteCofiniteClass, attr, orig, wrapped))

    def install(self) -> None:
        for owner, attr, _orig, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, orig, _wrapped in self._patches:
            setattr(owner, attr, orig)

    @property
    def calls(self) -> dict[str, int]:
        return {name: a[0] for name, a in self._agg.items()}

    @property
    def self_ns(self) -> dict[str, int]:
        return {name: a[1] for name, a in self._agg.items()}

    def layer_metrics(self) -> dict[str, float]:
        """Aggregates as metric values: calls, self_ms and the named counts."""
        calls, self_ns = self.calls, self.self_ns
        out: dict[str, float] = {}
        for mod, fn in LAYER_FUNCTIONS:
            key = f"{mod}.{fn}"
            out[f"{key}.calls"] = calls.get(key, 0)
            out[f"{key}.self_ms"] = self_ns.get(key, 0) / 1e6
        family_s = self_ns.get("shattering._max_family", 0) / 1e9
        nodes = self.counts.get("shattering.family_nodes", 0)
        out["shattering.family_nodes"] = nodes
        out["shattering.family_nodes_per_s"] = nodes / family_s if family_s else 0.0
        for key in ("stone.atoms", "stone.surviving_atoms", "learning.no_hypothesis"):
            out[key] = self.counts.get(key, 0)
        out["cli.parse_ms"] = self_ns.get("cli.main", 0) / 1e6
        out["cli.command_ms"] = sum(
            ns for key, ns in self_ns.items() if key.startswith("cli.cmd_")
        ) / 1e6
        return out

    def classgen_ms(self) -> float:
        """Time spent so far inside the class generators."""
        return sum(
            ns for key, ns in self.self_ns.items() if key.startswith("classgen.")
        ) / 1e6
