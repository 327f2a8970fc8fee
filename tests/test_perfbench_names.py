"""Every library name the benchmark's tracer patches still exists.

`perfbench/tracing.py` wraps module-level functions, FiniteCofiniteClass
methods and the class generators by name; a refactor that deletes or
renames one would otherwise only show when the benchmark runs traced.
"""

import importlib
import importlib.util
from pathlib import Path

from thickvc.fincofin import FiniteCofiniteClass

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
spec = importlib.util.spec_from_file_location("tracing", TRACING)
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)


def test_layer_functions_resolve():
    for mod, name in tracing.LAYER_FUNCTIONS:
        if mod == "fincofin" and name in tracing.FC_METHODS:
            continue  # patched on the class, checked below
        home = importlib.import_module(f"thickvc.{mod}")
        assert callable(getattr(home, name, None)), f"thickvc.{mod}.{name}"


def test_fincofin_methods_resolve():
    for name in tracing.FC_METHODS:
        assert callable(FiniteCofiniteClass.__dict__.get(name)), name


def test_classgen_functions_resolve():
    classgen = importlib.import_module("thickvc.classgen")
    for name in tracing.CLASSGEN_FUNCTIONS:
        assert callable(getattr(classgen, name, None)), name
