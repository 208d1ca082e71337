"""The benchmark scripts reach the library only through package attributes
(bf.<name> in perfbench/run.py, BF.<name> in perfbench/selftest.py).
Removing or renaming one of those names breaks the benchmark, and
selftest.py is too slow for tier-1, so the names are checked here.  A
name can stay while a keyword or signature the benchmark passes changes,
so run.py's battery and one mutant round also run here, on small inputs.
The battery keeps its own copy of the suite row, so it is also held to
braceforge.suite.row_verdicts here."""
import importlib
import importlib.util
import inspect
import random
import re
import sys
from pathlib import Path

import pytest

import braceforge
from braceforge import (enumerate_skew_braces, groups_of_order, linearize,
                        parse_field, row_verdicts)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def run_py():
    """perfbench/run.py as a module; registered before it executes, since
    its dataclass looks its own module up in sys.modules."""
    name = "perfbench_run"
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[name]


@pytest.mark.parametrize("script, alias", [("run.py", "bf"),
                                           ("selftest.py", "BF")])
def test_benchmark_names_exist_in_the_package(script, alias):
    text = (PERFBENCH / script).read_text()
    names = set(re.findall(rf"\b{alias}\.([A-Za-z_]\w*)", text))
    assert names, f"no {alias}.<name> found in {script}"
    assert sorted(n for n in names if not hasattr(braceforge, n)) == []


def test_layer_functions_are_traceable(run_py):
    """The tracer wraps only plain functions defined in their own module, so
    a layer function that turns into another callable (a cache object, a
    partial) would drop out of the per-layer counters without an error."""
    missing = []
    for name in run_py.LAYER_FUNCTIONS:
        short, attr = name.split(".")
        fn = getattr(importlib.import_module(f"braceforge.{short}"), attr, None)
        if fn is None:
            missing.append(name)
            continue
        assert inspect.isfunction(fn), name
        assert fn.__module__ == f"braceforge.{short}", name
    # removed from the library; the benchmark still lists them
    assert set(missing) == {"hopf.make_hopf", "skewbraces.group_tables"}


def test_benchmark_battery_runs_on_small_braces(run_py):
    for spec in ("Q", "Fp:5"):
        field = parse_field(spec)
        for order in range(1, 4):
            for g in groups_of_order(order):
                for s in enumerate_skew_braces(g):
                    b = linearize(s, field)
                    out = run_py.battery(braceforge, b)
                    assert tuple(name for name, _ in out) == run_py.BATTERY
                    assert all(ok for _, ok in out), (g.label, spec, out)
                    assert out == list(row_verdicts(b)), (g.label, spec)


def test_benchmark_mutant_round_runs(run_py):
    wl = run_py.Mutants()
    assert wl.setup(braceforge, random.Random(1), lambda: None) == []
    item = next(wl.inputs())
    out = wl.op(wl.prepare(item), lambda: None)
    assert wl.check(item, out)
