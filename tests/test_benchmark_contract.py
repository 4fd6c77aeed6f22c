"""The benchmark's hold on the library, checked without running it.

``benchmarks/`` reaches into the library by name: ``tracing.py`` rebinds
layer functions, ``run.py`` imports modules, ``workloads.py`` calls the
library with fixed argument shapes. A library change that renames or
re-shapes one of those breaks the benchmark while the rest of the suite
stays green; these checks catch that in a fraction of a second.
"""

import ast
import importlib
import importlib.util
import inspect
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

from stablepoly.adjacency import adjacency_verdict
from stablepoly.instances import Edge
from stablepoly.lattice import enumerate_stable
from stablepoly.matchings import Matching
from stablepoly.polytope import build_system
from stablepoly.verification import verify_instance

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"


def load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(dotted):
    module_name, *path = dotted.split(".")
    owner = importlib.import_module(f"stablepoly.{module_name}")
    for part in path:
        owner = getattr(owner, part)
    return owner


def test_trace_targets_resolve():
    tracing = load_tracing()
    assert tracing.TARGETS
    for module_name, path, how, _ in tracing.TARGETS:
        target = resolve(f"{module_name}.{path}")
        assert callable(target), (module_name, path)
        assert inspect.isgeneratorfunction(target) == (how == tracing.GENERATOR), path


def test_benchmark_modules_import():
    tree = ast.parse((BENCH / "run.py").read_text(encoding="utf-8"))
    [modules] = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["MODULES"]
    ]
    for name in modules:
        importlib.import_module(f"stablepoly.{name}")


def test_workload_call_shapes_bind(opposed2):
    m1, m2 = enumerate_stable(opposed2)
    system = build_system(opposed2)
    weights = {e: Fraction(1) for e in system.columns}
    for target, args, kwargs in (
        (verify_instance, (opposed2,), {}),
        (enumerate_stable, (opposed2,), {"max_edges": 4}),
        (adjacency_verdict, (opposed2, m1, m2), {"max_edges": 4}),
        (build_system, (opposed2,), {}),
        (system.optimize, (weights,), {}),
    ):
        inspect.signature(target).bind(*args, **kwargs)


def test_every_direct_library_call_in_workloads_binds():
    # calls of the form lib.<module>.<name>(...), whatever the workloads hold
    tree = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    calls = []
    for node in ast.walk(tree):
        func = getattr(node, "func", None)
        if (
            isinstance(node, ast.Call)
            and isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Attribute)
            and isinstance(func.value.value, ast.Name)
            and func.value.value.id == "lib"
        ):
            calls.append((f"{func.value.attr}.{func.attr}", node))
    assert calls
    for dotted, node in calls:
        assert not any(isinstance(a, ast.Starred) for a in node.args), dotted
        keywords = {k.arg: None for k in node.keywords}
        inspect.signature(resolve(dotted)).bind(*[None] * len(node.args), **keywords)


def test_adjacency_lps_run_on_the_traced_layer(opposed4):
    # the adjacency verdict runs no LP: the traced run must read no
    # simplex.solve_lp call and one stable enumeration nested in it
    tracing = load_tracing()
    lib = SimpleNamespace(**{m: resolve(m) for m, *_ in tracing.TARGETS})
    m1 = Matching.from_edges([Edge(0, 0), Edge(1, 1), Edge(2, 3), Edge(3, 2)])
    m2 = Matching.from_edges([Edge(0, 1), Edge(1, 0), Edge(2, 2), Edge(3, 3)])

    def bound():
        return (
            lib.adjacency.adjacency_verdict,
            lib.adjacency.enumerate_stable,
            lib.lattice.enumerate_stable,
            lib.simplex.solve_lp,
        )

    originals = bound()
    tracer = tracing.Tracer()
    tracer.install(lib)
    try:
        verdict = lib.adjacency.adjacency_verdict(opposed4, m1, m2)
    finally:
        tracer.restore()
    assert bound() == originals
    assert not verdict.adjacent and len(verdict.maxima) == 2
    assert tracer.calls["simplex.solve_lp"] == 0
    assert tracer.calls["lattice.enumerate_stable"] == 1
    assert tracer.nested["adjacency.adjacency_verdict", "lattice.enumerate_stable"] == 1
